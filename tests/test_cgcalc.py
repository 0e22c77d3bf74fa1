"""Obstruction calculus tests: carriers, satellite rules, norm test, drivers.

Expected signature values were cross-checked against floating-point
eigenvalue computations and (for the torus companions) against the
independent representation-arc count; exponent multisets and discriminant
parities were derived by hand mod 7 before being frozen here.
"""

import json
import random
from collections import Counter
from fractions import Fraction as F
from math import isqrt
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from knotconcord import cassongordon, cover, linalg, metabolizers
from knotconcord.cassongordon import (DiscExpr, HypothesisRecord, SigGrowth,
                                      NORM, NOT_NORM, UNKNOWN,
                                      admissible_pair, check_poly_hypotheses,
                                      mutant_family_spec,
                                      mutant_sum_obstruction, norm_test,
                                      order2_obstruction,
                                      residual_token, satellite_base_matrix,
                                      satellite_delta, satellite_sigma,
                                      twisted_double_obstruction,
                                      _canonical_char_token, _case_expression,
                                      _dual_eigenpair, _lift_values,
                                      _squarefree_part, _weight)
from knotconcord.cover import (branched_cover, deck_eigenspaces, direct_sum,
                               linking_form)
from knotconcord.errors import (BudgetExceeded, HypothesisUnverified,
                                InternalInvariantViolation,
                                PreconditionError, SingularAtT,
                                UnsupportedShape)
from knotconcord.metabolizers import span_vectors, subspace_count, subspaces
from knotconcord.seifert import SeifertMatrix, alexander, build, torus_matrix

# quadratic companions used throughout: Alexander polynomials 3t^2-7t+3
# (discriminant 13) and 5t^2-11t+5 (discriminant 21), coprime over Q
COMP_A = [[-1, 1], [0, 3]]
COMP_B = [[-1, 1], [0, 5]]
KEY_A = (3, -7, 3)
KEY_B = (5, -11, 5)


def shift_multiset(e, key):
    """Sorted multiset of the shifts that a DiscExpr carries on one
    polynomial, with multiplicity."""
    return tuple(sorted(shift for (k, shift), mult in e.factors.items()
                        if k == key for _ in range(mult)))


# ---------------------------------------------------------------------------
# carriers


def test_sig_growth_zero_and_json():
    assert SigGrowth(F(2, 4)) == SigGrowth(F(1, 2)) != SigGrowth(1)
    assert SigGrowth(0).is_zero()
    assert not SigGrowth(F(-1, 3)).is_zero()
    assert SigGrowth(4).to_json() == {"coefficient": 4}
    assert SigGrowth(F(1, 2)).to_json() == {"coefficient": "1/2"}


def test_disc_expr_multiplication():
    e = DiscExpr(7)
    assert e.factors == {} and e.tokens == {}
    x = e.times({(KEY_A, 3): 1}).times({(KEY_A, 10): 1})  # shift 10 wraps to 3
    assert x.factors == {(KEY_A, 3): 2}
    y = DiscExpr(7).times({(KEY_B, 0): 1}).times(tokens={TOKEN: 1})
    assert y.factors == {(KEY_B, 0): 1}
    # products copy their operand and drop a multiplicity that reaches zero
    assert x.times({(KEY_A, 3): -2}) == DiscExpr(7)
    assert y.times(tokens={TOKEN: -1}) == DiscExpr(7).times({(KEY_B, 0): 1})
    assert x.factors == {(KEY_A, 3): 2} and y.tokens == {TOKEN: 1}
    assert e == DiscExpr(7) != DiscExpr(5)


TOKEN = ("delta", "K", (1, 0))


@pytest.mark.parametrize("make", [
    lambda: DiscExpr(7).times({(("2", -5, 2.0), "1"): 1.0}),
    lambda: DiscExpr(7).times({(("2", -5, 2), 1): 1}),
    lambda: DiscExpr(7).times({((2.0, -5, 2), 1): 1}),
    lambda: DiscExpr(7).times({((True, -3, True), 1): 1}),
    lambda: DiscExpr(7).times({(KEY_A, "1"): 1}),
    lambda: DiscExpr(7).times({(KEY_A, 1.0): 1}),
    lambda: DiscExpr(7).times({(KEY_A, True): 1}),
    lambda: DiscExpr(7).times({(KEY_A, 1): 2.0}),
    lambda: DiscExpr(7).times({(KEY_A, 1): True}),
    lambda: DiscExpr(7).times(tokens={TOKEN: 2.0}),
    lambda: DiscExpr(7).times(tokens={TOKEN: True}),
    lambda: DiscExpr(7.0),
    lambda: DiscExpr("7"),
    lambda: DiscExpr(7, factors={((3, -7.0, 3), 1): 1}),
    lambda: DiscExpr(7, factors={(KEY_A, "1"): 1}),
    lambda: DiscExpr(7, factors={(KEY_A, 1): 1.0}),
    lambda: DiscExpr(7, tokens={TOKEN: "1"}),
], ids=["mixed-types", "str-coefficient", "float-coefficient",
        "bool-coefficients", "str-shift", "float-shift", "bool-shift",
        "float-mult", "bool-mult", "float-token-mult", "bool-token-mult",
        "float-p", "str-p", "init-float-coefficient", "init-str-shift",
        "init-float-mult", "init-str-token-mult"])
def test_disc_expr_refuses_non_integers(make):
    with pytest.raises(PreconditionError):
        make()


def test_disc_expr_shift_multiset_and_json():
    e = (DiscExpr(7).times({(KEY_A, 1): 1}).times({(KEY_A, 6): 1})
         .times({(KEY_A, 6): 1}).times({(KEY_B, 2): 1}))
    assert shift_multiset(e, KEY_A) == (1, 6, 6)
    assert shift_multiset(e, KEY_B) == (2,)
    assert shift_multiset(e, (1, -3, 1)) == ()
    js = e.to_json()
    assert js["p"] == 7
    assert js["factors"] == [
        {"poly": [3, -7, 3], "shift": 1, "multiplicity": 1},
        {"poly": [3, -7, 3], "shift": 6, "multiplicity": 2},
        {"poly": [5, -11, 5], "shift": 2, "multiplicity": 1}]


def test_disc_expr_constructor_adds_classes_equal_mod_p():
    # shifts 1 and 8 are one class mod 7, whichever way the product is built
    e = DiscExpr(7, factors={(KEY_A, 1): 1, (KEY_A, 8): 1})
    assert e.factors == {(KEY_A, 1): 2}
    assert e == DiscExpr(7).times({(KEY_A, 1): 1}).times({(KEY_A, 8): 1})
    assert norm_test(e) == NORM
    assert DiscExpr(7, factors={(KEY_A, 1): 1, (KEY_A, -6): -1}) == DiscExpr(7)


@pytest.mark.parametrize("make", [
    lambda: SigGrowth(0.5),
    lambda: SigGrowth("3/4"),
    lambda: SigGrowth(True),
    lambda: satellite_sigma(SigGrowth(0), torus_matrix(2, 7), 1.9, 5),
    lambda: satellite_sigma(SigGrowth(0), torus_matrix(2, 7), 1, 5.7),
    lambda: satellite_sigma(SigGrowth(0), torus_matrix(2, 7), True, 5),
    lambda: satellite_delta(DiscExpr(7), COMP_A, [1.5]),
    lambda: satellite_delta(DiscExpr(7), COMP_A, ["2"]),
    lambda: satellite_delta(DiscExpr(7), COMP_A, [True]),
    lambda: satellite_delta(DiscExpr(7), COMP_A, [1], p=7.9),
], ids=["growth-float", "growth-str", "growth-bool", "sigma-float-value",
        "sigma-float-order", "sigma-bool-value", "delta-float-lift",
        "delta-str-lift", "delta-bool-lift", "delta-float-modulus"])
def test_growth_and_satellite_rules_refuse_non_integers(make):
    with pytest.raises(PreconditionError):
        make()


def disc_keys():
    return st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3))


def split_dict(d, cuts):
    """d cut into consecutive parts at the positions cuts (mod len + 1);
    at least one part, possibly empty."""
    items = list(d.items())
    ends = sorted({0, len(items)} | {c % (len(items) + 1) for c in cuts})
    return [dict(items[a:b]) for a, b in zip(ends, ends[1:])] or [{}]


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.integers(2, 11),
       st.dictionaries(st.tuples(disc_keys(), st.integers(-20, 20)),
                       st.integers(-3, 3), max_size=10),
       st.dictionaries(st.sampled_from([TOKEN, ("delta", "K", (2, 1)), "T"]),
                       st.integers(-3, 3)),
       st.lists(st.integers(0, 10), max_size=4),
       st.lists(st.integers(0, 3), max_size=2))
def test_disc_expr_merge_matches_counter_oracle(p, factors, tokens,
                                                 factor_cuts, token_cuts):
    oracle = Counter()
    for (key, shift), mult in factors.items():
        oracle[(tuple(key), shift % p)] += mult
    whole = DiscExpr(p, factors=factors, tokens=tokens)
    assert whole.factors == {k: m for k, m in oracle.items() if m}
    assert whole.tokens == {t: m for t, m in tokens.items() if m}
    # the same classes split over a constructor and successive products
    f_parts = split_dict(factors, factor_cuts)
    t_parts = split_dict(tokens, token_cuts)
    split = DiscExpr(p, factors=f_parts[0], tokens=t_parts[0])
    for part in f_parts[1:]:
        split = split.times(factors=part)
    for part in t_parts[1:]:
        split = split.times(tokens=part)
    assert split == whole


# ---------------------------------------------------------------------------
# exponent multisets: the shifts a summand at eigencoordinates (a, b) meets,
# the lifts of its plain band and their negatives on the mutated band


def _exponents(a, b):
    return tuple(sorted(_lift_values(a, b, 1) + _lift_values(a, b, -1)))


def _mixed(c, eps):
    # the paired even-case character at coupling unit c with sign eps
    return _exponents(c, -eps * pow(c, -1, 7))


def test_orbit_exponents():
    for a in range(1, 7):
        assert _exponents(a, 0) == (1, 2, 3, 4, 5, 6)
    assert _exponents(0, 0) == (0, 0, 0, 0, 0, 0)
    assert _exponents(9, 0) == (1, 2, 3, 4, 5, 6)


def test_mixed_exponents_plus_one_is_constant():
    for c in range(1, 7):
        assert _mixed(c, 1) == (0, 0, 2, 2, 5, 5)


def test_mixed_exponents_minus_one():
    for c in range(1, 7):
        assert _mixed(c, -1) == (1, 1, 2, 5, 6, 6)


def test_mixed_exponents_rejects_bad_arguments():
    # the driver takes the signs +1 and -1 only, and its lift values are
    # residues mod 7 alone
    with pytest.raises(PreconditionError):
        mutant_sum_obstruction([COMP_A, COMP_B], signs=[1, 2])
    with pytest.raises(PreconditionError):
        satellite_delta(DiscExpr(7), COMP_A, _lift_values(3, 2, 1), p=5)


# ---------------------------------------------------------------------------
# hypothesis checks


def test_hypotheses_pass_for_companion_quadratics():
    for key, disc in ((KEY_A, 13), (KEY_B, 21), ((1, -3, 1), 5)):
        r = check_poly_hypotheses(key)
        assert r.passes
        assert r.discriminant == disc
        assert r.family == "negative_clasp_double"
        assert not r.corrected
        assert r.failures() == []


def test_hypotheses_repair_sign_slip():
    # family printed with constant term -m instead of +m
    r = check_poly_hypotheses([-3, -7, 3])
    assert r.corrected
    assert r.coefficients == (3, -7, 3)
    assert r.passes


def test_hypotheses_reject_square_discriminant():
    # repaired form 2t^2-5t+2 has discriminant 9 and factors over Q
    r = check_poly_hypotheses([-2, -5, 2])
    assert r.corrected
    assert r.discriminant == 9
    assert not r.q_irreducible
    assert not r.passes
    assert any("reducible over Q" in s for s in r.failures())


def test_hypotheses_reject_sqrt_minus_seven_field():
    # 2t^2-3t+2 is Q-irreducible but splits in the degree-7 cyclotomic field
    r = check_poly_hypotheses([2, -3, 2])
    assert r.q_irreducible
    assert not r.zeta7_irreducible
    assert not r.passes
    assert r.discriminant == -7


def test_hypotheses_accept_other_imaginary_quadratic():
    r = check_poly_hypotheses([1, -1, 1])
    assert r.discriminant == -3
    assert r.zeta7_irreducible
    assert r.passes
    assert r.family == "positive_clasp_double"


def test_hypotheses_flag_asymmetric_quadratic():
    r = check_poly_hypotheses([1, -3, 2])
    assert not r.symmetric
    assert not r.passes
    assert "not symmetric" in r.failures()


def test_hypotheses_reject_non_quadratics():
    with pytest.raises(UnsupportedShape):
        check_poly_hypotheses([1, 0, 0, 1])
    with pytest.raises(UnsupportedShape):
        check_poly_hypotheses([5])


def test_hypotheses_accept_matrix_input():
    r = check_poly_hypotheses(SeifertMatrix(COMP_A))
    assert r.coefficients == KEY_A
    assert r.passes


def test_hypothesis_record_detects_shared_factors():
    rec = HypothesisRecord.for_polys([[1, -3, 1], [2, -6, 2]])
    # both pass individually but are proportional, hence not coprime
    assert rec.noncoprime
    with pytest.raises(HypothesisUnverified):
        rec.require([(1, -3, 1), (2, -6, 2)])
    rec.require([(1, -3, 1)])


def test_hypothesis_record_requires_registration_and_passing():
    rec = HypothesisRecord.for_polys([KEY_A])
    with pytest.raises(HypothesisUnverified):
        rec.require([KEY_B])
    rec.register([-2, -5, 2])
    with pytest.raises(HypothesisUnverified):
        rec.require([(2, -5, 2)])
    rec.require([KEY_A])
    js = rec.to_json()
    assert js["assumes_token_coprimality"] is True
    assert len(js["polynomials"]) == 2


# ---------------------------------------------------------------------------
# satellite rules


def test_satellite_sigma_torus_examples():
    V = torus_matrix(2, 7)
    assert satellite_sigma(SigGrowth(0), V, 1, 5).coefficient == -2
    assert satellite_sigma(SigGrowth(0), V, 2, 5).coefficient == -6
    # value 0 leaves the growth class unchanged
    assert satellite_sigma(SigGrowth(3), V, 0, 5).coefficient == 3
    assert satellite_sigma(SigGrowth(3), V, 10, 5).coefficient == 3
    # values wrap modulo p
    assert satellite_sigma(SigGrowth(0), V, 6, 5).coefficient == -2
    # accumulation
    acc = satellite_sigma(satellite_sigma(SigGrowth(0), V, 1, 5), V, 2, 5)
    assert acc.coefficient == -8


def test_satellite_sigma_singular_point_propagates():
    trefoil = torus_matrix(2, 3)
    # signatures are memoised, singular points are not
    for _ in range(2):
        with pytest.raises(SingularAtT):
            satellite_sigma(SigGrowth(0), trefoil, 1, 6)


def test_satellite_delta_shifts():
    e = satellite_delta(DiscExpr(7), SeifertMatrix(COMP_A), [1, 2, 4])
    assert shift_multiset(e, KEY_A) == (1, 2, 4)
    # trivial character: plain polynomial cubed
    e0 = satellite_delta(DiscExpr(7), SeifertMatrix(COMP_A), [0, 0, 0])
    assert e0.factors == {(KEY_A, 0): 3}
    with pytest.raises(PreconditionError):
        satellite_delta(DiscExpr(7), SeifertMatrix(COMP_A), [1], p=5)
    # a coefficient list loses its zero ends and its sign, not its content
    e2 = satellite_delta(DiscExpr(7), [0, -2, 4, -2, 0], [1])
    assert e2.factors == {((2, -4, 2), 1): 1}


# ---------------------------------------------------------------------------
# norm test


def test_norm_test_even_power_is_norm():
    e = DiscExpr(7)
    for _ in range(6):
        e = e.times({(KEY_A, 0): 1})
    assert norm_test(e) == NORM


def test_norm_test_full_orbit_is_not_norm():
    e = DiscExpr(7)
    for s in range(1, 7):
        e = e.times({(KEY_A, s): 1})
    assert norm_test(e) == NOT_NORM


def test_norm_test_token_parities():
    tok = residual_token("K", (1, 0))
    rec = HypothesisRecord()
    assert norm_test(DiscExpr(7).times(tokens={tok: 1}), rec) == UNKNOWN
    assert norm_test(DiscExpr(7).times(tokens={tok: 2}), rec) == NORM
    # an odd factor decides regardless of tokens
    e = DiscExpr(7).times(tokens={tok: 1}).times({(KEY_A, 2): 1})
    rec2 = HypothesisRecord.for_polys([KEY_A])
    assert norm_test(e, rec2) == NOT_NORM


def test_norm_test_requires_verifiable_factors():
    bad = DiscExpr(7).times({((2, -5, 2), 1): 2})
    with pytest.raises(HypothesisUnverified):
        norm_test(bad)
    cubic = DiscExpr(7).times({((1, 0, 0, 1), 1): 2})
    with pytest.raises(HypothesisUnverified):
        norm_test(cubic)


def test_norm_test_refuses_other_moduli():
    # t^2 - 3t + 1 splits over Q(sqrt 5), inside Q(zeta_5), into real roots
    # a and 1/a, so f(zeta t) is a unit times (zeta t - a) conj(zeta t - a),
    # a norm; the hypotheses behind a NOT_NORM verdict hold over Q(zeta_7)
    e = satellite_delta(DiscExpr(5), {"kind": "matrix",
                                      "entries": [[1, 1], [0, -1]]}, [1])
    assert e.factors == {((1, -3, 1), 1): 1}
    with pytest.raises(HypothesisUnverified, match="zeta_7"):
        norm_test(e)
    with pytest.raises(HypothesisUnverified, match="zeta_7"):
        norm_test(e, HypothesisRecord.for_polys([(1, -3, 1)]))


def test_norm_test_stable_under_conjugate_squares():
    # every class here is fixed by conjugation, so g * conj(g) is the square
    # of a single class; multiplying by one must never change the verdict
    rng = random.Random(20260815)
    rec = HypothesisRecord.for_polys([KEY_A, KEY_B])
    keys = [KEY_A, KEY_B]
    for _ in range(50):
        e = DiscExpr(7)
        for _ in range(rng.randrange(8)):
            e = e.times({(rng.choice(keys), rng.randrange(7)):
                         rng.randrange(1, 4)})
        if rng.random() < 0.5:
            e = e.times(tokens={residual_token("K", (rng.randrange(7), 0)):
                                rng.randrange(1, 3)})
        before = norm_test(e, rec)
        squared = e.times({(rng.choice(keys), rng.randrange(7)): 2})
        assert norm_test(squared, rec) == before
        tokened = e.times(tokens={residual_token("K", (1, 1)): 2})
        assert norm_test(tokened, rec) == before


# ---------------------------------------------------------------------------
# doubled-unknot driver


def test_twisted_double_obstruction_a2():
    rep = twisted_double_obstruction(2)
    assert rep["obstructed"]
    assert rep["claim"] == "not cg-slice"
    assert rep["companion_signatures"] == {"1": 2, "2": 2, "3": 2, "4": 2}
    assert rep["metabolizer_count"] == 1
    case = rep["cases"][0]
    assert case["all_coefficients_positive"]
    assert case["min_coefficient"] == 2
    assert case["witness"]["growth"]["coefficient"] == 2


def test_twisted_double_obstruction_a3_and_a5():
    rep = twisted_double_obstruction(3)
    assert rep["obstructed"]
    assert rep["companion_signatures"] == {
        "1": 2, "2": 4, "3": 6, "4": 6, "5": 4, "6": 2}
    rep = twisted_double_obstruction(5)
    assert rep["obstructed"]
    sig = rep["companion_signatures"]
    assert sig["1"] == 4 and sig["5"] == 14 and sig["10"] == 4
    assert all(v > 0 for v in sig.values())


def test_twisted_double_no_claim_for_a1():
    rep = twisted_double_obstruction(1)
    assert rep["claim"] is None
    assert not rep["obstructed"]
    assert "no claim" in rep["note"]


def test_twisted_double_requires_prime_cover_order():
    with pytest.raises(PreconditionError):
        twisted_double_obstruction(4)
    with pytest.raises(PreconditionError):
        twisted_double_obstruction(0)
    with pytest.raises(PreconditionError):
        twisted_double_obstruction(2, n=0)


def test_twisted_double_multiple_summands():
    for n in (2, 3):
        rep = twisted_double_obstruction(2, n=n)
        assert rep["obstructed"]
        assert rep["metabolizer_count"] >= 1
        for case in rep["cases"]:
            assert case["all_coefficients_positive"]


def test_twisted_double_signatures_computed_once(monkeypatch, capsys):
    # the witness of every metabolizer replays companion signatures that
    # the table already holds, and the table's 4 points j/5 all lie on the
    # arc (1/6, 5/6) of T(-2,3)'s signature function: one inertia call, at
    # the arc point 1/2
    from knotconcord import seifert
    from knotconcord.cli import main

    seifert._signature.cache_clear()
    calls = []
    inertia = seifert.hermitian_inertia

    def counted(*args):
        calls.append(args)
        return inertia(*args)

    monkeypatch.setattr(seifert, "hermitian_inertia", counted)
    assert main(["obstruct-twisted-double", "--a", "2", "--n", "4", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["obstructed"]
    assert len(calls) == 1
    assert calls[0][0].n == 2


def test_mutant_sum_alexander_computed_once(monkeypatch, capsys):
    # both summands of the pair share one companion matrix: the Alexander
    # memo misses on it once, not once per lift and per case
    from functools import cache
    from pathlib import Path

    from knotconcord import seifert
    from knotconcord.cli import main

    misses = []
    compute = seifert._alexander_coeffs.__wrapped__

    def counted(entries):
        misses.append(entries)
        return compute(entries)

    monkeypatch.setattr(seifert, "_alexander_coeffs", cache(counted))
    spec = Path(__file__).parent / "fixtures" / "mutant_equal_pair.json"
    assert main(["obstruct-mutant-sum", "--knot", str(spec), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["obstructed"]
    assert misses.count(((-1, 1), (0, 3))) == 1


def test_twisted_double_budget():
    with pytest.raises(BudgetExceeded):
        twisted_double_obstruction(3, n=3, budget=5)


# ---------------------------------------------------------------------------
# order-two satellite driver


def test_order2_growth_matches_multiplicity_difference():
    for i, j in ((2, 1), (1, 2), (3, 1), (1, 1), (2, 2)):
        rep = order2_obstruction(i, j)
        assert rep["coefficient"] == 4 * (i - j)
        assert rep["obstructed"] == (i != j)
        assert rep["cover_group"] == [5, 5]
        assert rep["metabolizer_count"] == 2


def test_order2_characters_all_nonzero_when_distinct():
    rep = order2_obstruction(2, 1)
    for case in rep["cases"]:
        assert case["has_nonzero"]
        for entry in case["characters"]:
            assert entry["coefficient"] in (4, -4)


def test_order2_equal_multiplicities_vanish():
    rep = order2_obstruction(2, 2)
    for case in rep["cases"]:
        for entry in case["characters"]:
            assert entry["coefficient"] == 0
        assert not case["has_nonzero"]


def test_order2_rejects_bad_multiplicities():
    with pytest.raises(PreconditionError):
        order2_obstruction(0, 1)
    with pytest.raises(PreconditionError):
        order2_obstruction(1, -1)


def test_growth_drivers_split_no_deck_eigenspace(monkeypatch):
    # the twisted-double and order-two drivers read only the basis of the
    # vanishing characters, so neither asks for a deck eigen-split
    def refuse(*args, **kwargs):
        raise RuntimeError("deck_eigenspaces called")

    runs = [(twisted_double_obstruction, (2, 2)),
            (order2_obstruction, (1, 2))]
    reports = [run(*args) for run, args in runs]
    assert all(rep["obstructed"] and rep["cases"] for rep in reports)
    for module in (cover, metabolizers, cassongordon):
        monkeypatch.setattr(module, "deck_eigenspaces", refuse)
    assert [run(*args) for run, args in runs] == reports


# ---------------------------------------------------------------------------
# mutated satellite sum driver


def _collect_characters(report):
    for case in report["cases"]:
        yield case["character"]["a"], case["character"]["b"], case


def test_mutant_sum_single_summand():
    rep = mutant_sum_obstruction([COMP_A])
    assert rep["mode"] == "enumerate"
    assert rep["metabolizer_count"] == 3
    assert rep["all_not_norm"] and rep["obstructed"]
    assert rep["growth"] is None
    for a, b, case in _collect_characters(rep):
        assert case["verdict"] == NOT_NORM
        assert case["branch"] in ("odd_left", "odd_right")
        # a pure odd character meets the polynomial along the full orbit
        v = a[0] or b[0]
        mult = tuple(sorted(f["shift"] for f in case["expression"]["factors"]
                            for _ in range(f["multiplicity"])))
        assert mult == _exponents(v, 0) == (1, 2, 3, 4, 5, 6)
        toks = case["expression"]["tokens"]
        assert len(toks) == 1 and toks[0]["multiplicity"] == 1


def test_mutant_sum_two_equal_summands():
    rep = mutant_sum_obstruction([COMP_A, COMP_A])
    assert rep["mode"] == "enumerate"
    assert rep["metabolizer_count"] == 75
    assert len(rep["cases"]) == 75
    assert rep["all_not_norm"] and rep["obstructed"]
    paired = [c for _, _, c in _collect_characters(rep) if c["branch"] == "paired"]
    assert paired
    for case in paired:
        mult = {}
        for f in case["expression"]["factors"]:
            assert f["poly"] == list(KEY_A)
            mult[f["shift"]] = f["multiplicity"]
        # orbit of the coupled block plus the constant partner multiset:
        # shift 2 and 5 pick up odd total multiplicity
        assert mult == {0: 2, 1: 2, 2: 3, 5: 3, 6: 2}
        assert case["verdict"] == NOT_NORM


def test_mutant_sum_two_distinct_summands():
    rep = mutant_sum_obstruction([COMP_A, COMP_B])
    assert rep["all_not_norm"] and rep["obstructed"]
    assert len(rep["cases"]) == 75
    for _, _, case in _collect_characters(rep):
        by_poly = {}
        for f in case["expression"]["factors"]:
            by_poly.setdefault(tuple(f["poly"]), []).append(f["multiplicity"])
        # the two companion polynomials cannot cancel each other: at least
        # one of them carries an odd multiplicity on its own
        assert any(any(m % 2 for m in ms) for ms in by_poly.values())
        assert case["verdict"] == NOT_NORM


def test_mutant_sum_three_summands_abstract():
    rep = mutant_sum_obstruction([COMP_A, COMP_A, COMP_B], signs=[1, 1, -1])
    assert rep["mode"] == "abstract"
    # 57 echelon planes and one full space per eigenside
    assert len(rep["cases"]) == 116
    assert rep["all_not_norm"] and rep["obstructed"]
    for _, _, case in _collect_characters(rep):
        assert case["branch"] in ("odd_left", "odd_right")
        assert case["verdict"] == NOT_NORM


# the mutant_triple and mutant_triple_mixed requests of the benchmark: the
# 9,009 invariant metabolizers of (Z/49)^6 are within the default budget
@pytest.mark.parametrize("companions, signs", [
    ([COMP_A, COMP_A, COMP_B], [1, 1, 1]),
    ([COMP_A, COMP_B, COMP_B], [1, -1, -1]),
], ids=["triple", "triple-mixed"])
def test_mutant_sum_three_summands_enumerate_agrees_with_abstract(
        companions, signs):
    rep = mutant_sum_obstruction(companions, signs=signs, mode="enumerate")
    assert rep["mode"] == "enumerate"
    assert rep["metabolizer_count"] == len(rep["cases"]) == 9009
    abstract = mutant_sum_obstruction(companions, signs=signs,
                                      mode="abstract")
    assert ((rep["obstructed"], rep["all_not_norm"])
            == (abstract["obstructed"], abstract["all_not_norm"])
            == (True, True))


def test_mutant_sum_abstract_budget():
    # the 116 shapes of three summands are counted before any is visited
    companions, signs = [COMP_A, COMP_A, COMP_B], [1, 1, -1]
    rep = mutant_sum_obstruction(companions, signs=signs, budget=116)
    assert len(rep["cases"]) == 116
    with pytest.raises(BudgetExceeded) as exc:
        mutant_sum_obstruction(companions, signs=signs, budget=115)
    assert str(exc.value) == (
        "abstract character-space enumeration needs 116 shapes")
    assert exc.value.budget == 115


@pytest.mark.parametrize("mode", ["enumerate", "abstract"])
def test_mutant_sum_budget_reaches_find_odd_char(monkeypatch, capsys, mode):
    # the decision tree's odd-vector searches and, for an even number of
    # summands in abstract mode, the no-odd filter all take --budget
    from knotconcord.cli import main

    budgets = []
    find = cassongordon.find_odd_char

    def recorded(red, n, budget=None):
        budgets.append(budget)
        return find(red, n, budget)

    monkeypatch.setattr(cassongordon, "find_odd_char", recorded)
    spec = Path(__file__).parent / "fixtures" / "mutant_equal_pair.json"
    assert main(["obstruct-mutant-sum", "--knot", str(spec), "--mode", mode,
                 "--budget", "9999", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["obstructed"]
    assert budgets and set(budgets) == {9999}


def test_mutant_sum_every_character_is_admissible():
    reports = [mutant_sum_obstruction([COMP_A]),
               mutant_sum_obstruction([COMP_A, COMP_A]),
               mutant_sum_obstruction([COMP_A, COMP_B], signs=[1, -1])]
    for rep in reports:
        signs = [m["sign"] for m in rep["members"]]
        for a, b, case in _collect_characters(rep):
            assert case["admissible"]
            assert admissible_pair(a, b, signs)
            assert any(a) or any(b)


def test_mutant_sum_mixed_signs():
    rep = mutant_sum_obstruction([COMP_A, COMP_B], signs=[1, -1])
    assert rep["all_not_norm"] and rep["obstructed"]
    for a, b, case in _collect_characters(rep):
        assert case["verdict"] == NOT_NORM
        assert admissible_pair(a, b, [1, -1])
        if case["branch"] == "paired":
            # the sign flip couples the blocks through c and +1/c, putting
            # odd multiplicity on shifts 1, 2, 5, 6 for both polynomials
            for f in case["expression"]["factors"]:
                assert f["multiplicity"] == (2 if f["shift"] in (1, 6) else 1)


def test_mutant_sum_mode_override():
    rep = mutant_sum_obstruction([COMP_A], mode="abstract")
    assert rep["mode"] == "abstract"
    assert len(rep["cases"]) == 2
    assert rep["all_not_norm"]
    rep = mutant_sum_obstruction([COMP_A, COMP_A], mode="abstract")
    assert rep["mode"] == "abstract"
    assert rep["all_not_norm"]
    with pytest.raises(PreconditionError):
        mutant_sum_obstruction([COMP_A], mode="fast")


def test_mutant_sum_preconditions():
    with pytest.raises(PreconditionError):
        mutant_sum_obstruction([])
    with pytest.raises(PreconditionError):
        mutant_sum_obstruction([COMP_A, COMP_A], signs=[1, -1])
    with pytest.raises(PreconditionError):
        mutant_sum_obstruction([COMP_A, COMP_B], signs=[-1, 1])
    with pytest.raises(PreconditionError):
        mutant_sum_obstruction([COMP_A], signs=[2])
    # signs and companions are validated, not coerced by int()
    for signs in (["x"], [1.0], [True], 1):
        with pytest.raises(PreconditionError):
            mutant_sum_obstruction([COMP_A], signs=signs)
    with pytest.raises(PreconditionError):
        mutant_sum_obstruction(5)
    with pytest.raises(HypothesisUnverified):
        mutant_sum_obstruction([[[-1, 1], [0, 6]]])
    with pytest.raises(HypothesisUnverified):
        mutant_sum_obstruction([[2, -3, 2]])


def test_mutant_sum_budget():
    with pytest.raises(BudgetExceeded):
        mutant_sum_obstruction([COMP_A, COMP_A, COMP_B], signs=[1, 1, -1],
                               budget=10)


def test_mutation_shadow_unmutated_expression_stays_open():
    # the carrier with both bands unmutated doubles every factor, so the
    # expression alone cannot certify anything; the mutated one can
    rec = HypothesisRecord.for_polys([KEY_A])
    spec = {"kind": "matrix", "entries": COMP_A}
    mutated = build(mutant_family_spec(spec, mutated=True)).summands
    plain = build(mutant_family_spec(spec, mutated=False)).summands
    em = _case_expression([1], [0], mutated, [KEY_A])
    ep = _case_expression([1], [0], plain, [KEY_A])
    assert norm_test(em, rec) == NOT_NORM
    assert norm_test(ep, rec) == UNKNOWN
    assert shift_multiset(ep, KEY_A) == (1, 1, 2, 2, 4, 4)


CARRIER_SUMMANDS = {
    (key, mutated): build(mutant_family_spec(
        {"kind": "matrix", "entries": comp}, mutated=mutated)).summands[0]
    for key, comp in ((KEY_A, COMP_A), (KEY_B, COMP_B))
    for mutated in (True, False)}


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.lists(st.tuples(st.sampled_from([KEY_A, KEY_B]), st.booleans(),
                          st.integers(-20, 20), st.integers(-20, 20)),
                min_size=1, max_size=3))
def test_case_expression_matches_counter_oracle(summands):
    # band 1 meets the companion at a+b, 2a+4b, 4a+2b mod 7; the mutated
    # band 2 at their negatives, the plain one at the same shifts again
    factors, tokens = Counter(), Counter()
    for key, mutated, a, b in summands:
        shifts = [a + b, 2 * a + 4 * b, 4 * a + 2 * b]
        for sign in (1, -1 if mutated else 1):
            for v in shifts:
                factors[(key, sign * v % 7)] += 1
        tokens[residual_token("K", _canonical_char_token(a, b))] += 1
    e = _case_expression([a for _, _, a, _ in summands],
                         [b for _, _, _, b in summands],
                         [CARRIER_SUMMANDS[(key, mutated)]
                          for key, mutated, _, _ in summands],
                         [key for key, _, _, _ in summands])
    assert e.p == 7
    assert e.factors == dict(factors)
    assert e.tokens == dict(tokens)


MUTANT_SUMS = {
    "mutant_equal_pair": ([COMP_A, COMP_A], [1, 1]),
    "mutant_mixed_pair": ([COMP_A, COMP_B], [1, -1]),
    "mutant_triple": ([COMP_A, COMP_A, COMP_B], [1, 1, 1]),
}


def _characters(rep):
    return {(tuple(case["character"]["a"]), tuple(case["character"]["b"]))
            for case in rep["cases"]}


@pytest.mark.parametrize("mode", ["enumerate", "abstract"])
@pytest.mark.parametrize("name", ["mutant_equal_pair", "mutant_mixed_pair"])
def test_one_satellite_delta_call_per_companion_per_character(
        monkeypatch, name, mode):
    # each distinct character is evaluated once, with one merge of all the
    # lifts of each companion key: 3 lifts x 2 bands x the summands
    # carrying that key
    calls = []
    rule = cassongordon.satellite_delta

    def counted(base, J, lift_values, p=None):
        calls.append((tuple(J), len(lift_values)))
        return rule(base, J, lift_values, p)

    monkeypatch.setattr(cassongordon, "satellite_delta", counted)
    companions, signs = MUTANT_SUMS[name]
    rep = mutant_sum_obstruction(companions, signs=signs, mode=mode)
    keys = [tuple(KEY_A if c == COMP_A else KEY_B) for c in companions]
    chars = _characters(rep)
    if mode == "enumerate":
        # metabolizers that share a character share its evaluation
        assert len(chars) < len(rep["cases"])
    per_char = sorted((key, 6 * keys.count(key)) for key in set(keys))
    assert sorted(calls) == sorted(per_char * len(chars))


def _expression_afresh(a_vec, b_vec, companions):
    """The case expression with one satellite_delta step per infection,
    built anew for every case."""
    summands = [CARRIER_SUMMANDS[(KEY_A if c == COMP_A else KEY_B, True)]
                for c in companions]
    expr = DiscExpr(7, tokens=Counter(
        residual_token(summand.token, _canonical_char_token(a, b))
        for summand, a, b in zip(summands, a_vec, b_vec)
        if summand.token is not None))
    for comp, summand, a, b in zip(companions, summands, a_vec, b_vec):
        key = KEY_A if comp == COMP_A else KEY_B
        for inf in summand.infections:
            expr = satellite_delta(expr, key, _lift_values(a, b, inf.param))
    return expr


# ---------------------------------------------------------------------------
# the mod-7 decision as it was when every caller handed it raw rows and each
# side was reduced on every look: the oracle of the driver's decision

def _find_odd_char_oracle(basis, n, p=7, budget=10 ** 6):
    rows = [[x % p for x in row] for row in basis]
    if rows:
        red, pivots = linalg.modp_rref(rows, p)
        red = [r for r in red if any(r)]
    else:
        red, pivots = [], []
    m = len(red)
    if m == 0:
        return None
    for row in red:
        if _weight(row) % 2:
            return tuple(row)
    free = [j for j in range(n) if j not in pivots]
    B = [[row[j] for j in free] for row in red]
    dep = linalg.modp_kernel(linalg.transpose(B), p)
    if dep:
        s = list(dep[0])
        combo = [sum(s[i] * red[i][j] for i in range(m)) % p for j in range(n)]
        if _weight(s) % 2:
            return tuple(combo)
        j = next(i for i in range(m) if s[i])
        f = next(c for c in range(1, p) if c != s[j])
        return tuple((combo[c] - f * red[j][c]) % p for c in range(n))
    return next((v for v in span_vectors(red, p, budget) if _weight(v) % 2),
                None)


def _paired_character_oracle(rows2, rows4, n, signs):
    red2, piv2 = linalg.modp_rref([list(r) for r in rows2], 7)
    red2 = [r for r in red2 if any(r)]
    red4, piv4 = linalg.modp_rref([list(r) for r in rows4], 7)
    red4 = [r for r in red4 if any(r)]
    if 2 * len(red2) != n or 2 * len(red4) != n:
        raise InternalInvariantViolation(
            "no-odd character spaces must have exactly half dimension")
    alpha2 = red2[0]
    p0 = piv2[0]
    support2 = [k for k in range(n) if k != p0 and alpha2[k]]
    if len(support2) != 1:
        raise InternalInvariantViolation(
            "echelon row without odd vectors must couple one pair of summands")
    q0 = support2[0]
    if p0 not in piv4:
        raise InternalInvariantViolation(
            "right eigenspace does not pair with the left pivot")
    alpha4 = red4[piv4.index(p0)]
    support4 = [k for k in range(n) if k != p0 and alpha4[k]]
    if support4 != [q0]:
        raise InternalInvariantViolation(
            "eigen-split bases do not couple the same summand pair")
    return ([x % 7 for x in alpha2], [(signs[0] * x) % 7 for x in alpha4])


def _charspace_case_oracle(rows2, rows4, n, signs):
    v = _find_odd_char_oracle(rows2, n)
    if v is not None:
        return "odd_left", [x % 7 for x in v], [0] * n
    v = _find_odd_char_oracle(rows4, n)
    if v is not None:
        return "odd_right", [0] * n, [x % 7 for x in v]
    a, b = _paired_character_oracle(rows2, rows4, n, signs)
    return "paired", a, b


def _decision_outcome(decide, rows2, rows4, n, signs):
    try:
        return decide(rows2, rows4, n, signs)
    except InternalInvariantViolation as exc:
        return str(exc)


def _decide(rows2, rows4, n, signs):
    return cassongordon._charspace_case(rows2, rows4, n, signs, 10 ** 6)


@st.composite
def eigen_split_spaces(draw):
    """(rows2, rows4, n, signs): raw spanning rows mod 7 of the two sides
    of a character space on n summands, dependent rows and all."""
    n = draw(st.integers(1, 5))
    vec = st.lists(st.integers(0, 6), min_size=n, max_size=n)
    rows2 = draw(st.lists(vec, max_size=n + 1))
    rows4 = draw(st.lists(vec, max_size=n + 1))
    signs = [1] + draw(st.lists(st.sampled_from([1, -1]), min_size=n - 1,
                                max_size=n - 1))
    return rows2, rows4, n, signs


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(eigen_split_spaces())
def test_charspace_decision_matches_oracle(space):
    # branch, a and b, or the same refusal, on raw rows
    assert (_decision_outcome(_decide, *space)
            == _decision_outcome(_charspace_case_oracle, *space))


def test_charspace_decision_matches_oracle_on_every_half_shape():
    # every half shape of (Z/7)^4 on either side, and every pair of the
    # half shapes with no odd-weight vector, each given by an unreduced
    # basis: the rows r_0 + r_1 and 3 r_1
    n, signs = 4, [1, 1, -1, -1]
    shapes = [[[(x + y) % 7 for x, y in zip(*shape)],
               [3 * y % 7 for y in shape[1]]]
              for shape in subspaces(n, 2, 7)]
    assert len(shapes) == subspace_count(n, 2, 7) == 2850
    for rows in shapes:
        for rows2, rows4 in ((rows, []), ([], rows)):
            assert (_decision_outcome(_decide, rows2, rows4, n, signs)
                    == _decision_outcome(_charspace_case_oracle,
                                         rows2, rows4, n, signs))
    no_odd = [rows for rows in shapes
              if _find_odd_char_oracle(rows, n) is None]
    # a coupling of the summands into two pairs, with a unit on each
    assert len(no_odd) == 3 * 6 * 6
    branches = Counter()
    for rows2 in no_odd:
        for rows4 in no_odd:
            outcome = _decision_outcome(_decide, rows2, rows4, n, signs)
            assert outcome == _decision_outcome(_charspace_case_oracle,
                                                rows2, rows4, n, signs)
            branches[outcome[0] if isinstance(outcome, tuple) else "refused"] += 1
    assert branches["paired"] and branches["refused"]


class _OracleRoute:
    """The character of each case of a mutant-sum report as the oracle
    decides it: from the shape bases in abstract mode, and in enumerate
    mode from the deck eigenspaces inside the characters vanishing on the
    case's metabolizer, read in the summands' eigencoordinates."""

    def __init__(self, companions, signs, mode):
        self.n, self.signs = len(companions), signs
        if mode == "enumerate":
            base = satellite_base_matrix()
            forms = [linking_form(base if s == 1 else base.mirror(), 3)
                     for s in signs]
            n = self.n
            self.to_eigen = [
                [0] * (2 * s) + row + [0] * (2 * (n - s - 1))
                for s, f in enumerate(forms)
                for row in _dual_eigenpair(f, signs[s])]
            deck = direct_sum(*forms).deck
            self.action = [[x % 7 for x in col] for col in zip(*deck)]

    def sides(self, case):
        shape = case.get("shape")
        if shape is None:
            constraints = [[x % 7 for x in g]
                           for g in case["metabolizer"]["generators"]]
            eigen, _ = deck_eigenspaces(self.action, 7, 1, constraints)
            kernel = linalg.modp_kernel(constraints, 7)
            assert sum(map(len, eigen.values())) == len(kernel)
            sides = []
            for lam, side in ((2, 0), (4, 1)):
                coords = [[x % 7 for x in linalg.mat_vec(self.to_eigen, v)]
                          for v in eigen[lam]]
                sides.append([c[side::2] for c in coords])
            assert case["charspace"] == {"dim": len(kernel),
                                         "dim_left": len(sides[0]),
                                         "dim_right": len(sides[1])}
            return sides
        if shape["side"] == "paired":
            return shape["basis_left"], shape["basis_right"]
        return ((shape["basis"], []) if shape["side"] == "left"
                else ([], shape["basis"]))

    def character(self, case):
        rows2, rows4 = self.sides(case)
        return _charspace_case_oracle(rows2, rows4, self.n, self.signs)


def _report_bytes_match_oracle(capsys, tmp_path, companions, signs, mode):
    """The --json report of the mutant sum, with every case's branch and
    character taken from the oracle route and its expression and verdict
    evaluated afresh, renders to the same bytes."""
    from knotconcord.cli import main

    spec = tmp_path / "sum.json"
    spec.write_text(json.dumps({"companions": companions, "signs": signs}))
    assert main(["obstruct-mutant-sum", "--knot", str(spec), "--mode", mode,
                 "--json"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    result = report["result"]
    oracle = _OracleRoute(companions, signs, mode)
    verdicts = []
    for case in result["cases"]:
        branch, a_vec, b_vec = oracle.character(case)
        case["branch"], case["character"] = branch, {"a": a_vec, "b": b_vec}
        expr = _expression_afresh(a_vec, b_vec, companions)
        fresh = json.loads(json.dumps(expr.to_json()))
        assert (case["expression"], case["verdict"]) == (fresh,
                                                          norm_test(expr))
        case["expression"], case["verdict"] = fresh, norm_test(expr)
        verdicts.append(case["verdict"])
    result["all_not_norm"] = all(v == NOT_NORM for v in verdicts)
    result["obstructed"] = result["all_not_norm"] and bool(verdicts)
    assert out == json.dumps(report, sort_keys=True, separators=(",", ":"),
                             check_circular=False) + "\n"
    return result


@pytest.mark.parametrize("mode", ["enumerate", "abstract"])
@pytest.mark.parametrize("name", list(MUTANT_SUMS))
def test_mutant_sum_report_bytes_match_fresh_evaluation(
        capsys, tmp_path, name, mode):
    companions, signs = MUTANT_SUMS[name]
    _report_bytes_match_oracle(capsys, tmp_path, companions, signs, mode)


def test_four_companion_report_bytes_match_oracle_route(capsys, tmp_path):
    result = _report_bytes_match_oracle(capsys, tmp_path, [COMP_A] * 4,
                                        [1] * 4, "abstract")
    assert len(result["cases"]) == 910 and result["obstructed"]


def test_mutant_family_shares_abelian_invariants():
    spec = {"kind": "matrix", "entries": COMP_A}
    mutated = build(mutant_family_spec(spec, mutated=True))
    plain = build(mutant_family_spec(spec, mutated=False))
    assert mutated.matrix.entries == plain.matrix.entries
    assert alexander(mutated.matrix) == alexander(plain.matrix)
    assert (branched_cover(mutated.matrix, 3).factors
            == branched_cover(plain.matrix, 3).factors == (49, 49))
    assert [i.param for m in mutated.summands for i in m.infections] == [1, -1]
    assert [i.param for m in plain.summands for i in m.infections] == [1, 1]


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=-10 ** 9, max_value=10 ** 9).filter(bool))
def test_squarefree_part_leaves_a_square(n):
    s = _squarefree_part(n)
    assert (s > 0) == (n > 0)
    assert all(e == 1 for e in sp.factorint(abs(s)).values())
    q, r = divmod(n, s)
    assert r == 0 and isqrt(q) ** 2 == q


def test_squarefree_part_of_zero():
    assert _squarefree_part(0) == 0
    assert [_squarefree_part(n) for n in (1, -1, 12, -12, 49, 50)] == [
        1, -1, 3, -3, 1, 2]
