"""Obstruction calculus tests: carriers, satellite rules, norm test, drivers.

Expected signature values were cross-checked against floating-point
eigenvalue computations and (for the torus companions) against the
independent representation-arc count; exponent multisets and discriminant
parities were derived by hand mod 7 before being frozen here.
"""

import json
import random
from fractions import Fraction as F

import pytest

from knotconcord.cassongordon import (DiscExpr, HypothesisRecord, SigGrowth,
                                      NORM, NOT_NORM, UNKNOWN,
                                      check_poly_hypotheses,
                                      mixed_exponents, mutant_family_spec,
                                      mutant_sum_obstruction, norm_test,
                                      orbit_exponents, order2_obstruction,
                                      residual_token,
                                      satellite_delta, satellite_sigma,
                                      twisted_double_obstruction,
                                      _case_expression)
from knotconcord.cover import branched_cover
from knotconcord.errors import (BudgetExceeded, HypothesisUnverified,
                                PreconditionError, SingularAtT,
                                UnsupportedShape)
from knotconcord.metabolizers import admissible_pair
from knotconcord.seifert import SeifertMatrix, alexander, build, torus_matrix

# quadratic companions used throughout: Alexander polynomials 3t^2-7t+3
# (discriminant 13) and 5t^2-11t+5 (discriminant 21), coprime over Q
COMP_A = [[-1, 1], [0, 3]]
COMP_B = [[-1, 1], [0, 5]]
KEY_A = (3, -7, 3)
KEY_B = (5, -11, 5)


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
    x = e.times_factor(KEY_A, 3).times_factor(KEY_A, 10)  # shift 10 wraps to 3
    assert x.factors == {(KEY_A, 3): 2}
    y = DiscExpr(7).times_factor(KEY_B, 0).times_token(("delta", "K", (1, 0)))
    assert y.factors == {(KEY_B, 0): 1}
    # appends copy their operand and drop a multiplicity that reaches zero
    assert x.times_factor(KEY_A, 3, -2) == DiscExpr(7)
    assert y.times_token(TOKEN, -1) == DiscExpr(7).times_factor(KEY_B, 0)
    assert x.factors == {(KEY_A, 3): 2} and y.tokens == {TOKEN: 1}
    assert e == DiscExpr(7) != DiscExpr(5)


TOKEN = ("delta", "K", (1, 0))


@pytest.mark.parametrize("make", [
    lambda: DiscExpr(7).times_factor(("2", -5, 2.0), "1", 1.0),
    lambda: DiscExpr(7).times_factor(("2", -5, 2), 1),
    lambda: DiscExpr(7).times_factor((2.0, -5, 2), 1),
    lambda: DiscExpr(7).times_factor((True, -3, True), 1),
    lambda: DiscExpr(7).times_factor(KEY_A, "1"),
    lambda: DiscExpr(7).times_factor(KEY_A, 1.0),
    lambda: DiscExpr(7).times_factor(KEY_A, True),
    lambda: DiscExpr(7).times_factor(KEY_A, 1, 2.0),
    lambda: DiscExpr(7).times_factor(KEY_A, 1, True),
    lambda: DiscExpr(7).times_token(TOKEN, 2.0),
    lambda: DiscExpr(7).times_token(TOKEN, True),
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
    e = (DiscExpr(7).times_factor(KEY_A, 1).times_factor(KEY_A, 6)
         .times_factor(KEY_A, 6).times_factor(KEY_B, 2))
    assert e.shift_multiset(KEY_A) == (1, 6, 6)
    assert e.shift_multiset(KEY_B) == (2,)
    assert e.shift_multiset((1, -3, 1)) == ()
    js = e.to_json()
    assert js["p"] == 7
    assert js["factors"] == [
        {"poly": [3, -7, 3], "shift": 1, "multiplicity": 1},
        {"poly": [3, -7, 3], "shift": 6, "multiplicity": 2},
        {"poly": [5, -11, 5], "shift": 2, "multiplicity": 1}]


# ---------------------------------------------------------------------------
# exponent multisets


def test_orbit_exponents():
    for a in range(1, 7):
        assert orbit_exponents(a) == (1, 2, 3, 4, 5, 6)
    assert orbit_exponents(0) == (0, 0, 0, 0, 0, 0)
    assert orbit_exponents(9) == (1, 2, 3, 4, 5, 6)


def test_mixed_exponents_plus_one_is_constant():
    for c in range(1, 7):
        assert mixed_exponents(c, 1) == (0, 0, 2, 2, 5, 5)


def test_mixed_exponents_minus_one():
    for c in range(1, 7):
        assert mixed_exponents(c, -1) == (1, 1, 2, 5, 6, 6)


def test_mixed_exponents_rejects_bad_arguments():
    with pytest.raises(PreconditionError):
        mixed_exponents(0, 1)
    with pytest.raises(PreconditionError):
        mixed_exponents(7, 1)
    with pytest.raises(PreconditionError):
        mixed_exponents(3, 2)


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
    assert e.shift_multiset(KEY_A) == (1, 2, 4)
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
        e = e.times_factor(KEY_A, 0)
    assert norm_test(e) == NORM


def test_norm_test_full_orbit_is_not_norm():
    e = DiscExpr(7)
    for s in range(1, 7):
        e = e.times_factor(KEY_A, s)
    assert norm_test(e) == NOT_NORM


def test_norm_test_token_parities():
    tok = residual_token("K", (1, 0))
    rec = HypothesisRecord()
    assert norm_test(DiscExpr(7).times_token(tok), rec) == UNKNOWN
    assert norm_test(DiscExpr(7).times_token(tok, 2), rec) == NORM
    # an odd factor decides regardless of tokens
    e = DiscExpr(7).times_token(tok).times_factor(KEY_A, 2)
    rec2 = HypothesisRecord.for_polys([KEY_A])
    assert norm_test(e, rec2) == NOT_NORM


def test_norm_test_requires_verifiable_factors():
    bad = DiscExpr(7).times_factor((2, -5, 2), 1, 2)
    with pytest.raises(HypothesisUnverified):
        norm_test(bad)
    cubic = DiscExpr(7).times_factor((1, 0, 0, 1), 1, 2)
    with pytest.raises(HypothesisUnverified):
        norm_test(cubic)


def test_norm_test_stable_under_conjugate_squares():
    # every class here is fixed by conjugation, so g * conj(g) is the square
    # of a single class; multiplying by one must never change the verdict
    rng = random.Random(20260815)
    rec = HypothesisRecord.for_polys([KEY_A, KEY_B])
    keys = [KEY_A, KEY_B]
    for _ in range(50):
        e = DiscExpr(7)
        for _ in range(rng.randrange(8)):
            e = e.times_factor(rng.choice(keys), rng.randrange(7),
                               rng.randrange(1, 4))
        if rng.random() < 0.5:
            e = e.times_token(residual_token("K", (rng.randrange(7), 0)),
                              rng.randrange(1, 3))
        before = norm_test(e, rec)
        squared = e.times_factor(rng.choice(keys), rng.randrange(7), 2)
        assert norm_test(squared, rec) == before
        tokened = e.times_token(residual_token("K", (1, 1)), 2)
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

    seifert._signatures.clear()
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
        assert mult == orbit_exponents(v) == (1, 2, 3, 4, 5, 6)
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
    assert ep.shift_multiset(KEY_A) == (1, 1, 2, 2, 4, 4)


def test_mutant_family_shares_abelian_invariants():
    spec = {"kind": "matrix", "entries": COMP_A}
    mutated = build(mutant_family_spec(spec, mutated=True))
    plain = build(mutant_family_spec(spec, mutated=False))
    assert mutated.matrix.entries == plain.matrix.entries
    assert alexander(mutated.matrix) == alexander(plain.matrix)
    assert (branched_cover(mutated.matrix, 3).factors
            == branched_cover(plain.matrix, 3).factors == (49, 49))
    assert [i.param for i in mutated.infections] == [1, -1]
    assert [i.param for i in plain.infections] == [1, 1]
