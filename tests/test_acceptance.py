"""Acceptance checks: one test per headline capability of the package.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Everything here is computed in exact arithmetic (integers,
Fractions, cyclotomic field elements), so all comparisons are exact
equalities; the only pinned choices are the sample grids (rational points
k/21 and k/40, 100-point window grids, 200 randomized projection rounds,
random seed 20260815).  The module is sized to finish in well under five
minutes.

Expected values fall into three groups, each checked against an oracle
independent of the code path under test:

* closed forms evaluated by hand (small determinants, resultants of
  quadratics, (2a+1)^2 cover orders for the twisted-double family);
* brute-force scans frozen in the dedicated unit-test modules and
  re-asserted here at headline scale (metabolizer enumeration, diagonal
  lemma, dihedral labeling counts);
* agreement of two unrelated code paths (arc counting vs Hermitian
  inertia for torus knot signatures, Sylvester resultants vs Smith normal
  form for branched cover orders).
"""

import random
from fractions import Fraction as F

from knotconcord import linalg
from knotconcord.cassongordon import (DiscExpr, HypothesisRecord,
                                      NORM, NOT_NORM, _lift_values,
                                      mutant_sum_obstruction,
                                      mutant_family_spec, norm_test,
                                      order2_obstruction,
                                      residual_token, satellite_base_matrix,
                                      twisted_double_obstruction)
from knotconcord.cover import (LinkingForm, branched_cover, deck_eigenspaces,
                               direct_sum, linking_form, unit_roots_mod)
from knotconcord.diagram import MetacyclicGroup, classify_characters, \
    labeling_space, parse_pd
from knotconcord.errors import EndpointCollision, SingularAtT
from knotconcord.metabolizers import admissible_pair, enumerate_metabolizers
from knotconcord.seifert import (SeifertMatrix, alexander, build,
                                 lt_signature, torus_matrix,
                                 twisted_double_matrix)
from knotconcord.su2 import count_signature, verify_herald
from test_metab import check_diagonal_lemma, is_metabolizer, project_metabolizer

SEED = 20260815

COMP_A = [[-1, 1], [0, 3]]          # genus-1 companion, det form 3t^2-7t+3
COMP_B = [[-1, 1], [0, 5]]          # second companion, 5t^2-11t+5
KEY_A = (3, -7, 3)
KEY_B = (5, -11, 5)

FIG8 = SeifertMatrix([[1, 1], [0, -1]])

TREFOIL_PD = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
FIG8_PD = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"
# the same knots after one Reidemeister rewrite: a finger move pushed
# across the trefoil code and a positive kink added to the figure-8 code
TREFOIL_PD_R2 = "X[1,6,2,7] X[5,10,6,1] X[9,4,10,5] X[7,3,8,2] X[8,3,9,4]"
FIG8_PD_R1 = "X[4,2,5,1] X[10,6,1,5] X[6,3,7,4] X[2,7,3,8] X[8,10,9,9]"


def _sylvester_resultant(f, g):
    # Res(f, g) for ascending integer coefficient lists, f monic
    m = len(f) - 1
    n = len(g) - 1
    fr = list(reversed(f))
    gr = list(reversed(g))
    rows = [[0] * i + fr + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + gr + [0] * (m - 1 - i) for i in range(m)]
    return linalg.det_bareiss(rows)


def test_01_alexander_fixtures():
    # hand expansion of det(V - tV^T) for the two 2x2 matrices
    assert alexander(twisted_double_matrix(1)) == (2, -5, 2)
    assert alexander(FIG8) == (1, -3, 1)


def test_02_signature_fixtures():
    V = torus_matrix(2, 7)
    assert lt_signature(V, F(1, 5)) == -2
    assert lt_signature(V, F(2, 5)) == -6
    # t^2 - 3t + 1 has no roots on the unit circle, so every sample
    # point is regular and the signature vanishes identically
    for k in range(1, 21):
        assert lt_signature(FIG8, F(k, 21)) == 0


def test_03_branched_cover_orders():
    for a in range(1, 7):
        H = branched_cover(twisted_double_matrix(a), 2)
        assert H.order == (2 * a + 1) ** 2
    assert branched_cover(satellite_base_matrix(), 3).order == 7 ** 4
    # cover order vs the resultant of the Alexander polynomial with the
    # cyclic quotient polynomial 1 + t + ... + t^(d-1): two independent
    # routes (Smith form of the layered presentation vs a Sylvester
    # determinant) that must agree across the corpus
    corpus = [twisted_double_matrix(1), twisted_double_matrix(2),
              twisted_double_matrix(3), FIG8, satellite_base_matrix(),
              torus_matrix(2, 3), torus_matrix(2, 5), torus_matrix(2, 7)]
    for V in corpus:
        delta = list(alexander(V))
        for d in (2, 3, 4):
            res = _sylvester_resultant([1] * d, delta)
            assert res != 0
            assert branched_cover(V, d).order == abs(res)


def test_04_character_eigenspaces():
    # the deck acts on the mod-7 characters through its transpose
    H = branched_cover(satellite_base_matrix(), 3)
    assert all(f % 7 == 0 for f in H.factors) and H.rank == 2
    action = [[x % 7 for x in col] for col in zip(*H.deck)]
    eigen, split = deck_eigenspaces(action, 7, 1, H.degree)
    assert split
    assert sorted(lam for lam, vecs in eigen.items() if vecs) == [2, 4]
    assert all(len(eigen[lam]) == 1 for lam in (2, 4))
    assert unit_roots_mod(3, 49) == [1, 18, 30]


def test_05_metabolizer_enumeration_and_projection():
    # Z_25 with form x^2/25: the order-5 subgroup is the only metabolizer
    L = LinkingForm((25,), ((F(1, 25),),))
    ms = enumerate_metabolizers(L)
    assert len(ms) == 1 and ms[0].generators == ((5,),)
    # diagonal unit form on Z_5 x Z_5: a^2 + b^2 = 0 forces b = +-2a
    L2 = LinkingForm((5, 5), ((F(1, 5), F(0)), (F(0), F(1, 5))))
    ms2 = enumerate_metabolizers(L2)
    assert [m.generators for m in ms2] == [((1, 2),), ((1, 3),)]
    # projection property at scale: split metabolizers of a direct sum
    # project to metabolizers of the second factor, 200 rounds
    rng = random.Random(SEED)

    def small_form():
        q = rng.choice([3, 5, 7])
        kind = rng.randrange(3)
        if kind == 0:
            u = rng.randrange(1, q)
            return LinkingForm((q, q), ((F(0), F(u, q)), (F(u, q), F(0))))
        if kind == 1:
            a = rng.randrange(1, q)
            return LinkingForm((q, q), ((F(a, q), F(0)), (F(0), F(-a, q))))
        c = rng.randrange(1, q)
        return LinkingForm((q * q,), ((F(c, q * q),),))

    done = 0
    while done < 200:
        L1, L2 = small_form(), small_form()
        metas = enumerate_metabolizers(direct_sum(L1, L2))
        firsts = enumerate_metabolizers(L1)
        if not metas or not firsts:
            continue
        A = rng.choice(metas)
        A1 = rng.choice(firsts)
        A2 = project_metabolizer(L1, L2, A, A1)
        assert is_metabolizer(L2, A2.basis)
        done += 1


def test_06_diagonal_lemma_exhaustive():
    # every nonsingular k x k mod-p Gram matrix whose row space meets no
    # odd character can be permuted to diagonal form: exhaustive scans
    expect = {(3, 1): (2, 2), (3, 2): (48, 8), (5, 2): (480, 32),
              (7, 2): (2016, 72)}
    for (p, k), (nonsing, no_odd) in expect.items():
        rep = check_diagonal_lemma(p, k)
        assert rep["confirmed"]
        assert rep["mismatches"] == []
        assert rep["nonsingular"] == nonsing
        assert rep["without_odd"] == no_odd


def test_07_exponent_multisets():
    # the shifts a summand at eigencoordinates (a, b) meets: the lifts of
    # its plain band and their negatives on the mutated band
    def exponents(a, b):
        return tuple(sorted(_lift_values(a, b, 1) + _lift_values(a, b, -1)))

    for a in range(1, 7):
        assert exponents(a, 0) == (1, 2, 3, 4, 5, 6)
    assert exponents(0, 0) == (0,) * 6
    # the paired even-case character at a coupling unit c, b = -1/c
    for c in range(1, 7):
        assert exponents(c, -pow(c, -1, 7)) == (0, 0, 2, 2, 5, 5)


def test_08_norm_test():
    e = DiscExpr(7)
    for _ in range(6):
        e = e.times({(KEY_A, 0): 1})
    assert norm_test(e) == NORM
    e = DiscExpr(7)
    for s in range(1, 7):
        e = e.times({(KEY_A, s): 1})
    assert norm_test(e) == NOT_NORM
    # verdict stability: multiplying by g * conj(g) (a square of a single
    # conjugation-fixed class) must never change the answer, 50 rounds
    rng = random.Random(SEED)
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
        assert norm_test(e.times({(rng.choice(keys), rng.randrange(7)): 2}),
                         rec) == before
        assert norm_test(e.times(tokens={residual_token("K", (1, 1)): 2}),
                         rec) == before


def test_09_arc_count_matches_matrix_signature():
    # two unrelated routes to torus knot signatures: representation arc
    # counting vs exact Hermitian inertia of the Seifert form; singular
    # parameters must coincide as well (arc endpoints vs Alexander roots)
    for a in range(2, 7):
        V = torus_matrix(-a, a + 1)
        for k in range(1, 40):
            t = F(k, 40)
            try:
                counted = count_signature(a, t)
            except EndpointCollision:
                try:
                    lt_signature(V, t)
                except SingularAtT:
                    continue
                raise AssertionError("arc endpoint at t=%s is not an "
                                     "Alexander root (a=%d)" % (t, a))
            assert counted == lt_signature(V, t)
        rep = verify_herald(a, grid=100)
        assert rep["all_positive"]
        assert rep["min_count"] >= 2
        assert rep["covers_window"]
        assert rep["failures"] == []


def test_10_twisted_double_driver():
    for a in (2, 3, 5):
        rep = twisted_double_obstruction(a)
        assert rep["obstructed"]
        assert rep["claim"] == "not cg-slice"
        assert all(v > 0 for v in rep["companion_signatures"].values())
        for case in rep["cases"]:
            assert case["all_coefficients_positive"]
            assert case["min_coefficient"] > 0
    # connected sums of up to three copies: still nonzero on every
    # character that any invariant metabolizer leaves available
    for n in (2, 3):
        rep = twisted_double_obstruction(2, n=n)
        assert rep["obstructed"]
        assert rep["metabolizer_count"] >= 1
        for case in rep["cases"]:
            assert case["all_coefficients_positive"]
            assert case["min_coefficient"] > 0


def test_11_order_two_driver():
    for i in range(1, 5):
        for j in range(1, 5):
            rep = order2_obstruction(i, j)
            assert rep["coefficient"] == 4 * (i - j)
            assert rep["obstructed"] == (i != j)


def test_12_mutant_sum_driver():
    reports = [mutant_sum_obstruction([COMP_A]),
               mutant_sum_obstruction([COMP_A, COMP_A]),
               mutant_sum_obstruction([COMP_A, COMP_B]),
               mutant_sum_obstruction([COMP_A, COMP_A, COMP_B],
                                      signs=[1, 1, -1])]
    assert reports[0]["metabolizer_count"] == 3
    assert reports[1]["metabolizer_count"] == 75
    assert reports[2]["metabolizer_count"] == 75
    assert reports[3]["mode"] == "abstract"
    assert len(reports[3]["cases"]) == 116
    for rep in reports:
        assert rep["all_not_norm"] and rep["obstructed"]
        signs = [m["sign"] for m in rep["members"]]
        for case in rep["cases"]:
            assert case["verdict"] == NOT_NORM
            a = case["character"]["a"]
            b = case["character"]["b"]
            assert any(a) or any(b)
            assert case["admissible"]
            assert admissible_pair(a, b, signs)
    # three summands with a mirrored member stay on the odd branch
    for case in reports[3]["cases"]:
        assert case["branch"] in ("odd_left", "odd_right")


def test_13_mutation_shadow():
    # the modeled positive mutant differs only in the character transport
    # pattern, so every abelian invariant must coincide with the plain
    # satellite; the distinguishing work happens in the discriminant
    # calculus of the mutant-sum driver
    pts = [F(k, 21) for k in range(1, 21)]
    for comp in (COMP_A, COMP_B):
        spec = {"kind": "matrix", "entries": comp}
        plain = build(mutant_family_spec(spec, mutated=False))
        mutant = build(mutant_family_spec(spec, mutated=True))
        assert alexander(plain) == alexander(mutant)
        assert ([lt_signature(plain, pt) for pt in pts]
                == [lt_signature(mutant, pt) for pt in pts])
        Hp = branched_cover(plain.matrix, 3)
        Hm = branched_cover(mutant.matrix, 3)
        assert Hp.factors == Hm.factors
        assert Hp.deck == Hm.deck
        Lp = linking_form(plain.matrix, 3)
        Lm = linking_form(mutant.matrix, 3)
        assert Lp.group == Lm.group
        assert Lp.gram == Lm.gram
        assert Lp.deck == Lm.deck
    # while the drivers distinguish the mutated satellite sums (nontrivial
    # verdict above in test_12), the shadow invariants cannot


def test_14_diagram_labeling_counts():
    d3 = MetacyclicGroup.dihedral(3)
    d5 = MetacyclicGroup.dihedral(5)
    assert labeling_space(parse_pd(TREFOIL_PD), d3).size == 9
    assert labeling_space(parse_pd(FIG8_PD), d5).size == 25
    # counts survive one Reidemeister rewrite of each code
    assert labeling_space(parse_pd(TREFOIL_PD_R2), d3).size == 9
    assert labeling_space(parse_pd(FIG8_PD_R1), d5).size == 25
    assert classify_characters(parse_pd(TREFOIL_PD_R2), d3).invariant_factors == (3,)
    assert classify_characters(parse_pd(FIG8_PD_R1), d5).invariant_factors == (5,)
