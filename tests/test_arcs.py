"""The signature function on arcs: arc_point and the block split.

sigma_V is constant on each arc of the circle between roots of the
Alexander polynomial, and equal at t and 1 - t.  arc_point names the
point of least phi(d) on the arc of t; the oracles here are the direct
route lt_signature(V, t), roots of Delta found by sympy, and brute-force
scans over small denominators.
"""

from fractions import Fraction as F
from math import gcd

import mpmath
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from knotconcord import seifert
from knotconcord.cyclo import CyclotomicField, euler_phi
from knotconcord.errors import (BudgetExceeded, PreconditionError,
                                SingularAtT)
from knotconcord.kernels import hermitian_inertia
from knotconcord.seifert import (MAX_FIELD_DEGREE, SeifertMatrix, _isolate,
                                 _phi_floor, _sturm_chain, alexander,
                                 arc_point, lt_signature, torus_matrix)

TREFOIL = torus_matrix(2, 3)


def genus_one(x, y, z):
    # V - V^T = [[0, 1], [-1, 0]] for every x, y, z
    return SeifertMatrix([[x, y], [y - 1, z]])


def block_sum(parts):
    V = SeifertMatrix([])
    for part in parts:
        V = V.block_sum(genus_one(*part))
    return V


def outcome(V, t):
    """lt_signature at t, or the message of SingularAtT."""
    try:
        return lt_signature(V, t)
    except SingularAtT as e:
        return str(e)


def arc_outcome(V, t):
    try:
        return lt_signature(V, arc_point(V, t))
    except SingularAtT as e:
        return str(e)


# ---------------------------------------------------------------------------
# fixed points


def test_trefoil_arc_points():
    # roots at 1/6 and 5/6: arcs (0, 1/6) and (1/6, 1/2] on the upper half
    for t in (F(1, 7), F(1, 1031), F(1, 3000001), F(1030, 1031)):
        assert arc_point(TREFOIL, t) == F(1, 8)
    for t in (F(1, 5), F(2, 5), F(515, 1031), F(3, 5)):
        assert arc_point(TREFOIL, t) == F(1, 2)
    assert lt_signature(TREFOIL, F(1, 8)) == 0
    assert lt_signature(TREFOIL, F(1, 2)) == -2


def test_singular_points_raise_without_a_field():
    for t in (F(1, 6), F(5, 6)):
        with pytest.raises(SingularAtT) as e:
            arc_point(TREFOIL, t)
        assert str(e.value) == "form singular at t = %s" % t
        with pytest.raises(SingularAtT) as direct:
            lt_signature(TREFOIL, t)
        assert str(direct.value) == str(e.value)
    # T(-5,6): roots at every k/30 with k prime to 30, and at k/15, k/10
    V = torus_matrix(-5, 6)
    for t in (F(1, 30), F(7, 15), F(3, 10), F(29, 30)):
        with pytest.raises(SingularAtT):
            arc_point(V, t)


def test_torus_arc_points_of_least_phi():
    V = torus_matrix(-5, 6)
    # j/11 for j = 1..5, and their mirror images j = 10..6
    want = [F(1, 12), F(1, 6), F(2, 7), F(1, 3), F(4, 9)]
    assert [arc_point(V, F(j, 11)) for j in range(1, 6)] == want
    assert [arc_point(V, F(11 - j, 11)) for j in range(1, 6)] == want
    # the arc (0, 1/30) holds 1/1009; its point of least phi is 1/36
    assert arc_point(V, F(1, 1009)) == F(1, 36)
    assert lt_signature(V, F(1, 36)) == lt_signature(V, F(1, 31)) == 0


def test_arc_point_domain():
    for t in (F(0), F(1), F(3, 2), F(-1, 2)):
        with pytest.raises(PreconditionError) as e:
            arc_point(TREFOIL, t)
        assert str(e.value) == "t must lie strictly between 0 and 1"
    assert arc_point(SeifertMatrix([]), F(1, 3)) == F(1, 2)


def test_lt_signature_keeps_field_budget():
    # the arc route answers at 1/1031; the direct route still refuses it
    with pytest.raises(BudgetExceeded) as e:
        lt_signature(TREFOIL, F(1, 1031))
    assert str(e.value) == ("t = 1/1031 needs Q(zeta_1031), whose degree "
                            "phi(1031) exceeds the budget of 1024")
    assert e.value.budget == MAX_FIELD_DEGREE == 1024


def test_close_irrational_roots():
    # Delta = (50t^2 - 99t + 50)(51t^2 - 101t + 51): two roots with
    # irrational angles near 0.02230 and 0.02252, and a thin arc between
    V = block_sum([(1, 0, 50), (1, 0, 51)])
    lo, hi = F(1, 45), F(1, 44)      # 0.02222 and 0.02273 lie outside
    assert arc_point(V, lo) == arc_point(V, F(1, 1000))
    assert arc_point(V, hi) == F(1, 2)
    inner = arc_point(V, F(14, 625))  # 0.0224
    assert lo < inner < hi and inner not in (arc_point(V, lo), F(1, 2))
    assert euler_phi(inner.denominator) > 12
    values = {outcome(V, t) for t in (lo, inner, hi)}
    assert len(values) == 3


def test_point_within_two_to_minus_ninety_of_a_root(monkeypatch):
    # Delta = 2t^2 - 3t + 2 has a non-cyclotomic root pair on the circle at
    # angle arccos(3/4) / 2 pi; the dyadic points either side of it, 2^-90
    # apart, do not separate from the root at 64 bits, so the cosine
    # precision doubles to 128
    V = SeifertMatrix([[2, 1], [0, 1]])
    assert alexander(V) == (2, -3, 2)
    angle = sp.acos(sp.Rational(3, 4)) / (2 * sp.pi)
    c = int(sp.floor(sp.N(angle * 2 ** 90, 60)))
    below, above = F(c, 2 ** 90), F(c + 1, 2 ** 90)
    asked = []
    fixed_cos = seifert.fixed_cos

    def counted(n, js, bits):
        asked.append(bits)
        return fixed_cos(n, js, bits)

    monkeypatch.setattr(seifert, "fixed_cos", counted)
    arcs = seifert._Arcs(alexander(V))
    assert (arcs.rank(below), arcs.rank(above)) == (0, 1)
    assert sorted(set(asked)) == [64, 128]
    assert (seifert.signature(V, below), seifert.signature(V, above)) == (0, 2)


def test_antisymmetric_cross_entries_stay_in_one_block():
    # V[0][2] = 1 = -V[2][0] cancels in V + V^T but not in the form, whose
    # (0, 2) entry is (conj(w) - w); the Pfaffian of V - V^T is still 1
    V = SeifertMatrix([[-1, 1, 1, 0], [0, -1, 0, 0],
                       [-1, 0, 2, 1], [0, 0, 0, 1]])
    assert V.blocks == [[0, 1, 2, 3]]
    assert block_sum([(1, 0, 1), (2, 1, 3)]).blocks == [[0, 1], [2, 3]]
    for d in (5, 7, 12):
        K = CyclotomicField(d)
        c1 = K.sub(K.one(), K.zeta_elt(1))
        c2 = K.sub(K.one(), K.zeta_elt(d - 1))
        E = V.entries
        B = [[K.add(K.scale(c1, E[r][c]), K.scale(c2, E[c][r]))
              for c in range(4)] for r in range(4)]
        plus, minus, zero = hermitian_inertia(K, B)
        assert zero == 0
        assert lt_signature(V, F(1, d)) == plus - minus


# ---------------------------------------------------------------------------
# oracles for the isolator and the search


def _phi_table(limit):
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
    return phi


def test_phi_floor_bounds_every_later_totient():
    phi = _phi_table(20000)
    suffix_min = phi[:]
    for e in range(19999, 0, -1):
        suffix_min[e] = min(phi[e], suffix_min[e + 1])
    for d in range(1, 4000):
        assert 1 <= _phi_floor(d) <= suffix_min[d], d
    # and it grows linearly, so the search over d stops early
    assert _phi_floor(200) >= 40


@pytest.mark.parametrize("coeffs", [
    [-3, 2], [1, 0, -2], [-1, -1, 1], [1, 1, -4, -4, 1, 1],
    [2, -9, 0, 7, -1], [5, 0, -17, 0, 3], [-1, 3, 0, -1]])
def test_sturm_isolation_matches_sympy(coeffs):
    x = sp.Symbol("x")
    poly = sp.Poly(sum(c * x ** i for i, c in enumerate(coeffs)), x)
    roots = [r for r in poly.real_roots() if -2 < r < 2]
    brackets = sorted(_isolate(_sturm_chain(coeffs)))
    assert len(brackets) == len(roots)
    for (lo, hi), r in zip(brackets, sorted(roots)):
        assert sp.Rational(lo.numerator, lo.denominator) < r
        assert r < sp.Rational(hi.numerator, hi.denominator)


def _oracle_point(delta, t):
    """The (phi(d), d, a)-least a/d in (0, 1/2] with no root of delta on
    the circle between its angle and min(t, 1 - t), by brute force over the
    roots' angles at 40 digits."""
    x = sp.Symbol("x")
    poly = sp.Poly(sum(c * x ** i for i, c in enumerate(delta)), x)
    angles = []
    for root in set(poly.all_roots()):
        z = complex(sp.N(root, 40))
        if sp.im(sp.N(root, 40)) > 0 and abs(abs(z) - 1) < 1e-9:
            angle = sp.N(sp.arg(root) / (2 * sp.pi), 40)
            angles.append(mpmath.mpf(str(angle)))
    s = min(t, 1 - t)
    sv = mpmath.mpf(s.numerator) / s.denominator
    below = max([a for a in angles if a < sv], default=mpmath.mpf(0))
    above = min([a for a in angles if a > sv], default=mpmath.mpf(1))
    best = None
    for d in range(2, 400):
        for a in range(1, d // 2 + 1):
            if gcd(a, d) == 1 and below < mpmath.mpf(a) / d < above:
                key = (euler_phi(d), d, a)
                best = key if best is None else min(best, key)
    return F(best[2], best[1])


@pytest.mark.parametrize("parts, ts", [
    ([(1, 0, 2)], [F(1, 5), F(1, 13), F(3, 7)]),
    ([(1, 0, 3), (2, 1, 5)], [F(1, 9), F(1, 11), F(2, 9), F(4, 9)]),
    ([(-1, 1, -1), (1, 0, 7)], [F(1, 20), F(1, 7), F(3, 10)]),
    ([(2, 0, 2), (1, 1, 3), (1, 0, 4)], [F(1, 25), F(1, 19), F(2, 11)]),
])
def test_arc_point_is_the_least_phi_point_of_the_arc(parts, ts):
    V = block_sum(parts)
    for t in ts:
        assert arc_point(V, t) == _oracle_point(alexander(V), t), t


# ---------------------------------------------------------------------------
# properties on random genus-one block sums

parts = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                           st.integers(-3, 3)), min_size=1, max_size=3)


@st.composite
def points(draw):
    # 1/6 and 5/6 are singular for every genus-one block with det V = 1
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from([F(1, 6), F(5, 6)]))
    d = draw(st.integers(2, 24))
    return F(draw(st.integers(1, d - 1)), d)


def congruent(V, ops):
    """P V P^T for P the product of elementary matrices I + c E_ij, plus
    one I + E_(2k, 2k+2) per pair of neighbouring blocks, so P mixes them;
    det P = 1."""
    n = V.size
    M = [list(row) for row in V.entries]
    steps = [(i % n, j % n, c) for i, j, c in ops if i % n != j % n]
    steps += [(2 * k, 2 * k + 2, 1) for k in range(n // 2 - 1)]
    for i, j, c in steps:
        # row i += c row j, then column i += c column j
        M[i] = [a + c * b for a, b in zip(M[i], M[j])]
        for row in M:
            row[i] += c * row[j]
    return SeifertMatrix(M)


PROPERTY = settings(derandomize=True, max_examples=60, deadline=None,
                    database=None)


@PROPERTY
@given(parts, st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                                 st.integers(-2, 2)), max_size=6), points())
def test_unimodular_congruence_keeps_the_signature(parts, ops, t):
    # the mixed matrix is mostly one block, so this is the oracle for the
    # block split of V
    V = block_sum(parts)
    W = congruent(V, ops)
    assert outcome(W, t) == outcome(V, t)


@PROPERTY
@given(parts, parts, points())
def test_signature_adds_over_block_sums(left, right, t):
    V, W = block_sum(left), block_sum(right)
    both = outcome(block_sum(left + right), t)
    parts_ = (outcome(V, t), outcome(W, t))
    if any(isinstance(x, str) for x in parts_):
        assert both == "form singular at t = %s" % t
    else:
        assert both == sum(parts_)


@PROPERTY
@given(parts, points())
def test_signature_symmetries_and_bound(parts, t):
    V = block_sum(parts)
    value = outcome(V, t)
    mirrored = outcome(V.mirror(), t)
    assert outcome(V, 1 - t) == (value if isinstance(value, int)
                                 else "form singular at t = %s" % (1 - t))
    if isinstance(value, int):
        assert mirrored == -value
        assert abs(value) <= V.size
        assert value % 2 == 0
    else:
        assert mirrored == value


@PROPERTY
@given(parts, points())
def test_arc_route_equals_direct_route(parts, t):
    V = block_sum(parts)
    assert arc_outcome(V, t) == outcome(V, t)
    # and the point is no dearer than t itself
    if isinstance(outcome(V, t), int):
        assert euler_phi(arc_point(V, t).denominator) <= euler_phi(
            t.denominator)
