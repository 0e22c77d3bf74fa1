import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotconcord.cyclo import cyclotomic_polynomial
from knotconcord.linalg import det_bareiss
from knotconcord.errors import (BudgetExceeded, InternalInvariantViolation,
                                PreconditionError, SingularAtT)
from knotconcord.seifert import (
    MAX_SEIFERT_SIZE,
    SeifertMatrix,
    _alexander_coeffs,
    alexander,
    build,
    lt_signature,
    torus_matrix,
    twisted_double_matrix,
)


TREFOIL = SeifertMatrix([[-1, 1], [0, -1]])
FIG8 = SeifertMatrix([[1, 1], [0, -1]])


def poly_mul(f, g):
    # product of integer coefficient tuples, lowest degree first
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(out)


def test_matrix_validation():
    with pytest.raises(PreconditionError):
        SeifertMatrix([[0, 1], [1, 0]])           # det(V - V^T) = 0
    with pytest.raises(PreconditionError):
        SeifertMatrix([[1, 2, 3], [4, 5, 6]])     # not square
    with pytest.raises(PreconditionError):
        SeifertMatrix([[Fraction(1, 2)]])         # not integral
    with pytest.raises(PreconditionError):
        SeifertMatrix([[1]])                      # odd size


def test_alexander_known_polynomials():
    assert alexander(TREFOIL) == (1, -1, 1)
    assert alexander(FIG8) == (1, -3, 1)
    assert alexander(twisted_double_matrix(1)) == (2, -5, 2)
    assert alexander(twisted_double_matrix(2)) == (6, -13, 6)
    assert alexander(SeifertMatrix([])) == (1,)


def test_alexander_determinant_at_one_is_unit():
    rng = random.Random(401)
    for _ in range(20):
        # random genus 1 and 2 matrices with the right skew part
        V = random_seifert(rng, rng.choice([1, 2]))
        d = alexander(V)
        assert abs(sum(d)) == 1
        # Alexander polynomials are symmetric: t^n d(1/t) = d(t)
        assert d == d[::-1]


def _interpolate_integer_poly(values):
    """Integer coefficients, lowest degree first, of the polynomial f of
    degree < len(values) with f(k) = values[k]: the reference
    _alexander_coeffs is held to on the n + 1 samples D(0) .. D(n).

    Newton form over the falling factorials: f = sum_k c_k x(x-1)...(x-k+1)
    with c_k = (forward difference)^k f(0) / k!, which is an integer for
    every k exactly when f has integer coefficients."""
    n = len(values)
    diffs = list(values)
    newton = []
    fact = 1
    for k in range(n):
        if k:
            fact *= k
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        c, r = divmod(diffs[0], fact)
        if r:
            raise InternalInvariantViolation(
                "a determinant polynomial must be integral")
        newton.append(c)
    # Horner in the Newton basis: out <- out * (x - k) + c_k
    out = newton[-1:]
    for k in range(n - 2, -1, -1):
        out = [a - k * b for a, b in zip([0] + out, out + [0])]
        out[0] += newton[k]
    while out and out[-1] == 0:
        out.pop()
    return out


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=31),
       st.integers(0, 3))
def test_interpolation_round_trips_integer_polynomials(coeffs, extra):
    # extra samples beyond the degree must not change the answer
    samples = [sum(c * k ** i for i, c in enumerate(coeffs))
               for k in range(len(coeffs) + extra + 1)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    assert _interpolate_integer_poly(samples) == coeffs


def test_interpolation_refuses_non_integer_polynomials():
    # x(x - 1)/2 takes integer values at 0, 1, 2 but is not in Z[x]
    with pytest.raises(InternalInvariantViolation):
        _interpolate_integer_poly([0, 0, 1])


def skew_det(V):
    E = V.entries
    return det_bareiss([[E[i][j] - E[j][i] for j in range(V.size)]
                        for i in range(V.size)])


@st.composite
def seifert_matrices(draw, max_genus=2):
    # V - V^T the standard symplectic form, then a random unimodular
    # congruence P V P^T, so the blocks and the skew part vary
    n = 2 * draw(st.integers(0, max_genus))
    flat = draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n))
    V = [flat[i * n:(i + 1) * n] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            V[j][i] = V[i][j] - (1 if i % 2 == 0 and j == i + 1 else 0)
    if n:
        ops = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                        st.integers(-2, 2))
        for i, j, c in draw(st.lists(ops, max_size=4)):
            if i != j:
                V[i] = [a + c * b for a, b in zip(V[i], V[j])]
                for row in V:
                    row[i] += c * row[j]
    return SeifertMatrix(V)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(seifert_matrices(), seifert_matrices())
def test_derived_matrices_keep_the_skew_determinant(V, W):
    # transpose, mirror and block_sum skip the det(V - V^T) = 1 check
    for M in (V.transpose(), V.mirror(), V.block_sum(W),
              W.mirror().block_sum(V.transpose()), V.mirror().mirror()):
        assert skew_det(M) == 1
        assert SeifertMatrix(M.entries) == M
    assert V.mirror().mirror() == V == V.transpose().transpose()


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(st.integers(0, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-2, 2), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_input_matrices_are_still_validated(rows):
    skew = [[rows[i][j] - rows[j][i] for j in range(len(rows))]
            for i in range(len(rows))]
    if det_bareiss(skew) == 1:
        assert SeifertMatrix(rows).entries == tuple(map(tuple, rows))
    else:
        with pytest.raises(PreconditionError, match="det"):
            SeifertMatrix(rows)


def alexander_oracle(V):
    # the n + 1-point route: D(0) .. D(n) of the whole matrix, interpolated
    E, n = V.entries, V.size
    samples = [det_bareiss([[E[i][j] - k * E[j][i] for j in range(n)]
                            for i in range(n)]) for k in range(n + 1)]
    coeffs = _interpolate_integer_poly(samples)
    while coeffs[0] == 0:
        coeffs.pop(0)
    return tuple(c if coeffs[-1] > 0 else -c for c in coeffs)


FIXTURES = Path(__file__).parent / "fixtures"
KNOT_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.json")
                       if "kind" in json.loads(p.read_text()))


@pytest.mark.parametrize("name", KNOT_FIXTURES)
def test_alexander_half_samples_match_full_samples_on_fixtures(name):
    V = build(json.loads((FIXTURES / name).read_text())).matrix
    assert _alexander_coeffs.__wrapped__(V.entries) == alexander_oracle(V)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.lists(seifert_matrices(), min_size=1, max_size=3))
def test_alexander_half_samples_match_full_samples_on_block_sums(parts):
    V = parts[0]
    for W in parts[1:]:
        V = V.block_sum(W)
    assert _alexander_coeffs.__wrapped__(V.entries) == alexander_oracle(V)


def random_seifert(rng, genus):
    # random V with V - V^T forced to the standard symplectic form
    n = 2 * genus
    V = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    sympl = {(2 * g, 2 * g + 1) for g in range(genus)}
    for i in range(n):
        for j in range(i + 1, n):
            V[j][i] = V[i][j] - 1 if (i, j) in sympl else V[i][j]
    return SeifertMatrix(V)


def torus_alexander_oracle(p, q):
    # product of cyclotomic polynomials Phi_d over d | pq with d !| p, d !| q
    out = (1,)
    for d in range(2, p * q + 1):
        if p * q % d == 0 and p % d != 0 and q % d != 0:
            out = poly_mul(out, cyclotomic_polynomial(d))
    return out


def test_torus_matrix_pinned_trefoil():
    assert torus_matrix(2, 3).entries == ((-1, 1), (0, -1))


def test_torus_alexander_matches_cyclotomic_product():
    for p, q in [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (4, 5)]:
        assert alexander(torus_matrix(p, q)) == torus_alexander_oracle(p, q)


def test_torus_validation():
    with pytest.raises(PreconditionError):
        torus_matrix(2, 4)
    with pytest.raises(PreconditionError):
        torus_matrix(1, 5)


def test_seifert_size_budget():
    # T(-10,11), of size (10 - 1)(11 - 1) = 90, is the largest torus knot
    assert torus_matrix(-10, 11).size == MAX_SEIFERT_SIZE == 90
    with pytest.raises(BudgetExceeded) as e:
        torus_matrix(40, 41)
    assert str(e.value) == ("T(40,41) needs a Seifert matrix of size 1560, "
                            "over the budget of 90")
    assert e.value.budget == MAX_SEIFERT_SIZE
    # an explicit matrix is refused before its determinant is taken
    with pytest.raises(BudgetExceeded) as e:
        SeifertMatrix([[0] * 92 for _ in range(92)])
    assert str(e.value) == ("the knot needs a Seifert matrix of size 92, "
                            "over the budget of 90")
    # a sum fails at the first block sum past the bound
    V = TREFOIL
    for _ in range(44):
        V = V.block_sum(TREFOIL)
    assert V.size == 90
    assert V.mirror().transpose().size == 90
    with pytest.raises(BudgetExceeded):
        V.block_sum(TREFOIL)
    model = build({"kind": "sum", "summands": [
        {"knot": {"kind": "torus", "p": 2, "q": 3}}] * 46})
    with pytest.raises(BudgetExceeded):
        model.matrix


def litherland_count(p, q, t):
    c = 0
    for a in range(1, p):
        for b in range(1, q):
            if t < Fraction(a, p) + Fraction(b, q) < 1 + t:
                c += 1
    return -2 * c + (p - 1) * (q - 1)


def test_signature_frozen_classical_values():
    assert lt_signature(torus_matrix(2, 3), Fraction(1, 2)) == -2
    assert lt_signature(torus_matrix(2, 5), Fraction(1, 2)) == -4
    assert lt_signature(torus_matrix(2, 7), Fraction(1, 2)) == -6
    assert lt_signature(torus_matrix(3, 4), Fraction(1, 2)) == -6
    assert lt_signature(torus_matrix(3, 5), Fraction(1, 2)) == -8
    assert lt_signature(torus_matrix(2, 7), Fraction(1, 5)) == -2
    assert lt_signature(torus_matrix(2, 7), Fraction(2, 5)) == -6
    assert lt_signature(FIG8, Fraction(1, 2)) == 0


def test_signature_matches_lattice_count():
    rng = random.Random(402)
    cases = [(2, 5), (3, 4), (4, 5)]
    for p, q in cases:
        V = torus_matrix(p, q)
        for _ in range(3):
            den = rng.randint(5, 12)
            num = rng.randint(1, den - 1)
            t = Fraction(num, den)
            try:
                got = lt_signature(V, t)
            except SingularAtT:
                continue
            assert got == litherland_count(p, q, t)
    # large fields: phi(d) = 210, 150 and 112
    for p, q, t in [(2, 3, Fraction(1, 211)), (2, 3, Fraction(40, 151)),
                    (2, 5, Fraction(33, 113))]:
        assert lt_signature(torus_matrix(p, q), t) == litherland_count(p, q, t)


def test_signature_mirror_negates():
    V = torus_matrix(2, 5)
    W = V.mirror()
    for t in (Fraction(1, 2), Fraction(1, 3)):
        assert lt_signature(W, t) == -lt_signature(V, t)


def test_signature_singular_at_alexander_root():
    # trefoil Alexander vanishes at exp(2 pi i / 6)
    with pytest.raises(SingularAtT):
        lt_signature(TREFOIL, Fraction(1, 6))
    with pytest.raises(PreconditionError):
        lt_signature(TREFOIL, Fraction(3, 2))


def test_build_matrix_and_torus():
    m = build({"kind": "matrix", "entries": [[-1, 1], [0, -1]]})
    assert m.matrix.entries == ((-1, 1), (0, -1))
    assert m.matrix_only
    t = build({"kind": "torus", "p": 2, "q": 3})
    assert t.matrix.entries == ((-1, 1), (0, -1))


def test_build_sum_multiplies_alexander():
    s = build({"kind": "sum", "summands": [
        {"sign": 1, "knot": {"kind": "torus", "p": 2, "q": 3}},
        {"sign": -1, "knot": {"kind": "twisted_double", "a": 1}},
    ]})
    prod = poly_mul(alexander(torus_matrix(2, 3)),
                    alexander(twisted_double_matrix(1)))
    assert alexander(s) == prod


def _infections(model):
    """The infections of every summand of a KnotModel, in order."""
    return [inf for s in model.summands for inf in s.infections]


def test_build_order_two_structure():
    m = build({"kind": "order_two", "companion": {"kind": "torus", "p": 2, "q": 3}})
    assert not m.matrix_only
    assert alexander(m.matrix) == (1, -3, 1)
    infs = _infections(m)
    assert [i.curve for i in infs] == ["B1", "B2"]
    assert [i.pattern for i in infs] == ["double_lift", "double_lift"]
    assert [i.param for i in infs] == [1, 2]
    # second band carries the mirror companion
    assert infs[0].companion.matrix.entries == ((-1, 1), (0, -1))
    assert infs[1].companion.matrix.entries == ((1, 0), (-1, 1))


def test_build_satellite_with_token():
    base = {"kind": "sum", "summands": [
        {"sign": 1, "knot": {"kind": "twisted_double", "a": 1}},
        {"sign": 1, "knot": {"kind": "twisted_double", "a": 1}},
    ]}
    m = build({"kind": "satellite", "base": base, "base_token": "core",
               "infections": [
                   {"curve": "B1", "companion": {"kind": "torus", "p": 2, "q": 3},
                    "pattern": "triple_lift", "param": 1},
                   {"curve": "B2", "companion": {"kind": "mirror",
                                                 "knot": {"kind": "torus", "p": 2, "q": 3}},
                    "pattern": "triple_lift", "param": -1},
               ]})
    assert [s.token for s in m.summands if s.token is not None] == ["core"]
    assert len(_infections(m)) == 2
    assert m.matrix.size == 4
    assert alexander(m) == poly_mul((2, -5, 2), (2, -5, 2))


def test_build_rejects_bad_input():
    with pytest.raises(PreconditionError):
        build({"kind": "nonsense"})
    with pytest.raises(PreconditionError):
        build({"kind": ["torus"], "p": 2, "q": 3})
    with pytest.raises(PreconditionError):
        build({"kind": "twisted_double", "a": 0})
    with pytest.raises(PreconditionError):
        build({"kind": "sum", "summands": [{"sign": 2, "knot": {"kind": "torus", "p": 2, "q": 3}}]})
    # infected summands cannot be mirrored
    with pytest.raises(PreconditionError):
        build({"kind": "sum", "summands": [
            {"sign": -1, "knot": {"kind": "order_two",
                                  "companion": {"kind": "torus", "p": 2, "q": 3}}}]})
    # a field outside a kind's documented set is refused, not dropped
    torus = {"kind": "torus", "p": 2, "q": 3}
    base = {"kind": "matrix", "entries": [[-1, 1], [0, -1]]}
    infection = {"curve": "B1", "companion": torus, "pattern": "double_lift",
                 "param": 1}
    for spec, key in [
            ({**base, "name": "3_1"}, "name"),
            ({**torus, "r": 5}, "r"),
            ({"kind": "twisted_double", "a": 1, "n": 2}, "n"),
            ({"kind": "mirror", "knot": torus, "sign": -1}, "sign"),
            ({"kind": "sum", "summands": [], "signs": [1]}, "signs"),
            ({"kind": "sum", "summands": [{"Sign": -1, "knot": torus}]}, "Sign"),
            ({"kind": "order_two", "companion": torus, "base": base}, "base"),
            ({"kind": "satellite", "base": base, "token": "K"}, "token"),
            ({"kind": "satellite", "base": base,
              "infections": [{**infection, "params": 1}]}, "params")]:
        with pytest.raises(PreconditionError, match="unknown field '%s'" % key):
            build(spec)
