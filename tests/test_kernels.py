import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotconcord import _inertia_py, linalg, seifert
from knotconcord._inertia_py import hermitian_pivots
from knotconcord.cyclo import CyclotomicField
from knotconcord.errors import PreconditionError
from knotconcord.kernels import hermitian_inertia


def pack(F, fracs):
    """The element of F with these rational power-basis coordinates."""
    fracs = [Fraction(x) for x in fracs]
    den = math.lcm(*(f.denominator for f in fracs))
    return F.normalize(([int(f * den) for f in fracs], den))


def rational_matrix(F, rows):
    return [[pack(F, [x] + [0] * (F.deg - 1)) for x in row] for row in rows]


def test_rational_inertia_frozen():
    F = CyclotomicField(1)
    assert hermitian_inertia(F, rational_matrix(F, [[1, 0], [0, 1]])) == (2, 0, 0)
    assert hermitian_inertia(F, rational_matrix(F, [[2, 1], [1, -2]])) == (1, 1, 0)
    assert hermitian_inertia(F, rational_matrix(F, [[0, 1], [1, 0]])) == (1, 1, 0)
    assert hermitian_inertia(F, rational_matrix(F, [[0, 0], [0, 0]])) == (0, 0, 2)
    assert hermitian_inertia(F, rational_matrix(F, [[1, 1], [1, 1]])) == (1, 0, 1)
    assert hermitian_inertia(F, []) == (0, 0, 0)


def jacobi_inertia(M):
    """Inertia via signs of leading principal minors; valid when all minors
    are nonzero (Jacobi's theorem)."""
    n = len(M)
    minors = [1]
    for k in range(1, n + 1):
        sub = [row[:k] for row in M[:k]]
        d = linalg.det_bareiss(sub)
        if d == 0:
            return None
        minors.append(d)
    plus = minus = 0
    for k in range(1, n + 1):
        if minors[k - 1] * minors[k] > 0:
            plus += 1
        else:
            minus += 1
    return (plus, minus, 0)


def test_rational_inertia_matches_jacobi():
    rng = random.Random(301)
    F = CyclotomicField(1)
    checked = 0
    while checked < 40:
        n = rng.randint(1, 6)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        M = [[A[i][j] + A[j][i] for j in range(n)] for i in range(n)]
        want = jacobi_inertia(M)
        if want is None:
            continue
        got = hermitian_inertia(F, rational_matrix(F, M))
        assert got == want
        checked += 1


def random_hermitian(rng, F, n):
    C = [[pack(F, [rng.randint(-3, 3) for _ in range(F.deg)])
          for _ in range(n)] for _ in range(n)]
    return [[F.add(C[i][j], F.conj(C[j][i])) for j in range(n)] for i in range(n)]


def test_inertia_dimensions_and_congruence_invariance():
    rng = random.Random(302)
    for n_field in (5, 7, 12):
        F = CyclotomicField(n_field)
        for _ in range(6):
            n = rng.randint(1, 4)
            A = random_hermitian(rng, F, n)
            p, m, z = hermitian_inertia(F, A)
            assert p + m + z == n
            # congruence P^H A P with unit upper triangular P preserves inertia
            P = [[F.one() if i == j
                  else (pack(F, [rng.randint(-2, 2) for _ in range(F.deg)])
                        if i < j else F.zero())
                  for j in range(n)] for i in range(n)]
            PH = [[F.conj(P[j][i]) for j in range(n)] for i in range(n)]
            AP = [[_dot(F, PH[i], [A[k][j] for k in range(n)]) for j in range(n)]
                  for i in range(n)]
            B = [[_dot(F, AP[i], [P[k][j] for k in range(n)]) for j in range(n)]
                 for i in range(n)]
            assert hermitian_inertia(F, B) == (p, m, z)


def _dot(F, u, v):
    acc = F.zero()
    for a, b in zip(u, v):
        acc = F.add(acc, F.mul(a, b))
    return acc


def test_hyperbolic_block_over_cyclotomic():
    # [[0, b], [conj(b), 0]] has inertia (1, 1, 0) for any nonzero b: the
    # congruence makes the first diagonal 2 b conj(b), and the Schur
    # complement left on the second is -|b|^2 / (2 |b|^2) = -1/2
    F = CyclotomicField(7)
    b = F.add(F.zeta_elt(1), F.scale(F.zeta_elt(3), 2))
    Z = F.zero()
    A = [[Z, b], [F.conj(b), Z]]
    assert hermitian_inertia(F, A) == (1, 1, 0)
    bb = F.mul(b, F.conj(b))
    want = [F.add(bb, bb), rational_matrix(F, [[Fraction(-1, 2)]])[0][0]]
    assert hermitian_pivots(F, A) == (want, 0)
    assert hermitian_pivots(F, [[Z, Z, Z], [Z, Z, b], [Z, F.conj(b), Z]]) == (
        want, 1)


def test_trefoil_signature_value_frozen():
    # (1-w)V + (1-conj w)V^T for the trefoil at w = exp(2 pi i / 5)
    F = CyclotomicField(5)
    V = [[-1, 1], [0, -1]]
    one = F.one()
    c1 = F.sub(one, F.zeta_elt(1))
    c2 = F.sub(one, F.zeta_elt(4))
    B = [[F.add(F.scale(c1, V[r][c]), F.scale(c2, V[c][r])) for c in range(2)]
         for r in range(2)]
    assert hermitian_inertia(F, B) == (0, 2, 0)


def test_non_square_matrix_is_a_precondition_error():
    F = CyclotomicField(5)
    with pytest.raises(PreconditionError, match="square"):
        hermitian_inertia(F, [[F.one(), F.zero()], [F.zero()]])
    with pytest.raises(PreconditionError, match="square"):
        hermitian_inertia(F, [[F.one(), F.zero()]])


@st.composite
def hermitian_pairs(draw):
    """A field and two Hermitian matrices over it; a matrix may have an
    all-zero diagonal, which forces the congruence before a pivot."""
    F = CyclotomicField(draw(st.integers(1, 12)))
    coeff = st.integers(-3, 3)

    def matrix():
        n = draw(st.integers(1, 3))
        C = [[(draw(st.lists(coeff, min_size=F.deg, max_size=F.deg)), 1)
              for _ in range(n)] for _ in range(n)]
        A = [[F.add(C[i][j], F.conj(C[j][i])) for j in range(n)]
             for i in range(n)]
        if draw(st.booleans()):
            for i in range(n):
                A[i][i] = F.zero()
        return A

    return F, matrix(), matrix()


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(hermitian_pairs())
def test_inertia_is_additive_on_block_sums(case):
    F, A, B = case
    n, m = len(A), len(B)
    S = [A[i] + [F.zero()] * m for i in range(n)]
    S += [[F.zero()] * n + B[i] for i in range(m)]
    a, b = hermitian_inertia(F, A), hermitian_inertia(F, B)
    assert hermitian_inertia(F, S) == tuple(x + y for x, y in zip(a, b))


def dense_hermitian_pivots(F, matrix):
    """The pivot loop that keeps the whole matrix and updates every pair of
    remaining rows, zero or not: the oracle `hermitian_pivots`, which keeps
    one triangle and skips the pairs a step leaves as they are, is held to."""
    mul, add, sub, conj = F.mul, F.add, F.sub, F.conj
    inverse, is_zero = F.inverse, F.is_zero
    A = [list(row) for row in matrix]
    active = list(range(len(A)))
    pivots = []
    while active:
        pi = next((i for i in active if not is_zero(A[i][i])), -1)
        if pi < 0:
            pairs = [(i, j) for ii, i in enumerate(active)
                     for j in active[ii + 1:] if not is_zero(A[i][j])]
            if not pairs:
                return pivots, len(active)
            pi, j = pairs[0]
            b = A[pi][j]
            for c in active:
                A[pi][c] = add(A[pi][c], mul(b, A[j][c]))
            for r in active:
                A[r][pi] = add(A[r][pi], mul(conj(b), A[r][j]))
        p = A[pi][pi]
        pivots.append(p)
        ip = inverse(p)
        rest = [i for i in active if i != pi]
        w = [mul(A[r][pi], ip) for r in rest]
        for ri, r in enumerate(rest):
            for c in rest[ri:]:
                upd = sub(A[r][c], mul(w[ri], A[pi][c]))
                A[r][c] = upd
                if c != r:
                    A[c][r] = conj(upd)
        active = rest
    return pivots, 0


def two_block_pivots(F, matrix):
    """The reduction with a second elimination step, kept as an inertia
    oracle: on an all-zero diagonal it splits off the hyperbolic block
    [[0, b], [conj(b), 0]], one positive and one negative eigenvalue.
    Returns (pivots, two_blocks, zero_dim)."""
    mul, add, sub, conj = F.mul, F.add, F.sub, F.conj
    inverse, is_zero = F.inverse, F.is_zero
    A = [list(row) for row in matrix]
    active = list(range(len(A)))
    pivots = []
    two_blocks = 0
    while active:
        pi = next((i for i in active if not is_zero(A[i][i])), -1)
        if pi >= 0:
            p = A[pi][pi]
            pivots.append(p)
            ip = inverse(p)
            Ap = A[pi]
            active = [i for i in active if i != pi]
            nz = [c for c in active if not is_zero(Ap[c])]
            for ri, r in enumerate(nz):
                Ar = A[r]
                wr = mul(Ar[pi], ip)
                for c in nz[ri:]:
                    upd = sub(Ar[c], mul(wr, Ap[c]))
                    Ar[c] = upd
                    if c != r:
                        A[c][r] = conj(upd)
            continue
        pairs = [(i, j) for ii, i in enumerate(active) for j in active[ii + 1:]
                 if not is_zero(A[i][j])]
        if not pairs:
            return pivots, two_blocks, len(active)
        fi, fj = pairs[0]
        two_blocks += 1
        ib = inverse(A[fi][fj])
        ibc = conj(ib)
        Ai, Aj = A[fi], A[fj]
        active = [i for i in active if i != fi and i != fj]
        nz = [c for c in active if not (is_zero(Ai[c]) and is_zero(Aj[c]))]
        # A[r][c] -= A[r][fj]*(1/b)*A[fi][c] + A[r][fi]*(1/conj(b))*A[fj][c]
        for ri, r in enumerate(nz):
            Ar = A[r]
            ur = mul(Ar[fj], ib)
            vr = mul(Ar[fi], ibc)
            for c in nz[ri:]:
                t = add(mul(ur, Ai[c]), mul(vr, Aj[c]))
                upd = sub(Ar[c], t)
                Ar[c] = upd
                if c != r:
                    A[c][r] = conj(upd)
    return pivots, two_blocks, 0


def two_block_inertia(F, matrix):
    pivots, two_blocks, zero_dim = two_block_pivots(F, matrix)
    signs = [F.sign_real(p) for p in pivots]
    return (signs.count(1) + two_blocks, signs.count(-1) + two_blocks,
            zero_dim)


@st.composite
def sparse_hermitian(draw):
    """A field and a Hermitian matrix over it whose nonzero entries lie in
    a band or at random places, with an all-zero diagonal (the congruence
    before a pivot), zero rows and repeated rows (a singular block) mixed
    in."""
    F = CyclotomicField(draw(st.sampled_from([1, 3, 4, 5, 7, 8, 12])))
    n = draw(st.integers(1, 9))
    band = draw(st.integers(0, n))
    density = draw(st.sampled_from([0.2, 0.5, 1.0]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def element():
        return (F.normalize(([rng.randint(-3, 3) for _ in range(F.deg)],
                             rng.randint(1, 3))))

    A = [[F.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, min(n, i + band + 1)):
            if rng.random() < density:
                a = element()
                A[i][j] = F.add(a, F.conj(a)) if i == j else a
                A[j][i] = F.conj(A[i][j])
    if draw(st.booleans()):
        for i in range(n):
            A[i][i] = F.zero()
    # each index reads the rows of another: -1 gives a zero row, an earlier
    # index a repeated one; the result is Hermitian again
    source = [draw(st.sampled_from([i, i, i, -1] + list(range(i))))
              for i in range(n)]
    zero = F.zero()
    return F, [[A[s][t] if s >= 0 and t >= 0 else zero for t in source]
               for s in source]


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(sparse_hermitian())
def test_sparse_pivots_match_dense_oracle(case):
    F, A = case
    assert hermitian_pivots(F, A) == dense_hermitian_pivots(F, A)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(sparse_hermitian())
def test_inertia_matches_two_block_oracle(case):
    F, A = case
    assert hermitian_inertia(F, A) == two_block_inertia(F, A)


def _seifert_form(F, V, a):
    """(1 - w)V + (1 - conj w)V^T at w = zeta_d^a, built in full."""
    c1 = F.sub(F.one(), F.zeta_elt(a))
    c2 = F.sub(F.one(), F.zeta_elt(F.n - a))
    E = V.entries
    return [[F.add(F.scale(c1, E[r][c]), F.scale(c2, E[c][r]))
             for c in range(V.size)] for r in range(V.size)]


@pytest.mark.parametrize("p,q", [(2, 5), (-3, 4), (-4, 5), (-6, 7)])
def test_torus_forms_match_dense_oracle(p, q):
    V = seifert.torus_matrix(p, q)
    for d, a in ((3, 1), (5, 2), (7, 3), (8, 1)):
        F = CyclotomicField(d)
        B = _seifert_form(F, V, a)
        assert hermitian_pivots(F, B) == dense_hermitian_pivots(F, B)


class _CountingField:
    """A field that counts its products and conjugations."""

    def __init__(self, F):
        self._F = F
        self.products = 0
        self.conjugations = 0

    def __getattr__(self, name):
        return getattr(self._F, name)

    def mul(self, a, b):
        self.products += 1
        return self._F.mul(a, b)

    def conj(self, a):
        self.conjugations += 1
        return self._F.conj(a)


def test_banded_form_skips_zero_products(monkeypatch):
    # T(-6,7) is 30 x 30 with half-bandwidth 6; updating every pair, as the
    # dense loop does, makes 4,930 products at t = 1/5, most of them by 0;
    # keeping one triangle conjugates once per nonzero entry of a pivot's
    # row, where writing both triangles made 328 conjugations
    forms = []
    pivots = _inertia_py.hermitian_pivots

    def record(F, matrix):
        forms.append((F, matrix))
        return pivots(F, matrix)

    monkeypatch.setattr(_inertia_py, "hermitian_pivots", record)
    V = seifert.torus_matrix(-6, 7)
    assert seifert.lt_signature(V, Fraction(1, 5)) == 12
    (F, B), = forms
    sparse, dense = _CountingField(F), _CountingField(F)
    assert pivots(sparse, B) == dense_hermitian_pivots(dense, B)
    assert dense.products == 4930
    assert sparse.products <= 620
    assert sparse.conjugations <= 146


def test_block_sums_share_the_zero_element():
    # lt_signature builds every block's form on one shared zero element
    A, B = seifert.torus_matrix(2, 5), seifert.torus_matrix(-3, 4)
    for t in (Fraction(1, 5), Fraction(2, 7)):
        assert seifert.lt_signature(A.block_sum(B).block_sum(A), t) == (
            2 * seifert.lt_signature(A, t) + seifert.lt_signature(B, t))
