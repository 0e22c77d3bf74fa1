import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotconcord import linalg
from knotconcord.cyclo import CyclotomicField
from knotconcord.errors import PreconditionError
from knotconcord.kernels import hermitian_inertia


def rational_matrix(F, rows):
    return [[F.from_rational(x) for x in row] for row in rows]


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
    C = [[F.pack([Fraction(rng.randint(-3, 3)) for _ in range(F.deg)])
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
                  else (F.pack([Fraction(rng.randint(-2, 2)) for _ in range(F.deg)])
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
    # [[0, b], [conj(b), 0]] has inertia (1, 1, 0) for any nonzero b
    F = CyclotomicField(7)
    b = F.add(F.zeta_elt(1), F.scale(F.zeta_elt(3), 2))
    A = [[F.zero(), b], [F.conj(b), F.zero()]]
    assert hermitian_inertia(F, A) == (1, 1, 0)


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
    all-zero diagonal, which forces the hyperbolic-block branch."""
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
