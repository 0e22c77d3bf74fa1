import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotconcord import linalg
from knotconcord.cover import MAX_LAYERED_SIZE, _deck_matrix
from knotconcord.errors import PreconditionError
from knotconcord.seifert import torus_matrix


def frac_det(M):
    # reference determinant: Gaussian elimination over Fraction
    A = [[Fraction(x) for x in row] for row in M]
    n = len(A)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = -det
        det *= A[c][c]
        for r in range(c + 1, n):
            f = A[r][c] / A[c][c]
            A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return det


def random_matrix(rng, n, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def test_det_bareiss_matches_fraction_elimination():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randint(1, 6)
        M = random_matrix(rng, n)
        assert linalg.det_bareiss(M) == frac_det(M)


def dense_det_bareiss(M):
    """Fraction-free elimination that updates every entry below and to the
    right of each pivot: the oracle det_bareiss, which works only on the
    nonzero ones and puts off the scaling of the rows it skips, is held to."""
    n = len(M)
    if n == 0:
        return 1
    A = linalg.copy_mat(M)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k]), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        pk = A[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (pk * A[i][j] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = pk
    return sign * A[n - 1][n - 1]


@st.composite
def sparse_integer_matrices(draw):
    """Square integer matrices with nonzero entries in a band or at random
    places; the rows may be shuffled, which makes elimination swap rows."""
    n = draw(st.integers(0, 10))
    band = draw(st.integers(0, n))
    density = draw(st.sampled_from([0.15, 0.4, 1.0]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    M = [[rng.randint(-9, 9) if abs(i - j) <= band and rng.random() < density
          else 0 for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        rng.shuffle(M)
    return M


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(sparse_integer_matrices())
def test_det_bareiss_matches_dense_oracle(M):
    assert linalg.det_bareiss(M) == dense_det_bareiss(M)


def test_det_bareiss_sparse_rows_need_swaps():
    # zero leading pivots force row swaps; skipped rows are scaled late
    rng = random.Random(103)
    swapped = 0
    for _ in range(200):
        n = rng.randint(2, 12)
        M = [[rng.choice((0, 0, 0, 1, -2, 3)) for _ in range(n)]
             for _ in range(n)]
        swapped += M[0][0] == 0 and any(row[0] for row in M)
        assert linalg.det_bareiss(M) == dense_det_bareiss(M) == frac_det(M)
    assert swapped > 20


def test_det_bareiss_alexander_samples_match_dense_oracle():
    E = torus_matrix(-6, 7).entries
    n = len(E)
    for k in (2, 5, 16):
        M = [[E[i][j] - k * E[j][i] for j in range(n)] for i in range(n)]
        assert linalg.det_bareiss(M) == dense_det_bareiss(M)


def test_det_bareiss_known_values():
    assert linalg.det_bareiss([]) == 1
    assert linalg.det_bareiss([[7]]) == 7
    assert linalg.det_bareiss([[0, 1], [-1, 0]]) == 1
    assert linalg.det_bareiss([[1, 2], [3, 4]]) == -2


def invert_rational(M):
    # reference inverse of a nonsingular matrix: Gauss-Jordan over Fraction
    n = len(M)
    A = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(M)]
    for k in range(n):
        piv = None
        for i in range(k, n):
            if A[i][k] != 0:
                piv = i
                break
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        A[k], A[piv] = A[piv], A[k]
        p = A[k][k]
        A[k] = [x / p for x in A[k]]
        for i in range(n):
            if i != k and A[i][k] != 0:
                c = A[i][k]
                A[i] = [x - c * y for x, y in zip(A[i], A[k])]
    return [row[n:] for row in A]


def test_invert_rational_roundtrip():
    rng = random.Random(102)
    for _ in range(30):
        n = rng.randint(1, 5)
        M = random_matrix(rng, n)
        if linalg.det_bareiss(M) == 0:
            continue
        inv = invert_rational(M)
        prod = linalg.mat_mul(M, inv)
        assert prod == linalg.identity(n)


def random_unimodular(rng, n, steps=12):
    M = linalg.identity(n)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        for k in range(n):
            M[i][k] += c * M[j][k]
    return M


def test_invert_integer_unimodular():
    rng = random.Random(103)
    for _ in range(25):
        n = rng.randint(1, 5)
        U = random_unimodular(rng, n)
        Ui = linalg.invert_integer(U)
        assert linalg.mat_mul(U, Ui) == linalg.identity(n)
        assert all(isinstance(x, int) for row in Ui for x in row)


def _check_integer_inverse(U):
    Ui = linalg.invert_integer(U)
    assert linalg.mat_mul(U, Ui) == linalg.identity(len(U))
    assert all(type(x) is int for row in Ui for x in row)
    assert Ui == invert_rational(U)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.integers(1, 24), st.integers(0, 2 ** 32))
def test_invert_integer_random_unimodular(n, seed):
    _check_integer_inverse(random_unimodular(random.Random(seed), n,
                                             steps=4 * n))


# the deck rotations that branched_cover inverts, up to its size limit
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.integers(1, MAX_LAYERED_SIZE).flatmap(
    lambda n: st.tuples(st.just(n),
                        st.integers(2, MAX_LAYERED_SIZE // n + 1))))
def test_invert_integer_deck_matrices(case):
    n, d = case
    _check_integer_inverse(_deck_matrix(n, d))


@pytest.mark.parametrize("M", [
    [[2, 0], [0, 1]],
    [[1, 1], [-1, 1]],
    [[1, 2], [2, 4]],
    [[0, 0], [0, 0]],
    [[1, 0, 0], [0, 3, 1], [0, 0, 0]],
], ids=["diag-det2", "det2", "singular", "zero", "zero-row"])
def test_invert_integer_refuses_non_unimodular(M):
    with pytest.raises(PreconditionError):
        linalg.invert_integer(M)


def test_smith_normal_form_properties():
    rng = random.Random(104)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        M = [[rng.randint(-8, 8) for _ in range(m)] for _ in range(n)]
        D, U, V, Uinv = linalg.smith_normal_form(M)
        assert linalg.mat_mul(linalg.mat_mul(U, M), V) == D
        assert linalg.mat_mul(U, Uinv) == linalg.identity(n)
        assert abs(linalg.det_bareiss(V)) == 1
        diag = [D[i][i] for i in range(min(n, m))]
        for i in range(len(diag) - 1):
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        for i in range(n):
            for j in range(m):
                if i != j:
                    assert D[i][j] == 0
        assert all(d >= 0 for d in diag)


def test_smith_known_example():
    D, *_ = linalg.smith_normal_form([[2, 4], [6, 8]])
    assert [D[0][0], D[1][1]] == [2, 4]


def integer_kernel(M):
    """Basis (list of vectors) of the integer kernel of M."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    if rows == 0:
        return [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    D, _, V, _ = linalg.smith_normal_form(M)
    r = 0
    for i in range(min(rows, cols)):
        if D[i][i] != 0:
            r += 1
    ker = []
    for j in range(r, cols):
        ker.append([V[i][j] for i in range(cols)])
    return ker


def test_integer_kernel():
    rng = random.Random(105)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        M = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
        ker = integer_kernel(M)
        for v in ker:
            assert all(x == 0 for x in linalg.mat_vec(M, v))


def lattice_contains(hnf_rows, vec):
    """Membership of vec in the row lattice given by its Hermite form."""
    if not hnf_rows:
        return not any(vec)
    cols = len(hnf_rows[0])
    v = list(vec)
    for r in hnf_rows:
        c = next((j for j in range(cols) if r[j] != 0), None)
        if c is None:
            continue
        if v[c] % r[c] != 0:
            return False
        q = v[c] // r[c]
        if q:
            v = [a - q * b for a, b in zip(v, r)]
    return not any(v)


def test_hermite_membership():
    rng = random.Random(106)
    for _ in range(30):
        rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(3)]
        H = linalg.hermite_normal_form(rows)
        # every generator lies in the lattice spanned by the HNF rows
        for r in rows:
            assert lattice_contains(H, r)
        # HNF of the HNF is itself
        assert linalg.hermite_normal_form(H) == H
        # random integer combinations stay inside
        for _ in range(5):
            v = [0, 0, 0, 0]
            for r in rows:
                c = rng.randint(-3, 3)
                v = [a + c * b for a, b in zip(v, r)]
            assert lattice_contains(H, v)


def test_lattice_contains_rejects_outside_vector():
    H = linalg.hermite_normal_form([[2, 0], [0, 2]])
    assert lattice_contains(H, [4, 2])
    assert not lattice_contains(H, [1, 0])
    assert not lattice_contains(H, [2, 1])


def _brute_inverse_mod(M, m):
    # column j of the inverse is the one x in (Z_m)^n with M x = e_j mod m
    n = len(M)
    cols = []
    for j in range(n):
        sols = [x for x in itertools.product(range(m), repeat=n)
                if all((sum(a * b for a, b in zip(row, x)) - (i == j)) % m == 0
                       for i, row in enumerate(M))]
        if not sols:
            return None
        cols.append(sols[0])
    return [list(r) for r in zip(*cols)]


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.sampled_from([(7, 3), (49, 2), (12, 3)]).flatmap(
    lambda mn: st.tuples(st.just(mn[0]), st.integers(1, mn[1]).flatmap(
        lambda n: st.lists(st.lists(st.integers(-60, 60), min_size=n,
                                    max_size=n), min_size=n, max_size=n)))))
def test_modm_inverse_matches_brute_force(case):
    m, M = case
    expected = _brute_inverse_mod(M, m)
    if expected is None:
        with pytest.raises(ZeroDivisionError):
            linalg.modm_inverse(M, m)
    else:
        assert linalg.modm_inverse(M, m) == expected


@pytest.mark.parametrize("M, m", [
    ([[1, 2], [2, 4]], 7),
    ([[7]], 49),
    ([[2, 0], [0, 1]], 12),
    ([[3, 1], [1, 3]], 12),
], ids=["rank1-mod7", "p-mod-p2", "even-mod12", "det8-mod12"])
def test_modm_inverse_refuses_singular(M, m):
    with pytest.raises(ZeroDivisionError):
        linalg.modm_inverse(M, m)
