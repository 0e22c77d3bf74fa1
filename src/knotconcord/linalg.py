"""Exact matrix utilities over Z and Q.

Everything in this module is fraction-free or Fraction-based; no floating
point anywhere.  Matrices are lists of lists (rows) of ints or Fractions.
Only invert_rational works over Fraction; the inverse of a unimodular
matrix (invert_integer) is computed with integers alone.
"""

from fractions import Fraction
from math import gcd

from .errors import PreconditionError


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(r, c):
    return [[0] * c for _ in range(r)]


def copy_mat(M):
    return [row[:] for row in M]


def transpose(M):
    if not M:
        return []
    return [list(col) for col in zip(*M)]


def mat_mul(A, B):
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    if any(len(row) != k for row in A):
        raise PreconditionError("matrix shapes do not match for a product")
    C = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        Ci = C[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(m):
                    Ci[j] += a * Bt[j]
    return C


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_pow(A, k):
    n = len(A)
    R = identity(n)
    P = copy_mat(A)
    while k:
        if k & 1:
            R = mat_mul(R, P)
        k >>= 1
        if k:
            P = mat_mul(P, P)
    return R


def det_bareiss(M):
    """Determinant of an integer matrix by fraction-free elimination."""
    n = len(M)
    if n == 0:
        return 1
    A = copy_mat(M)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k] != 0:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = A[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (pk * A[i][j] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = pk
    return sign * A[n - 1][n - 1]


def invert_rational(M):
    """Inverse of a nonsingular matrix, returned over Fraction."""
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


def invert_integer(M):
    """Inverse of an integer matrix with determinant +-1.

    [M | I] is row-reduced over Z by unimodular operations: Euclid down
    each column until one entry is left, which must be +-1, then the
    entries above it are cleared.  The product of the pivots is +-det M,
    so a pivot that is missing or not +-1 means M is not unimodular.
    """
    n = len(M)
    A = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(M)]
    for c in range(n):
        while True:
            live = [i for i in range(c, n) if A[i][c]]
            if not live:
                raise PreconditionError("matrix is not unimodular")
            p = min(live, key=lambda i: abs(A[i][c]))
            if len(live) == 1:
                break
            prow = A[p]
            a = prow[c]
            for i in live:
                if i != p:
                    q = A[i][c] // a
                    A[i] = [x - q * y for x, y in zip(A[i], prow)]
        A[c], A[p] = A[p], A[c]
        prow = A[c]
        if prow[c] not in (1, -1):
            raise PreconditionError("matrix is not unimodular")
        if prow[c] == -1:
            prow = A[c] = [-x for x in prow]
        for i in range(c):
            f = A[i][c]
            if f:
                A[i] = [x - f * y for x, y in zip(A[i], prow)]
    return [row[n:] for row in A]


# ---------------------------------------------------------------------------
# Smith normal form with transforms.
#
# smith_normal_form(M) returns (D, U, V, Uinv, Vinv) with U*M*V = D,
# U, V unimodular, D diagonal with d_1 | d_2 | ... (trailing zeros allowed;
# diagonal entries are normalised nonnegative).

def _swap_rows(M, i, j):
    M[i], M[j] = M[j], M[i]


def _swap_cols(M, i, j):
    for row in M:
        row[i], row[j] = row[j], row[i]


def _addmul_row(M, dst, src, c):
    M[dst] = [a + c * b for a, b in zip(M[dst], M[src])]


def _addmul_col(M, dst, src, c):
    for row in M:
        row[dst] += c * row[src]


def smith_normal_form(M):
    rows = len(M)
    cols = len(M[0]) if rows else 0
    A = copy_mat(M)
    U = identity(rows)
    Uinv = identity(rows)
    V = identity(cols)
    Vinv = identity(cols)

    def row_op(dst, src, c):
        # A <- E A with E adding c*src to dst; U <- E U; Uinv <- Uinv E^-1
        _addmul_row(A, dst, src, c)
        _addmul_row(U, dst, src, c)
        _addmul_col(Uinv, src, dst, -c)

    def col_op(dst, src, c):
        _addmul_col(A, dst, src, c)
        _addmul_col(V, dst, src, c)
        _addmul_row(Vinv, src, dst, -c)

    def row_swap(i, j):
        _swap_rows(A, i, j)
        _swap_rows(U, i, j)
        _swap_cols(Uinv, i, j)

    def col_swap(i, j):
        _swap_cols(A, i, j)
        _swap_cols(V, i, j)
        _swap_rows(Vinv, i, j)

    def row_negate(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]
        for row in Uinv:
            row[i] = -row[i]

    k = 0
    while k < min(rows, cols):
        # locate a pivot: smallest nonzero entry in the remaining block
        piv = None
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                a = A[i][j]
                if a != 0 and (best is None or abs(a) < best):
                    best = abs(a)
                    piv = (i, j)
        if piv is None:
            break
        row_swap(k, piv[0])
        col_swap(k, piv[1])
        dirty = False
        for i in range(k + 1, rows):
            if A[i][k] != 0:
                q = A[i][k] // A[k][k]
                row_op(i, k, -q)
                if A[i][k] != 0:
                    dirty = True
        for j in range(k + 1, cols):
            if A[k][j] != 0:
                q = A[k][j] // A[k][k]
                col_op(j, k, -q)
                if A[k][j] != 0:
                    dirty = True
        if dirty:
            continue
        # pivot divides its row and column; enforce divisibility of the rest
        stray = None
        for i in range(k + 1, rows):
            for j in range(k + 1, cols):
                if A[i][j] % A[k][k] != 0:
                    stray = i
                    break
            if stray is not None:
                break
        if stray is not None:
            row_op(k, stray, 1)
            continue
        if A[k][k] < 0:
            row_negate(k)
        k += 1
    D = A
    return D, U, V, Uinv, Vinv


def smith_diagonal(M):
    D, *_ = smith_normal_form(M)
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]


def integer_kernel(M):
    """Basis (list of vectors) of the integer kernel of M."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    if rows == 0:
        return [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    D, U, V, Uinv, Vinv = smith_normal_form(M)
    r = 0
    for i in range(min(rows, cols)):
        if D[i][i] != 0:
            r += 1
    ker = []
    for j in range(r, cols):
        ker.append([V[i][j] for i in range(cols)])
    return ker


# ---------------------------------------------------------------------------
# Hermite normal form (row style) for integer lattices.
#
# Rows of the result generate the same row lattice; the form is upper
# triangular after column permutation with positive pivots and entries above
# each pivot reduced, so equal lattices give equal matrices.

def hermite_normal_form(rows_in):
    rows = [list(r) for r in rows_in if any(r)]
    if not rows:
        return []
    cols = len(rows[0])
    out = []
    col = 0
    while col < cols and rows:
        # gcd-reduce column `col` to a single row
        while True:
            nz = [r for r in rows if r[col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda r: abs(r[col]))
            a, b = nz[0], nz[1]
            q = b[col] // a[col]
            for j in range(cols):
                b[j] -= q * a[j]
        pivot_row = None
        for r in rows:
            if r[col] != 0:
                pivot_row = r
                break
        if pivot_row is not None:
            rows.remove(pivot_row)
            if pivot_row[col] < 0:
                pivot_row = [-x for x in pivot_row]
            # reduce earlier pivots' entries in this column
            out.append(pivot_row)
        col += 1
    # reduce entries above pivots
    out = [r[:] for r in out]
    pivots = []
    for r in out:
        c = next(j for j in range(cols) if r[j] != 0)
        pivots.append(c)
    # reduce each row by every lower row, in left-to-right pivot order, so
    # fill-in from one reduction is cleaned by the following pivots
    for i in range(len(out) - 2, -1, -1):
        for j in range(i + 1, len(out)):
            c = pivots[j]
            q = out[i][c] // out[j][c]
            if q:
                out[i] = [a - q * b for a, b in zip(out[i], out[j])]
    return out


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


# ---------------------------------------------------------------------------
# Modular linear algebra.  The moduli here are small (residue rings of the
# covers we handle), so plain dense elimination is adequate.

def modp_rref(M, p):
    """Row-reduce M over the field Z_p.  Returns (rref, pivot_columns)."""
    A = [[x % p for x in row] for row in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if A[i][c] % p), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = pow(A[r][c], -1, p)
        A[r] = [(x * inv) % p for x in A[r]]
        for i in range(rows):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [(x - f * y) % p for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return A, pivots


def modp_kernel(M, p):
    """Basis of {v : M v = 0 mod p}, as a list of column vectors."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    if rows == 0:
        return [tuple(int(i == j) for i in range(cols)) for j in range(cols)]
    R, pivots = modp_rref(M, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * cols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-R[r][f]) % p
        basis.append(tuple(v))
    return basis


def modm_inverse(M, m):
    """Inverse of M over Z_m (entries of the rational inverse reduced mod m)."""
    inv = invert_rational(M)
    out = []
    for row in inv:
        r = []
        for x in row:
            if gcd(x.denominator, m) != 1:
                raise ZeroDivisionError("matrix not invertible mod %d" % m)
            r.append(x.numerator * pow(x.denominator, -1, m) % m)
        out.append(r)
    return out


def modm_mat_mul(A, B, m):
    return [[sum(a * b for a, b in zip(row, col)) % m
             for col in zip(*B)] for row in A]
