"""Exact matrix utilities over Z and Z/m.

Matrices are lists of lists (rows) of ints; no floating point anywhere.
Integer row reduction lives in hermite_normal_form alone: the inverse of
a unimodular matrix (invert_integer) and the inverse mod m (modm_inverse)
are read off Hermite forms.
"""

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
    """Determinant of an integer matrix by fraction-free elimination.

    Step k sets A[i][j] = (p_k A[i][j] - A[i][k] A[k][j]) / p_(k-1), an
    exact division (Bareiss 1968), p_k being the k-th pivot.  A row with
    A[i][k] = 0 is only scaled by p_k / p_(k-1), so its update is put off:
    at[i] records the pivot p_s after which the row was last written, its
    true entries are A[i][j] p_(k-1) / p_s, and when A[i][k] != 0 the
    update reads (p_k A[i][j] - A[i][k] A[k][j]) / p_s.  Each of these
    divisions gives an entry of the eliminated matrix, so is exact.  In a
    banded matrix only the rows that meet the band are written at each
    step."""
    n = len(M)
    if n == 0:
        return 1
    A = copy_mat(M)
    at = [1] * n
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k] != 0:
                    A[k], A[i] = A[i], A[k]
                    at[k], at[i] = at[i], at[k]
                    sign = -sign
                    break
            else:
                return 0
        Ak = A[k]
        if at[k] != prev:
            s = at[k]
            Ak[k:] = [x * prev // s for x in Ak[k:]]
        pk = Ak[k]
        tail = Ak[k + 1:]
        for i in range(k + 1, n):
            Ai = A[i]
            aik = Ai[k]
            if aik:
                s = at[i]
                Ai[k] = 0
                Ai[k + 1:] = [(pk * x - aik * y) // s
                              for x, y in zip(Ai[k + 1:], tail)]
                at[i] = pk
        prev = pk
    return sign * A[n - 1][n - 1] * prev // at[n - 1]


def invert_integer(M):
    """Inverse of an integer matrix with determinant +-1.

    The Hermite form of [M | I] is [I | M^-1] exactly when M is
    unimodular; any other left block means it is not.
    """
    n = len(M)
    H = hermite_normal_form([list(row) + [int(i == j) for j in range(n)]
                             for i, row in enumerate(M)])
    if [row[:n] for row in H] != identity(n):
        raise PreconditionError("matrix is not unimodular")
    return [row[n:] for row in H]


# ---------------------------------------------------------------------------
# Smith normal form with transforms.
#
# smith_normal_form(M) returns (D, U, V, Uinv) with U*M*V = D,
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

    def row_op(dst, src, c):
        # A <- E A with E adding c*src to dst; U <- E U; Uinv <- Uinv E^-1
        _addmul_row(A, dst, src, c)
        _addmul_row(U, dst, src, c)
        _addmul_col(Uinv, src, dst, -c)

    def col_op(dst, src, c):
        _addmul_col(A, dst, src, c)
        _addmul_col(V, dst, src, c)

    def row_swap(i, j):
        _swap_rows(A, i, j)
        _swap_rows(U, i, j)
        _swap_cols(Uinv, i, j)

    def col_swap(i, j):
        _swap_cols(A, i, j)
        _swap_cols(V, i, j)

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
    return D, U, V, Uinv


def smith_diagonal(M):
    D, *_ = smith_normal_form(M)
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]


# ---------------------------------------------------------------------------
# Hermite normal form (row style) for integer lattices.
#
# Rows of the result generate the same row lattice; the form is upper
# triangular after column permutation with positive pivots and entries above
# each pivot reduced, so equal lattices give equal matrices.

def hermite_normal_form(rows_in):
    A = [list(r) for r in rows_in if any(r)]
    if not A:
        return []
    cols = len(A[0])
    pivots = []
    # rows above r are finished; Euclid down each column below them, the
    # entry of least size reducing the others, until one is left
    r = 0
    for c in range(cols):
        while True:
            live = [i for i in range(r, len(A)) if A[i][c]]
            if not live:
                break
            p = min(live, key=lambda i: abs(A[i][c]))
            if len(live) == 1:
                break
            prow = A[p]
            a = prow[c]
            for i in live:
                if i != p:
                    q = A[i][c] // a
                    A[i] = [x - q * y for x, y in zip(A[i], prow)]
        if not live:
            continue
        A[r], A[p] = A[p], A[r]
        if A[r][c] < 0:
            A[r] = [-x for x in A[r]]
        pivots.append(c)
        r += 1
        if r == len(A):
            break
    out = A[:r]
    # reduce each row by every lower row, in left-to-right pivot order, so
    # fill-in from one reduction is cleaned by the following pivots
    for i in range(r - 2, -1, -1):
        for j in range(i + 1, r):
            c = pivots[j]
            q = out[i][c] // out[j][c]
            if q:
                out[i] = [a - q * b for a, b in zip(out[i], out[j])]
    return out


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
    """Inverse of M over Z_m, entries in [0, m).

    The rows of [M | I] and [mI | 0] span the lattice of [I | X] and
    [0 | mI] exactly when X M = I mod m, so the Hermite form of the stack
    has I as the left block of its first rows exactly when M is
    invertible mod m, and their right block is then X reduced mod m.
    """
    n = len(M)
    H = hermite_normal_form(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(M)]
        + [[m * int(i == j) for j in range(2 * n)] for i in range(n)])
    if [row[:n] for row in H[:n]] != identity(n):
        raise ZeroDivisionError("matrix not invertible mod %d" % m)
    return [row[n:] for row in H[:n]]


def modm_mat_mul(A, B, m):
    return [[sum(a * b for a, b in zip(row, col)) % m
             for col in zip(*B)] for row in A]
