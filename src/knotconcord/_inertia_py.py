"""Hermitian pivot reduction over a cyclotomic field.

Entries are packed elements of a `cyclo._CyclotomicField` and all
arithmetic goes through that field's methods.  The matrix is Hermitian
with respect to the field's conjugation, so only its upper triangle is
read and kept: A[r][c] for r <= c, and A[c][r] is conj(A[r][c]).

The reduction is classical congruence diagonalisation with one pivot
rule: the pivot is the first remaining index with a nonzero diagonal.
If the remaining block has an all-zero diagonal but a nonzero entry
b = A[i][j], i < j, then b times row j is added to row i and conj(b)
times column j to column i.  This congruence keeps the inertia
(Sylvester's law) and makes A[i][i] = 2 b conj(b), which is nonzero, so
i is the next pivot.  All arithmetic is exact.

Only nonzero entries are worked on.  A pivot p changes A[r][c] by
conj(A[p][r]) A[p][p]^-1 A[p][c], so only the pairs r, c with
A[p][r] != 0 and A[p][c] != 0 change; every other entry would have 0
subtracted from it, which leaves it as it is.  Seifert forms are banded,
so elimination fills in only inside the band and most pairs are skipped.
"""


def hermitian_pivots(F, matrix):
    """Reduce a Hermitian matrix, returning (pivots, zero_dim).

    `pivots` lists the diagonal pivots (true Schur complement values, all
    nonzero) in consumption order; zero_dim is the dimension of the final
    zero block (the radical).
    """
    mul, add, sub, conj = F.mul, F.add, F.sub, F.conj
    inverse, is_zero = F.inverse, F.is_zero
    A = [list(row) for row in matrix]
    active = list(range(len(A)))
    pivots = []
    while active:
        pi = next((i for i in active if not is_zero(A[i][i])), -1)
        if pi < 0:
            pi, j = next(((i, j) for k, i in enumerate(active)
                          for j in active[k + 1:] if not is_zero(A[i][j])),
                         (-1, -1))
            if pi < 0:
                return pivots, len(active)
            # every row before pi is zero in the remaining block, so the
            # congruence changes only row pi to the right of the diagonal
            b, Ai, Aj = A[pi][j], A[pi], A[j]
            for c in active:
                if c > pi and c != j:
                    x = Aj[c] if c > j else conj(A[c][j])
                    if not is_zero(x):
                        Ai[c] = add(Ai[c], mul(b, x))
            bb = mul(b, conj(b))
            Ai[pi] = add(bb, bb)
        Ap = A[pi]
        pivots.append(Ap[pi])
        ip = inverse(Ap[pi])
        active = [i for i in active if i != pi]
        # (c, A[pi][c], A[c][pi]) for the nonzero entries of the pivot's row
        nz = []
        for c in active:
            x = Ap[c] if c > pi else A[c][pi]
            if not is_zero(x):
                nz.append((c, x, conj(x)) if c > pi else (c, conj(x), x))
        for ri, (r, _, xr) in enumerate(nz):
            Ar = A[r]
            wr = mul(xr, ip)
            for c, xc, _ in nz[ri:]:
                Ar[c] = sub(Ar[c], mul(wr, xc))
    return pivots, 0
