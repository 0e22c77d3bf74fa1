"""Hermitian pivot reduction over a cyclotomic field.

Entries are packed elements of a `cyclo._CyclotomicField` and all
arithmetic goes through that field's methods.  The matrix is Hermitian
with respect to the field's conjugation.

The reduction is classical congruence diagonalisation with symmetric
pivoting: nonzero diagonal pivots are consumed first; if the remaining
block has an all-zero diagonal but a nonzero entry b = A[i][j], the
hyperbolic 2x2 block [[0, b], [conj(b), 0]] is split off (it contributes
one positive and one negative eigenvalue).  All arithmetic is exact.

Only nonzero entries are worked on.  A diagonal pivot p changes A[r][c]
by A[r][p] A[p][p]^-1 A[p][c], and A[r][p] = conj(A[p][r]), so only the
pairs r, c with A[p][r] != 0 and A[p][c] != 0 change; every other entry
would have 0 subtracted from it, which leaves it as it is.  Likewise a
hyperbolic block on rows i, j changes only the rows and columns that are
nonzero in row i or row j.  Seifert forms are banded, so elimination
fills in only inside the band and most pairs are skipped.
"""


def hermitian_pivots(F, matrix):
    """Reduce a Hermitian matrix, returning (pivots, two_blocks, zero_dim).

    `pivots` lists the nonzero diagonal pivots (true Schur complement
    values) in consumption order; each hyperbolic block adds one to
    two_blocks; zero_dim is the dimension of the final zero block (the
    radical).
    """
    mul, add, sub, conj = F.mul, F.add, F.sub, F.conj
    inverse, is_zero = F.inverse, F.is_zero
    A = [list(row) for row in matrix]
    active = list(range(len(A)))
    pivots = []
    two_blocks = 0
    while active:
        pi = -1
        for i in active:
            if not is_zero(A[i][i]):
                pi = i
                break
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
        fi = fj = -1
        for ii in range(len(active)):
            for jj in range(ii + 1, len(active)):
                if not is_zero(A[active[ii]][active[jj]]):
                    fi, fj = active[ii], active[jj]
                    break
            if fi >= 0:
                break
        if fi < 0:
            return pivots, two_blocks, len(active)
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
