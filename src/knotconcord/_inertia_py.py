"""Hermitian pivot reduction over a cyclotomic field.

Entries are packed elements of a `cyclo._CyclotomicField` and all
arithmetic goes through that field's methods.  The matrix is Hermitian
with respect to the field's conjugation.

The reduction is classical congruence diagonalisation with symmetric
pivoting: nonzero diagonal pivots are consumed first; if the remaining
block has an all-zero diagonal but a nonzero entry b = A[i][j], the
hyperbolic 2x2 block [[0, b], [conj(b), 0]] is split off (it contributes
one positive and one negative eigenvalue).  All arithmetic is exact.
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
            rest = [i for i in active if i != pi]
            m = len(rest)
            w = [mul(A[r][pi], ip) for r in rest]
            for ri in range(m):
                r = rest[ri]
                wr = w[ri]
                for ci in range(ri, m):
                    c = rest[ci]
                    upd = sub(A[r][c], mul(wr, A[pi][c]))
                    A[r][c] = upd
                    if ci != ri:
                        A[c][r] = conj(upd)
            active = rest
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
        rest = [i for i in active if i != fi and i != fj]
        m = len(rest)
        # A[r][c] -= A[r][fj]*(1/b)*A[fi][c] + A[r][fi]*(1/conj(b))*A[fj][c]
        u = [mul(A[r][fj], ib) for r in rest]
        v = [mul(A[r][fi], ibc) for r in rest]
        for ri in range(m):
            r = rest[ri]
            ur = u[ri]
            vr = v[ri]
            for ci in range(ri, m):
                c = rest[ci]
                t = add(mul(ur, A[fi][c]), mul(vr, A[fj][c]))
                upd = sub(A[r][c], t)
                A[r][c] = upd
                if ci != ri:
                    A[c][r] = conj(upd)
        active = rest
    return pivots, two_blocks, 0
