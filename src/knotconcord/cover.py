"""Cyclic branched cover invariants computed from Seifert matrices.

Two integer presentations of the first homology of the d-fold branched
cover are built independently and must agree:

* a compact one, coker(G^d - (G - 1)^d) with G = (V - V^t)^{-1} V;
* a layered one, the block tridiagonal intersection matrix on d - 1
  copies of the surface lattice (V + V^t on the diagonal, -V above,
  -V^t below), which carries an explicit deck rotation and the linking
  form lk(x, y) = -x^t L^{-1} y mod Z.

The group order is cross-checked against the product of Alexander
values at the nontrivial d-th roots of unity, evaluated exactly as a
resultant.  Disagreements raise InternalInvariantViolation; an infinite
group raises InfiniteHomology.
"""

from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod

from . import linalg
from .errors import (BudgetExceeded, InfiniteHomology,
                     InternalInvariantViolation, PreconditionError,
                     UnsupportedShape)
from .seifert import SeifertMatrix, alexander

# largest layered presentation, (d - 1) layers of rank max(n, 1), that
# branched_cover builds; the fixtures need at most 24, and the cost of the
# Smith form and of the linking form grows steeply with the size
MAX_LAYERED_SIZE = 64


def unit_roots_mod(d, m):
    """Sorted solutions of x^d = 1 in Z_m."""
    return [x for x in range(1, m) if gcd(x, m) == 1 and pow(x, d, m) == 1]


def _alexander_root_order(V, d):
    # |prod_{i=1..d-1} Delta(zeta_d^i)| as the resultant of Delta with
    # 1 + x + ... + x^{d-1}; integer Sylvester determinant, no floats.
    f = list(alexander(V))
    n = len(f) - 1
    if n == 0:
        return abs(f[0]) ** (d - 1)
    g = [1] * d
    m = d - 1
    size = n + m
    rows = []
    for i in range(m):
        rows.append([0] * i + f[::-1] + [0] * (m - 1 - i))
    for i in range(n):
        rows.append([0] * i + g[::-1] + [0] * (n - 1 - i))
    if any(len(r) != size for r in rows):
        raise InternalInvariantViolation("Sylvester matrix rows have unequal length")
    return abs(linalg.det_bareiss(rows))


def _layer_matrix(V, d):
    # (d-1) x (d-1) blocks; row i: -V^t, V+V^t, -V around the diagonal.
    n = len(V)
    k = d - 1
    Vt = linalg.transpose(V)
    B = linalg.mat_add(V, Vt)
    L = linalg.zeros(n * k, n * k)
    for i in range(k):
        for a in range(n):
            for b in range(n):
                L[i * n + a][i * n + b] = B[a][b]
                if i + 1 < k:
                    L[i * n + a][(i + 1) * n + b] = -V[a][b]
                    L[(i + 1) * n + a][i * n + b] = -Vt[a][b]
    return L


def _deck_matrix(n, d):
    # rotation of the layers; the last layer maps to minus the sum of all,
    # which is the relation x_0 + x_1 + ... + x_{d-1} = 0 upstairs.
    k = d - 1
    S = linalg.zeros(n * k, n * k)
    for i in range(k - 1):
        for a in range(n):
            S[(i + 1) * n + a][i * n + a] = 1
    for i in range(k):
        for a in range(n):
            S[i * n + a][(k - 1) * n + a] -= 1
    return S


def _congruence_kernel_count(M, col_moduli, row_moduli):
    """Number of c in prod Z/col_moduli[j] with (M c)_i = 0 mod row_moduli[i].

    Requires that the diagonal lattice diag(col_moduli) consists of
    solutions, which holds whenever M descends to the quotient groups.
    The count is then the order of the domain over that of the image
    (M Z^k + diag(row_moduli) Z^m) / diag(row_moduli) Z^m, and the index
    of that lattice in Z^m is the product of its Hermite pivots.
    """
    m = len(row_moduli)
    lattice = [list(col) for col in zip(*M)]
    lattice += [[r if j == i else 0 for j in range(m)]
                for i, r in enumerate(row_moduli)]
    index = prod(row[i] for i, row in enumerate(
        linalg.hermite_normal_form(lattice)))
    count, image = divmod(prod(col_moduli) * index, prod(row_moduli))
    if image:
        raise InternalInvariantViolation("solution lattice index not integral")
    return count


class CoverHomology:
    """First homology of the d-fold branched cyclic cover, with deck action.

    factors are the nontrivial invariant factors; deck[i][j] gives the
    coefficient of generator i in the image of generator j, reduced mod
    factors[i].  Both are tuples: branched_cover hands the same object to
    every caller.
    """

    def __init__(self, degree, factors, deck):
        self.degree = degree
        self.factors = tuple(int(f) for f in factors)
        self.deck = tuple(tuple(int(x) for x in row) for row in deck)
        order = 1
        for f in self.factors:
            order *= f
        self.order = order

    @property
    def rank(self):
        return len(self.factors)

    def deck_power(self, e):
        k = self.rank
        out = linalg.identity(k)
        for _ in range(e):
            out = [[sum(self.deck[i][l] * out[l][j] for l in range(k)) % self.factors[i]
                    for j in range(k)] for i in range(k)]
        return out

    def to_json(self):
        return {"degree": self.degree,
                "invariant_factors": list(self.factors),
                "order": self.order,
                "deck": [list(r) for r in self.deck]}


def branched_cover(V, d):
    """Homology and deck action of the d-fold branched cover, d >= 2: the
    homology of linking_form(V, d), computed once per process for each
    (V, d) by _cover."""
    if not isinstance(V, SeifertMatrix):
        V = SeifertMatrix(V)
    return _cover(V, d).homology


@cache
def _cover(V, d):
    """The checked linking form of the d-fold branched cover of the
    SeifertMatrix V, carrying the checked homology as .homology; kept for
    the life of the process, and an exception is not stored, so an
    infinite or over-budget cover raises on every call."""
    if d < 2:
        raise PreconditionError("cover degree must be at least 2, got %d" % d)
    M = V.entries
    n = len(M)
    if max(n, 1) * (d - 1) > MAX_LAYERED_SIZE:
        raise BudgetExceeded(
            "the %d-fold cover of a %d x %d Seifert matrix needs a layered "
            "presentation of size %d, over the budget of %d"
            % (d, n, n, max(n, 1) * (d - 1), MAX_LAYERED_SIZE),
            MAX_LAYERED_SIZE)

    expected = _alexander_root_order(V, d)
    if expected == 0:
        raise InfiniteHomology(
            "Alexander polynomial vanishes at a %d-th root of unity" % d)

    skew_inv = linalg.invert_integer(linalg.mat_sub(M, linalg.transpose(M)))
    G = linalg.mat_mul(skew_inv, M)
    G1 = linalg.mat_sub(G, linalg.identity(n))
    compact = linalg.mat_sub(linalg.mat_pow(G, d), linalg.mat_pow(G1, d))
    compact_factors = tuple(f for f in linalg.smith_diagonal(compact) if f != 1)

    L = _layer_matrix(M, d)
    S = _deck_matrix(n, d)
    if linalg.mat_mul(linalg.mat_mul(linalg.transpose(S), L), S) != L:
        raise InternalInvariantViolation("deck rotation is not an isometry")
    # the quotient H_1 lives on the dual of the layer lattice, so the
    # rotation acts there through the inverse transpose; the isometry
    # identity gives Sd L = L S, hence Sd preserves the relation lattice
    Sd = linalg.transpose(linalg.invert_integer(S))
    if linalg.mat_mul(Sd, L) != linalg.mat_mul(L, S):
        raise InternalInvariantViolation(
            "deck rotation does not preserve the relation lattice")

    D, U, W, Uinv = linalg.smith_normal_form(L)
    m = len(L)
    diag = [D[i][i] for i in range(m)]
    if any(x == 0 for x in diag):
        raise InfiniteHomology("layered presentation has free rank")
    keep = [i for i in range(m) if diag[i] != 1]
    factors = tuple(diag[i] for i in keep)
    if factors != compact_factors:
        raise InternalInvariantViolation(
            "presentations disagree: %r vs %r" % (factors, compact_factors))

    # deck map in canonical coordinates: conjugate by the Smith transform
    US = linalg.mat_mul(U, linalg.mat_mul(Sd, Uinv))
    deck = [[US[i][j] % diag[i] for j in keep] for i in keep]
    # the generators g_j are the columns of Uinv; L = Uinv D W^-1 and
    # U g_j = e_j give g_i^T L^-1 g_j = (Uinv^T W)[i][j] / D[j], so
    # lk(g_i, g_j) = -(Uinv^T W)[i][j] / D[j] mod Z
    pairing = [[Fraction(-sum(Uinv[r][i] * W[r][j] for r in range(m)),
                         diag[j]) % 1 for j in keep] for i in keep]

    H = CoverHomology(d, factors, deck)
    if H.order != expected:
        raise InternalInvariantViolation(
            "group order %d does not match Alexander product %d"
            % (H.order, expected))
    k = H.rank
    if H.deck_power(d) != linalg.identity(k):
        raise InternalInvariantViolation("deck action has wrong order")
    if gcd(H.order, d) == 1 and k:
        TmI = [[(H.deck[i][j] - (1 if i == j else 0)) for j in range(k)]
               for i in range(k)]
        fixed = _congruence_kernel_count(TmI, list(factors), list(factors))
        if fixed != 1:
            raise InternalInvariantViolation("deck action has fixed points")
    form = LinkingForm(factors, pairing, H.deck, homology=H)
    if k:
        if not form.is_nonsingular():
            raise InternalInvariantViolation("linking form is singular")
        if not form.deck_is_isometry():
            raise InternalInvariantViolation(
                "deck action does not preserve lk")
    return form


class LinkingForm:
    """Finite symmetric bilinear form with values in Q/Z.

    group: invariant factors (f_1 | f_2 | ...); the value on the i-th and
    j-th generators is N[i][j] / den, with N[i][j] in [0, den) and den the
    least common denominator of the values; deck is an isometry in the
    same coordinates (identity when absent).  The values are given as
    Fractions (or anything Fraction accepts), and gram gives them back.
    """

    def __init__(self, group, gram, deck=None, homology=None):
        self.group = tuple(int(f) for f in group)
        k = len(self.group)
        values = [[Fraction(x) % 1 for x in row] for row in gram]
        if len(values) != k or any(len(r) != k for r in values):
            raise ValueError("gram size does not match the group")
        self.den = lcm(1, *(x.denominator for row in values for x in row))
        self.N = tuple(tuple(x.numerator * (self.den // x.denominator)
                             for x in row) for row in values)
        if deck is None:
            deck = linalg.identity(k)
        self.deck = tuple(tuple(int(x) % self.group[i] for x in row)
                          for i, row in enumerate(deck))
        self.homology = homology
        for i in range(k):
            for j in range(k):
                if self.N[i][j] != self.N[j][i]:
                    raise ValueError("gram matrix is not symmetric")
                if self.N[i][j] * gcd(self.group[i], self.group[j]) % self.den:
                    raise ValueError("form not defined on the quotient group")

    @property
    def gram(self):
        """The values N[i][j] / den as Fractions."""
        return tuple(tuple(Fraction(x, self.den) for x in row)
                     for row in self.N)

    @property
    def order(self):
        return prod(self.group)

    def is_nonsingular(self):
        k = len(self.group)
        return _congruence_kernel_count(self.N, self.group, [self.den] * k) == 1

    def deck_is_isometry(self):
        """T^t N T = N (mod den) for the deck matrix T."""
        T = self.deck
        TtNT = linalg.mat_mul(linalg.mat_mul(linalg.transpose(T), self.N), T)
        return all((x - y) % self.den == 0
                   for r, s in zip(TtNT, self.N) for x, y in zip(r, s))

    def to_json(self):
        return {"group": list(self.group),
                "gram": [["%d/%d" % (x.numerator, x.denominator) for x in row]
                         for row in self.gram],
                "deck": [list(r) for r in self.deck]}


def linking_form(V, d):
    """Linking form of the d-fold branched cover, from the layered
    presentation: lk(x, y) = -x^t L^{-1} y mod Z on cokernel generators,
    as _cover reads it off the Smith transforms of L.  Computed once per
    process for each (V, d); its homology is branched_cover(V, d)."""
    if not isinstance(V, SeifertMatrix):
        V = SeifertMatrix(V)
    return _cover(V, d)


def direct_sum(*forms):
    """Orthogonal sum of linking forms, coordinates concatenated in order."""
    group = []
    for L in forms:
        group.extend(L.group)
    k = len(group)
    gram = [[Fraction(0)] * k for _ in range(k)]
    deck = [[0] * k for _ in range(k)]
    off = 0
    for L in forms:
        r = len(L.group)
        for i in range(r):
            for j in range(r):
                gram[off + i][off + j] = Fraction(L.N[i][j], L.den)
                deck[off + i][off + j] = L.deck[i][j]
        off += r
    return LinkingForm(group, gram, deck)


class CharSpace:
    """A space of Z_p characters with its deck eigenspaces.

    Coordinates are dual to the homology generators whose invariant
    factor p divides.  basis spans the characters vanishing on a
    metabolizer; eigen maps each root of x^degree = 1 mod p to a basis of
    its eigenspace inside that subspace, and split says the eigenspaces
    span it.
    """

    def __init__(self, p, basis, eigen):
        self.p = p
        self.basis = tuple(tuple(v) for v in basis)
        self.dim = len(self.basis)
        self.eigen = {lam: tuple(tuple(v) for v in vecs)
                      for lam, vecs in eigen.items()}
        self.split = sum(len(vecs) for vecs in self.eigen.values()) == self.dim


def deck_eigenspaces(T, p, e, degree, constraints=()):
    """Deck eigenspaces of T acting on column vectors over Z_q, q = p^e.

    For each root lam of x^degree = 1 mod q, the Lagrange projector
    P_lam = prod_{mu != lam} (T - mu) / (lam - mu) mod q is applied to the
    mod-p kernel basis of [constraints; T - lam].  Returns
    ({lam: basis}, split), where split means T P_lam = lam P_lam mod q for
    every root, so that the projectors decompose (Z_q)^k into eigenspaces.
    P_lam fixes every lam-eigenvector mod p, so for e = 1 each basis is
    the kernel basis itself, whether or not T splits; for e > 1 and a
    split T it is the lift of that basis to the image of P_lam.  Roots
    that agree mod p (possible only when p divides degree and e > 1)
    raise UnsupportedShape.  A degree of None stands for the order of T
    mod q.

    Only the kernels depend on the constraints: the roots, the shifted
    matrices T - lam, the projectors and split are computed once per
    process for each (T, p, e, degree) by _deck_split.
    """
    parts, split = _deck_split(tuple(map(tuple, T)), p, e, degree)
    q = p ** e
    eigen = {}
    for lam, shifted, proj in parts:
        kernel = linalg.modp_kernel(list(constraints) + list(shifted), p)
        eigen[lam] = [tuple(x % q for x in linalg.mat_vec(proj, v))
                      for v in kernel]
    return eigen, split


@cache
def _deck_split(T, p, e, degree):
    """([(lam, T - lam, P_lam) for each root lam], split), the part of
    deck_eigenspaces that does not depend on the constraints; kept for the
    life of the process, and an exception is not stored."""
    q = p ** e
    k = len(T)
    if degree is None:
        degree = _matrix_order_mod(T, q)
    roots = unit_roots_mod(degree, q)

    def shifted(lam):
        return [[T[i][j] - (lam if i == j else 0) for j in range(k)]
                for i in range(k)]

    parts = []
    split = True
    for lam in roots:
        proj = linalg.identity(k)
        for mu in roots:
            if mu != lam:
                if (lam - mu) % p == 0:
                    raise UnsupportedShape(
                        "roots %d and %d of x^%d = 1 agree mod %d, so no "
                        "projector separates them" % (mu, lam, degree, p))
                c = pow(lam - mu, -1, q)
                proj = [[x * c % q for x in row]
                        for row in linalg.modm_mat_mul(shifted(mu), proj, q)]
        if linalg.modm_mat_mul(T, proj, q) != [[lam * x % q for x in row]
                                               for row in proj]:
            split = False
        parts.append((lam, tuple(map(tuple, shifted(lam))),
                      tuple(map(tuple, proj))))
    return parts, split


def _matrix_order_mod(T, m, cap=512):
    k = len(T)
    ident = linalg.identity(k)
    out = ident
    for e in range(1, cap + 1):
        out = linalg.modm_mat_mul(out, T, m)
        if out == ident:
            return e
    raise UnsupportedShape("automorphism order exceeds %d" % cap)
