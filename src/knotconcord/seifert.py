"""Seifert matrices and the invariants read off from them.

A knot is presented either by an explicit integer Seifert matrix or by a
constructor (torus knot, twisted double, companion infection, connected
sum).  Construction produces a KnotModel: a list of summands, each an
integer Seifert matrix plus an optional record of bands carrying
companion knots.  All abelian invariants (Alexander polynomial,
signatures, cover homology, linking forms) depend only on the block sum
of the matrices, because tying a 0-framed companion into a band changes
no pairwise linking number of the spine curves.  The companion data only
feeds the slice-obstruction drivers.
"""

from bisect import bisect_left
from fractions import Fraction
from functools import cache, cached_property
from math import comb, gcd

from . import linalg
from .cyclo import (CyclotomicField, _eliminate, cyclotomic_polynomial,
                    euler_phi, fixed_cos, is_prime, poly_gcd)
from .errors import (BudgetExceeded, InternalInvariantViolation,
                     PreconditionError, SingularAtT)
from .kernels import hermitian_inertia


# Largest Seifert matrix size n = 2g that a knot may have.  Tests and
# benchmark workloads reach 30 (T(-6,7)); `signature --t 1/3` takes about
# 0.6 s on T(-10,11), of size 90, and 2.5 s on T(-12,13), of size 132.
MAX_SEIFERT_SIZE = 90


def check_size(n, what):
    """Raise BudgetExceeded when `what` needs a Seifert matrix of size n
    over MAX_SEIFERT_SIZE."""
    if n > MAX_SEIFERT_SIZE:
        raise BudgetExceeded("%s needs a Seifert matrix of size %d, over the "
                             "budget of %d" % (what, n, MAX_SEIFERT_SIZE),
                             MAX_SEIFERT_SIZE)


class SeifertMatrix:
    """Square integer matrix V with det(V - V^T) = 1, of size at most
    MAX_SEIFERT_SIZE.  entries is a tuple of row tuples, so a matrix
    hashes and compares as its entries and equal matrices are one key of
    every memo."""

    def __init__(self, entries):
        rows = tuple(map(tuple, entries))
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise PreconditionError("Seifert matrix must be square")
            for x in r:
                if isinstance(x, bool) or not isinstance(x, int):
                    raise PreconditionError("Seifert matrix entries must be integers")
        check_size(n, "the knot")
        skew = [[rows[i][j] - rows[j][i] for j in range(n)] for i in range(n)]
        if linalg.det_bareiss(skew) != 1:
            raise PreconditionError("det(V - V^T) must equal 1")
        self.entries = rows
        self.size = n

    @classmethod
    def _derived(cls, rows):
        """A matrix built from valid ones by an operation that keeps
        det(V - V^T) = 1, so that check is not run again; the size check
        is, as a block sum grows.  V - V^T is skew with determinant 1, so
        the size n is even; the transpose changes V - V^T to its negative,
        of determinant (-1)^n = 1, the mirror -V^T leaves it as it is, and
        a block sum multiplies determinants."""
        check_size(len(rows), "the knot")
        V = cls.__new__(cls)
        V.entries = tuple(map(tuple, rows))
        V.size = len(rows)
        return V

    def transpose(self):
        return SeifertMatrix._derived(linalg.transpose(self.entries))

    def mirror(self):
        # mirror image: negate the transposed matrix
        return SeifertMatrix._derived(
            [[-x for x in row] for row in linalg.transpose(self.entries)])

    @cached_property
    def blocks(self):
        """Index lists of the diagonal blocks (_blocks)."""
        return _blocks(self.entries)

    def block_sum(self, other):
        n, m = self.size, other.size
        return SeifertMatrix._derived(
            [r + (0,) * m for r in self.entries]
            + [(0,) * n + r for r in other.entries])

    def __eq__(self, other):
        return isinstance(other, SeifertMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "SeifertMatrix(%r)" % (self.entries,)


def _blocks(E):
    """Index lists of the diagonal blocks of a square matrix E: the
    connected components of the graph that joins i and j when E[i][j] or
    E[j][i] is nonzero.  V - tV^T and the Hermitian form of V at any t are
    block sums over them.  (The support of V + V^T is not enough: an entry
    with V[i][j] = -V[j][i] cancels there but not in the form.)"""
    n = len(E)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        block, todo = [], [start]
        while todo:
            i = todo.pop()
            block.append(i)
            for j in range(n):
                if not seen[j] and (E[i][j] or E[j][i]):
                    seen[j] = True
                    todo.append(j)
        out.append(sorted(block))
    return out


def alexander(V):
    """Alexander polynomial det(V - t V^T) as a tuple of integer
    coefficients, lowest exponent first, normalized to lowest exponent 0
    and positive leading coefficient."""
    if isinstance(V, KnotModel):
        V = V.matrix
    return _alexander_coeffs(V.entries)


@cache
def _alexander_coeffs(entries):
    """Integer coefficients of the normalized Alexander polynomial, lowest
    exponent first, memoised on the matrix entries.

    D(t) = det(V - tV^T) is palindromic of degree n = 2g, so D(t) =
    t^g P(t + 1/t) with deg P <= g (_x_form), and the g + 1 samples
    P(k + 1/k) = D(k) / k^g, k = 1 .. g + 1, determine P.  D(1) =
    det(V - V^T) = 1 (so the polynomial is never 0); every other sample is
    the product of the determinants of the blocks."""
    g = len(entries) // 2
    blocks = _blocks(entries)
    xs, ys = [], []
    for k in range(1, g + 2):
        value = 1
        if k > 1:
            for b in blocks:
                value *= linalg.det_bareiss([[entries[i][j] - k * entries[j][i]
                                              for j in b] for i in b])
        xs.append(Fraction(k * k + 1, k))
        ys.append(Fraction(value, k ** g))
    # Newton divided differences, then Horner: P <- P * (x - xs[k]) + c_k
    for level in range(1, g + 1):
        for k in range(g, level - 1, -1):
            ys[k] = (ys[k] - ys[k - 1]) / (xs[k] - xs[k - level])
    P = [ys[g]]
    for k in range(g - 1, -1, -1):
        P = [a - xs[k] * b for a, b in zip([0] + P, P + [0])]
        P[0] += ys[k]
    if any(c.denominator != 1 for c in P):
        raise InternalInvariantViolation(
            "a determinant polynomial must be integral")
    # D(t) = sum_i P_i t^(g-i) (t^2 + 1)^i
    coeffs = [0] * (2 * g + 1)
    for i, c in enumerate(P):
        for j in range(i + 1):
            coeffs[g - i + 2 * j] += int(c) * comb(i, j)
    while coeffs[0] == 0:
        coeffs.pop(0)
    while coeffs[-1] == 0:
        coeffs.pop()
    return tuple(c if coeffs[-1] > 0 else -c for c in coeffs)


# Largest field degree phi(d) that lt_signature works over.  The CLI and the
# drivers evaluate at arc points (arc_point), where the benchmark workloads
# reach phi <= 6; only a direct lt_signature call at t = k/d works over
# Q(zeta_d) itself, as the tests do up to phi = 96 (t = k/97).  The trefoil
# takes about 0.18 s at t = 1/1021 (phi = 1020) and 0.15 s at 1/4620
# (phi = 960), in-process on a 2-core Xeon VM.
MAX_FIELD_DEGREE = 1024


def lt_signature(V, t):
    """Signature of (1-w)V + (1-conj(w))V^T at w = exp(2*pi*i*t), t in (0,1).

    Computed exactly at t, over the cyclotomic field of the reduced
    denominator, as the sum of the inertias of V's diagonal blocks
    (SeifertMatrix.blocks); raises BudgetExceeded when the field's degree
    exceeds MAX_FIELD_DEGREE.  Raises SingularAtT when the form is singular
    there, which happens exactly when w is a root of the Alexander
    polynomial.  arc_point(V, t) names a point of t's arc where the same
    value is cheaper to compute.
    """
    if isinstance(V, KnotModel):
        V = V.matrix
    t = Fraction(t)
    if not 0 < t < 1:
        raise PreconditionError("t must lie strictly between 0 and 1")
    a, d = t.numerator, t.denominator
    if V.size == 0:
        return 0
    # phi(d) >= sqrt(d/2), so a larger d needs no factoring
    if d > 2 * MAX_FIELD_DEGREE ** 2 or euler_phi(d) > MAX_FIELD_DEGREE:
        raise BudgetExceeded("t = %s needs Q(zeta_%d), whose degree phi(%d) "
                             "exceeds the budget of %d"
                             % (t, d, d, MAX_FIELD_DEGREE), MAX_FIELD_DEGREE)
    F = CyclotomicField(d)
    one = F.one()
    c1 = F.sub(one, F.zeta_elt(a))          # 1 - w
    c2 = F.sub(one, F.zeta_elt(d - a))      # 1 - conj(w)
    E = V.entries
    nil = F.zero()
    total = 0
    for block in V.blocks:
        B = [[F.add(F.scale(c1, E[r][c]), F.scale(c2, E[c][r]))
              if E[r][c] or E[c][r] else nil
              for c in block] for r in block]
        plus, minus, zero = hermitian_inertia(F, B)
        if zero:
            raise SingularAtT("form singular at t = %s" % (t,))
        total += plus - minus
    return total


# ---------------------------------------------------------------------------
# Arcs of the signature function.
#
# The form (1-w)V + (1-conj w)V^T equals (1-w)(V - conj(w) V^T), so it is
# singular exactly at the roots of Delta on the circle, and its signature is
# constant on each arc between them (Levine 1969, Tristram 1969); it is also
# the same at t and 1 - t, the conjugate point.  Delta is palindromic of
# even degree 2m, so Delta(t) = t^m P(t + 1/t), and w = exp(2 pi i s) is a
# root exactly when P(2 cos 2 pi s) = 0.  As s runs over (0, 1/2],
# x = 2 cos 2 pi s falls from 2 to -2, and neither end is a root: Delta(1)
# = 1, and Delta(-1) is the odd determinant of the knot.
#
# The roots at rational angles a/d come from the cyclotomic factors Phi_d
# of Delta, that is the factors psi_d(x) of P; they are kept as exact
# fractions, so a point is singular exactly when it is one of them.  The
# remaining roots have irrational angles.  They are isolated in x by an
# integer Sturm sequence, and each keeps a rational bracket of its angle,
# narrowed by every comparison with a rational point through integer
# enclosures of 2 cos 2 pi s (cyclo.fixed_cos).


def _x_form(coeffs):
    """P with Delta(t) = t^m P(t + 1/t), for a palindromic integer
    polynomial Delta of degree 2m (coefficient tuples, lowest first)."""
    n = len(coeffs) - 1
    if n % 2 or any(coeffs[i] != coeffs[n - i] for i in range(n + 1)):
        raise InternalInvariantViolation(
            "an Alexander polynomial must be palindromic of even degree")
    m = n // 2
    out = [coeffs[m]] + [0] * m
    # t^k + t^-k = D_k(x), with D_1 = x and D_(k+1) = x D_k - D_(k-1)
    prev, cur = [2], [0, 1]
    for k in range(1, m + 1):
        for i, c in enumerate(cur):
            out[i] += coeffs[m + k] * c
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return out


@cache
def _psi(d):
    """Minimal polynomial of 2 cos(2 pi / d), d >= 3, as the x-form of
    Phi_d; it is monic."""
    return _x_form(cyclotomic_polynomial(d))


def _quotient(f, g):
    """f / g for integer polynomials (lists, lowest degree first) when the
    division is exact over the integers, else None."""
    k = len(g) - 1
    if len(f) <= k:
        return None
    r = list(f)
    q = [0] * (len(f) - k)
    for i in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[i + k], g[-1])
        if rem:
            return None
        q[i] = c
        if c:
            for j, y in enumerate(g):
                r[i + j] -= c * y
    return None if any(r) else q


def _derivative(f):
    return [i * c for i, c in enumerate(f)][1:]


def _sturm_chain(f):
    """Sturm sequence of a squarefree integer polynomial of degree >= 1:
    f, f', then each negated pseudo-remainder.  Every pseudo-division step
    multiplies by |lead|, a positive number, and every member is divided
    by its positive content, so the signs are those of the rational Sturm
    sequence."""
    chain = [list(f), _derivative(f)]
    while len(chain[-1]) > 1:
        r, g = list(chain[-2]), chain[-1]
        lead = g[-1]
        while r and len(r) >= len(g):
            r = _eliminate(abs(lead), r, r[-1] if lead > 0 else -r[-1], g,
                           len(r) - len(g))
        if not r:
            raise InternalInvariantViolation(
                "a Sturm sequence needs a squarefree polynomial")
        c = gcd(*r)
        chain.append([-x // c for x in r])
    return chain


def _sign_at(f, x):
    """Sign of f at a Fraction x = p/q, from q^deg f(p/q) by Horner."""
    p, q = x.numerator, x.denominator
    acc, qk = f[-1], 1
    for c in reversed(f[:-1]):
        qk *= q
        acc = acc * p + c * qk
    return (acc > 0) - (acc < 0)


def _variations(chain, x):
    signs = [s for s in (_sign_at(f, x) for f in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _isolate(chain):
    """Disjoint brackets (lo, hi) of Fractions in (-2, 2), each holding
    one root of chain[0] and no root at either end."""
    f = chain[0]
    lo, hi = Fraction(-2), Fraction(2)
    todo = [(lo, hi, _variations(chain, lo), _variations(chain, hi))]
    out = []
    while todo:
        # Sturm: the number of roots in (lo, hi] is V(lo) - V(hi)
        lo, hi, vlo, vhi = todo.pop()
        if vlo - vhi == 1:
            out.append((lo, hi))
        elif vlo - vhi > 1:
            mid = (lo + hi) / 2
            while not _sign_at(f, mid):
                mid = (lo + mid) / 2
            vmid = _variations(chain, mid)
            todo += [(lo, mid, vlo, vmid), (mid, hi, vmid, vhi)]
    return out


def _phi_floor(d):
    """A lower bound on phi(e) for every e >= d.  With p_1 ... p_k <= d <
    p_1 ... p_(k+1), an e below p_1 ... p_(k+1) has at most k prime
    factors, so phi(e) >= e (1 - 1/p_1) ... (1 - 1/p_k); from there on
    phi(e) >= (p_1 - 1) ... (p_(k+1) - 1)."""
    num = den = 1
    p = 2
    while den * p <= d:
        num, den = num * (p - 1), den * p
        p += 1
        while not is_prime(p):
            p += 1
    return min(-(-d * num // den), num * (p - 1))


class _Root:
    """A root x of the squarefree non-cyclotomic part f of P in (-2, 2):
    xl <= x <= xh with f(xl) of sign lsign (xl == xh when x is rational),
    and sl < s < sh for its angle s, which is irrational."""

    __slots__ = ("xl", "xh", "lsign", "sl", "sh")

    def __init__(self, f, xl, xh):
        self.xl, self.xh, self.lsign = xl, xh, _sign_at(f, xl)
        self.sl, self.sh = Fraction(0), Fraction(1, 2)


class _Arcs:
    """The roots of one Alexander polynomial on the upper half circle, and
    the memoised point of least phi(d) of each arc; arc j is the one above
    exactly j roots."""

    def __init__(self, delta):
        P = _x_form(delta)
        f = _quotient(P, poly_gcd(P, _derivative(P))) if len(P) > 1 else P
        angles = []
        d = 3
        while len(f) > 1 and _phi_floor(d) <= 2 * (len(f) - 1):
            if euler_phi(d) <= 2 * (len(f) - 1):
                q = _quotient(f, _psi(d))
                if q is not None:
                    f = q
                    angles += [Fraction(a, d) for a in range(1, (d + 1) // 2)
                               if gcd(a, d) == 1]
            d += 1
        self.angles = sorted(angles)
        self.f = f
        self.roots = []
        if len(f) > 1:
            self.roots = [_Root(f, lo, hi)
                          for lo, hi in _isolate(_sturm_chain(f))]
        # |f| <= weight on [-2, 2] and at every conjugate of a point there;
        # |f'| <= slope on [-2, 2]
        self.weight = sum(abs(c) << i for i, c in enumerate(f))
        self.slope = sum(abs(c) << i for i, c in enumerate(_derivative(f)))
        self.points = {}

    def rank(self, s):
        """Number of roots whose angle lies below the rational s in
        (0, 1/2]; None when s is itself the angle of a root."""
        i = bisect_left(self.angles, s)
        if i < len(self.angles) and self.angles[i] == s:
            return None
        return i + sum(self._below(root, s) for root in self.roots)

    def _below(self, root, s):
        """Whether the root's angle lies below s, narrowing its bracket.

        For s = a/d, y = 2 cos 2 pi s lies strictly within 1/2^(bits-1) of
        C/2^(bits-1), C = fixed_cos(d, (a,), bits).  While that interval
        meets the root's x bracket, the bracket is halved down to the
        interval's width, then bits doubles.  y differs from the root x:
        with k <= d/2 the degree of y, f(y) is a nonzero algebraic integer
        whose conjugates are at most weight in modulus, so |f(y)| >=
        weight^-(k-1) and |y - x| >= weight^-(k-1) / slope.  Hence bits
        stops growing by the time it passes twice that bound's bit size;
        going past it would mean an invariant failed."""
        if s <= root.sl:
            return False
        if s >= root.sh:
            return True
        a, d = s.numerator, s.denominator
        cap = 2 * ((d // 2) * self.weight.bit_length()
                   + self.slope.bit_length() + 8)
        bits = 64
        while True:
            C = fixed_cos(d, (a,), bits)[0]
            y_lo = Fraction(C - 1, 1 << (bits - 1))
            y_hi = Fraction(C + 1, 1 << (bits - 1))
            while y_lo < root.xh and root.xl < y_hi:
                if (root.xh - root.xl) <= y_hi - y_lo:
                    break
                mid = (root.xl + root.xh) / 2
                sign = _sign_at(self.f, mid)
                if not sign:
                    root.xl = root.xh = mid
                elif sign == root.lsign:
                    root.xl = mid
                else:
                    root.xh = mid
            if y_hi <= root.xl:
                below = True
                break
            if y_lo >= root.xh:
                below = False
                break
            bits *= 2
            if bits > cap:
                raise InternalInvariantViolation(
                    "a rational point did not separate from a root of the "
                    "Alexander polynomial")
        if below:
            root.sh = s
        else:
            root.sl = s
        return below

    def point(self, j, s):
        """The rational of least phi(d), then least d, then least numerator
        on arc j, which holds s; memoised per arc.  Denominators run up
        until _phi_floor shows none further can do better."""
        if j not in self.points:
            best = None
            d = 2
            while best is None or _phi_floor(d) < best[0]:
                phi = euler_phi(d)
                if best is None or phi < best[0]:
                    a = self._first_on_arc(j, s, d)
                    if a is not None:
                        best = (phi, d, a)
                d += 1
            self.points[j] = Fraction(best[2], best[1])
        return self.points[j]

    def _first_on_arc(self, j, s, d):
        """Least a with a/d on arc j (which holds s), gcd(a, d) = 1 and
        a/d <= 1/2, or None.  Every point of the arc lies above the lower
        ends of the brackets of the roots below s, which gives the first a
        to try."""
        i = bisect_left(self.angles, s)
        lo = self.angles[i - 1] if i else Fraction(0)
        for root in self.roots:
            if root.sh <= s:
                lo = max(lo, root.sl)
        for a in range(lo.numerator * d // lo.denominator + 1, d // 2 + 1):
            if gcd(a, d) == 1:
                k = self.rank(Fraction(a, d))
                if k == j:
                    return a
                if k is not None and k > j:
                    return None
        return None


# one _Arcs per Alexander polynomial, kept for the life of the process
_arcs = cache(_Arcs)


def arc_point(V, t):
    """The point of least phi(d) on the arc of t.

    t is folded to s = min(t, 1 - t), and located among the roots of
    Delta_V on the upper half circle; the answer is the rational of least
    phi(d) (then least d, then least numerator) on the arc between the
    roots either side of s, where lt_signature(V, .) takes the same value
    as at t.  Raises SingularAtT exactly when Phi_d divides Delta_V for t
    = a/d, without building a field.  The roots of each Delta are isolated
    once per process, and the point of each arc is found once.
    """
    if isinstance(V, KnotModel):
        V = V.matrix
    t = Fraction(t)
    if not 0 < t < 1:
        raise PreconditionError("t must lie strictly between 0 and 1")
    s = min(t, 1 - t)
    arcs = _arcs(alexander(V))
    j = arcs.rank(s)
    if j is None:
        raise SingularAtT("form singular at t = %s" % (t,))
    return arcs.point(j, s)


def signature(V, t):
    """lt_signature(V, t), computed once per process for each arc of V.

    arc_point runs on every request, so a singular t raises SingularAtT
    every time; on a miss, lt_signature is called at the arc point and its
    value kept under (matrix, arc point).  lt_signature itself keeps no
    memo, so a direct call always computes."""
    if isinstance(V, KnotModel):
        V = V.matrix
    return _signature(V, arc_point(V, t))


@cache
def _signature(V, point):
    # lt_signature is looked up when called, not bound here, so a wrapped
    # or rebound lt_signature is the one that runs
    return lt_signature(V, point)


# ---------------------------------------------------------------------------
# Braid fence surfaces for torus knots.
#
# The closure of a positive braid word bounds the fence surface: one disk
# per strand, one half-twisted band per letter.  H_1 is generated by one
# ladder circle for each pair of consecutive bands in the same column.
# Same-column linking is normalized so that torus(2,3) yields exactly
# [[-1, 1], [0, -1]].  The adjacent-column constants below were pinned by
# matching Alexander polynomials (cyclotomic product formula) and
# signatures (Murasugi values) for T(3,4), T(3,5), T(4,5) and T(2,7).
# ---------------------------------------------------------------------------

# (V[x][y], V[y][x]) for x in column c, y in column c+1
_CROSS_LATER = (0, -1)   # x starts first:  x.start < y.start < x.end < y.end
_CROSS_EARLIER = (0, 1)  # y starts first:  y.start < x.start < y.end < x.end


def _braid_fence_matrix(word, strands):
    occurrences = {}
    for pos, col in enumerate(word):
        if not 1 <= col < strands:
            raise PreconditionError("braid letter out of range")
        occurrences.setdefault(col, []).append(pos)
    gens = []
    for col in sorted(occurrences):
        ts = occurrences[col]
        for k in range(len(ts) - 1):
            gens.append((col, ts[k], ts[k + 1]))
    g = len(gens)
    V = [[0] * g for _ in range(g)]
    for i in range(g):
        V[i][i] = -1
    for i in range(g):
        ci, ai, bi = gens[i]
        for j in range(i + 1, g):
            cj, aj, bj = gens[j]
            if ci == cj and bi == aj:
                V[i][j] = 1          # consecutive ladder rungs share a band
            elif cj == ci + 1:
                if ai < aj < bi < bj:
                    V[i][j], V[j][i] = _CROSS_LATER
                elif aj < ai < bj < bi:
                    V[i][j], V[j][i] = _CROSS_EARLIER
    return SeifertMatrix(V)


def torus_matrix(p, q):
    """Seifert matrix of the (p,q) torus knot from its fence surface.
    Negative parameters give the mirror image."""
    if gcd(abs(p), abs(q)) != 1:
        raise PreconditionError("torus knot parameters must be coprime")
    if abs(p) < 2 or abs(q) < 2:
        raise PreconditionError("torus knot parameters must exceed 1 in magnitude")
    check_size((abs(p) - 1) * (abs(q) - 1), "T(%d,%d)" % (p, q))
    mirror = (p < 0) != (q < 0)
    p, q = abs(p), abs(q)
    if p > q:
        p, q = q, p
    word = list(range(1, p)) * q
    V = _braid_fence_matrix(word, p)
    return V.mirror() if mirror else V


def twisted_double_matrix(a):
    """Genus-1 double of the unknot with a(a+1) full twists in one band."""
    if not isinstance(a, int) or a < 1:
        raise PreconditionError("twist parameter must be a positive integer")
    return SeifertMatrix([[-1, 1], [0, a * (a + 1)]])


# base surface used for companion-carrying genus-1 knots: figure-eight
_GENUS1_BASE = [[1, 1], [0, -1]]


class Infection:
    """A companion knot tied into a named band of the base surface."""

    __slots__ = ("curve", "companion", "pattern", "param")

    def __init__(self, curve, companion, pattern, param):
        if pattern not in ("double_lift", "triple_lift"):
            raise PreconditionError("unknown infection pattern %r" % (pattern,))
        if pattern == "double_lift":
            if not isinstance(param, int) or param < 1:
                raise PreconditionError("double_lift parameter must be a positive integer")
        else:
            if param not in (1, -1):
                raise PreconditionError("triple_lift parameter must be +1 or -1")
        if not companion.matrix_only:
            raise PreconditionError("companion knots must be matrix-presented")
        self.curve = str(curve)
        self.companion = companion
        self.pattern = pattern
        self.param = param


class Summand:
    __slots__ = ("matrix", "token", "infections")

    def __init__(self, matrix, token=None, infections=()):
        self.matrix = matrix
        self.token = token
        self.infections = tuple(infections)


class KnotModel:
    """A knot built from summands; see the module docstring."""

    def __init__(self, summands):
        self.summands = list(summands)

    @cached_property
    def matrix(self):
        """Block sum of the summand matrices, built once per model."""
        out = SeifertMatrix._derived([])
        for s in self.summands:
            out = out.block_sum(s.matrix)
        return out

    @property
    def matrix_only(self):
        return all(not s.infections and s.token is None for s in self.summands)

    def mirror(self):
        if not self.matrix_only:
            raise PreconditionError("mirroring implemented for matrix-presented knots only")
        return KnotModel([Summand(s.matrix.mirror()) for s in self.summands])


def _get(d, key, where):
    """d[key]; a missing field raises PreconditionError."""
    if key not in d:
        raise PreconditionError("field %r is missing from %s" % (key, where))
    return d[key]


def _integer(value, what):
    """value itself when it is an int; bools, floats and strings are refused
    rather than coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise PreconditionError("%s must be an integer, got %r" % (what, value))
    return value


def _only(d, keys, where):
    """Refuse a field of d outside keys, so a misspelled key is not
    silently dropped."""
    for key in d:
        if key not in keys:
            raise PreconditionError("unknown field %r in %s" % (key, where))


# the fields of each knot kind, besides "kind" itself
_FIELDS = {"matrix": ("entries",), "torus": ("p", "q"),
           "twisted_double": ("a",), "mirror": ("knot",),
           "sum": ("summands",), "order_two": ("companion",),
           "satellite": ("base", "base_token", "infections")}


def _dicts(value, what):
    if not isinstance(value, (list, tuple)) or not all(isinstance(x, dict) for x in value):
        raise PreconditionError("%s must be a list of dicts" % what)
    return value


def build(spec):
    """Build a KnotModel from a plain-dict description.

    Kinds:
      {"kind": "matrix", "entries": [[...], ...]}
      {"kind": "torus", "p": int, "q": int}
      {"kind": "twisted_double", "a": int}
      {"kind": "mirror", "knot": spec}
      {"kind": "sum", "summands": [{"sign": +-1, "knot": spec}, ...]}
      {"kind": "order_two", "companion": spec}
      {"kind": "satellite", "base": spec, "base_token": str or None,
       "infections": [{"curve": str, "companion": spec,
                       "pattern": "double_lift"|"triple_lift", "param": int}, ...]}

    "sign", "base_token" and "infections" may be omitted; every other field
    is required, and no other field is allowed.  Integers must be ints, not
    bools, floats or strings.  Anything else raises PreconditionError.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise PreconditionError("knot description must be a dict with a 'kind' field")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _FIELDS:
        raise PreconditionError("unknown knot kind %r" % (kind,))
    where = "the %s knot description" % (kind,)
    _only(spec, ("kind",) + _FIELDS[kind], where)
    if kind == "matrix":
        rows = _get(spec, "entries", where)
        if (not isinstance(rows, (list, tuple))
                or not all(isinstance(r, (list, tuple)) for r in rows)):
            raise PreconditionError("'entries' must be a list of rows")
        return KnotModel([Summand(SeifertMatrix(rows))])
    if kind == "torus":
        p = _integer(_get(spec, "p", where), "'p'")
        q = _integer(_get(spec, "q", where), "'q'")
        return KnotModel([Summand(torus_matrix(p, q))])
    if kind == "twisted_double":
        a = _integer(_get(spec, "a", where), "'a'")
        return KnotModel([Summand(twisted_double_matrix(a))])
    if kind == "mirror":
        return KnotModel(build(_get(spec, "knot", where)).mirror().summands)
    if kind == "sum":
        summands = []
        for item in _dicts(_get(spec, "summands", where), "'summands'"):
            _only(item, ("sign", "knot"), "a summand")
            sign = _integer(item.get("sign", 1), "summand sign")
            if sign not in (1, -1):
                raise PreconditionError("summand sign must be +1 or -1")
            part = build(_get(item, "knot", "a summand"))
            if sign == -1:
                part = part.mirror()
            summands.extend(part.summands)
        return KnotModel(summands)
    if kind == "order_two":
        companion = build(_get(spec, "companion", where))
        if not companion.matrix_only:
            raise PreconditionError("companion knots must be matrix-presented")
        base = SeifertMatrix(_GENUS1_BASE)
        inf = [Infection("B1", companion, "double_lift", 1),
               Infection("B2", companion.mirror(), "double_lift", 2)]
        return KnotModel([Summand(base, None, inf)])
    # kind == "satellite"
    base = build(_get(spec, "base", where))
    if not base.matrix_only:
        raise PreconditionError("satellite base must be matrix-presented")
    token = spec.get("base_token")
    infections = []
    for i in _dicts(spec.get("infections", ()), "'infections'"):
        _only(i, ("curve", "companion", "pattern", "param"), "an infection")
        infections.append(Infection(
            _get(i, "curve", "an infection"),
            build(_get(i, "companion", "an infection")),
            _get(i, "pattern", "an infection"),
            _integer(_get(i, "param", "an infection"), "infection 'param'")))
    return KnotModel([Summand(base.matrix, token, infections)])
