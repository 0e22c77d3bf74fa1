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

from fractions import Fraction
from functools import cache, cached_property
from math import gcd

from . import linalg
from .cyclo import CyclotomicField
from .errors import (BudgetExceeded, InternalInvariantViolation,
                     PreconditionError, SingularAtT, UnsupportedGenus)
from .kernels import hermitian_inertia


class SeifertMatrix:
    """Square integer matrix V with det(V - V^T) = 1."""

    def __init__(self, entries):
        rows = [list(r) for r in entries]
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise PreconditionError("Seifert matrix must be square")
            for x in r:
                if isinstance(x, bool) or not isinstance(x, int):
                    raise PreconditionError("Seifert matrix entries must be integers")
        skew = [[rows[i][j] - rows[j][i] for j in range(n)] for i in range(n)]
        if linalg.det_bareiss(skew) != 1:
            raise PreconditionError("det(V - V^T) must equal 1")
        self.entries = rows
        self.size = n

    @property
    def genus(self):
        return self.size // 2

    def transpose(self):
        return SeifertMatrix(linalg.transpose(self.entries))

    def mirror(self):
        # mirror image: negate the transposed matrix
        return SeifertMatrix([[-x for x in row] for row in linalg.transpose(self.entries)])

    def block_sum(self, other):
        n, m = self.size, other.size
        out = [[0] * (n + m) for _ in range(n + m)]
        for i in range(n):
            for j in range(n):
                out[i][j] = self.entries[i][j]
        for i in range(m):
            for j in range(m):
                out[n + i][n + j] = other.entries[i][j]
        return SeifertMatrix(out)

    def __eq__(self, other):
        return isinstance(other, SeifertMatrix) and self.entries == other.entries

    def __repr__(self):
        return "SeifertMatrix(%r)" % (self.entries,)


def alexander(V):
    """Alexander polynomial det(V - t V^T) as a tuple of integer
    coefficients, lowest exponent first, normalized to lowest exponent 0
    and positive leading coefficient."""
    if isinstance(V, KnotModel):
        V = V.matrix
    return _alexander_coeffs(tuple(map(tuple, V.entries)))


@cache
def _alexander_coeffs(entries):
    """Integer coefficients of the normalized Alexander polynomial, lowest
    exponent first, memoised on the matrix entries.  The polynomial is
    never 0: its value at t = 1 is det(V - V^T) = 1."""
    n = len(entries)
    # degree <= n, so n+1 integer sample points determine the polynomial
    samples = []
    for k in range(n + 1):
        M = [[entries[i][j] - k * entries[j][i] for j in range(n)] for i in range(n)]
        samples.append(linalg.det_bareiss(M))
    coeffs = _interpolate_integer_poly(samples)
    while coeffs[0] == 0:
        coeffs.pop(0)
    return tuple(c if coeffs[-1] > 0 else -c for c in coeffs)


def _interpolate_integer_poly(values):
    """Integer coefficients, lowest degree first, of the polynomial f of
    degree < len(values) with f(k) = values[k].

    Newton form over the falling factorials: f = sum_k c_k x(x-1)...(x-k+1)
    with c_k = (forward difference)^k f(0) / k!, which is an integer for
    every k exactly when f has integer coefficients."""
    n = len(values)
    diffs = list(values)
    newton = []
    fact = 1
    for k in range(n):
        if k:
            fact *= k
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        c, r = divmod(diffs[0], fact)
        if r:
            raise InternalInvariantViolation(
                "a determinant polynomial must be integral")
        newton.append(c)
    # Horner in the Newton basis: out <- out * (x - k) + c_k
    out = newton[-1:]
    for k in range(n - 2, -1, -1):
        out = [a - k * b for a, b in zip([0] + out, out + [0])]
        out[0] += newton[k]
    while out and out[-1] == 0:
        out.pop()
    return out


# Largest field degree phi(d) that lt_signature works over.  Fixtures, tests
# and benchmark workloads need at most 210; the trefoil takes about 0.5 s at
# t = 1/1021 (phi = 1020) and 2 s at 1/4620 (phi = 960).
MAX_FIELD_DEGREE = 1024


def _euler_phi(n):
    out, p = n, 2
    while p * p <= n:
        if n % p == 0:
            out -= out // p
            while n % p == 0:
                n //= p
        p += 1
    return out - out // n if n > 1 else out


def lt_signature(V, t):
    """Signature of (1-w)V + (1-conj(w))V^T at w = exp(2*pi*i*t), t in (0,1).

    Computed exactly over the cyclotomic field of the reduced denominator;
    raises BudgetExceeded when its degree exceeds MAX_FIELD_DEGREE.
    Raises SingularAtT when the form is singular there, which happens
    exactly when w is a root of the Alexander polynomial.
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
    if d > 2 * MAX_FIELD_DEGREE ** 2 or _euler_phi(d) > MAX_FIELD_DEGREE:
        raise BudgetExceeded("t = %s needs Q(zeta_%d), whose degree phi(%d) "
                             "exceeds the budget of %d"
                             % (t, d, d, MAX_FIELD_DEGREE), MAX_FIELD_DEGREE)
    F = CyclotomicField(d)
    one = F.one()
    c1 = F.sub(one, F.zeta_elt(a))          # 1 - w
    c2 = F.sub(one, F.zeta_elt(d - a))      # 1 - conj(w)
    n = V.size
    B = [[F.add(F.scale(c1, V.entries[r][c]), F.scale(c2, V.entries[c][r]))
          for c in range(n)] for r in range(n)]
    plus, minus, zero = hermitian_inertia(F, B)
    if zero:
        raise SingularAtT("form singular at t = %s" % (t,))
    return plus - minus


def signature_profile(V, points):
    """lt_signature at each point of an iterable of rationals."""
    return [(Fraction(pt), lt_signature(V, pt)) for pt in points]


class FoxMilnorResult:
    def __init__(self, passes, pairing, failures):
        self.passes = passes
        self.pairing = pairing      # list of (factor, reciprocal factor, multiplicity)
        self.failures = failures    # human-readable reasons
    def __repr__(self):
        return "FoxMilnorResult(passes=%r)" % (self.passes,)


def fox_milnor(V):
    """Test whether the Alexander polynomial factors as f(t) f(1/t) up to
    units over Q: every irreducible factor must pair with its reciprocal
    at equal multiplicity, and self-reciprocal factors must occur to even
    powers."""
    delta = alexander(V)
    factors = _rational_factors(delta)
    mult = {}
    for coeffs, e in factors:
        mult[coeffs] = mult.get(coeffs, 0) + e
    pairing = []
    failures = []
    seen = set()
    for coeffs in sorted(mult):
        if coeffs in seen:
            continue
        rec = _reciprocal_coeffs(coeffs)
        if rec == coeffs:
            seen.add(coeffs)
            if mult[coeffs] % 2:
                failures.append("self-reciprocal factor %r has odd multiplicity %d"
                                % (list(coeffs), mult[coeffs]))
            else:
                pairing.append((coeffs, coeffs, mult[coeffs]))
        else:
            seen.add(coeffs)
            seen.add(rec)
            if mult.get(rec, 0) != mult[coeffs]:
                failures.append("factor %r (multiplicity %d) does not match "
                                "reciprocal %r (multiplicity %d)"
                                % (list(coeffs), mult[coeffs], list(rec), mult.get(rec, 0)))
            else:
                pairing.append((coeffs, rec, mult[coeffs]))
    return FoxMilnorResult(not failures, pairing, failures)


def _rational_factors(poly):
    """Irreducible factors over Q of an integer polynomial (coefficient
    tuple, lowest degree first), as primitive integer coefficient tuples
    (ascending, positive leading coefficient) with multiplicities.  The
    content is dropped."""
    from sympy import Poly, Symbol, factor_list

    if len(poly) <= 1:
        return []
    x = Symbol("x")
    expr = sum(c * x ** e for e, c in enumerate(poly))
    _, facs = factor_list(Poly(expr, x))
    out = []
    for f, e in facs:
        cs = [int(c) for c in reversed(f.all_coeffs())]
        out.append((_canonical_coeffs(cs), int(e)))
    return out


def _canonical_coeffs(cs):
    while cs and cs[-1] == 0:
        cs = cs[:-1]
    lo = 0
    while lo < len(cs) and cs[lo] == 0:
        lo += 1
    cs = cs[lo:]
    g = 0
    for c in cs:
        g = gcd(g, abs(c))
    if g:
        cs = [c // g for c in cs]
    if cs and cs[-1] < 0:
        cs = [-c for c in cs]
    return tuple(cs)


def _reciprocal_coeffs(coeffs):
    return _canonical_coeffs(list(reversed(coeffs)))


def metabolizing_vectors(V, bound=10):
    """Primitive integer vectors v with v^T V v = 0, for 2x2 matrices,
    searched over |components| <= bound and normalized so the first
    nonzero component is positive."""
    if isinstance(V, KnotModel):
        V = V.matrix
    if V.size != 2:
        raise UnsupportedGenus("isotropic vector search implemented for genus 1 only")
    found = set()
    for x in range(0, bound + 1):
        for y in range(-bound, bound + 1):
            if (x, y) == (0, 0) or gcd(x, abs(y)) != 1:
                continue
            if x == 0 and y < 0:
                continue
            row0 = V.entries[0][0] * x + V.entries[0][1] * y
            row1 = V.entries[1][0] * x + V.entries[1][1] * y
            if x * row0 + y * row1 == 0:
                found.add((x, y))
    return sorted(found)


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
            elif cj == ci - 1:
                if aj < ai < bj < bi:
                    V[j][i], V[i][j] = _CROSS_LATER
                elif ai < aj < bi < bj:
                    V[j][i], V[i][j] = _CROSS_EARLIER
    return SeifertMatrix(V)


def torus_matrix(p, q):
    """Seifert matrix of the (p,q) torus knot from its fence surface.
    Negative parameters give the mirror image."""
    if gcd(abs(p), abs(q)) != 1:
        raise PreconditionError("torus knot parameters must be coprime")
    if abs(p) < 2 or abs(q) < 2:
        raise PreconditionError("torus knot parameters must exceed 1 in magnitude")
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

    def __init__(self, summands, spec=None):
        self.summands = list(summands)
        self.spec = spec

    @cached_property
    def matrix(self):
        """Block sum of the summand matrices, built once per model."""
        out = SeifertMatrix([])
        for s in self.summands:
            out = out.block_sum(s.matrix)
        return out

    @property
    def matrix_only(self):
        return all(not s.infections and s.token is None for s in self.summands)

    @property
    def infections(self):
        out = []
        for s in self.summands:
            out.extend(s.infections)
        return out

    @property
    def tokens(self):
        return [s.token for s in self.summands if s.token is not None]

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
    is required.  Integers must be ints, not bools, floats or strings.
    Anything else raises PreconditionError.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise PreconditionError("knot description must be a dict with a 'kind' field")
    kind = spec["kind"]
    where = "the %s knot description" % (kind,)
    if kind == "matrix":
        rows = _get(spec, "entries", where)
        if (not isinstance(rows, (list, tuple))
                or not all(isinstance(r, (list, tuple)) for r in rows)):
            raise PreconditionError("'entries' must be a list of rows")
        return KnotModel([Summand(SeifertMatrix(rows))], spec)
    if kind == "torus":
        p = _integer(_get(spec, "p", where), "'p'")
        q = _integer(_get(spec, "q", where), "'q'")
        return KnotModel([Summand(torus_matrix(p, q))], spec)
    if kind == "twisted_double":
        a = _integer(_get(spec, "a", where), "'a'")
        return KnotModel([Summand(twisted_double_matrix(a))], spec)
    if kind == "mirror":
        return KnotModel(build(_get(spec, "knot", where)).mirror().summands, spec)
    if kind == "sum":
        summands = []
        for item in _dicts(_get(spec, "summands", where), "'summands'"):
            sign = _integer(item.get("sign", 1), "summand sign")
            if sign not in (1, -1):
                raise PreconditionError("summand sign must be +1 or -1")
            part = build(_get(item, "knot", "a summand"))
            if sign == -1:
                part = part.mirror()
            summands.extend(part.summands)
        return KnotModel(summands, spec)
    if kind == "order_two":
        companion = build(_get(spec, "companion", where))
        if not companion.matrix_only:
            raise PreconditionError("companion knots must be matrix-presented")
        base = SeifertMatrix(_GENUS1_BASE)
        inf = [Infection("B1", companion, "double_lift", 1),
               Infection("B2", companion.mirror(), "double_lift", 2)]
        return KnotModel([Summand(base, None, inf)], spec)
    if kind == "satellite":
        base = build(_get(spec, "base", where))
        if not base.matrix_only:
            raise PreconditionError("satellite base must be matrix-presented")
        token = spec.get("base_token")
        infections = [
            Infection(_get(i, "curve", "an infection"),
                      build(_get(i, "companion", "an infection")),
                      _get(i, "pattern", "an infection"),
                      _integer(_get(i, "param", "an infection"), "infection 'param'"))
            for i in _dicts(spec.get("infections", ()), "'infections'")]
        return KnotModel([Summand(base.matrix, token, infections)], spec)
    raise PreconditionError("unknown knot kind %r" % (kind,))
