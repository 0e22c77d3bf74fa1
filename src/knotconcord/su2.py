"""Torus-knot signatures by counting representation arcs.

Irreducible SU(2) representations of the (-a, a+1) torus knot group come in
one-parameter arcs indexed by integer pairs (m, n) with 0 < m < a,
0 < n < a+1 and m = n mod 2.  Along each arc the meridian eigenvalue angle
sweeps an open interval whose endpoints are the rational angles
|m/a - n/(a+1)| and m/a + n/(a+1), the latter reduced into [0, 1] by
reflecting past a half turn.  The signature at parameter t is twice the
count of arcs whose interval contains t; for this orientation every arc
contributes with the same positive sign, so no perturbation bookkeeping is
needed.  All comparisons are exact on fractions of a half turn; no
floating-point trace values appear anywhere.  A request whose samples
times arcs could exceed DEFAULT_BUDGET raises BudgetExceeded before any
arc is built.
"""

from fractions import Fraction

from .errors import BudgetExceeded, EndpointCollision, PreconditionError
from .metabolizers import DEFAULT_BUDGET


class RepArc:
    """One arc of irreducible representations with its meridian angle
    interval (lo, hi), both exact fractions of a half turn."""

    __slots__ = ("m", "n", "lo", "hi", "folded")

    def __init__(self, a, m, n):
        self.m = m
        self.n = n
        lo = abs(Fraction(m, a) - Fraction(n, a + 1))
        hi = Fraction(m, a) + Fraction(n, a + 1)
        self.folded = hi > 1
        if self.folded:
            hi = 2 - hi
        self.lo = lo
        self.hi = hi

    def __repr__(self):
        return "RepArc(m=%d, n=%d, (%s, %s))" % (self.m, self.n, self.lo, self.hi)


def _check_budget(a, samples):
    """Refuse a request that counts arcs at `samples` points when samples
    times an upper bound on the arc count exceeds DEFAULT_BUDGET.  The
    bound: m takes a - 1 values, and at most ceil(a / 2) values of n share
    its parity.  An invalid a is left for the caller to refuse."""
    if isinstance(a, int) and a > 1:
        bound = (a - 1) * ((a + 1) // 2)
        if samples * bound > DEFAULT_BUDGET:
            raise BudgetExceeded(
                "%d sample(s) over up to %d arcs exceed the budget of %d"
                % (samples, bound, DEFAULT_BUDGET), DEFAULT_BUDGET)


def count_signature(a, t):
    """Signature of the (-a, a+1) torus knot at t by arc counting: twice
    the number of arcs whose open angle interval contains t.  Requires
    0 < t < 1; raises EndpointCollision when t is an arc endpoint, where
    the count is ill defined."""
    t = Fraction(t)
    if not 0 < t < 1:
        raise PreconditionError("parameter must satisfy 0 < t < 1")
    if not isinstance(a, int) or a < 1:
        raise PreconditionError("torus parameter must be a positive integer")
    _check_budget(a, 1)
    return _count(a, t)


def _count(a, t):
    """count_signature for a valid a and t, in integers, one m at a time,
    without building the arcs.

    On the scale N = a(a+1) with t = p/q, P = pN, u = m(a+1) and w = na,
    the arc (m, n) has lo = |u - w|/N and, folded, hi = min(u + w, 2N - u
    - w)/N, so it contains t exactly when |uq - P| < naq < min(uq + P,
    (2N - u)q - P): an open range of n.  An endpoint solves one of these
    with equality, which leaves at most four n per m to check."""
    p, q = t.numerator, t.denominator
    N = a * (a + 1)
    P, B = p * N, a * q
    count = 0
    for m in range(1, a):
        u = m * (a + 1)
        uq, vq = u * q, (2 * N - u) * q
        hits = []
        for num in (uq - P, uq + P, P - uq, vq - P):
            n, r = divmod(num, B)
            if (not r and 0 < n <= a and (m - n) % 2 == 0
                    and P in (abs(u - n * a) * q,
                              min(u + n * a, 2 * N - u - n * a) * q)):
                hits.append(n)
        if hits:
            raise EndpointCollision(
                "t = %s is an endpoint of the (m, n) = (%d, %d) arc"
                % (t, m, min(hits)))
        # n > |uq - P| / B and n < min(uq + P, vq - P) / B
        lo = max(1, abs(uq - P) // B + 1)
        hi = min(a, (min(uq + P, vq - P) - 1) // B)
        first = lo + (m - lo) % 2
        if first <= hi:
            count += (hi - first) // 2 + 1
    return 2 * count


def _covers_window(intervals, lo, hi):
    # greedy chain of open intervals over the open window (lo, hi)
    ivs = sorted(iv for iv in intervals)
    reach = lo
    for l, h in ivs:
        if l > reach:
            return False
        reach = max(reach, h)
        if reach >= hi:
            return True
    return reach >= hi


def verify_herald(a, grid=100):
    """Positivity of the arc-count signature strictly inside the window
    (1/(a(a+1)), 1 - 1/(a(a+1))).

    Samples grid rational points inside the window, skipping arc endpoints,
    and checks the count is positive at each.  Also certifies the covering
    argument behind the positivity claim: the arcs with (m, n) = (1, odd)
    already cover the window."""
    if not isinstance(a, int) or a < 2:
        raise PreconditionError("window check needs a >= 2")
    if not isinstance(grid, int) or grid < 1:
        raise PreconditionError("sample count must be a positive integer")
    _check_budget(a, grid)
    w_lo = Fraction(1, a * (a + 1))
    w_hi = 1 - w_lo
    checked = 0
    skipped = 0
    min_count = None
    failures = []
    for k in range(1, grid + 1):
        t = w_lo + (w_hi - w_lo) * Fraction(k, grid + 1)
        try:
            c = _count(a, t)
        except EndpointCollision:
            skipped += 1
            continue
        checked += 1
        if min_count is None or c < min_count:
            min_count = c
        if c <= 0:
            failures.append(str(t))
    family = [RepArc(a, 1, n) for n in range(1, a + 1, 2)]
    # the count is symmetric under t -> 1-t, so covering the window only
    # needs the family together with its mirror images; the first arc
    # starts exactly at the window edge and consecutive arcs overlap
    pieces = [(arc.lo, arc.hi) for arc in family]
    pieces += [(1 - hi, 1 - lo) for lo, hi in pieces]
    covers = _covers_window(pieces, w_lo, w_hi)
    return {"a": a,
            "window": [str(w_lo), str(w_hi)],
            "grid": grid,
            "samples_checked": checked,
            "skipped_endpoints": skipped,
            "min_count": min_count,
            "all_positive": not failures and checked > 0,
            "failures": failures,
            "cover_family": [[arc.m, arc.n] for arc in family],
            "cover_intervals": [[str(arc.lo), str(arc.hi)] for arc in family],
            "cover_uses_symmetry": True,
            "covers_window": covers}
