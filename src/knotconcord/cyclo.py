"""Exact arithmetic in cyclotomic fields.

The ground rings used throughout the package are

  * Q, represented by fractions.Fraction;
  * integer polynomials, as coefficient tuples with the lowest degree first;
  * Q(zeta_n) = Q[x]/Phi_n(x), with zeta_n a primitive n-th root of unity
    (CyclotomicField); for prime p the modulus is 1 + x + ... + x^(p-1).

Integers are factored here and nowhere else in the package: factor(n) by
trial division up to MAX_TRIAL_DIVISOR, with euler_phi and is_prime read
off it.

Field elements are coefficient vectors on the power basis 1, zeta, ...,
zeta^(phi(n)-1).  Products, conjugates (the ring involution zeta ->
1/zeta) and powers of zeta are all reduced by one rule: fold modulo
x^n - 1, then eliminate by Phi_n.
Inverses come from the extended Euclidean algorithm modulo Phi_n, run
over the integers (_euclid, which also computes gcds in Q[t]).  Signs of
nonzero real (self-conjugate) elements are certified in integer fixed
point: each field keeps, per precision, a table of integers within 1 of
2^bits * cos(2*pi*j/n) (pi from Machin's formula), and a sign is
accepted only when the exact integer sum clears its error bound.  A lower
bound on the modulus of a nonzero element (via the field norm) caps the
precision, so no floating-point value is ever computed.
"""

import math
from functools import cache

from .errors import (BudgetExceeded, InternalInvariantViolation,
                     PreconditionError)


# ---------------------------------------------------------------------------
# integer polynomials

def poly_gcd(f, g):
    """gcd over Q of two integer polynomials (coefficient tuples, lowest
    degree first), as a primitive tuple with positive leading coefficient;
    () when both are zero."""
    r, _ = _euclid(f, g)
    if not r:
        return ()
    c = math.gcd(*r) if r[-1] > 0 else -math.gcd(*r)
    return tuple(x // c for x in r)


def _trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _eliminate(u, p, v, q, off):
    """u*p - v*x^off*q on integer coefficient lists (low degree first)."""
    out = [u * x for x in p]
    out += [0] * (len(q) + off - len(out))
    for i, y in enumerate(q):
        if y:
            out[off + i] -= v * y
    return _trim(out)


def _euclid(f, g):
    """Extended Euclid over Z on integer polynomials (coefficient lists,
    low degree first).

    Returns (r, s): r is the last nonzero remainder, a rational multiple of
    gcd(f, g), and s*g = r modulo f ((r, s) = ([], []) when f = g = 0).
    Each remainder step cancels leading terms by integer combinations;
    after each division the common content of the (remainder, cofactor)
    pair is divided out, which keeps the coefficients small.
    """
    r0, s0 = _trim(list(f)), []
    r1, s1 = _trim(list(g)), [1]
    while r1:
        b = r1[-1]
        while len(r0) >= len(r1):
            a = r0[-1]
            c = math.gcd(a, b)
            off = len(r0) - len(r1)
            r0 = _eliminate(b // c, r0, a // c, r1, off)
            s0 = _eliminate(b // c, s0, a // c, s1, off)
        c = math.gcd(*r0, *s0)
        if c > 1:
            r0 = [x // c for x in r0]
            s0 = [x // c for x in s0]
        r0, s0, r1, s1 = r1, s1, r0, s0
    return r0, s0


# ---------------------------------------------------------------------------
# integer factorisation

# Largest trial divisor factor() tries, about 0.2 s of divisions: every n
# below 10^12 is factored, and so is every n with at most one prime factor
# over 10^6; the product of two larger primes is refused.
MAX_TRIAL_DIVISOR = 10 ** 6


def factor(n):
    """Prime factorisation of an integer n >= 1 by trial division, as a
    tuple of pairs (p, e) with p increasing; () for n = 1.  Raises
    BudgetExceeded when a divisor over MAX_TRIAL_DIVISOR would be tried."""
    whole = n
    out = []
    p = 2
    while p * p <= n:
        if p > MAX_TRIAL_DIVISOR:
            raise BudgetExceeded(
                "factoring %d needs trial divisors over the budget of %d"
                % (whole, MAX_TRIAL_DIVISOR), MAX_TRIAL_DIVISOR)
        if n % p == 0:
            e = 1
            n //= p
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def euler_phi(n):
    """Euler's phi of an integer n >= 1."""
    for p, _ in factor(n):
        n -= n // p
    return n


def is_prime(n):
    """Whether the integer n is prime."""
    return n > 1 and factor(n)[0][0] == n


# ---------------------------------------------------------------------------
# cyclotomic polynomials and fields

def cyclotomic_polynomial(n):
    """Coefficient list (low degree first) of Phi_n.

    For the squarefree kernel r of n > 1, Phi_r is the product of
    (1 - x^d)^mu(r/d) over the divisors d of r, taken as a power series
    cut at degree phi(r): each factor is one pass over the coefficients
    (1/(1 - x^d) is the running sum with stride d).  Then Phi_n(x) =
    Phi_r(x^(n/r)).
    """
    if n == 1:
        return [-1, 1]
    primes = [q for q, _ in factor(n)]
    deg = 1
    for q in primes:
        deg *= q - 1
    poly = [1] + [0] * deg
    # each divisor d of r with mu(r/d) = (-1)^(number of primes left out)
    divisors = [(1, len(primes) % 2 == 0)]
    for q in primes:
        divisors += [(d * q, not even) for d, even in divisors]
    for d, even in divisors:
        if even:
            for i in range(deg, d - 1, -1):
                poly[i] -= poly[i - d]
        else:
            for i in range(d, deg + 1):
                poly[i] += poly[i - d]
    stride = n // math.prod(primes)
    out = [0] * (deg * stride + 1)
    out[::stride] = poly
    return out


def _arctan_inv(x, scale):
    """scale * arctan(1/x) for an integer x > 1, to within the number of
    terms + 1: each term of the alternating series is floored once, and
    the first term that floors to 0 bounds the tail."""
    total = 0
    power = scale // x
    k = 0
    while power:
        term = power // (2 * k + 1)
        total += -term if k % 2 else term
        power //= x * x
        k += 1
    return total


def _pi_fixed(w):
    """An integer within 4w + 40 of 2^w * pi, from Machin's formula
    pi = 16 arctan(1/5) - 4 arctan(1/239): at scale 2^w the two series
    have at most w/4.6 + 1 and w/15 + 1 terms."""
    scale = 1 << w
    return 16 * _arctan_inv(5, scale) - 4 * _arctan_inv(239, scale)


def fixed_cos(n, js, bits):
    """Integers C_j, one for each j in js, with |C_j - 2^bits cos(2 pi j/n)|
    < 1, for bits >= 64.

    Error analysis, in units of 2^-w at the working precision w = bits + g
    with g = bits.bit_length() + 6:
      * P = _pi_fixed(w) is within 4w + 40 of 2^w pi.
      * j/n is folded exactly: cos(2 pi j/n) = s cos(pi p/n) with s = +-1
        and 0 <= p/n <= 1/2.  X = floor(P p/n) is within 2w + 21 of 2^w x,
        x = pi p/n in [0, pi/2]; as |cos'| <= 1, cos(X 2^-w) is within
        2w + 21 of cos x.
      * Taylor series of cos(X 2^-w): t_0 = 2^w and t_k = floor(t_(k-1)
        X^2 / (2^2w (2k-1) 2k)), summed with alternating signs until the
        first t_K = 0 (shifting first is the same single floor).  The
        ratio of consecutive exact terms is below 1.24 for k = 1 and below
        0.21 after, so each t_k falls short of its exact term by less than
        1.3, K < w/2 + 3, and the tail is below the first omitted exact
        term, itself below 1.3: the sum is within w + 6 of 2^w cos(X 2^-w).
      * The total, 3w + 27, is below 2^(g-1), so rounding off the g guard
        bits leaves an error below 1/2 + 1/2.
    """
    g = bits.bit_length() + 6
    w = bits + g
    pi = _pi_fixed(w)
    table = []
    for j in js:
        r = j % n
        if 2 * r > n:
            r = n - r
        s, p = (1, 2 * r) if 4 * r <= n else (-1, n - 2 * r)
        x2 = (pi * p // n) ** 2
        total = term = 1 << w
        k = 0
        while term:
            k += 1
            term = (term * x2 >> (2 * w)) // ((2 * k - 1) * 2 * k)
            total += -term if k % 2 else term
        table.append(s * ((total + (1 << (g - 1))) >> g))
    return table


class _CyclotomicField:
    """Q(zeta_n) on the power basis, with packed integer arithmetic.

    A packed element is a pair (nums, den): a list of phi(n) integers and a
    positive integer denominator; every reduction goes through _reduce.
    """

    def __init__(self, n):
        if not isinstance(n, int) or n < 1:
            raise PreconditionError("a cyclotomic field needs an order n >= 1")
        self.n = n
        self.phi = cyclotomic_polynomial(n)
        self.deg = len(self.phi) - 1
        # (j, c) for each nonzero coefficient c of x^j, j < deg, in Phi_n
        self._low = [(j, c) for j, c in enumerate(self.phi[:-1]) if c]
        self._cos_tables = {}

    # -- basis vectors ------------------------------------------------

    def zero(self):
        return [0] * self.deg, 1

    def one(self):
        v = [0] * self.deg
        v[0] = 1
        return v, 1

    def zeta_pow(self, k):
        """Integer coefficient vector of zeta^k: x^k reduced, or, as zeta^k
        = conj(zeta^(n-k)), x^(n-k+deg-1) reduced and reversed (see conj),
        whichever exponent is less."""
        k %= self.n
        e = min(k, self.n - k + self.deg - 1)
        v = [0] * max(e + 1, self.deg)
        v[e] = 1
        return self._reduce(v) if e == k else self._reduce(v)[::-1]

    def _reduce(self, v):
        """v (integers, low degree first, at least deg long; consumed)
        modulo Phi_n: x^i is folded onto x^(i-n) for i >= n, as Phi_n
        divides x^n - 1, then eliminated from the top down by the monic
        Phi_n, through its nonzero lower coefficients _low."""
        n, deg, low = self.n, self.deg, self._low
        if len(v) > n:
            for i in range(len(v) - 1, n - 1, -1):
                v[i - n] += v[i]
            del v[n:]
        for i in range(len(v) - 1, deg - 1, -1):
            c = v[i]
            if c:
                base = i - deg
                for j, p in low:
                    v[base + j] -= c * p
        return v[:deg] if len(v) > deg else v

    def zeta_elt(self, k):
        """zeta^k as a packed field element."""
        return (self.zeta_pow(k), 1)

    # -- packed arithmetic ---------------------------------------------

    def mul(self, a, b):
        """a * b: the schoolbook product of the numerators, then _reduce."""
        an, ad = a
        bn, bd = b
        deg = self.deg
        if deg == 1:
            return self.normalize(([an[0] * bn[0]], ad * bd))
        raw = [0] * (2 * deg - 1)
        for i in range(deg):
            ai = an[i]
            if ai:
                for j in range(deg):
                    bj = bn[j]
                    if bj:
                        raw[i + j] += ai * bj
        return self.normalize((self._reduce(raw), ad * bd))

    def add(self, a, b):
        an, ad = a
        bn, bd = b
        g = math.gcd(ad, bd)
        la, lb = bd // g, ad // g
        return self.normalize(([x * la + y * lb for x, y in zip(an, bn)], ad * la))

    def sub(self, a, b):
        an, ad = a
        bn, bd = b
        g = math.gcd(ad, bd)
        la, lb = bd // g, ad // g
        return self.normalize(([x * la - y * lb for x, y in zip(an, bn)], ad * la))

    def scale(self, a, num, den=1):
        return self.normalize(([x * num for x in a[0]], a[1] * den))

    def normalize(self, a):
        """Positive denominator, coprime to the numerators; zero has
        denominator 1.  The numerator list may be the caller's own."""
        an, ad = a
        if ad < 0:
            an = [-x for x in an]
            ad = -ad
        g = ad
        gcd = math.gcd
        for x in an:
            if x:
                g = gcd(g, x)
                if g == 1:
                    return an, ad
        if g > 1:
            an = [x // g for x in an]
            ad //= g
        return an, ad

    def conj(self, a):
        """Image under zeta -> 1/zeta: x^(deg-1) a(x) reduced and reversed,
        since its reduction r(x) agrees with it at 1/zeta, a root of Phi_n
        too, so a(1/zeta) = zeta^(deg-1) r(1/zeta)."""
        an, ad = a
        return self.normalize(
            (self._reduce([0] * (self.deg - 1) + an)[::-1], ad))

    def is_zero(self, a):
        return not any(a[0])

    def inverse(self, a):
        """1/a by the extended Euclidean algorithm modulo Phi_n: Phi_n is
        irreducible, so a nonzero a leaves a constant last remainder c with
        s*a = c, and 1/a = s/c."""
        an, ad = a
        if not any(an):
            raise ZeroDivisionError("inverse of zero in Q(zeta_%d)" % self.n)
        r, s = _euclid(self.phi, an)
        if len(r) != 1:
            raise InternalInvariantViolation(
                "a nonzero element of Q(zeta_%d) must be coprime to Phi_%d"
                % (self.n, self.n))
        s += [0] * (self.deg - len(s))
        return self.normalize(([x * ad for x in s], r[0]))

    # -- sign certification ----------------------------------------------

    def cos_table(self, bits):
        """fixed_cos of this field's basis at 2^bits, built once per
        precision."""
        if bits not in self._cos_tables:
            self._cos_tables[bits] = fixed_cos(self.n, range(self.deg), bits)
        return self._cos_tables[bits]

    def sign_real(self, a):
        """Sign (-1, 0, 1) of a self-conjugate element.

        With C_j from cos_table(bits), S = sum c_j C_j is within
        W = sum |c_j| of 2^bits * den * a, so |S| > W certifies the sign;
        otherwise bits is quadrupled.  A nonzero den * a is a real
        algebraic integer with conjugates of modulus at most W and a
        nonzero integer norm, so |den * a| >= W^-(deg-1), and every
        bits > deg * W.bit_length() separates it: failing there means
        a is not self-conjugate.
        """
        an = a[0]
        if not any(an):
            return 0
        if not any(an[1:]):
            return 1 if an[0] > 0 else -1
        weight = sum(abs(x) for x in an)
        cap = self.deg * weight.bit_length() + 1
        bits = 64
        while True:
            s = sum(c * C for c, C in zip(an, self.cos_table(bits)) if c)
            if abs(s) > weight:
                return 1 if s > 0 else -1
            if bits >= cap:
                raise ArithmeticError(
                    "sign of a provably nonzero element did not separate; "
                    "element may not be self-conjugate")
            bits *= 4


# one field per order, kept for the life of the process; an invalid order
# raises on every call
CyclotomicField = cache(_CyclotomicField)
