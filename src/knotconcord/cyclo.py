"""Exact arithmetic in cyclotomic fields and Laurent polynomial rings.

The ground rings used throughout the package are

  * Q, represented by fractions.Fraction;
  * Q[t, 1/t], Laurent polynomials with rational coefficients (RatLaurent);
  * Q(zeta_n) = Q[x]/Phi_n(x), with zeta_n a primitive n-th root of unity
    (CyclotomicField); for prime p the modulus is 1 + x + ... + x^(p-1);
  * Q(zeta_p)[t, 1/t], Laurent polynomials over a prime cyclotomic field
    (CycLaurent).

Field elements are coefficient vectors on the power basis 1, zeta, ...,
zeta^(phi(n)-1).  Conjugation is the ring involution zeta -> 1/zeta,
t -> 1/t.  Signs of nonzero real (self-conjugate) elements are certified
by rational interval arithmetic: the element is evaluated on intervals
enclosing cos(2*pi*j/n), refined until zero is excluded.  A lower bound on
the modulus of a nonzero element (via the field norm) guarantees
termination, so no floating point is ever trusted.
"""

import json
import math
from fractions import Fraction

from .errors import InternalInvariantViolation


# ---------------------------------------------------------------------------
# modular integers

class ModInt:
    """An integer residue with its modulus attached."""

    __slots__ = ("value", "modulus")

    def __init__(self, value, modulus):
        assert modulus > 1
        self.modulus = modulus
        self.value = value % modulus

    def _coerce(self, other):
        if isinstance(other, ModInt):
            assert other.modulus == self.modulus, "modulus mismatch"
            return other.value
        return int(other)

    def __add__(self, other):
        return ModInt(self.value + self._coerce(other), self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        return ModInt(self.value - self._coerce(other), self.modulus)

    def __rsub__(self, other):
        return ModInt(self._coerce(other) - self.value, self.modulus)

    def __neg__(self):
        return ModInt(-self.value, self.modulus)

    def __mul__(self, other):
        return ModInt(self.value * self._coerce(other), self.modulus)

    __rmul__ = __mul__

    def inverse(self):
        return ModInt(pow(self.value, -1, self.modulus), self.modulus)

    def __truediv__(self, other):
        if not isinstance(other, ModInt):
            other = ModInt(int(other), self.modulus)
        return self * other.inverse()

    def __pow__(self, k):
        return ModInt(pow(self.value, k, self.modulus), self.modulus)

    def __eq__(self, other):
        if isinstance(other, ModInt):
            return self.modulus == other.modulus and self.value == other.value
        return self.value == int(other) % self.modulus

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __int__(self):
        return self.value

    def __repr__(self):
        return "ModInt(%d, %d)" % (self.value, self.modulus)


def cube_roots_mod(n):
    """All residues r mod n with r^3 = 1, as a sorted list."""
    assert 1 < n <= 10 ** 6
    return [r for r in range(n) if pow(r, 3, n) == 1]


# ---------------------------------------------------------------------------
# Laurent polynomials over Q

class RatLaurent:
    """Laurent polynomial over Q, stored as {exponent: Fraction}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for e, c in coeffs.items():
                c = Fraction(c)
                if c:
                    self.coeffs[int(e)] = c

    @classmethod
    def from_list(cls, coeffs, low=0):
        """Polynomial sum(coeffs[i] * t^(low+i))."""
        return cls({low + i: c for i, c in enumerate(coeffs)})

    @classmethod
    def term(cls, c, e=0):
        return cls({e: Fraction(c)})

    def is_zero(self):
        return not self.coeffs

    def degree_span(self):
        """(min exponent, max exponent); (0, 0) for the zero polynomial."""
        if not self.coeffs:
            return (0, 0)
        return (min(self.coeffs), max(self.coeffs))

    def __eq__(self, other):
        return isinstance(other, RatLaurent) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return RatLaurent(out)

    def __neg__(self):
        return RatLaurent({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatLaurent({e: c * other for e, c in self.coeffs.items()})
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return RatLaurent(out)

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by t^k."""
        return RatLaurent({e + k: c for e, c in self.coeffs.items()})

    def reverse(self):
        """Substitute t -> 1/t."""
        return RatLaurent({-e: c for e, c in self.coeffs.items()})

    def eval_fraction(self, x):
        x = Fraction(x)
        return sum((c * x ** e for e, c in self.coeffs.items()), Fraction(0))

    def normalized(self):
        """Canonical associate: minimal exponent 0, positive leading
        coefficient (the coefficient of the top degree term)."""
        if not self.coeffs:
            return RatLaurent()
        lo, hi = self.degree_span()
        out = {e - lo: c for e, c in self.coeffs.items()}
        if out[hi - lo] < 0:
            out = {e: -c for e, c in out.items()}
        return RatLaurent(out)

    def primitive_integer(self):
        """Scale by a positive rational so the coefficients become coprime
        integers; returns (dict of int coeffs, scale) with self = scale*prim."""
        if not self.coeffs:
            return {}, Fraction(1)
        den = math.lcm(*(c.denominator for c in self.coeffs.values()))
        nums = {e: int(c * den) for e, c in self.coeffs.items()}
        g = math.gcd(*(abs(v) for v in nums.values()))
        return {e: v // g for e, v in nums.items()}, Fraction(g, den)

    def is_symmetric(self):
        """True when f(1/t) is a unit multiple of f(t)."""
        return self.normalized() == self.reverse().normalized()

    def to_json(self):
        return {str(e): [c.numerator, c.denominator]
                for e, c in sorted(self.coeffs.items())}

    @classmethod
    def from_json(cls, data):
        if isinstance(data, str):
            data = json.loads(data)
        return cls({int(e): Fraction(v[0], v[1]) for e, v in data.items()})

    def __repr__(self):
        if not self.coeffs:
            return "RatLaurent(0)"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            parts.append("%s*t^%d" % (self.coeffs[e], e))
        return "RatLaurent(%s)" % " + ".join(parts)


def poly_gcd_q(f, g):
    """gcd of two Laurent polynomials over Q (monic, as a RatLaurent)."""
    def to_list(p):
        lo, hi = p.degree_span()
        return [p.coeffs.get(i, Fraction(0)) for i in range(0, hi - lo + 1)], lo

    a, _ = to_list(f.normalized())
    b, _ = to_list(g.normalized())
    while any(b):
        # a mod b
        while len(a) >= len(b) and any(a):
            if a[-1] == 0:
                a.pop()
                continue
            q = a[-1] / b[-1]
            off = len(a) - len(b)
            for i in range(len(b)):
                a[off + i] -= q * b[i]
            a.pop()
        a, b = b, a
        while b and b[-1] == 0:
            b.pop()
    if not any(a):
        return RatLaurent()
    lead = a[-1]
    return RatLaurent({i: c / lead for i, c in enumerate(a) if c})


# ---------------------------------------------------------------------------
# cyclotomic polynomials and fields

_cyclo_cache = {}


def cyclotomic_polynomial(n):
    """Coefficient list (low degree first) of Phi_n, computed by exact
    division of x^n - 1 by the proper cyclotomic factors."""
    if n in _cyclo_cache:
        return list(_cyclo_cache[n])
    poly = [-1] + [0] * (n - 1) + [1]          # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            phi_d = cyclotomic_polynomial(d)
            poly = _poly_div_exact(poly, phi_d)
    _cyclo_cache[n] = list(poly)
    return poly


def _poly_div_exact(a, b):
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        q, r = divmod(a[i + len(b) - 1], b[-1])
        assert r == 0
        out[i] = q
        if q:
            for j in range(len(b)):
                a[i + j] -= q * b[j]
    assert not any(a[: len(b) - 1])
    return out


def _euler_phi(n):
    out = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


_PI_CACHE = {}


def _pi_bounds(digits):
    """Fractions (lo, hi) with lo < pi < hi and hi - lo <= 10^(2-digits)."""
    if digits in _PI_CACHE:
        return _PI_CACHE[digits]
    import mpmath

    with mpmath.workdps(digits + 10):
        s = mpmath.nstr(mpmath.pi, digits + 5, strip_zeros=False)
    val = Fraction(s)
    eps = Fraction(1, 10 ** (digits - 2))
    _PI_CACHE[digits] = (val - eps, val + eps)
    return _PI_CACHE[digits]


def _cos_series_bounds(x, tol):
    """Interval for cos(x) at an exact rational x in [0, 1.6]."""
    s = Fraction(1)
    term = Fraction(1)
    k = 0
    x2 = x * x
    while True:
        k += 1
        term = term * x2 / ((2 * k - 1) * (2 * k))
        s += -term if k % 2 else term
        # alternating tail bound once terms decrease (true for x <= 2, k >= 1)
        if term < tol:
            break
    return s - term, s + term


def _cos_2pi_bounds(r, digits):
    """Interval enclosing cos(2*pi*r) for rational r, width ~10^-digits."""
    r = r - math.floor(r)
    sign = 1
    if 2 * r > 1:
        r = 1 - r
    if 4 * r > 1:
        r = Fraction(1, 2) - r
        sign = -1
    pil, pih = _pi_bounds(digits + 8)
    tol = Fraction(1, 10 ** (digits + 2))
    # theta = 2*pi*r in [0, pi/2]; cos is decreasing there
    lo = _cos_series_bounds(2 * r * pih, tol)[0]
    hi = _cos_series_bounds(2 * r * pil, tol)[1]
    if sign < 0:
        lo, hi = -hi, -lo
    return lo, hi


_field_cache = {}


def CyclotomicField(n):
    if n not in _field_cache:
        _field_cache[n] = _CyclotomicField(n)
    return _field_cache[n]


class _CyclotomicField:
    """Q(zeta_n) on the power basis, with packed integer arithmetic.

    A packed element is a pair (nums, den): a list of phi(n) integers and a
    positive integer denominator.  The class also accepts tuples of
    Fractions on the same basis (the "unpacked" form used by callers that
    do not care about speed).
    """

    def __init__(self, n):
        assert n >= 1
        self.n = n
        self.phi = cyclotomic_polynomial(n) if n > 1 else [-1, 1]
        self.deg = len(self.phi) - 1 if n > 1 else 1
        if n == 1:
            self.deg = 1
        # x^deg mod Phi, and reduction rows x^(deg+i) for i = 0 .. deg-2
        self.redbase = [-c for c in self.phi[:-1]]
        if len(self.redbase) < self.deg:
            self.redbase += [0] * (self.deg - len(self.redbase))
        self.red = []
        if self.deg > 1:
            self.red.append(list(self.redbase))
            for _ in range(self.deg - 2):
                prev = self.red[-1]
                nxt = [0] + prev[:-1]
                carry = prev[-1]
                if carry:
                    for j in range(self.deg):
                        nxt[j] += carry * self.redbase[j]
                self.red.append(nxt)
        self._zeta_cache = {}
        self.units = [k for k in range(1, max(n, 2)) if math.gcd(k, n) == 1] or [1]
        self.conj_mat = [self.zeta_pow(-j) for j in range(self.deg)]
        self._sigma_cache = {}

    # -- basis vectors ------------------------------------------------

    def zero(self):
        return [0] * self.deg, 1

    def one(self):
        v = [0] * self.deg
        v[0] = 1
        return v, 1

    def zeta_pow(self, k):
        """Integer coefficient vector of zeta^k on the power basis."""
        k %= max(self.n, 1)
        if k in self._zeta_cache:
            return list(self._zeta_cache[k])
        if k < self.deg:
            v = [0] * self.deg
            v[k] = 1
        else:
            # multiply x^(deg-1) by x repeatedly, reducing at each step
            v = [0] * self.deg
            v[self.deg - 1] = 1
            for _ in range(k - self.deg + 1):
                carry = v[-1]
                v = [0] + v[:-1]
                if carry:
                    for j in range(self.deg):
                        v[j] += carry * self.redbase[j]
        self._zeta_cache[k] = list(v)
        return v

    def zeta_elt(self, k):
        """zeta^k as a packed field element."""
        return (self.zeta_pow(k), 1)

    def sigma_mat(self, k):
        """Basis images under the Galois map zeta -> zeta^k."""
        if k not in self._sigma_cache:
            self._sigma_cache[k] = [self.zeta_pow(j * k) for j in range(self.deg)]
        return self._sigma_cache[k]

    # -- packed arithmetic ---------------------------------------------

    def mul(self, a, b):
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
        # reduce x^i, i >= deg, with the precomputed rows
        out = raw[:deg]
        red = self.red
        for i in range(deg, 2 * deg - 1):
            c = raw[i]
            if c:
                row = red[i - deg]
                for j in range(deg):
                    out[j] += c * row[j]
        return self.normalize((out, ad * bd))

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

    def neg(self, a):
        return ([-x for x in a[0]], a[1])

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

    def apply_basis_map(self, basis_images, a):
        an, ad = a
        deg = self.deg
        out = [0] * deg
        for j in range(deg):
            c = an[j]
            if c:
                img = basis_images[j]
                for i in range(deg):
                    out[i] += c * img[i]
        return self.normalize((out, ad))

    def conj(self, a):
        return self.apply_basis_map(self.conj_mat, a)

    def galois(self, a, k):
        return self.apply_basis_map(self.sigma_mat(k), a)

    def is_zero(self, a):
        return not any(a[0])

    def is_rational(self, a):
        return not any(a[0][1:])

    def inverse(self, a):
        """1/a via the product of the nontrivial Galois conjugates."""
        an, ad = a
        if not any(an):
            raise ZeroDivisionError("inverse of zero in Q(zeta_%d)" % self.n)
        adj = self.one()
        for k in self.units[1:]:
            adj = self.mul(adj, (self.galois((an, 1), k)))
        norm = self.mul((an, 1), adj)
        nn, nd = norm
        if any(nn[1:]) or not nn[0]:
            raise InternalInvariantViolation(
                "field norm must be a nonzero rational in Q(zeta_%d)" % self.n)
        # a/ad * adj*ad / (nn[0]/nd) = 1  =>  inverse = adj * ad * nd / nn[0]
        return self.normalize(([x * ad * nd for x in adj[0]], adj[1] * nn[0]))

    # -- conversions ----------------------------------------------------

    def pack(self, fracs):
        """Tuple of Fractions -> packed (nums, den)."""
        fracs = [Fraction(x) for x in fracs]
        assert len(fracs) == self.deg
        den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        return self.normalize(([int(f * den) for f in fracs], den))

    def unpack(self, a):
        an, ad = a
        return tuple(Fraction(x, ad) for x in an)

    def from_rational(self, q):
        q = Fraction(q)
        v = [0] * self.deg
        v[0] = q.numerator
        return self.normalize((v, q.denominator))

    # -- sign certification ----------------------------------------------

    def sign_real(self, a):
        """Sign (-1, 0, 1) of a self-conjugate element, certified by
        interval refinement; termination is backed by the norm lower bound
        |a| >= 1 / (sum |coeffs|)^(deg-1) for nonzero integral a."""
        an, ad = a
        if not any(an):
            return 0
        if not any(an[1:]):
            return 1 if an[0] > 0 else -1
        weight = sum(abs(x) for x in an)
        # enough digits to separate a nonzero value from 0, plus guard
        cap = (self.deg - 1) * len(str(weight)) + 12
        digits = 24
        while True:
            lo = hi = Fraction(0)
            for j, c in enumerate(an):
                if not c:
                    continue
                clo, chi = _cos_2pi_bounds(Fraction(j, self.n), digits)
                if c > 0:
                    lo += c * clo
                    hi += c * chi
                else:
                    lo += c * chi
                    hi += c * clo
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            if digits > cap:
                raise ArithmeticError(
                    "sign of a provably nonzero element did not separate; "
                    "element may not be self-conjugate")
            digits = max(digits * 4, cap + 1) if digits * 4 > cap else digits * 4


# ---------------------------------------------------------------------------
# Laurent polynomials over Q(zeta_p), p prime

def _is_prime(p):
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


class CycLaurent:
    """Laurent polynomial over Q(zeta_p) for prime p.

    Coefficients are tuples of Fractions of length p-1 on the power basis.
    """

    __slots__ = ("p", "field", "coeffs")

    def __init__(self, p, coeffs=None):
        assert _is_prime(p), "the cyclotomic Laurent ring is over prime p"
        self.p = p
        self.field = CyclotomicField(p)
        self.coeffs = {}
        if coeffs:
            for e, v in coeffs.items():
                v = tuple(Fraction(x) for x in v)
                if any(v):
                    self.coeffs[int(e)] = v

    @classmethod
    def from_rat(cls, p, f):
        """Embed a RatLaurent."""
        deg = CyclotomicField(p).deg
        return cls(p, {e: (c,) + (Fraction(0),) * (deg - 1)
                       for e, c in f.coeffs.items()})

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, CycLaurent) and self.p == other.p
                and self.coeffs == other.coeffs)

    def __add__(self, other):
        assert self.p == other.p
        out = dict(self.coeffs)
        for e, v in other.coeffs.items():
            if e in out:
                s = tuple(a + b for a, b in zip(out[e], v))
                if any(s):
                    out[e] = s
                else:
                    del out[e]
            else:
                out[e] = v
        return CycLaurent(self.p, out)

    def __neg__(self):
        return CycLaurent(self.p, {e: tuple(-x for x in v)
                                   for e, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        assert isinstance(other, CycLaurent) and self.p == other.p
        F = self.field
        acc = {}
        for e1, v1 in self.coeffs.items():
            p1 = F.pack(v1)
            for e2, v2 in other.coeffs.items():
                p2 = F.pack(v2)
                prod = F.mul(p1, p2)
                e = e1 + e2
                if e in acc:
                    acc[e] = F.add(acc[e], prod)
                else:
                    acc[e] = prod
        return CycLaurent(self.p, {e: F.unpack(v) for e, v in acc.items()
                                   if not F.is_zero(v)})

    def conj(self):
        """The involution zeta -> 1/zeta, t -> 1/t."""
        F = self.field
        return CycLaurent(self.p, {-e: F.unpack(F.conj(F.pack(v)))
                                   for e, v in self.coeffs.items()})

    def scale_unit(self, zeta_exp=0, t_exp=0, rational=1):
        """Multiply by the unit rational * zeta^zeta_exp * t^t_exp."""
        F = self.field
        z = (F.zeta_pow(zeta_exp), 1)
        q = Fraction(rational)
        out = {}
        for e, v in self.coeffs.items():
            w = F.mul(F.pack(v), z)
            w = F.scale(w, q.numerator, q.denominator)
            out[e + t_exp] = F.unpack(w)
        return CycLaurent(self.p, out)

    def associate_of(self, other):
        """True when self = c * zeta^m * t^k * other for some rational c."""
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        for m in range(self.p):
            for k_candidate in {min(self.coeffs) - min(other.coeffs)}:
                cand = other.scale_unit(zeta_exp=m, t_exp=k_candidate)
                # match a rational scale on the lowest term
                e0 = min(self.coeffs)
                if e0 not in cand.coeffs:
                    continue
                v_self, v_cand = self.coeffs[e0], cand.coeffs[e0]
                scale = None
                ok = True
                for a, b in zip(v_self, v_cand):
                    if b == 0:
                        if a != 0:
                            ok = False
                            break
                        continue
                    r = Fraction(a, 1) / b
                    if scale is None:
                        scale = r
                    elif scale != r:
                        ok = False
                        break
                if not ok or scale is None:
                    continue
                if cand.scale_unit(rational=scale) == self:
                    return True
        return False

    def to_json(self):
        """{exponent: [numerator, denominator, primitive integer vector]}
        with coefficient = (numerator/denominator) * sum(v_i * zeta^i)."""
        out = {}
        for e, v in sorted(self.coeffs.items()):
            den = math.lcm(*(x.denominator for x in v))
            ints = [int(x * den) for x in v]
            g = math.gcd(*(abs(i) for i in ints))
            out[str(e)] = [g, den, [i // g for i in ints]]
        return {"p": self.p, "coeffs": out}

    @classmethod
    def from_json(cls, data):
        if isinstance(data, str):
            data = json.loads(data)
        p = data["p"]
        coeffs = {}
        for e, (num, den, vec) in data["coeffs"].items():
            coeffs[int(e)] = tuple(Fraction(num * x, den) for x in vec)
        return cls(p, coeffs)

    def __repr__(self):
        return "CycLaurent(p=%d, %d terms)" % (self.p, len(self.coeffs))


def cyc_eval(f, shift, p):
    """Substitute t -> zeta_p^shift * t in a RatLaurent, landing in
    Q(zeta_p)[t, 1/t]."""
    F = CyclotomicField(p)
    out = {}
    for e, c in f.coeffs.items():
        z = F.zeta_pow(shift * e)
        out[e] = tuple(Fraction(c) * x for x in z)
    return CycLaurent(p, out)
