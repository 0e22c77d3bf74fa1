import math
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from knotconcord.cover import unit_roots_mod
from knotconcord.cyclo import (
    MAX_TRIAL_DIVISOR,
    CyclotomicField,
    _CyclotomicField,
    _pi_fixed,
    cyclotomic_polynomial,
    euler_phi,
    factor,
    fixed_cos,
    is_prime,
    poly_gcd,
)
from knotconcord.errors import BudgetExceeded, PreconditionError

# pi truncated to 110 decimals
PI_110 = Fraction(
    "3.14159265358979323846264338327950288419716939937510582097494459230781"
    "640628620899862803482534211706798214808651")


def pack(F, fracs):
    """The element of F with these rational power-basis coordinates."""
    fracs = [Fraction(x) for x in fracs]
    den = math.lcm(*(f.denominator for f in fracs))
    return F.normalize(([int(f * den) for f in fracs], den))


def from_rational(F, q):
    return pack(F, [q] + [0] * (F.deg - 1))


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(3) == [1, 1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(7) == [1] * 7
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]
    assert cyclotomic_polynomial(40) == [1, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0, 0, -1, 0, 0, 0, 1]


@pytest.mark.parametrize("ns", [range(1, 301), [4620]],
                         ids=["1-300", "4620"])
def test_cyclotomic_polynomial_matches_sympy(ns):
    x = sp.symbols("x")
    for n in ns:
        want = sp.Poly(sp.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert cyclotomic_polynomial(n) == [int(c) for c in want], n


def test_cyclotomic_product_over_divisors():
    # prod over d | n of Phi_d = x^n - 1
    for n in (6, 10, 12, 15):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic_polynomial(d)
                nxt = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        nxt[i + j] += a * b
                prod = nxt
        want = [-1] + [0] * (n - 1) + [1]
        assert prod == want


def random_element(rng, F, lo=-5, hi=5):
    return pack(F, [Fraction(rng.randint(lo, hi), rng.randint(1, 4))
                    for _ in range(F.deg)])


def test_field_axioms_random():
    rng = random.Random(201)
    for n in (5, 7, 12):
        F = CyclotomicField(n)
        one = F.one()
        # zeta^n = 1 and 1 + zeta + ... + zeta^(n-1) = 0 for prime n
        acc = F.zero()
        for k in range(n):
            acc = F.add(acc, F.zeta_elt(k))
        if n in (5, 7):
            assert F.is_zero(acc)
        for _ in range(20):
            a = random_element(rng, F)
            b = random_element(rng, F)
            c = random_element(rng, F)
            assert F.mul(a, b) == F.mul(b, a)
            left = F.mul(F.add(a, b), c)
            right = F.add(F.mul(a, c), F.mul(b, c))
            assert left == right
            if not F.is_zero(a):
                assert F.mul(a, F.inverse(a)) == one
            # conjugation is an involutive ring map
            assert F.conj(F.conj(a)) == F.normalize(a)
            assert F.conj(F.mul(a, b)) == F.mul(F.conj(a), F.conj(b))


@st.composite
def field_elements(draw):
    F = CyclotomicField(draw(st.integers(1, 40)))
    nums = draw(st.lists(st.integers(-9, 9), min_size=F.deg, max_size=F.deg))
    return F, F.normalize((nums, draw(st.integers(1, 12))))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(field_elements())
def test_inverse_is_multiplicative_inverse(case):
    F, a = case
    assume(not F.is_zero(a))
    assert F.mul(a, F.inverse(a)) == F.one()


@pytest.mark.parametrize("n, count", [(101, 3), (105, 3), (211, 2)])
def test_inverse_large_fields(n, count):
    # Phi_105 is the first cyclotomic polynomial with a coefficient -2
    F = CyclotomicField(n)
    rng = random.Random(n)
    for _ in range(count):
        nums = [rng.choice([x for x in range(-9, 10) if x]) for _ in range(F.deg)]
        a = F.normalize((nums, rng.randint(1, 12)))
        assert F.mul(a, F.inverse(a)) == F.one()
    assert F.inverse(F.zeta_elt(1)) == F.normalize(F.zeta_elt(n - 1))


# Oracles: the dense tables the field once kept.  times_zeta is one step
# of the walk by zeta, with x^deg = -(Phi_0 + ... + Phi_(deg-1) x^(deg-1));
# red[i] = x^(deg+i) reduces a schoolbook product row by row; conj_mat[j]
# = zeta^-j, one multiplication by 1/zeta = -(Phi_1 + ... + x^(deg-1)) per
# row (Phi_n(0) = 1 for n > 1).


def oracle_times_zeta(F, v):
    carry = v[-1]
    v = [0] + v[:-1]
    return [x - carry * c for x, c in zip(v, F.phi)]


def oracle_red(F):
    rows = [[-c for c in F.phi[:-1]]]
    for _ in range(F.deg - 2):
        rows.append(oracle_times_zeta(F, rows[-1]))
    return rows


def oracle_conj_mat(F):
    rows = [F.one()[0]]
    if F.deg > 1:
        inv = [-c for c in F.phi[1:]]
        rows.append(inv)
        while len(rows) < F.deg:
            v = rows[-1]
            w = v[1:] + [0]
            if v[0]:
                w = [x + v[0] * y for x, y in zip(w, inv)]
            rows.append(w)
    return rows


def oracle_mul(F, a, b):
    (an, ad), (bn, bd) = a, b
    raw = [0] * (2 * F.deg - 1)
    for i, x in enumerate(an):
        for j, y in enumerate(bn):
            raw[i + j] += x * y
    out = raw[:F.deg]
    for c, row in zip(raw[F.deg:], oracle_red(F)):
        out = [x + c * y for x, y in zip(out, row)]
    return F.normalize((out, ad * bd))


def oracle_conj(F, a):
    an, ad = a
    out = [0] * F.deg
    for c, row in zip(an, oracle_conj_mat(F)):
        out = [x + c * y for x, y in zip(out, row)]
    return F.normalize((out, ad))


@pytest.mark.parametrize("ns", [range(1, 301), [4620]], ids=["1-300", "4620"])
def test_conjugation_rows_match_the_walk_by_zeta(ns):
    # zeta_pow(e) against the powers reached by multiplying by zeta one
    # step at a time, and conj(zeta^j) = zeta^(n - j).  Every e <= n is
    # checked for n <= 300, with e - n and zeta^j zeta^(deg-1), whose
    # product runs past x^n for prime n > 3; at n = 4620 every e <= deg
    # and e >= n - deg, and every 211th between them, whose reductions
    # cost up to about (n - deg) / 4 * 342 steps each
    for n in ns:
        F = _CyclotomicField(n)
        small = n <= 300
        checked = {*range(F.deg + 1), *range(n - F.deg, n + 1),
                   *range(0, n, 1 if small else 211)}
        v = F.one()[0]
        powers = {0: v}
        for e in range(1, n + 1):
            v = oracle_times_zeta(F, v)
            if e in checked:
                powers[e] = v
        assert powers[n] == powers[0]
        assert oracle_conj_mat(F) == [powers[n - j] for j in range(F.deg)]
        for e in checked:
            assert F.zeta_pow(e) == powers[e], (n, e)
            if small:
                assert F.zeta_pow(e - n) == powers[e], (n, e)
        top = F.zeta_elt(F.deg - 1)
        for j in range(F.deg):
            assert F.conj(F.zeta_elt(j)) == (powers[n - j], 1), (n, j)
            if small:
                assert F.mul(F.zeta_elt(j), top) == (
                    powers[(j + F.deg - 1) % n], 1), (n, j)


@st.composite
def element_pairs(draw):
    # Phi_105 is the first cyclotomic polynomial with a coefficient -2
    F = CyclotomicField(draw(st.one_of(st.integers(1, 120),
                                       st.sampled_from([97, 105, 210]))))
    coeff = st.integers(-10 ** 6, 10 ** 6)

    def element():
        nums = draw(st.lists(coeff, min_size=F.deg, max_size=F.deg))
        return F.normalize((nums, draw(st.integers(1, 30))))

    return F, element(), element()


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(element_pairs())
def test_mul_and_conj_match_the_dense_tables(case):
    F, a, b = case
    assert F.mul(a, b) == oracle_mul(F, a, b)
    assert F.conj(a) == oracle_conj(F, a)
    assert F.conj(b) == oracle_conj(F, b)


def test_cyclotomic_field_rejects_bad_order():
    for n in (0, -3):
        with pytest.raises(PreconditionError):
            CyclotomicField(n)


def test_pi_bounds_bracket_pi():
    assert len(str(PI_110.denominator)) == 111
    for w in (100, 320):
        # _pi_fixed(w) is within 4w + 40 of 2^w pi
        P, err = _pi_fixed(w), 4 * w + 40
        lo, hi = Fraction(P - err, 2 ** w), Fraction(P + err, 2 ** w)
        # PI_110 <= pi < PI_110 + 10^-110
        assert lo < PI_110 and PI_110 + Fraction(1, 10 ** 110) < hi


def test_conj_fixes_real_combination():
    F = CyclotomicField(7)
    x = F.add(F.zeta_elt(1), F.zeta_elt(6))
    assert F.conj(x) == x


def test_sign_real_certified_values():
    F = CyclotomicField(7)
    # 2*cos(2*pi/7) > 0
    assert F.sign_real(F.add(F.zeta_elt(1), F.zeta_elt(6))) == 1
    # 2*cos(4*pi/7) < 0
    assert F.sign_real(F.add(F.zeta_elt(2), F.zeta_elt(5))) == -1
    assert F.sign_real(F.zero()) == 0
    assert F.sign_real(from_rational(F, Fraction(-3, 7))) == -1
    F5 = CyclotomicField(5)
    # 1 + 2*cos(2*pi/5) = golden ratio - something positive
    x = F5.add(F5.one(), F5.add(F5.zeta_elt(1), F5.zeta_elt(4)))
    assert F5.sign_real(x) == 1
    # 1 + 2*cos(4*pi/5) < 0
    y = F5.add(F5.one(), F5.add(F5.zeta_elt(2), F5.zeta_elt(3)))
    assert F5.sign_real(y) == -1


def test_poly_gcd():
    # (t - 2)(t + 1) * 3 and (t - 2)(t^2 + 1) * -2 share t - 2
    f = (-6, -3, 3)
    g = (4, -2, 4, -2)
    assert poly_gcd(f, g) == (-2, 1)
    assert poly_gcd(g, f) == (-2, 1)
    assert poly_gcd(f, (1, 0, 1)) == (1,)
    assert poly_gcd((), g) == (-2, 1, -2, 1)
    assert poly_gcd((1, -3, 1), (2, -6, 2)) == (1, -3, 1)
    assert poly_gcd((), ()) == ()


def test_cube_roots_mod():
    assert unit_roots_mod(3, 49) == [1, 18, 30]
    assert unit_roots_mod(3, 7) == [1, 2, 4]
    assert unit_roots_mod(3, 5) == [1]
    for r in unit_roots_mod(3, 49):
        assert pow(r, 3, 49) == 1


# ---------------------------------------------------------------------------
# the sign layer against an oracle that does not use cyclo: sympy's cosines


def _oracle_cos(j, n, digits):
    return sp.cos(2 * sp.pi * sp.Rational(j, n)).evalf(digits)


@pytest.mark.parametrize("bits", [64, 256])
def test_cos_table_within_one_unit(bits):
    # |C_j - 2^bits cos(2 pi j/n)| < 1 for every entry
    digits = bits * 3 // 10 + 30
    scale = sp.Integer(2) ** bits
    for n in list(range(1, 61)) + [211]:
        table = fixed_cos(n, range(n), bits)
        for j, C in enumerate(table):
            assert abs(C - scale * _oracle_cos(j, n, digits)) < 1, (n, j)
    assert CyclotomicField(211).cos_table(bits) == fixed_cos(211, range(210), bits)


def _oracle_sign(F, a):
    """Sign of sum c_j cos(2 pi j/n) in sympy, at a precision the norm
    bound |den * a| >= W^-(deg-1) proves sufficient."""
    nums, _ = a
    weight = sum(abs(c) for c in nums)
    digits = F.deg * weight.bit_length() * 3 // 10 + 30
    value = sum(c * _oracle_cos(j, F.n, digits) for j, c in enumerate(nums) if c)
    assert abs(value) > sp.Float(10, digits) ** (20 - digits) * weight
    return 1 if value > 0 else -1


@st.composite
def real_elements(draw, orders):
    F = CyclotomicField(draw(orders))
    nums = draw(st.lists(st.integers(-6, 6), min_size=F.deg, max_size=F.deg))
    a = F.normalize((nums, draw(st.integers(1, 5))))
    if draw(st.booleans()):
        return F, F.add(a, F.conj(a))
    r = Fraction(draw(st.integers(0, 40 * F.deg)), draw(st.integers(1, 3)))
    return F, F.sub(F.mul(a, F.conj(a)), from_rational(F, r))


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(real_elements(st.integers(3, 60)))
def test_sign_real_matches_oracle(case):
    F, a = case
    assert F.conj(a) == a
    assume(not F.is_zero(a))
    assert F.sign_real(a) == _oracle_sign(F, a)


@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(real_elements(st.sampled_from([101, 103, 107, 211])))
def test_sign_real_matches_oracle_large_primes(case):
    F, a = case
    assume(not F.is_zero(a))
    assert F.sign_real(a) == _oracle_sign(F, a)


def test_sign_real_refines_fibonacci_cancellation():
    # F_k (zeta + zeta^4) - F_(k-1) = -psi^k in Q(zeta_5), psi = (1 - sqrt 5)/2,
    # since zeta + zeta^4 = -psi and psi^k = F_k psi + F_(k-1)
    F = CyclotomicField(5)
    fib = [0, 1]
    while fib[-2] <= 2 ** 80:
        fib.append(fib[-1] + fib[-2])
    for k in (len(fib) - 2, len(fib) - 1):
        x = F.add(F.zeta_elt(1), F.zeta_elt(4))
        a = F.sub(F.scale(x, fib[k]), from_rational(F, fib[k - 1]))
        weight = sum(abs(c) for c in a[0])
        # 64 bits cannot separate |a| ~ 2^-81 from an error of up to 2^82
        s64 = sum(c * C for c, C in zip(a[0], F.cos_table(64)))
        assert abs(s64) <= weight
        assert F.sign_real(a) == (1 if k % 2 else -1)


@pytest.mark.parametrize("n", [5, 211])
def test_sign_real_rejects_non_real_at_cap(n):
    # zeta - 1/zeta is purely imaginary: its real part is 0 at every
    # precision, so the norm-bound cap must stop the refinement
    F = CyclotomicField(n)
    with pytest.raises(ArithmeticError):
        F.sign_real(F.sub(F.zeta_elt(1), F.zeta_elt(-1)))


# ---------------------------------------------------------------------------
# integer factorisation, with sympy as the oracle


def test_factor_trial_division_budget():
    # 999983 and 1000003 are the primes either side of 10^6
    assert factor(999983 * 1000003) == ((999983, 1), (1000003, 1))
    assert factor(6 * 999983 ** 3 * 1000003) == (
        (2, 1), (3, 1), (999983, 3), (1000003, 1))
    with pytest.raises(BudgetExceeded) as e:
        factor(4 * 1000003 ** 2)
    assert str(e.value) == ("factoring %d needs trial divisors over the "
                            "budget of 1000000" % (4 * 1000003 ** 2))
    assert e.value.budget == MAX_TRIAL_DIVISOR == 10 ** 6


def test_factor_small():
    assert factor(1) == ()
    assert factor(2) == ((2, 1),)
    assert factor(360) == ((2, 3), (3, 2), (5, 1))
    assert factor(10 ** 8) == ((2, 8), (5, 8))
    assert factor(99999999) == ((3, 2), (11, 1), (73, 1), (101, 1), (137, 1))
    assert factor(1000003) == ((1000003, 1),)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 9))
def test_factor_multiplies_back_with_increasing_primes(n):
    fs = factor(n)
    assert math.prod(p ** e for p, e in fs) == n
    assert all(e >= 1 for _, e in fs)
    primes = [p for p, _ in fs]
    assert primes == sorted(set(primes))
    assert all(sp.isprime(p) for p in primes)
    assert dict(fs) == sp.factorint(n)


def test_euler_phi_counts_units():
    for n in range(1, 3001):
        assert euler_phi(n) == sum(1 for a in range(1, n + 1)
                                   if math.gcd(a, n) == 1)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 9))
def test_euler_phi_and_is_prime_match_sympy(n):
    assert euler_phi(n) == sp.totient(n)
    assert is_prime(n) == sp.isprime(n)


def test_is_prime_below_3000_matches_sympy():
    assert [n for n in range(-5, 3001) if is_prime(n)] == list(
        sp.primerange(2, 3001))
