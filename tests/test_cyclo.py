import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from knotconcord.cyclo import (
    CycLaurent,
    CyclotomicField,
    RatLaurent,
    cube_roots_mod,
    cyc_eval,
    cyclotomic_polynomial,
)


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(3) == [1, 1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(7) == [1] * 7
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]
    assert cyclotomic_polynomial(40) == [1, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0, 0, -1, 0, 0, 0, 1]


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
    return F.pack([Fraction(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(F.deg)])


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
    assert F.sign_real(F.from_rational(Fraction(-3, 7))) == -1
    F5 = CyclotomicField(5)
    # 1 + 2*cos(2*pi/5) = golden ratio - something positive
    x = F5.add(F5.one(), F5.add(F5.zeta_elt(1), F5.zeta_elt(4)))
    assert F5.sign_real(x) == 1
    # 1 + 2*cos(4*pi/5) < 0
    y = F5.add(F5.one(), F5.add(F5.zeta_elt(2), F5.zeta_elt(3)))
    assert F5.sign_real(y) == -1


def test_galois_maps_are_automorphisms():
    rng = random.Random(202)
    F = CyclotomicField(7)
    for k in F.units[1:]:
        for _ in range(5):
            a = random_element(rng, F)
            b = random_element(rng, F)
            assert F.galois(F.mul(a, b), k) == F.mul(F.galois(a, k), F.galois(b, k))
    # sigma_k(zeta) = zeta^k
    for k in F.units:
        assert F.galois(F.zeta_elt(1), k) == F.normalize(F.zeta_elt(k))


def test_rat_laurent_basics():
    f = RatLaurent.from_list([2, -5, 2])          # 2 - 5t + 2t^2
    assert f.eval_fraction(Fraction(1)) == -1
    assert f.is_symmetric()
    g = RatLaurent.from_list([1, -3, 1])
    assert g.is_symmetric()
    h = RatLaurent.from_list([2, 1])              # 2 + t, not symmetric
    assert not h.is_symmetric()
    assert (f * g).eval_fraction(Fraction(2)) == f.eval_fraction(Fraction(2)) * g.eval_fraction(Fraction(2))
    # normalization: lowest exponent 0, positive leading coefficient
    k = RatLaurent({-2: Fraction(-1), 0: Fraction(3)}).normalized()
    assert min(k.coeffs) == 0 and k.coeffs[max(k.coeffs)] > 0


def test_rat_laurent_json_roundtrip():
    f = RatLaurent({-1: Fraction(2, 3), 4: Fraction(-7)})
    assert RatLaurent.from_json(f.to_json()).coeffs == f.coeffs


def test_cyc_laurent_substitution_pinned():
    # t -> zeta^2 t applied to 2t^2 - 5t + 2 over Q(zeta_7)
    f = RatLaurent.from_list([2, -5, 2])
    g = cyc_eval(f, 2, 7)
    F = g.field
    assert F.pack(g.coeffs[0]) == F.from_rational(2)
    assert F.pack(g.coeffs[1]) == F.scale(F.zeta_elt(2), -5)
    assert F.pack(g.coeffs[2]) == F.scale(F.zeta_elt(4), 2)


def test_cyc_laurent_conj_and_associates():
    f = RatLaurent.from_list([2, -5, 2])
    g = cyc_eval(f, 3, 7)
    # conj then conj is identity
    assert g.conj().conj().coeffs == g.coeffs
    # unit multiples are associates
    h = g.scale_unit(zeta_exp=4, t_exp=2, rational=Fraction(3, 5))
    assert g.associate_of(h)
    assert h.associate_of(g)
    # and a non-unit multiple is not
    k = g * cyc_eval(RatLaurent.from_list([1, 1]), 0, 7)
    assert not g.associate_of(k)


def test_cyc_laurent_json_roundtrip():
    f = cyc_eval(RatLaurent.from_list([2, -5, 2]), 2, 7)
    data = f.to_json()
    assert data["p"] == 7
    g = CycLaurent.from_json(data)
    assert g.coeffs == f.coeffs


def test_cube_roots_mod():
    assert cube_roots_mod(49) == [1, 18, 30]
    assert cube_roots_mod(7) == [1, 2, 4]
    assert cube_roots_mod(5) == [1]
    for r in cube_roots_mod(49):
        assert pow(r, 3, 49) == 1
