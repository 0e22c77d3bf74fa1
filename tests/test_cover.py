"""Branched cover homology, deck action, linking forms, characters.

Expected groups come from three independent places: classical cover
computations (lens spaces, the quaternion space for the trefoil), the
determinant formula |H_1(M_d)| = |prod Delta(zeta_d^i)|, and an
alternative block circulant presentation built by hand in this file.
"""

import itertools
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from knotconcord import cover, linalg
from knotconcord.cassongordon import _dual_eigenpair
from knotconcord.cli import main
from knotconcord.cover import (LinkingForm, _congruence_kernel_count,
                               _matrix_order_mod, branched_cover,
                               deck_eigenspaces, linking_form,
                               unit_roots_mod)
from knotconcord.errors import (BudgetExceeded, InfiniteHomology,
                                InternalInvariantViolation, UnsupportedShape)
from knotconcord.seifert import (SeifertMatrix, alexander, torus_matrix,
                                 twisted_double_matrix)

GENUS2_MODEL = SeifertMatrix([[-1, 1, 1, 1],
                              [0, 2, 0, 0],
                              [1, 0, -1, 1],
                              [1, 0, 0, 2]])

PLUS_CLASP = SeifertMatrix([[1, 1], [0, -1]])


def evaluate(L, x, y):
    """Value of the linking form L on elements given in generator
    coordinates, from its integer Gram numerators."""
    total = sum(a * n * b for a, row in zip(x, L.N) for n, b in zip(row, y))
    return Fraction(total % L.den, L.den)


def test_unit_roots_mod():
    assert unit_roots_mod(2, 9) == [1, 8]
    assert unit_roots_mod(3, 49) == [1, 18, 30]
    assert unit_roots_mod(3, 7) == [1, 2, 4]
    assert unit_roots_mod(4, 5) == [1, 2, 3, 4]


def _unit_roots_scan(d, m):
    """x^d = 1 in Z_m by testing every residue."""
    return [x for x in range(1, m) if gcd(x, m) == 1 and pow(x, d, m) == 1]


def test_unit_roots_mod_matches_scan():
    # every prime power below 2000, and every modulus below 300, for the
    # primitive roots, the 2-power generators and their joins
    moduli = [m for m in range(2, 2000)
              if m < 300 or len(sp.factorint(m)) == 1]
    for m in moduli:
        for d in range(1, 13):
            assert unit_roots_mod(d, m) == _unit_roots_scan(d, m), (d, m)


def test_unit_roots_mod_past_any_scan():
    # the units mod 7^30 are cyclic of order 6 * 7^29, so x^d = 1 has
    # gcd(d, 6 * 7^29) roots; mod 2^40 they are <-1> x <5>, of orders 2 and
    # 2^38, so x^4 = 1 has 2 * 4 roots.  The least primitive root 5 of
    # 40487 has 5^40486 = 1 (mod 40487^2), so it generates no p-part there
    for d, m, count in ((3, 7 ** 30, 3), (7, 7 ** 30, 7), (5, 7 ** 30, 1),
                        (4, 2 ** 40, 8), (40487, 40487 ** 2, 40487)):
        roots = unit_roots_mod(d, m)
        assert len(set(roots)) == count
        assert all(pow(x, d, m) == 1 for x in roots)


def test_double_branched_covers_of_twisted_doubles():
    # doubled knots with a clasps give cyclic groups of square order
    for a in range(1, 7):
        H = branched_cover(twisted_double_matrix(a), 2)
        assert H.factors == ((2 * a + 1) ** 2,)
        assert H.order == (2 * a + 1) ** 2
        # the involution negates every cycle
        assert H.deck == ((H.factors[0] - 1,),)


def test_double_cover_deck_is_negation_in_general():
    for V in (torus_matrix(2, 5), GENUS2_MODEL,
              twisted_double_matrix(2).block_sum(torus_matrix(2, 3))):
        H = branched_cover(V, 2)
        k = H.rank
        minus = [[(-1 if i == j else 0) % H.factors[i] for j in range(k)]
                 for i in range(k)]
        assert [list(r) for r in H.deck] == minus


def test_trefoil_covers_match_classical_spaces():
    # lens space L(3,1), the quaternion space, and the 4-fold cover
    tref = torus_matrix(2, 3)
    assert branched_cover(tref, 2).factors == (3,)
    assert branched_cover(tref, 3).factors == (2, 2)
    assert branched_cover(tref, 4).factors == (3,)


def test_torus_cover_orders():
    expect = {(2, 5): {2: (5,), 3: (), 4: (5,)},
              (2, 7): {2: (7,), 3: (), 4: (7,)},
              (3, 4): {2: (3,), 3: (4, 4), 4: (3, 3, 3)}}
    for (p, q), by_degree in expect.items():
        for d, factors in by_degree.items():
            assert branched_cover(torus_matrix(p, q), d).factors == factors


def test_infinite_homology_raises():
    # Delta of the trefoil vanishes at primitive sixth roots of unity
    with pytest.raises(InfiniteHomology):
        branched_cover(torus_matrix(2, 3), 6)


def test_infinite_homology_raises_on_every_call():
    # an exception is never stored, so every call computes and raises
    V = torus_matrix(2, 3)
    kept = cover._cover.cache_info().currsize
    for _ in range(3):
        with pytest.raises(InfiniteHomology):
            branched_cover(V, 6)
        with pytest.raises(InfiniteHomology):
            linking_form(V, 6)
        # 65 layers of rank 2, over MAX_LAYERED_SIZE
        with pytest.raises(BudgetExceeded):
            branched_cover(V, 66)
        with pytest.raises(BudgetExceeded):
            linking_form(V, 66)
    assert cover._cover.cache_info().currsize == kept


def test_cover_and_form_memo_by_entries_and_degree(capsys):
    # equal entries give the same objects, whatever matrix object carries
    # them; a form hit is one cache hit and builds no cover
    V, W = twisted_double_matrix(2), SeifertMatrix([[-1, 1], [0, 6]])
    H, L = branched_cover(V, 3), linking_form(V, 3)
    before = cover._cover.cache_info()
    assert linking_form(W, 3) is L
    after = cover._cover.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
    assert branched_cover([list(r) for r in W.entries], 3) is H
    assert L.homology is H and H.degree == 3
    assert branched_cover(V, 2) is not H
    # shared objects hold no list
    assert isinstance(L.N, tuple)
    assert all(isinstance(row, tuple) for row in L.N)
    # raw entries reach the same form, and the cover is the form's homology
    assert linking_form([list(r) for r in W.entries], 3) is L
    for d in (2, 3, 5):
        assert branched_cover(V, d) is linking_form(V, d).homology
    # a cover, a linking and a metabolizers request on one knot and degree
    # build one cover between them
    cover._cover.cache_clear()
    knot = str(Path(__file__).parent / "fixtures" / "twisted_double_a2.json")
    for command in ("cover", "linking", "metabolizers"):
        assert main([command, "--knot", knot, "--d", "3", "--json"]) == 0
    capsys.readouterr()
    info = cover._cover.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_deck_power_returns_to_identity():
    for V, d in ((twisted_double_matrix(1), 3), (GENUS2_MODEL, 3),
                 (torus_matrix(3, 4), 4)):
        H = branched_cover(V, d)
        assert H.deck_power(d) == linalg.identity(H.rank)
        if H.rank:
            assert H.deck_power(1) != linalg.identity(H.rank)


def _sylvester_order(V, d):
    # independent copy of the determinant formula for the test
    from knotconcord.seifert import alexander
    f = [Fraction(c) for c in alexander(V)]
    n = len(f) - 1
    if n == 0:
        return abs(f[0]) ** (d - 1)
    g = [Fraction(1)] * d
    rows = []
    for i in range(d - 1):
        rows.append([Fraction(0)] * i + f[::-1] + [Fraction(0)] * (d - 2 - i))
    for i in range(n):
        rows.append([Fraction(0)] * i + g[::-1] + [Fraction(0)] * (n - 1 - i))
    det = linalg.det_bareiss([[int(x) for x in row] for row in rows])
    return abs(det)


def test_order_matches_alexander_value_product():
    corpus = [twisted_double_matrix(a) for a in range(1, 7)]
    corpus += [torus_matrix(2, 3), torus_matrix(2, 5), torus_matrix(2, 7),
               torus_matrix(3, 4), GENUS2_MODEL, PLUS_CLASP,
               PLUS_CLASP.block_sum(twisted_double_matrix(2))]
    for V in corpus:
        for d in (2, 3, 4):
            try:
                H = branched_cover(V, d)
            except InfiniteHomology:
                assert _sylvester_order(V, d) == 0
                continue
            assert H.order == _sylvester_order(V, d)


# Block sums of genus-one matrices [[a, 1], [0, c]], with sympy computing
# det(V - t V^T) and the resultant |prod Delta(zeta_d^i)| on its own.  Each
# block has Delta = ac(1 - t)^2 + t, which vanishes at a d-th root of unity
# only for d = 6 and ac = 1, so d runs to 6 to reach InfiniteHomology.
@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                min_size=1, max_size=3),
       st.integers(2, 6))
def test_alexander_and_cover_order_match_sympy(blocks, d):
    V = SeifertMatrix([[blocks[0][0], 1], [0, blocks[0][1]]])
    for a, c in blocks[1:]:
        V = V.block_sum(SeifertMatrix([[a, 1], [0, c]]))
    t, x = sp.symbols("t x")
    M = sp.Matrix(V.entries)
    coeffs = sp.Poly((M - t * M.T).det(), t).all_coeffs()[::-1]
    while coeffs[0] == 0:
        coeffs.pop(0)
    if coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    assert alexander(V) == tuple(int(c) for c in coeffs)
    delta = sum(int(c) * x ** i for i, c in enumerate(coeffs))
    order = abs(sp.resultant(delta, sum(x ** i for i in range(d)), x))
    if order == 0:
        with pytest.raises(InfiniteHomology):
            branched_cover(V, d)
    else:
        assert branched_cover(V, d).order == order


def _circulant_route(V, d):
    # nd x nd presentation: one relation block -V^t x_j + V x_{j+1} per
    # layer, deck action the evident shift of layers.  Completely
    # independent of the production code path.
    n = V.size
    M = V.entries
    m = n * d
    C = [[0] * m for _ in range(m)]
    for j in range(d):
        for a in range(n):
            for b in range(n):
                C[j * n + a][j * n + b] = -M[b][a]
                C[j * n + a][((j + 1) % d) * n + b] = M[a][b]
    shift = [[0] * m for _ in range(m)]
    for j in range(d):
        for a in range(n):
            shift[((j + 1) % d) * n + a][j * n + a] = 1
    D, U, W, Uinv = linalg.smith_normal_form(C)
    diag = linalg.smith_diagonal(D)
    keep = [i for i, x in enumerate(diag) if x != 1]
    assert all(diag[i] != 0 for i in keep)
    factors = tuple(diag[i] for i in keep)
    US = linalg.mat_mul(U, linalg.mat_mul(shift, Uinv))
    deck = tuple(tuple(US[i][j] % diag[i] for j in keep) for i in keep)
    return factors, deck


def _eigen_dims(factors, deck, p, degree):
    idx = [i for i, f in enumerate(factors) if f % p == 0]
    k = len(idx)
    action = [[deck[i][j] % p for i in idx] for j in idx]
    dims = {}
    for lam in unit_roots_mod(degree, p):
        A = [[(action[i][j] - (lam if i == j else 0)) % p
              for j in range(k)] for i in range(k)]
        dims[lam] = len(linalg.modp_kernel(A, p))
    return dims


def test_circulant_presentation_agrees():
    cases = [(twisted_double_matrix(1), 3, 7), (GENUS2_MODEL, 3, 7),
             (twisted_double_matrix(2), 2, 5), (torus_matrix(3, 4), 3, 2),
             (PLUS_CLASP, 2, 5)]
    for V, d, p in cases:
        factors, deck = _circulant_route(V, d)
        H = branched_cover(V, d)
        assert factors == H.factors
        assert _eigen_dims(factors, deck, p, d) == \
            _eigen_dims(H.factors, H.deck, p, d)


def test_genus2_model_triple_cover():
    H = branched_cover(GENUS2_MODEL, 3)
    assert H.factors == (49, 49)
    assert H.order == 2401


def _char_action(H, p):
    """The deck acting on the mod-p characters: its transpose on the
    generators whose invariant factor p divides, reduced mod p."""
    idx = [i for i, f in enumerate(H.factors) if f % p == 0]
    return [[H.deck[i][j] % p for i in idx] for j in idx]


def test_genus2_model_char_space():
    H = branched_cover(GENUS2_MODEL, 3)
    action = _char_action(H, 7)
    assert len(action) == 2
    eigen, split = deck_eigenspaces(action, 7, 1)
    assert sorted(lam for lam, vecs in eigen.items() if vecs) == [2, 4]
    assert len(eigen[2]) == 1
    assert len(eigen[4]) == 1
    assert len(eigen[1]) == 0
    assert split


def test_char_space_needs_coprime_modulus():
    # the 3-fold cover has no mod-3 characters, and a modulus dividing the
    # order of the deck leaves no eigen-split: 4 has order 3 mod 9, and the
    # cube roots of unity 1, 4 and 7 mod 9 all agree mod 3
    H = branched_cover(GENUS2_MODEL, 3)
    assert _char_action(H, 3) == []
    assert _matrix_order_mod([[4]], 9) == 3
    assert unit_roots_mod(3, 9) == [1, 4, 7]
    with pytest.raises(UnsupportedShape):
        deck_eigenspaces([[4]], 3, 2)


def test_genus2_model_linking_form():
    L = linking_form(GENUS2_MODEL, 3)
    assert L.group == (49, 49)
    assert L.gram == ((Fraction(8, 49), Fraction(16, 49)),
                      (Fraction(16, 49), Fraction(7, 49)))
    assert L.is_nonsingular()
    assert L.deck_is_isometry()


def _dual_pairing(L, p, e):
    """The linking pairing carried to the mod-p^e characters of a form on
    (Z_{p^e})^k whose values have denominator p^e: the deck eigencharacter
    labels and basis, from the split of the transposed deck mod p^e, and
    the Gram matrix of the pairing through the inverse of N mod p^e."""
    q = p ** e
    assert set(L.group) == {q} and L.den == q
    eigen, split = deck_eigenspaces(linalg.transpose(L.deck), p, e)
    assert split
    labels = [lam for lam, vecs in eigen.items() for _ in vecs]
    basis = [v for vecs in eigen.values() for v in vecs]
    Ninv = linalg.modm_inverse(L.N, q)
    gram = [[sum(x * y for x, y in zip(u, linalg.mat_vec(Ninv, v))) % q
             for v in basis] for u in basis]
    return labels, basis, gram


def _frame_from_dual_pairing(L, sign):
    """The eigencoordinate frame of a (Z_49)^2 block read off its mod-49
    character pairing: the eigencharacters for 30 = 2 and 18 = 4 mod 7
    reduced mod 7, the right one scaled to pair to sign with the left."""
    labels, basis, gram = _dual_pairing(L, 7, 2)
    i2, i4 = labels.index(30), labels.index(18)
    scale = sign * pow(gram[i2][i4], -1, 7) % 7
    w2 = [x % 7 for x in basis[i2]]
    w4 = [scale * x % 7 for x in basis[i4]]
    return linalg.modm_inverse(linalg.transpose([w2, w4]), 7)


def test_genus2_model_dual_linking_is_hyperbolic():
    L = linking_form(GENUS2_MODEL, 3)
    labels, _, gram = _dual_pairing(L, 7, 2)
    assert sorted(labels) == [18, 30]
    assert gram[0][0] == 0 and gram[1][1] == 0
    u = gram[0][1]
    assert u == gram[1][0]
    assert u % 7 != 0


def test_dual_eigenpair_frames():
    # the mod-7 frame of the carrier and of its mirror at both signs,
    # pinned and read off the mod-49 character pairing
    pinned = {(False, 1): [[1, 5], [0, 4]], (False, -1): [[1, 5], [0, 3]],
              (True, 1): [[5, 4], [2, 4]], (True, -1): [[5, 4], [5, 3]]}
    for (mirror, sign), frame in pinned.items():
        L = linking_form(GENUS2_MODEL.mirror() if mirror else GENUS2_MODEL, 3)
        assert _dual_eigenpair(L, sign) == frame
        assert _frame_from_dual_pairing(L, sign) == frame


def test_dual_eigenpair_on_a_form_without_homology():
    # the same Gram matrix and deck built by hand, with no homology
    # attached, give the same frame
    L = linking_form(GENUS2_MODEL, 3)
    bare = LinkingForm(L.group, L.gram, L.deck)
    assert bare.homology is None
    for sign in (1, -1):
        assert _dual_eigenpair(bare, sign) == _dual_eigenpair(L, sign)


def test_dual_eigenpair_refuses_broken_blocks():
    def form(group, den, N, deck):
        return LinkingForm(group, [[Fraction(x, den) for x in row]
                                   for row in N], deck)

    hyperbolic = [[0, 1], [1, 0]]
    # the hyperbolic (Z_49)^2 block with deck diag(2, 4) passes; each block
    # below breaks its group, its values, its deck or its pairing
    assert _dual_eigenpair(form((49, 49), 49, hyperbolic, ((2, 0), (0, 4))))
    broken = [
        # a group other than (Z_49)^2, or values of denominator 7
        linking_form(PLUS_CLASP, 2),
        form((7, 7), 7, hyperbolic, ((2, 0), (0, 4))),
        form((7, 49), 49, [[0, 7], [7, 1]], ((2, 0), (0, 4))),
        form((49, 49), 7, hyperbolic, ((2, 0), (0, 4))),
        # a deck with no eigenvalue mod 7, and one without a 4-eigenspace
        form((49, 49), 49, hyperbolic, ((0, 1), (1, 1))),
        form((49, 49), 49, hyperbolic, ((2, 0), (0, 2))),
        # eigenvectors e_1 and e_2 that pair to 2 and 1 with themselves
        # and to -1 with each other
        form((49, 49), 49, [[1, 1], [1, 2]], ((2, 0), (0, 4))),
        # a block that is singular mod 7
        form((49, 49), 49, [[0, 0], [0, 1]], ((2, 0), (0, 4))),
    ]
    for L in broken:
        with pytest.raises(InternalInvariantViolation):
            _dual_eigenpair(L)


def test_dual_eigenpair_refuses_a_singular_deck_before_its_order(
        monkeypatch):
    # a deck singular mod 7 has no finite order, and the frame refuses it
    # before any search for one
    def refuse(*args, **kwargs):
        raise AssertionError("deck order searched")

    monkeypatch.setattr(cover, "_matrix_order_mod", refuse)
    gram = [[Fraction(0), Fraction(1, 49)], [Fraction(1, 49), Fraction(0)]]
    L = LinkingForm((49, 49), gram, deck=((2, 0), (0, 0)))
    with pytest.raises(InternalInvariantViolation,
                       match="block deck is singular mod 7"):
        _dual_eigenpair(L)


def test_plus_clasp_double_cover():
    H = branched_cover(PLUS_CLASP, 2)
    assert H.factors == (5,)
    assert H.deck == ((4,),)
    L = linking_form(PLUS_CLASP, 2)
    assert L.gram == ((Fraction(2, 5),),)


def test_linking_form_values_descend():
    L = linking_form(twisted_double_matrix(1), 2)
    assert L.group == (9,)
    g = L.gram[0][0]
    assert (g * 9).denominator == 1
    assert evaluate(L, (3,), (3,)) == (9 * g) % 1
    assert evaluate(L, (9,), (1,)) == 0


def test_abstract_linking_form():
    L = LinkingForm((25,), ((Fraction(1, 25),),))
    assert L.is_nonsingular()
    assert L.order == 25
    assert evaluate(L, (5,), (5,)) == 0
    assert evaluate(L, (5,), (1,)) == Fraction(1, 5)
    singular = LinkingForm((5, 5), ((Fraction(1, 5), Fraction(0)),
                                    (Fraction(0), Fraction(0))))
    assert not singular.is_nonsingular()


def test_deck_is_isometry_refuses_shear():
    # e_2 -> e_1 + e_2 takes lk(e_2, e_2) = 1/5 to 2/5
    L = LinkingForm((5, 5), ((Fraction(1, 5), Fraction(0)),
                             (Fraction(0), Fraction(1, 5))),
                    deck=((1, 1), (0, 1)))
    assert not L.deck_is_isometry()
    swap = LinkingForm((5, 5), L.gram, deck=((0, 4), (1, 0)))
    assert swap.deck_is_isometry()


def _brute_kernel_count(M, col_moduli, row_moduli):
    return sum(1 for c in itertools.product(*[range(f) for f in col_moduli])
               if all(sum(a * x for a, x in zip(row, c)) % r == 0
                      for row, r in zip(M, row_moduli)))


@st.composite
def descending_maps(draw):
    """(M, col_moduli, row_moduli) with m x k integer M that descends to
    prod Z/col -> prod Z/row: M[i][j] is a multiple of r_i / gcd(r_i, f_j)."""
    moduli = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9])
    k = draw(st.integers(0, 3))
    m = draw(st.integers(0, 3))
    cols = draw(st.lists(moduli, min_size=k, max_size=k))
    rows = draw(st.lists(moduli, min_size=m, max_size=m))
    M = [[draw(st.integers(-4, 4)) * (r // gcd(r, f)) for f in cols]
         for r in rows]
    return M, cols, rows


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(descending_maps())
def test_congruence_kernel_count_matches_brute_force(case):
    M, cols, rows = case
    assert (_congruence_kernel_count(M, cols, rows)
            == _brute_kernel_count(M, cols, rows))


@st.composite
def small_forms(draw):
    """A symmetric form on prod Z/f_i with values c_ij / gcd(f_i, f_j)."""
    k = draw(st.integers(1, 3))
    group = draw(st.lists(st.sampled_from([2, 3, 4, 5, 6, 9]),
                          min_size=k, max_size=k))
    gram = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            g = gcd(group[i], group[j])
            gram[i][j] = gram[j][i] = Fraction(draw(st.integers(0, g - 1)), g)
    return group, gram


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(small_forms())
def test_is_nonsingular_matches_brute_force(case):
    group, gram = case
    L = LinkingForm(group, gram)
    k = len(group)
    radical = 0
    for x in itertools.product(*[range(f) for f in group]):
        # lk(x, e_j) over Fraction, against the integer evaluate
        values = [sum(x[i] * gram[i][j] for i in range(k)) % 1
                  for j in range(k)]
        assert values == [evaluate(L, x, [int(i == j) for i in range(k)])
                          for j in range(k)]
        radical += not any(values)
    assert L.is_nonsingular() == (radical == 1)


def test_abstract_form_rejects_bad_gram():
    with pytest.raises(ValueError):
        LinkingForm((5,), ((Fraction(1, 7),),))
    with pytest.raises(ValueError):
        LinkingForm((5, 5), ((Fraction(0), Fraction(1, 5)),
                             (Fraction(2, 5), Fraction(0))))


@st.composite
def split_actions(draw):
    """(T, p, e, eigenvalue list) with T = U diag(lam) U^-1 mod p^e, the
    eigenvalues roots of x^d = 1 for a divisor d of p - 1,
    U unit lower triangular times upper triangular with unit diagonal."""
    p, e = draw(st.sampled_from([(7, 1), (7, 2), (5, 1), (5, 2)]))
    q = p ** e
    degree = draw(st.sampled_from([d for d in range(1, p) if (p - 1) % d == 0]))
    roots = [x for x in range(1, q) if x % p and pow(x, degree, q) == 1]
    k = draw(st.integers(1, 4))
    lams = draw(st.lists(st.sampled_from(roots), min_size=k, max_size=k))
    entry = st.integers(0, q - 1)
    unit = entry.filter(lambda x: x % p)
    lower = [[1 if i == j else (draw(entry) if j < i else 0)
              for j in range(k)] for i in range(k)]
    upper = [[draw(unit) if i == j else (draw(entry) if j > i else 0)
              for j in range(k)] for i in range(k)]
    U = linalg.modm_mat_mul(lower, upper, q)
    D = [[lams[i] if i == j else 0 for j in range(k)] for i in range(k)]
    T = linalg.modm_mat_mul(linalg.modm_mat_mul(U, D, q),
                            linalg.modm_inverse(U, q), q)
    return T, p, e, lams


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(split_actions())
def test_deck_eigenspaces_split_actions(case):
    T, p, e, lams = case
    q = p ** e
    k = len(T)
    eigen, split = deck_eigenspaces(T, p, e)
    assert split
    columns = []
    for lam, basis in eigen.items():
        assert len(basis) == lams.count(lam)
        for v in basis:
            assert [x % q for x in linalg.mat_vec(T, v)] == \
                [lam * x % q for x in v]
        if e == 1:
            shifted = [[T[i][j] - (lam if i == j else 0) for j in range(k)]
                       for i in range(k)]
            assert basis == linalg.modp_kernel(shifted, p)
        columns += basis
    # the union is a basis of (Z_q)^k: k vectors, a unit determinant
    assert len(columns) == k
    assert linalg.det_bareiss([list(r) for r in zip(*columns)]) % p


def _deck_eigenspaces_oracle(T, p, e):
    """deck_eigenspaces as it was before it was kept: order, roots,
    projectors, split and kernels recomputed on every call."""
    q = p ** e
    k = len(T)
    roots = unit_roots_mod(_matrix_order_mod(T, q), q)

    def shifted(lam):
        return [[T[i][j] - (lam if i == j else 0) for j in range(k)]
                for i in range(k)]

    eigen = {}
    split = True
    for lam in roots:
        proj = linalg.identity(k)
        for mu in roots:
            if mu != lam:
                c = pow(lam - mu, -1, q)
                proj = [[x * c % q for x in row]
                        for row in linalg.modm_mat_mul(shifted(mu), proj, q)]
        if linalg.modm_mat_mul(T, proj, q) != [[lam * x % q for x in row]
                                               for row in proj]:
            split = False
        kernel = linalg.modp_kernel(shifted(lam), p)
        eigen[lam] = [tuple(x % q for x in linalg.mat_vec(proj, v))
                      for v in kernel]
    return eigen, split


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(split_actions(), st.data())
def test_cached_deck_split_matches_uncached(case, data):
    # the first call may store the split, the later ones read it; each
    # agrees with a full recomputation, and emptying the containers one
    # call returned leaves the next call's answer whole
    T, p, e, _ = case
    k = len(T)
    for _ in range(3):
        eigen, split = deck_eigenspaces(T, p, e)
        assert (eigen, split) == _deck_eigenspaces_oracle(T, p, e)
        for basis in eigen.values():
            basis.clear()
        eigen.clear()
    # the mod-p action of a direct sum, where T need not split and its
    # order may exceed the cap: the same answer or the same refusal
    action = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=k,
                                         max_size=k), min_size=k, max_size=k))
    if linalg.modp_rref(action, p)[1] == list(range(k)):
        for _ in range(2):
            assert (_outcome(deck_eigenspaces, action, p, 1)
                    == _outcome(_deck_eigenspaces_oracle, action, p, 1))


def _outcome(f, *args):
    try:
        return f(*args)
    except UnsupportedShape as exc:
        return str(exc)


def test_dual_linking_refuses_non_split_deck():
    # the deck ((0,1),(1,1)) of the trefoil's 3-fold cover fixes no nonzero
    # vector mod 2, so x^3 = 1 has no root mod 2 that carries it
    H = branched_cover(torus_matrix(2, 3), 3)
    assert H.factors == (2, 2)
    eigen, split = deck_eigenspaces(_char_action(H, 2), 2, 1)
    assert not split
    assert eigen[1] == []
    # the same deck on (Z_49)^2 has no eigenvalue mod 7 either, and the
    # mutant-sum frame refuses it
    gram = ((Fraction(0), Fraction(1, 49)), (Fraction(1, 49), Fraction(0)))
    with pytest.raises(InternalInvariantViolation):
        _dual_eigenpair(LinkingForm((49, 49), gram, H.deck))


def test_deck_eigenspaces_refuses_roots_equal_mod_p():
    # the 6-fold cover of the figure eight has 2-part Z_8 + Z_8, and the
    # roots 1 and 7 of x^6 = 1 mod 8 agree mod 2
    L = linking_form(SeifertMatrix([[-1, 1], [0, 1]]), 6)
    assert L.group == (8, 40)
    # the deck on the 2-part, generated by g_1 and 5 g_2, has order 6
    cof = [f // 8 for f in L.group]
    T = [[L.deck[a][b] * cof[b] * pow(cof[a], -1, 8) % 8 for b in range(2)]
         for a in range(2)]
    assert _matrix_order_mod(linalg.transpose(T), 8) == 6
    with pytest.raises(UnsupportedShape):
        deck_eigenspaces(linalg.transpose(T), 2, 3)


def test_homology_json_round_trip():
    H = branched_cover(twisted_double_matrix(1), 3)
    blob = H.to_json()
    assert blob["invariant_factors"] == [7, 7]
    assert blob["order"] == 49
    L = linking_form(twisted_double_matrix(1), 3)
    jb = L.to_json()
    assert jb["group"] == [7, 7]
