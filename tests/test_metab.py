"""Metabolizer enumeration, projection, and character space tests.

Derived expectations were cross-checked against brute-force subgroup
scans (redone independently inside this file for the small cases) and
against closed-form subgroup counts for the homogeneous (Z_49)^k cases.
"""

import functools
import itertools
import json
import random
from fractions import Fraction as F
from math import isqrt, prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knotconcord.cassongordon import (_weight, admissible_pair,
                                      find_odd_char, satellite_base_matrix)
from knotconcord.cover import (LinkingForm, deck_eigenspaces, direct_sum,
                               linking_form)
from knotconcord import linalg, metabolizers
from knotconcord.errors import BudgetExceeded, InternalInvariantViolation
from knotconcord.metabolizers import (DEFAULT_BUDGET, Metabolizer, _Search,
                                      _canonical_basis, _diag_choices,
                                      _echelon, _eigenspace_pair, _is_scalar,
                                      _suffix_member, _tail_walk, _walk,
                                      enumerate_metabolizers,
                                      span_vectors, subspace_count,
                                      subspaces, vanishing_chars)
from knotconcord.seifert import SeifertMatrix, build
from test_linalg import integer_kernel

GENUS2_MODEL = SeifertMatrix([[-1, 1, 1, 1],
                              [0, 2, 0, 0],
                              [1, 0, -1, 1],
                              [1, 0, 0, 2]])


# ---------------------------------------------------------------------------
# dense oracles of the walk's pairing, linear forms and deck orbits, which
# read every entry of the Gram numerators N and of the deck


def _pairs_to_zero(N, den, r, s):
    acc = 0
    for a, x in enumerate(r):
        if x:
            row = N[a]
            for b, y in enumerate(s):
                if y:
                    acc += x * row[b] * y
    return acc % den == 0


def _linear_form(N, den, v):
    """N v mod den: N is symmetric, so N v is the sum of its rows N[a]
    weighted by v[a]."""
    acc = [0] * len(v)
    for a, x in enumerate(v):
        if x:
            acc = [s + x * y for s, y in zip(acc, N[a])]
    return [s % den for s in acc]


def _deck_orbit(deck, group, vec):
    """vec and its deck images, reduced mod the group, until one repeats."""
    v = tuple(x % f for x, f in zip(vec, group))
    orbit = [v]
    seen = {v}
    while True:
        v = tuple(x % f for x, f in zip(linalg.mat_vec(deck, v), group))
        if v in seen:
            return orbit
        orbit.append(v)
        seen.add(v)


# ---------------------------------------------------------------------------
# statements of the paper that the tests check: the defining conditions of
# a metabolizer, the projection of a split metabolizer of a sum, and the
# diagonal lemma for character spaces without odd vectors


def is_metabolizer(L, generators):
    """Order and self-annihilation test against the defining conditions."""
    group = L.group
    k = len(group)
    rows = [list(g) for g in generators]
    basis = _canonical_basis(rows, group)
    order = 1
    for i in range(k):
        order *= group[i] // basis[i][i]
    if order * order != L.order:
        return False
    for i in range(k):
        for j in range(i, k):
            if not _pairs_to_zero(L.N, L.den, basis[i], basis[j]):
                return False
    return True


def project_metabolizer(L1, L2, A, A1):
    """Push a metabolizer of the sum form through one of the first factor.

    Returns {g in G2 : (g1, g) in A for some g1 in A1}, which is again a
    metabolizer of L2; a failed check is an internal error, not an input
    condition.
    """
    k1 = len(L1.group)
    k2 = len(L2.group)
    if len(A.group) != k1 + k2 or A.group != L1.group + L2.group:
        raise ValueError("A does not live on the direct sum of L1 and L2")
    if A1.group != L1.group:
        raise ValueError("A1 does not live on L1")
    if not is_metabolizer(direct_sum(L1, L2), A.basis):
        raise ValueError("A is not a metabolizer of the sum form")
    if not is_metabolizer(L1, A1.basis):
        raise ValueError("A1 is not a metabolizer of L1")

    # lattice of pairs (g1, g) with g1 in A1: intersect the lattice of A
    # with (lattice of A1) + Z^{k2}
    other = [list(r) + [0] * k2 for r in A1.basis]
    other += [[0] * (k1 + j) + [1] + [0] * (k2 - j - 1) for j in range(k2)]
    mine = [list(r) for r in A.basis]
    stacked = [[mine[a][i] for a in range(len(mine))]
               + [-other[b][i] for b in range(len(other))]
               for i in range(k1 + k2)]
    ker = integer_kernel(stacked)
    meet = []
    for w in ker:
        u = w[:len(mine)]
        vec = [sum(u[a] * mine[a][i] for a in range(len(mine)))
               for i in range(k1 + k2)]
        meet.append(vec)
    projected = [v[k1:] for v in meet]
    basis = _canonical_basis(projected, L2.group)
    out = Metabolizer(L2.group, basis)
    if not is_metabolizer(L2, out.basis):
        raise InternalInvariantViolation(
            "projection failed the metabolizer conditions")
    return out


def check_diagonal_lemma(p, k, budget=DEFAULT_BUDGET):
    """Exhaustive check that no-odd-vector row spans (I E) force E to be
    a column-permuted diagonal matrix; returns the tally."""
    if p ** (k * k) > budget:
        raise BudgetExceeded("p^(k*k) = %d matrices" % p ** (k * k), budget)
    nonsingular = 0
    without_odd = 0
    permuted_diagonal = 0
    mismatches = []
    for flat in itertools.product(range(p), repeat=k * k):
        E = [list(flat[i * k:(i + 1) * k]) for i in range(k)]
        red, piv = linalg.modp_rref(E, p)
        if len(piv) != k:
            continue
        nonsingular += 1
        rows = [[1 if j == i else 0 for j in range(k)] + E[i]
                for i in range(k)]
        if any(_weight(v) % 2 for v in span_vectors(rows, p, budget)):
            continue
        without_odd += 1
        ok = all(_weight(row) == 1 for row in E)
        ok = ok and all(_weight(col) == 1 for col in zip(*E))
        if ok:
            permuted_diagonal += 1
        else:
            mismatches.append(E)
    return {"p": p, "k": k,
            "nonsingular": nonsingular,
            "without_odd": without_odd,
            "permuted_diagonal": permuted_diagonal,
            "confirmed": without_odd == permuted_diagonal,
            "mismatches": mismatches}


def _span_elements(group, generators):
    seen = {tuple(0 for _ in group)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for s in frontier:
            for g in generators:
                t = tuple((a + b) % f for a, b, f in zip(s, g, group))
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return seen


def _brute_metabolizers(group, gram):
    """Reference enumeration: scan spans of all generator pairs."""
    total = 1
    for f in group:
        total *= f
    elems = list(itertools.product(*[range(f) for f in group]))

    def lk(x, y):
        acc = F(0)
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                acc += a * b * gram[i][j]
        return acc % 1

    found = set()
    for g1 in elems:
        for g2 in elems:
            span = _span_elements(group, (g1, g2))
            if len(span) ** 2 != total:
                continue
            if all(lk(x, y) == 0 for x in span for y in span):
                found.add(frozenset(span))
    return found


def _walk_oracle(L, invariant_only=False, budget=DEFAULT_BUDGET):
    """Reference enumeration by trial: every Hermite tail in the box is
    tried, its pairings tested afterwards, deck invariance only at the
    leaves."""
    group = list(L.group)
    k = len(group)
    if k == 0:
        return [Metabolizer((), ())]
    total = L.order
    root = isqrt(total)
    if root * root != total:
        return []
    N, den = L.N, L.den
    divisors = [[d for d in range(1, f + 1) if f % d == 0] for f in group]

    diag_choices = []

    def collect(i, prod, acc):
        if prod > root or root % prod:
            return
        if i == k:
            if prod == root:
                diag_choices.append(tuple(acc))
            return
        for d in divisors[i]:
            acc.append(d)
            collect(i + 1, prod * d, acc)
            acc.pop()

    collect(0, 1, [])

    found = []
    nodes = 0

    for diag in diag_choices:
        rows = [None] * k

        def fill(i):
            nonlocal nodes
            if i < 0:
                basis = [list(r) for r in rows]
                if invariant_only:
                    for r in basis:
                        image = linalg.mat_vec(L.deck, r)
                        if not _suffix_member(basis, diag, image, 0):
                            return
                found.append(Metabolizer(group, basis))
                return
            ranges = [range(diag[j]) for j in range(i + 1, k)]
            for tail in itertools.product(*ranges):
                nodes += 1
                if nodes > budget:
                    raise BudgetExceeded(
                        "metabolizer search visited more than %d candidates"
                        % budget, budget)
                row = [0] * i + [diag[i]] + list(tail)
                if not _pairs_to_zero(N, den, row, row):
                    continue
                bad = False
                for j in range(i + 1, k):
                    if not _pairs_to_zero(N, den, row, rows[j]):
                        bad = True
                        break
                if bad:
                    continue
                rows[i] = row
                # the relation f_i e_i must lie in the span of rows i..k-1
                rel = [0] * k
                rel[i] = group[i]
                if _suffix_member(rows, diag, rel, i):
                    fill(i - 1)
                rows[i] = None

        fill(k - 1)

    found.sort(key=lambda m: m.basis)
    return found


def _contains(A, vec):
    """Whether vec lies in the subgroup A, by reduction against its
    Hermite basis."""
    diag = [row[i] for i, row in enumerate(A.basis)]
    return _suffix_member(A.basis, diag, vec, 0)


def test_unique_metabolizer_of_z25():
    L = LinkingForm((25,), ((F(1, 25),),))
    ms = enumerate_metabolizers(L)
    assert len(ms) == 1
    assert ms[0].generators == ((5,),)
    assert ms[0].order == 5
    assert _contains(ms[0], (10,))
    assert not _contains(ms[0], (1,))


def test_z5_square_diagonal_unit_form():
    L = LinkingForm((5, 5), ((F(1, 5), F(0)), (F(0), F(1, 5))))
    ms = enumerate_metabolizers(L)
    assert [m.generators for m in ms] == [((1, 2),), ((1, 3),)]
    # the a^2 + b^2 = 0 condition, checked against the brute-force scan
    brute = _brute_metabolizers((5, 5), L.gram)
    assert len(brute) == 2
    lib = {frozenset(_span_elements((5, 5), m.generators)) for m in ms}
    assert lib == brute


def test_trivial_group_has_one_metabolizer():
    ms = enumerate_metabolizers(LinkingForm((), ()))
    assert len(ms) == 1
    assert ms[0].generators == ()
    assert ms[0].order == 1


def test_nonsquare_order_has_no_metabolizer():
    L = LinkingForm((5,), ((F(1, 5),),))
    assert enumerate_metabolizers(L) == []


def test_genus2_model_metabolizers():
    L = linking_form(GENUS2_MODEL, 3)
    ms = enumerate_metabolizers(L)
    inv = enumerate_metabolizers(L, invariant_only=True)
    assert len(ms) == 3
    assert ms == inv
    gens = [m.generators for m in ms]
    assert ((7, 0), (0, 7)) in gens  # the 7-torsion subgroup
    for m in ms:
        assert m.order == 49
        assert is_metabolizer(L, m.basis)


def test_model_square_invariant_metabolizers():
    # the two deck eigenvalues differ by a unit, so invariant metabolizers
    # correspond to arbitrary subgroups of one eigensummand (Z_49)^2;
    # that group has 75 subgroups (1+8+57+8+1 by order)
    L = direct_sum(linking_form(GENUS2_MODEL, 3), linking_form(GENUS2_MODEL, 3))
    inv = enumerate_metabolizers(L, invariant_only=True)
    assert len(inv) == 75
    for m in inv:
        assert m.order == 49 * 49
        assert is_metabolizer(L, m.basis)


def test_enumeration_budget():
    L = linking_form(GENUS2_MODEL, 3)
    with pytest.raises(BudgetExceeded):
        enumerate_metabolizers(L, budget=5)


def test_projection_spec_case():
    gram = ((F(1, 5), F(0)), (F(0), F(-1, 5)))
    L1 = LinkingForm((5, 5), gram)
    L2 = LinkingForm((5, 5), gram)
    A1 = Metabolizer((5, 5), _canonical_basis([(1, 1)], (5, 5)))
    A = Metabolizer((5,) * 4,
                    _canonical_basis([(1, 1, 0, 0), (0, 0, 1, 1)], (5,) * 4))
    A2 = project_metabolizer(L1, L2, A, A1)
    assert A2.generators == ((1, 1),)


def test_projection_of_product_unwinds():
    gram = ((F(1, 5), F(0)), (F(0), F(-1, 5)))
    L1 = LinkingForm((5, 5), gram)
    L2 = LinkingForm((5, 5), gram)
    A1, A2prime = enumerate_metabolizers(L1)[0], enumerate_metabolizers(L2)[1]
    rows = [list(r) + [0, 0] for r in A1.basis]
    rows += [[0, 0] + list(r) for r in A2prime.basis]
    A = Metabolizer((5,) * 4, _canonical_basis(rows, (5,) * 4))
    assert project_metabolizer(L1, L2, A, A1) == A2prime


def _random_small_form(rng):
    q = rng.choice([3, 5, 7])
    kind = rng.randrange(3)
    if kind == 0:
        u = rng.randrange(1, q)
        return LinkingForm((q, q), ((F(0), F(u, q)), (F(u, q), F(0))))
    if kind == 1:
        a = rng.randrange(1, q)
        return LinkingForm((q, q), ((F(a, q), F(0)), (F(0), F(-a, q))))
    c = rng.randrange(1, q)
    return LinkingForm((q * q,), ((F(c, q * q),),))


def test_projection_randomized_property():
    rng = random.Random(20260815)
    done = 0
    while done < 40:
        L1 = _random_small_form(rng)
        L2 = _random_small_form(rng)
        Ls = direct_sum(L1, L2)
        metas = enumerate_metabolizers(Ls)
        firsts = enumerate_metabolizers(L1)
        if not metas or not firsts:
            continue
        A = rng.choice(metas)
        A1 = rng.choice(firsts)
        A2 = project_metabolizer(L1, L2, A, A1)
        assert is_metabolizer(L2, A2.basis)
        done += 1


def test_every_enumerated_metabolizer_passes_brute_force():
    L = LinkingForm((9,), ((F(2, 9),),))
    ms = enumerate_metabolizers(L)
    brute = _brute_metabolizers((9,), L.gram)
    assert {frozenset(_span_elements((9,), m.generators)) for m in ms} == brute


def test_vanishing_chars_z25():
    L = LinkingForm((25,), ((F(1, 25),),))
    A = enumerate_metabolizers(L)[0]
    assert vanishing_chars(L, A, 5) == [(1,)]


def test_vanishing_chars_full_space_for_trivial_subgroup():
    L = LinkingForm((7, 7), ((F(1, 7), F(0)), (F(0), F(1, 7))))
    A = Metabolizer((7, 7), _canonical_basis([], (7, 7)))
    assert len(vanishing_chars(L, A, 7)) == 2


def _char_eigenspaces(L, A, p):
    """The deck eigenspaces inside the Z_p characters vanishing on A, on a
    form whose invariant factors p all divide, as the mutant-sum driver
    splits them: the transposed deck mod p, constrained by A's rows."""
    action = [[x % p for x in col] for col in zip(*L.deck)]
    constraints = [[x % p for x in row] for row in A.basis]
    return deck_eigenspaces(action, p, 1, constraints)


def test_vanishing_chars_model_eigen_structure():
    L = linking_form(GENUS2_MODEL, 3)
    for A in enumerate_metabolizers(L, invariant_only=True):
        dim = len(vanishing_chars(L, A, 7))
        eigen, _ = _char_eigenspaces(L, A, 7)
        dims = {lam: len(b) for lam, b in eigen.items()}
        assert sum(dims.values()) == dim
        if A.basis == ((7, 0), (0, 7)):
            # 7-torsion: every mod 7 character vanishes
            assert dim == 2 and dims[2] == 1 and dims[4] == 1
        else:
            # eigenline: one eigencharacter survives
            assert dim == 1
            assert sorted(dims.values()) == [0, 0, 1]


def test_vanishing_dimension_at_least_summand_count():
    Lm = linking_form(GENUS2_MODEL, 3)
    L = direct_sum(Lm, Lm)
    for A in enumerate_metabolizers(L, invariant_only=True):
        dim = len(vanishing_chars(L, A, 7))
        assert dim >= 2
        eigen, _ = _char_eigenspaces(L, A, 7)
        assert sum(map(len, eigen.values())) == dim


def _torus_sum(signs, q):
    return build({"kind": "sum", "summands": [
        {"sign": s, "knot": {"kind": "torus", "p": 2, "q": q}} for s in signs]})


# Closed forms for the number of maximal isotropic subspaces (Taylor, The
# Geometry of the Classical Groups): the split orthogonal 6-space over F_5
# has prod_{i=0}^{2} (5^i + 1) = 312, the symplectic 8-space over F_2 has
# prod_{i=1}^{4} (2^i + 1) = 2295, and the deck-invariant ones on (Z_2)^8 at
# d = 3, a unitary 4-space over F_4, number (2 + 1)(2^3 + 1) = 27.
@pytest.mark.parametrize("signs, q, d, total, invariant", [
    ((1, 1, 1, -1, -1, -1), 5, 2, 312, 312),
    ((1, 1, 1, 1), 3, 3, 2295, 27),
    ((1, 1, -1, -1), 3, 3, 2295, 27),
], ids=["t25x3_mt25x3_d2", "t23x4_d3", "t23x2_mt23x2_d3"])
def test_metabolizer_counts_match_closed_forms(signs, q, d, total, invariant):
    L = linking_form(_torus_sum(signs, q).matrix, d)
    assert len(enumerate_metabolizers(L)) == total
    assert len(enumerate_metabolizers(L, invariant_only=True)) == invariant


# Lagrangian counts in closed form (Taylor, "The Geometry of the Classical
# Groups", 1992), independent of the walk: a nondegenerate symmetric form on
# F_p^(2m), p odd, has prod_{i<m} (p^i + 1) maximal totally isotropic
# subspaces when it is split, that is when (-1)^m det is a square mod p, and
# none otherwise; an alternating form on F_2^(2m) has prod_{i=1..m} (2^i + 1).
def _symmetric(p, k, entries, alternating):
    N = [[0] * k for _ in range(k)]
    it = iter(entries)
    for i in range(k):
        for j in range(i, k):
            if i != j or not alternating:
                N[i][j] = N[j][i] = next(it) % p
    return N


@st.composite
def _nondegenerate_forms(draw):
    """(p, m, N): N the numerators of a nondegenerate symmetric form on
    (Z/p)^(2m), dense or a sum of 2 x 2 blocks; alternating when p = 2."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(st.integers(1, 3))
    k, alt = 2 * m, p == 2
    if draw(st.booleans()):
        size = k * (k - 1) // 2 if alt else k * (k + 1) // 2
        N = draw(st.lists(st.integers(0, p - 1), min_size=size,
                          max_size=size)
                 .map(lambda e: _symmetric(p, k, e, alt))
                 .filter(lambda N: linalg.det_bareiss(N) % p))
    else:
        N = [[0] * k for _ in range(k)]
        for c in range(m):
            block = draw(st.lists(st.integers(0, p - 1), min_size=3,
                                  max_size=3)
                         .map(lambda e: _symmetric(p, 2, e, alt))
                         .filter(lambda B: linalg.det_bareiss(B) % p))
            for i in range(2):
                for j in range(2):
                    N[2 * c + i][2 * c + j] = block[i][j]
    return p, m, N


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_nondegenerate_forms())
@example((7, 3, [[1 if j == i ^ 1 else 0 for j in range(6)]
                 for i in range(6)]))
def test_lagrangian_counts_match_closed_forms(form):
    p, m, N = form
    L = LinkingForm((p,) * (2 * m), [[F(x, p) for x in row] for row in N])
    if p == 2:
        want = prod(2 ** i + 1 for i in range(1, m + 1))
    elif pow((-1) ** m * linalg.det_bareiss(N), (p - 1) // 2, p) == 1:
        want = prod(p ** i + 1 for i in range(m))
    else:
        want = 0
    assert len(enumerate_metabolizers(L)) == want


# Every form of the cover_metab benchmark workload: the (Z/2)^8, (Z/5)^6,
# (Z/3)^6, (Z/25)^4 and (Z/7)^4 sums of its cover operations and the
# (Z/49)^4 and (Z/49)^2 forms of its mutant sums.
def _workload_form(name):
    if name in ("mutant_pp", "mutant_pm", "mutant_single"):
        base = satellite_base_matrix()
        other = base if name == "mutant_pp" else base.mirror()
        summands = [base] if name == "mutant_single" else [base, other]
        return direct_sum(*[linking_form(V, 3) for V in summands])
    if name == "td2x4":
        spec = {"kind": "sum", "summands": [
            {"sign": 1, "knot": {"kind": "twisted_double", "a": 2}}] * 4}
        return linking_form(build(spec).matrix, 2)
    if name == "fig8x6":
        spec = {"kind": "sum", "summands": [
            {"sign": 1, "knot": {"kind": "matrix",
                                 "entries": [[1, 1], [0, -1]]}}] * 6}
        return linking_form(build(spec).matrix, 2)
    signs, q, d = {"t23x4": ((1, 1, 1, 1), 3, 3),
                   "t23x2_mt23x2": ((1, 1, -1, -1), 3, 3),
                   "t25x3_mt25x3": ((1, 1, 1, -1, -1, -1), 5, 2),
                   "t23x3_mt23x3": ((1, 1, 1, -1, -1, -1), 3, 2),
                   "t27x2_mt27x2": ((1, 1, -1, -1), 7, 2)}[name]
    return linking_form(_torus_sum(signs, q).matrix, d)


WORKLOAD_FORMS = ["t23x4", "t23x2_mt23x2", "t25x3_mt25x3", "fig8x6",
                  "t23x3_mt23x3", "td2x4", "t27x2_mt27x2", "mutant_pp",
                  "mutant_pm", "mutant_single"]


@pytest.mark.parametrize("invariant_only", [False, True],
                         ids=["all", "invariant"])
@pytest.mark.parametrize("name", WORKLOAD_FORMS)
def test_walk_matches_oracle_on_workload_forms(name, invariant_only):
    L = _workload_form(name)
    assert (enumerate_metabolizers(L, invariant_only)
            == _walk_oracle(L, invariant_only))


# Candidates each search visits (all, invariant only): the smallest budget
# it finishes within.  A forced row, one whose Hermite diagonal entry is its
# invariant factor, counts one candidate; the invariant mutant searches take
# the eigenspace route, whose candidates are those of the walk over the
# subgroups of one eigenspace, (Z/49)^2 for the pairs and Z/49 alone.
CANDIDATES = {
    "t23x4": (5112, 468), "t23x2_mt23x2": (5112, 468),
    "t25x3_mt25x3": (2037, 2037), "fig8x6": (2037, 2037),
    "t23x3_mt23x3": (417, 417), "td2x4": (2618, 2618),
    "t27x2_mt27x2": (130, 130), "mutant_pp": (10790, 126),
    "mutant_pm": (10774, 126), "mutant_single": (59, 3)}

# Candidates of the walk itself, _Search.fill from the top with the deck,
# where the eigenspace route does not run; elsewhere as in CANDIDATES.
WALK_CANDIDATES = dict(CANDIDATES, mutant_pp=(10790, 4040),
                       mutant_pm=(10774, 4022), mutant_single=(59, 59))

# Candidates of the per-tail walk, which solves and tries every tail of a
# forced row too: the counts of the search before forced rows were skipped.
PER_TAIL_CANDIDATES = {
    "t23x4": (5335, 517), "t23x2_mt23x2": (5335, 517),
    "t25x3_mt25x3": (2101, 2101), "fig8x6": (2101, 2101),
    "t23x3_mt23x3": (441, 441), "td2x4": (2642, 2642),
    "t27x2_mt27x2": (136, 136), "mutant_pp": (10850, 4100),
    "mutant_pm": (10822, 4070), "mutant_single": (59, 59)}


@pytest.mark.parametrize("invariant_only", [False, True],
                         ids=["all", "invariant"])
@pytest.mark.parametrize("name", WORKLOAD_FORMS)
def test_budget_boundary_on_workload_forms(name, invariant_only):
    L = _workload_form(name)
    count = CANDIDATES[name][invariant_only]
    enumerate_metabolizers(L, invariant_only, budget=count)
    with pytest.raises(BudgetExceeded):
        enumerate_metabolizers(L, invariant_only, budget=count - 1)


# On a double branched cover the deck is -1, so every subgroup is
# invariant and both searches must return the same list.
@pytest.mark.parametrize("name", ["t25x3_mt25x3", "fig8x6", "t23x3_mt23x3",
                                  "td2x4", "t27x2_mt27x2", "sum_double_a2_n2",
                                  "sum_double_a2_n3"])
def test_scalar_deck_invariant_list_is_plain_list(name):
    if name.startswith("sum_double"):
        path = Path(__file__).parent / "fixtures" / (name + ".json")
        L = linking_form(build(json.loads(path.read_text())).matrix, 2)
    else:
        L = _workload_form(name)
    assert L.homology.degree == 2 and _is_scalar(L.deck, L.group)
    assert (enumerate_metabolizers(L, invariant_only=True)
            == enumerate_metabolizers(L))


class _OldSystemSearch(_Search):
    """The search on the congruences as they were before tail columns of
    bound 1 had their coefficients zeroed.  At every node it also walks
    both systems and records whether they give the same tails in the same
    order."""

    def system(self, diag, i):
        old = {tuple(form[i + 1:]) + ((-diag[i] * form[i]) % self.den,)
               for forms in self.forms[i + 1:] for form in forms}
        bounds = diag[i + 1:]

        def walk(system):
            by_col = _echelon(system, len(bounds), self.den)
            if by_col is None:
                return []
            return [tuple(t) for t in _tail_walk(by_col, bounds, self.den)]

        self.mismatches += walk(old) != walk(super().system(diag, i))
        self.checked += 1
        return old


def _fresh_search(cls, L, invariant_only, budget=DEFAULT_BUDGET):
    """One search of L run directly, past the cache of
    enumerate_metabolizers; its found list stays in discovery order."""
    deck = (L.deck if invariant_only and not _is_scalar(L.deck, L.group)
            else None)
    search = cls(L.group, L.N, L.den, deck, budget)
    search.mismatches = search.checked = 0
    for diag in _diag_choices(L.group, isqrt(L.order), 0, 1):
        search.fill(diag, len(L.group) - 1)
    return search


@pytest.mark.parametrize("invariant_only", [False, True],
                         ids=["all", "invariant"])
@pytest.mark.parametrize("name", WORKLOAD_FORMS)
def test_zeroed_columns_walk_matches_old_system(name, invariant_only):
    # same tails in the same order at every node, so the same metabolizers
    # in the same discovery order and the same candidate count; the
    # budget boundary of CANDIDATES holds for both systems
    L = _workload_form(name)
    old = _fresh_search(_OldSystemSearch, L, invariant_only)
    new = _fresh_search(_Search, L, invariant_only)
    assert old.checked and old.mismatches == 0
    assert new.found == old.found
    count = WALK_CANDIDATES[name][invariant_only]
    assert new.nodes == old.nodes == count
    for cls in (_Search, _OldSystemSearch):
        _fresh_search(cls, L, invariant_only, budget=count)
        with pytest.raises(BudgetExceeded):
            _fresh_search(cls, L, invariant_only, budget=count - 1)


class _DenseSearch(_Search):
    """The walk on the dense Gram numerators and deck: every pairing,
    linear form and deck image reads each entry, every forced row is
    charged on its own, every row's forms are computed and its relation
    tested, and each basis is made tuples at its leaf."""

    def __init__(self, group, N, den, deck, budget):
        super().__init__(group, N, den, deck, budget)
        self.N, self.deck = N, deck

    def fill(self, diag, i):
        group, rows, N, den = self.group, self.rows, self.N, self.den
        k = len(group)
        if i < 0:
            if self.deck is not None:
                for r in rows:
                    image = linalg.mat_vec(self.deck, r)
                    if not _suffix_member(rows, diag, image, 0):
                        return
            self.found.append(tuple(self.interned.setdefault(r, r)
                                    for r in map(tuple, rows)))
            return
        if diag[i] == group[i]:
            self.charge(1)
            rows[i] = [0] * i + [diag[i]] + [0] * (k - i - 1)
            self.forms[i] = ()
            self.fill(diag, i - 1)
            rows[i] = None
            return
        by_col = _echelon(self.system(diag, i), k - i - 1, den)
        if by_col is None:
            return
        rel = [0] * k
        rel[i] = group[i]
        g = group[i] // diag[i]
        below = group[i + 1:]
        for tail in _tail_walk(by_col, diag[i + 1:], den):
            self.charge(1)
            row = [0] * i + [diag[i]] + tail
            if not _pairs_to_zero(N, den, row, row):
                continue
            orbit = [row]
            if self.deck is not None:
                orbit = _deck_orbit(self.deck, group, row)
                if not all(_pairs_to_zero(N, den, row, v) for v in orbit[1:]):
                    continue
            rows[i] = row
            if (all(g * t % f == 0 for t, f in zip(tail, below))
                    or _suffix_member(rows, diag, rel, i)):
                self.forms[i] = [_linear_form(N, den, v) for v in orbit]
                self.fill(diag, i - 1)
            rows[i] = None


class _PerTailSearch(_DenseSearch):
    """The walk as it was before forced rows and the relation shortcut: a
    row whose diagonal entry is its invariant factor solves and tries
    every tail, and every kept row's relation is reduced by
    _suffix_member."""

    def fill(self, diag, i):
        group, rows, N, den = self.group, self.rows, self.N, self.den
        k = len(group)
        if i < 0:
            if self.deck is not None:
                for r in rows:
                    image = linalg.mat_vec(self.deck, r)
                    if not _suffix_member(rows, diag, image, 0):
                        return
            self.found.append(tuple(map(tuple, rows)))
            return
        by_col = _echelon(self.system(diag, i), k - i - 1, den)
        if by_col is None:
            return
        rel = [0] * k
        rel[i] = group[i]
        for tail in _tail_walk(by_col, diag[i + 1:], den):
            self.charge(1)
            row = [0] * i + [diag[i]] + tail
            if not _pairs_to_zero(N, den, row, row):
                continue
            orbit = [row]
            if self.deck is not None:
                orbit = _deck_orbit(self.deck, group, row)
                if not all(_pairs_to_zero(N, den, row, v) for v in orbit[1:]):
                    continue
            rows[i] = row
            if _suffix_member(rows, diag, rel, i):
                self.forms[i] = [_linear_form(N, den, v) for v in orbit]
                self.fill(diag, i - 1)
            rows[i] = None


@pytest.mark.parametrize("invariant_only", [False, True],
                         ids=["all", "invariant"])
@pytest.mark.parametrize("name", WORKLOAD_FORMS)
def test_forced_rows_walk_matches_per_tail_walk(name, invariant_only):
    # the same bases in the same discovery order; a forced row is one
    # candidate where the per-tail walk counted every tail it solved
    L = _workload_form(name)
    old = _fresh_search(_PerTailSearch, L, invariant_only)
    new = _fresh_search(_Search, L, invariant_only)
    assert new.found == old.found
    assert old.nodes == PER_TAIL_CANDIDATES[name][invariant_only]
    assert new.nodes == WALK_CANDIDATES[name][invariant_only]


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                min_size=1, max_size=3),
       st.sampled_from([2, 3]))
def test_forced_rows_walk_matches_per_tail_walk_on_genus_one_sums(pairs, d):
    L = _genus_one_sum(pairs, d)
    for invariant_only in (False, True):
        old = _fresh_search(_PerTailSearch, L, invariant_only, 10 ** 9)
        new = _fresh_search(_Search, L, invariant_only, 10 ** 9)
        assert new.found == old.found
        assert new.nodes <= old.nodes


def _hyperbolic_form(p, m, lams, S):
    """The hyperbolic form on (Z/p)^(2m), sum of m planes [[0, 1], [1, 0]],
    with the isometry diag(lam, lam^-1) on each plane, in the coordinates
    x -> S x: a dense Gram S^t H S and deck S^-1 T S."""
    k = 2 * m
    H = [[1 if j == i ^ 1 else 0 for j in range(k)] for i in range(k)]
    T = [[0] * k for _ in range(k)]
    for c, lam in enumerate(lams):
        T[2 * c][2 * c], T[2 * c + 1][2 * c + 1] = lam, pow(lam, -1, p)
    gram = linalg.modm_mat_mul(linalg.modm_mat_mul(linalg.transpose(S), H, p),
                               S, p)
    deck = linalg.modm_mat_mul(
        linalg.modm_mat_mul(linalg.modm_inverse(S, p), T, p), S, p)
    return LinkingForm((p,) * k, [[F(x, p) for x in row] for row in gram],
                       deck)


@st.composite
def _dense_hyperbolic_forms(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    m = draw(st.integers(1, 3 if p == 3 else 2))
    k = 2 * m
    S = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=k,
                               max_size=k), min_size=k, max_size=k)
             .filter(lambda S: linalg.det_bareiss(S) % p))
    lams = draw(st.lists(st.integers(1, p - 1), min_size=m, max_size=m))
    return _hyperbolic_form(p, m, lams, S)


def _assert_sparse_walk_matches_dense(L):
    for invariant_only in (False, True):
        dense = _fresh_search(_DenseSearch, L, invariant_only, 10 ** 9)
        sparse = _fresh_search(_Search, L, invariant_only, 10 ** 9)
        assert sparse.found == dense.found
        assert sparse.nodes == dense.nodes


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                min_size=1, max_size=3),
       st.sampled_from([2, 3]))
def test_sparse_walk_matches_dense_walk_on_genus_one_sums(pairs, d):
    # the same bases in the same discovery order, and the same candidates
    _assert_sparse_walk_matches_dense(_genus_one_sum(pairs, d))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(_dense_hyperbolic_forms())
def test_sparse_walk_matches_dense_walk_on_dense_grams(L):
    _assert_sparse_walk_matches_dense(L)


def _top_fills(monkeypatch):
    """Record the diagonal of every _Search.fill call made at the top
    row of a search."""
    calls = []
    fill = _Search.fill

    def counted(self, diag, i):
        if i == len(self.group) - 1:
            calls.append(diag)
        return fill(self, diag, i)

    monkeypatch.setattr(_Search, "fill", counted)
    return calls


def _birkhoff_count(p, e, r):
    """The number of subgroups of (Z/p^e)^r, all indices, by Birkhoff's
    formula: a subgroup whose type has conjugate partition
    a_1 >= ... >= a_e (a_{e+1} = 0) occurs
    prod_i p^(a_{i+1} (r - a_i)) [r - a_{i+1} choose a_i - a_{i+1}]_p
    times."""
    total = 0
    for a in itertools.combinations_with_replacement(range(r + 1), e):
        a = sorted(a, reverse=True) + [0]
        term = 1
        for i in range(e):
            term *= (p ** (a[i + 1] * (r - a[i]))
                     * subspace_count(r - a[i + 1], a[i] - a[i + 1], p))
        total += term
    return total


def _all_subgroups(p, e, r, budget=DEFAULT_BUDGET):
    """The Hermite bases of every subgroup of (Z/p^e)^r: the walk on the
    zero form over every index p^j."""
    q = p ** e
    return _walk((q,) * r, ((0,) * r,) * r, 1,
                 [p ** j for j in range(r * e + 1)], None, budget)


@pytest.mark.parametrize("p, e, r", [
    (2, 1, 3), (2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 1, 3), (3, 2, 2),
    (3, 2, 3), (3, 3, 1), (5, 2, 2), (7, 2, 1), (7, 2, 2)])
def test_subgroup_walk_matches_birkhoff_count(p, e, r):
    bases = _all_subgroups(p, e, r)
    assert len(set(bases)) == len(bases) == _birkhoff_count(p, e, r)
    if e == 1:
        assert len(bases) == sum(subspace_count(r, m, p)
                                 for m in range(r + 1))


def _mutant_form(signs):
    base = satellite_base_matrix()
    return direct_sum(*[linking_form(base if s == 1 else base.mirror(), 3)
                        for s in signs])


# each invariant metabolizer of the r-summand form is A + ann(A) for one
# subgroup A of a deck eigenspace (Z/49)^r, and (Z/49)^r has 3, 75 and
# 9,009 subgroups for r = 1, 2, 3
@pytest.mark.parametrize("signs, count", [
    ((1,), 3), ((1, -1), 75), ((1, 1, -1), 9009)],
    ids=["one", "two", "three"])
def test_mutant_invariant_counts_match_birkhoff(signs, count):
    assert _birkhoff_count(7, 2, len(signs)) == count
    L = _mutant_form(signs)
    assert _eigenspace_pair(L.group, L.N, L.den, L.deck) is not None
    found = enumerate_metabolizers(L, invariant_only=True)
    assert len(found) == count
    assert all(m.order ** 2 == L.order for m in found)


def _change_basis(L, S):
    """L in the coordinates x -> S x, S invertible mod the exponent q of a
    homogeneous group: Gram matrix S^t N S and deck S^-1 T S."""
    q = L.group[0]
    Sinv = linalg.modm_inverse(S, q)
    gram = linalg.mat_mul(linalg.mat_mul(linalg.transpose(S), L.N), S)
    deck = linalg.modm_mat_mul(linalg.modm_mat_mul(Sinv, L.deck, q), S, q)
    return LinkingForm(L.group, [[F(x, L.den) for x in row] for row in gram],
                       deck)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=2), st.data())
def test_eigenspace_route_matches_walk_with_deck(signs, data):
    # random signed sums of one or two mutant summands, in random
    # coordinates: the invariant list is the sorted walk run with the deck
    L = _mutant_form(signs)
    k = len(L.group)
    S = data.draw(st.lists(st.lists(st.integers(0, 48), min_size=k,
                                    max_size=k), min_size=k, max_size=k)
                  .filter(lambda S: linalg.det_bareiss(S) % 7))
    M = _change_basis(L, S)
    assert _eigenspace_pair(M.group, M.N, M.den, M.deck) is not None
    walked = _walk(M.group, M.N, M.den, (isqrt(M.order),), M.deck, 10 ** 9)
    assert ([m.basis for m in enumerate_metabolizers(M, invariant_only=True)]
            == sorted(walked))


def test_eigenspace_route_walks_one_eigenspace(monkeypatch):
    # the only fills from the top are those of the walk over the subgroups
    # of E_lam = (Z/49)^2, every index 7^j
    L = _workload_form("mutant_pp")
    metabolizers._search.cache_clear()
    calls = _top_fills(monkeypatch)
    assert len(enumerate_metabolizers(L, invariant_only=True)) == 75
    assert calls == [diag for j in range(5)
                     for diag in _diag_choices((49, 49), 7 ** j, 0, 1)]


# An A2 form on (Z/9)^2 and its rotation of order 3, whose roots 1, 4, 7 of
# x^3 = 1 agree mod 3; and diag(1, -1) on (Z/5)^2 with the unit form, whose
# eigenvalues are each their own inverse's partner only.
def _order_three_on_z9():
    return LinkingForm((9, 9), ((F(2, 9), F(-1, 9)), (F(-1, 9), F(2, 9))),
                       ((0, -1), (1, -1)))


def _self_paired_on_z5():
    return LinkingForm((5, 5), ((F(1, 5), F(0)), (F(0), F(1, 5))),
                       ((1, 0), (0, -1)))


@pytest.mark.parametrize("make", [
    lambda: _workload_form("t23x4"), _order_three_on_z9, _self_paired_on_z5,
], ids=["z2^8-d3-no-split", "z9^2-p-divides-order", "z5^2-self-paired"])
def test_fallback_decks_fill_from_the_top(monkeypatch, make):
    L = make()
    assert not _is_scalar(L.deck, L.group)
    assert _eigenspace_pair(L.group, L.N, L.den, L.deck) is None
    metabolizers._search.cache_clear()
    calls = _top_fills(monkeypatch)
    found = enumerate_metabolizers(L, invariant_only=True)
    assert calls == list(_diag_choices(L.group, isqrt(L.order), 0, 1))
    assert found == _walk_oracle(L, invariant_only=True)


def test_memo_runs_scalar_deck_search_once(monkeypatch):
    # on a double cover the deck is -1, so the plain and the invariant
    # request are one search: each diagonal is filled from the top once
    path = Path(__file__).parent / "fixtures" / "sum_double_a2_n2.json"
    L = linking_form(build(json.loads(path.read_text())).matrix, 2)
    assert _is_scalar(L.deck, L.group)
    metabolizers._search.cache_clear()
    calls = _top_fills(monkeypatch)
    plain = enumerate_metabolizers(L)
    invariant = enumerate_metabolizers(L, invariant_only=True)
    assert plain == invariant and plain
    assert calls == list(_diag_choices(L.group, isqrt(L.order), 0, 1))


def test_memo_shares_search_between_equal_forms(monkeypatch):
    # on 2-torsion -1/2 = 1/2, so T(2,3)^4 and T(2,3)^2 # -T(2,3)^2 have
    # one form at d = 3, deck included: one search each way for both
    A, B = _workload_form("t23x4"), _workload_form("t23x2_mt23x2")
    assert A is not B
    assert (A.group, A.N, A.den, A.deck) == (B.group, B.N, B.den, B.deck)
    metabolizers._search.cache_clear()
    calls = _top_fills(monkeypatch)
    diagonals = list(_diag_choices(A.group, isqrt(A.order), 0, 1))
    for invariant_only, total in ((False, 2295), (True, 27)):
        del calls[:]
        assert len(enumerate_metabolizers(A, invariant_only)) == total
        assert (enumerate_metabolizers(B, invariant_only)
                == enumerate_metabolizers(A, invariant_only))
        assert calls == diagonals


@pytest.mark.parametrize("invariant_only", [False, True],
                         ids=["all", "invariant"])
def test_memo_replays_budget(invariant_only):
    # the budget is part of the key: a repeat within the candidate count c
    # is a hit, and below it the search runs again and raises as a fresh
    # one does, whichever request came first
    L = _workload_form("mutant_pm")
    count = CANDIDATES["mutant_pm"][invariant_only]
    cached = metabolizers._search
    cached.cache_clear()
    with pytest.raises(BudgetExceeded) as fresh:
        enumerate_metabolizers(L, invariant_only, budget=count - 1)
    assert cached.cache_info().currsize == 0
    found = enumerate_metabolizers(L, invariant_only, budget=count)
    assert enumerate_metabolizers(L, invariant_only, budget=count) == found
    with pytest.raises(BudgetExceeded) as again:
        enumerate_metabolizers(L, invariant_only, budget=count - 1)
    info = cached.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 3, 1)
    assert str(again.value) == str(fresh.value) == (
        "metabolizer search visited more than %d candidates" % (count - 1))
    assert again.value.budget == fresh.value.budget == count - 1


def _outcome(L, invariant_only, budget):
    """The list a call returns, or its BudgetExceeded message and budget."""
    try:
        return enumerate_metabolizers(L, invariant_only, budget)
    except BudgetExceeded as e:
        return str(e), e.budget


@pytest.mark.parametrize("invariant_only", [False, True],
                         ids=["all", "invariant"])
@pytest.mark.parametrize("name", WORKLOAD_FORMS)
def test_memo_outcome_does_not_depend_on_call_order(name, invariant_only):
    # budgets below, at and above the candidate count, in every order from
    # an empty cache: a budget gives the same outcome at every place in the
    # order, the first call after cache_clear included
    L = _workload_form(name)
    count = CANDIDATES[name][invariant_only]
    budgets = (count - 1, count, DEFAULT_BUDGET)
    seen = {budget: [] for budget in budgets}
    for order in itertools.permutations(budgets):
        metabolizers._search.cache_clear()
        for budget in order:
            seen[budget].append(_outcome(L, invariant_only, budget))
    for outcomes in seen.values():
        assert all(o == outcomes[0] for o in outcomes)
    assert seen[count - 1][0] == (
        "metabolizer search visited more than %d candidates" % (count - 1),
        count - 1)
    assert seen[count][0] == seen[DEFAULT_BUDGET][0]


def test_memo_returns_a_copy():
    L = _workload_form("t27x2_mt27x2")
    first = enumerate_metabolizers(L)
    expected = list(first)
    first.clear()
    second = enumerate_metabolizers(L)
    assert second == expected and second is not first
    second.reverse()
    assert enumerate_metabolizers(L) == expected


def test_memo_interns_rows():
    # the kept lists share one object per distinct Hermite row
    metabolizers._search.cache_clear()
    found = enumerate_metabolizers(_workload_form("t23x4"))
    rows = [r for m in found for r in m.basis]
    assert len(rows) == 18360
    assert len({id(r) for r in rows}) == len(set(rows)) == 155
    with pytest.raises(AttributeError):
        found[0].extra = 1


def test_memo_hit_returns_the_kept_metabolizers():
    # a hit hands out the objects the search built, in a new list
    L = _workload_form("t27x2_mt27x2")
    metabolizers._search.cache_clear()
    first = enumerate_metabolizers(L)
    second = enumerate_metabolizers(L)
    assert first and second is not first and len(second) == len(first)
    assert all(a is b for a, b in zip(first, second))


def test_memo_interns_generator_rows():
    # each search reduces each distinct Hermite row once, so the kept
    # generator rows share one object per distinct row, and to_json hands
    # out the stored tuples
    metabolizers._search.cache_clear()
    found = enumerate_metabolizers(_workload_form("t23x4"))
    gens = [g for m in found for g in m.generators]
    assert len({id(g) for g in gens}) == len(set(gens)) > 1
    for m in found:
        blob = m.to_json()
        assert blob["generators"] is m.generators
        assert blob["group"] is m.group and blob["order"] == m.order


def _old_report(m):
    """A metabolizer's JSON as it was rendered from its Hermite basis:
    lists, each row reduced mod the group, zero rows dropped."""
    rows = ([x % f for x, f in zip(row, m.group)] for row in m.basis)
    order = 1
    for i, row in enumerate(m.basis):
        order *= m.group[i] // row[i]
    blob = {"group": list(m.group),
            "generators": [r for r in rows if any(r)],
            "order": order}
    return json.dumps(blob, sort_keys=True, separators=(",", ":"))


def _report(m):
    return json.dumps(m.to_json(), sort_keys=True, separators=(",", ":"))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                min_size=1, max_size=2),
       st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
       st.sampled_from([2, 3]), st.data())
def test_report_bytes_match_basis_rendering(pairs, pair, d, data):
    # plain and invariant searches of a sum and its first summand, and a
    # projection through the summand: each renders as its basis did
    L1, L2 = _genus_one_sum(pairs, d), _genus_one_sum([pair], d)
    L = direct_sum(L1, L2)
    for invariant_only in (False, True):
        for form in (L, L1):
            for m in enumerate_metabolizers(form, invariant_only):
                assert _report(m) == _old_report(m)
    mets, firsts = enumerate_metabolizers(L), enumerate_metabolizers(L1)
    if mets and firsts:
        A = data.draw(st.sampled_from(mets))
        A1 = data.draw(st.sampled_from(firsts))
        A2 = project_metabolizer(L1, L2, A, A1)
        assert _report(A2) == _old_report(A2)


def _span_comprehension(basis, p):
    """span_vectors as it was: every coordinate a sum over the basis."""
    n = len(basis[0]) if basis else 0
    return [tuple(sum(c * row[j] for c, row in zip(coeffs, basis)) % p
                  for j in range(n))
            for coeffs in itertools.product(range(p), repeat=len(basis))
            if any(coeffs)]


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(st.sampled_from([3, 5, 7]).flatmap(lambda p: st.tuples(
    st.just(p), st.integers(0, 4).flatmap(lambda width: st.lists(
        st.lists(st.integers(-p, 2 * p), min_size=width, max_size=width),
        min_size=0, max_size=4)))))
def test_span_vectors_matches_comprehension(case):
    # up to four rows of up to four entries, not reduced mod p
    p, basis = case
    assert list(span_vectors(basis, p)) == _span_comprehension(basis, p)


def _rref_shapes(n, m, p):
    """Reduced echelon bases of all m-dimensional subspaces of (Z/p)^n,
    each exactly once: the pivot columns in itertools.combinations order,
    then the free entries, row by row, in itertools.product order."""
    for pivots in itertools.combinations(range(n), m):
        free = [(r, c) for r in range(m) for c in range(n)
                if c > pivots[r] and c not in pivots]
        for vals in itertools.product(range(p), repeat=len(free)):
            rows = [[0] * n for _ in range(m)]
            for r, pc in enumerate(pivots):
                rows[r][pc] = 1
            for (r, c), v in zip(free, vals):
                rows[r][c] = v
            yield tuple(tuple(r) for r in rows)


def _count_rref_shapes(n, m, p):
    """The number of bases _rref_shapes yields: p to the number of free
    entries, summed over the pivot sets."""
    total = 0
    for pivots in itertools.combinations(range(n), m):
        k = sum(1 for r in range(m) for c in range(n)
                if c > pivots[r] and c not in pivots)
        total += p ** k
    return total


@pytest.mark.parametrize("p", [2, 3, 7])
def test_subspaces_match_echelon_oracle(p):
    # the walk on the zero form lists every subspace once, in the order
    # of the echelon enumeration it replaced
    for n in range(5):
        for m in range(n + 1):
            shapes = subspaces(n, m, p)
            assert shapes == list(_rref_shapes(n, m, p)), (n, m)
            assert len(shapes) == subspace_count(n, m, p)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_subspace_count_matches_echelon_count(p):
    for n in range(7):
        for m in range(n + 1):
            assert subspace_count(n, m, p) == _count_rref_shapes(n, m, p)


def test_subspaces_budget():
    # the walk for the 57 planes of (Z/7)^3 visits 69 candidates
    assert len(subspaces(3, 2, 7, budget=69)) == 57
    with pytest.raises(BudgetExceeded, match="more than 68 candidates"):
        subspaces(3, 2, 7, budget=68)


@pytest.mark.parametrize("group, deck, scalar", [
    ((3, 9), ((2, 0), (0, 8)), True),
    ((5, 5), ((4, 0), (0, 4)), True),
    ((3, 3), ((1, 0), (0, 2)), False),
    ((3, 9), ((2, 0), (0, 7)), False),
    ((5, 5), ((1, 1), (0, 1)), False),
    ((4, 6), ((3, 0), (0, 5)), True),
    ((4, 6), ((3, 0), (0, 2)), False),
])
def test_is_scalar(group, deck, scalar):
    assert _is_scalar(deck, group) == scalar


@pytest.mark.parametrize("fixture", ["sum_double_a2_n2", "sum_double_a2_n3"])
def test_walk_matches_oracle_on_fixtures(fixture):
    path = Path(__file__).parent / "fixtures" / (fixture + ".json")
    L = linking_form(build(json.loads(path.read_text())).matrix, 2)
    for invariant_only in (False, True):
        assert (enumerate_metabolizers(L, invariant_only)
                == _walk_oracle(L, invariant_only))


@functools.cache
def _genus_one_form(a, c, d):
    return linking_form(SeifertMatrix([[a, 1], [0, c]]), d)


def _genus_one_sum(pairs, d):
    return direct_sum(*[_genus_one_form(a, c, d) for a, c in pairs])


# Sums of genus-one forms reach groups such as (7, 7, 2, 2, 8, 8) and
# (26, 26, 26, 26), where den (56, 26) is not a prime power and the echelon
# solve meets pivots that are not units.  The oracle gets no budget: on
# (5, 5, 10, 10, 10, 10) it needs more than the default, which the solved
# walk does not.
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                min_size=1, max_size=3),
       st.sampled_from([2, 3]))
def test_walk_matches_oracle_on_genus_one_sums(pairs, d):
    L = _genus_one_sum(pairs, d)
    for invariant_only in (False, True):
        assert (enumerate_metabolizers(L, invariant_only)
                == _walk_oracle(L, invariant_only, budget=10 ** 9))


def _relabel(L, perm):
    """L with generator a renamed perm[a]; only equal factors are swapped."""
    group = tuple(L.group[p] for p in perm)
    if group != L.group:
        raise ValueError("relabelling must keep the invariant factors")
    gram = [[L.gram[p][q] for q in perm] for p in perm]
    deck = [[L.deck[p][q] for q in perm] for p in perm]
    return LinkingForm(group, gram, deck)


@pytest.mark.parametrize("make, perm, invariant_only", [
    (lambda: _workload_form("t23x4"), (7, 2, 5, 0, 3, 6, 1, 4), False),
    (lambda: _workload_form("t23x2_mt23x2"), (1, 0, 3, 2, 7, 6, 5, 4), True),
    (lambda: _workload_form("t25x3_mt25x3"), (5, 4, 3, 2, 1, 0), False),
    (lambda: _workload_form("mutant_pm"), (2, 3, 0, 1), True),
    (lambda: _workload_form("mutant_pm"), (3, 1, 2, 0), False),
    (lambda: _genus_one_sum([(-2, -3), (2, -3), (-3, -2)], 3),
     (5, 4, 3, 2, 1, 0), False),
    (lambda: _genus_one_sum([(2, 1), (1, -3), (1, -3)], 3),
     (1, 0, 4, 5, 3, 2), True),
], ids=["t23x4", "t23x2_mt23x2-inv", "t25x3_mt25x3", "mutant_pm-inv",
        "mutant_pm", "composite-17-19", "composite-5-10-inv"])
def test_metabolizers_unchanged_by_relabelling(make, perm, invariant_only):
    # permuting generators with equal invariant factors is an isometry, so
    # the metabolizers found in the new labels must map back onto those
    # found in the old ones
    L = make()
    relabelled = enumerate_metabolizers(_relabel(L, perm), invariant_only)
    mapped = set()
    for m in relabelled:
        rows = []
        for g in m.generators:
            v = [0] * len(perm)
            for a, p in enumerate(perm):
                v[p] = g[a]
            rows.append(v)
        mapped.add(tuple(map(tuple, _canonical_basis(rows, L.group))))
    direct = {m.basis for m in enumerate_metabolizers(L, invariant_only)}
    assert len(mapped) == len(relabelled)
    assert mapped == direct


def _in_span_mod_p(basis, vec, p):
    rows = [list(r) for r in basis] + [list(vec)]
    red, piv = linalg.modp_rref([list(r) for r in basis], p)
    red2, piv2 = linalg.modp_rref(rows, p)
    return len(piv) == len(piv2)


def test_find_odd_char_spec_examples():
    v = find_odd_char([(1, 0), (0, 1)], 2)
    assert v is not None and sum(1 for x in v if x) % 2 == 1
    assert find_odd_char([(1, 3)], 2) is None
    v = find_odd_char([(1, 0, 1), (0, 1, 1)], 3)
    assert v is not None
    assert sum(1 for x in v if x) % 2 == 1
    assert _in_span_mod_p([(1, 0, 1), (0, 1, 1)], v, 7)


def test_find_odd_char_none_is_certified():
    # brute scan agrees that the (1,3) line has no odd vector
    for c in range(1, 7):
        vec = (c % 7, 3 * c % 7)
        assert sum(1 for x in vec if x) % 2 == 0
    # permuted diagonal block: (I B) with B = [[0,2],[3,0]]
    basis = [(1, 0, 0, 2), (0, 1, 3, 0)]
    assert find_odd_char(basis, 4) is None
    for c1 in range(7):
        for c2 in range(7):
            vec = [(c1 * a + c2 * b) % 7 for a, b in zip(*basis)]
            assert sum(1 for x in vec if x) % 2 == 0


def test_find_odd_char_wide_spans_constructive():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(2, 7)
        m = n // 2 + 1
        basis = [[rng.randrange(7) for _ in range(n)] for _ in range(m)]
        red, piv = linalg.modp_rref(basis, 7)
        if len(piv) <= n // 2:
            continue
        v = find_odd_char([r for r in red if any(r)], n)
        assert v is not None
        assert sum(1 for x in v if x) % 2 == 1
        assert _in_span_mod_p(basis, v, 7)


def test_find_odd_char_budget():
    basis = [[1 if i == j else 0 for j in range(20)] for i in range(10)]
    for row, c in zip(basis, range(10)):
        row[10 + c] = 3  # nonsingular square block, no quick exit
    with pytest.raises(BudgetExceeded):
        find_odd_char(basis, 20, budget=100)


def test_diagonal_lemma_counts():
    expect = {(3, 1): (2, 2), (3, 2): (48, 8), (5, 2): (480, 32),
              (7, 2): (2016, 72), (3, 3): (11232, 48)}
    for (p, k), (nonsing, no_odd) in expect.items():
        rep = check_diagonal_lemma(p, k)
        assert rep["nonsingular"] == nonsing
        assert rep["without_odd"] == no_odd
        assert rep["permuted_diagonal"] == no_odd
        assert rep["confirmed"]
        assert rep["mismatches"] == []


def test_diagonal_lemma_budget():
    with pytest.raises(BudgetExceeded):
        check_diagonal_lemma(7, 4, budget=1000)


def test_admissible_pair():
    c = 3
    cinv = pow(c, -1, 7)
    assert admissible_pair((1, c), (1, (-cinv) % 7), (1, 1))
    assert not admissible_pair((1, 0), (1, 0), (1, 1))
    assert not admissible_pair((1, 2), (3, 2), (1, -1))
    with pytest.raises(ValueError):
        admissible_pair((1,), (1, 2), (1, 1))
