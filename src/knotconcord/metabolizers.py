"""Metabolizers of finite linking forms and their character spaces.

A metabolizer is a subgroup equal to its own annihilator under the
pairing; for a nonsingular form that is the same as a self-annihilating
subgroup whose order squares to the group order.  Subgroups are handled
as integer lattices between diag(group) and Z^k, written in Hermite
normal form so equality is syntactic.

One walk enumerates subgroups, those of given indices that are isotropic
for a form: the metabolizers are those of index the square root of the
group order, and under the zero form every subgroup is isotropic, so the
walk on it lists the subspaces of (Z/p)^n (subspaces, counted in closed
form by subspace_count) and the subgroups of (Z/p^e)^r.  The walk fills
Hermite bases row by row from the bottom, for each diagonal whose
product is the index.  Row i is diag[i] e_i plus a tail t in the box
[0, diag[i+1]) x ... x [0, diag[k-1]).  A row whose diagonal entry is its
invariant factor f_i is forced: the relation f_i e_i is the row minus its
tail, so the tail lies in the span of the rows below, where the only
tail in the box is 0.  The row is f_i e_i, zero in the group, and adds
no congruence.  Otherwise, once rows i+1..k-1 are fixed,
the conditions <row i, row j> = 0 (mod den), den the common denominator
of the Gram matrix, are linear congruences in t, and each fixed row
keeps its linear form N row.  A tail coordinate whose diagonal entry is
1 has the box [0, 1), so it is 0, and its coefficient is zeroed in every
congruence; no pivot of the echelon form then lands on a column that has
a single value to offer.  The congruences are brought to echelon form by
unimodular integer row operations, which works for any den, and the tail
is solved from its last coordinate to its first: a coordinate that
starts no congruence is free, and one that starts g t = s (mod den) has
no value unless h = gcd(g, den) divides s, and otherwise the values
t_0 + (den / h) Z in the box.  Each solution is a candidate; it is kept
if it pairs to zero with itself and the rows so far contain the relation
f_i e_i = g row - g t, g = f_i / diag[i].  The rows below span every
f_m e_m, so the relation holds at once when g t_m = 0 (mod f_m) for
every m, always so when every f_m below divides g, as on (Z/p)^k, and
is otherwise reduced against the rows.

The walk reads the Gram numerators and the deck as sparse rows, the
nonzero (column, entry) pairs of each, built once per search: the
linking form of a connected sum is an orthogonal sum, so both are
block-diagonal, and each pairing, linear form and deck image reads only
nonzero entries.  A row's linear forms are read only by a row above it
that is not forced, so they are computed only when there is one; once
every row above is forced, the walk charges them in one step and keeps
the basis.

For deck-invariant metabolizers each fixed row contributes the linear
forms of its whole deck orbit, and a candidate must also pair to zero
with its own orbit: an invariant isotropic subgroup holds T^c row for
every c.  Both are necessary conditions; a finished basis is still kept
only if the deck maps its subgroup into itself, so the list is exact.
A deck that acts as multiplication by one integer, as -1 does on every
double branched cover, leaves every subgroup invariant; the search then
skips the orbit work and runs as the unrestricted one.

Some decks make the invariant metabolizers known without that walk.  On
group = (Z/p^e)^k, a deck that splits mod p^e (cover.deck_eigenspaces)
into exactly two nonzero eigenspaces E_lam and E_mu, lam mu = 1 and
lam^2 != 1 (mod p), has both isotropic when it is an isometry.  When
they are isotropic and paired perfectly, the invariant metabolizers are
exactly A + ann(A) for the subgroups A of E_lam = (Z/p^e)^r, ann(A)
taken in E_mu.  The mutant sums at d = 3 are of this kind.  The search
then walks the subgroups of E_lam on the zero form, one walk over every
index p^j, and maps each through the eigenbases.  Every other invariant
search walks with the deck: a self-paired eigenvalue, a deck that does
not split or whose roots of x^d = 1 agree mod p, or a group that is not
homogeneous.

The search is exhaustive within a budget on the number of candidates:
the tails that pass the linear conditions of their node, one for a
forced row.  The eigenspace route counts the candidates of its walk on
E_lam.

Each search runs once per process for each form, effective deck (none
for the unrestricted search or a scalar deck) and budget, which together
decide its outcome: a functools.cache keeps the Metabolizers it found,
sorted by Hermite basis, and a later call gets a new list of those same
objects.  A search that raises is not kept.  Each search interns its
Hermite rows and reduces each distinct row mod the group once, so the
kept metabolizers share the few distinct rows and generator rows they
hold, and rendering one does no arithmetic.
"""

from functools import cache
from math import gcd, isqrt, prod

from . import linalg
from .cover import CharSpace, deck_eigenspaces
from .cyclo import factor
from .errors import (BudgetExceeded, InternalInvariantViolation,
                     UnsupportedShape)

DEFAULT_BUDGET = 10 ** 6


class Metabolizer:
    """Self-annihilating half-order subgroup, canonical generator rows.

    group, basis, generators and order are tuples and ints fixed at
    construction; to_json hands out the same tuples."""

    __slots__ = ("group", "basis", "generators", "order")

    def __init__(self, group, basis, reduced=None):
        """group: the invariant factors; basis: the Hermite rows of the
        subgroup lattice, one per factor.  Both hold ints already; the
        order is read off the Hermite diagonal, and generators are the
        basis rows reduced mod the group, zero rows dropped.  reduced maps
        a Hermite row to its reduction, or None for a zero row; the
        metabolizers of one search share it, so each distinct row is
        reduced once and its reduction is one shared tuple."""
        self.group = group = tuple(group)
        self.basis = basis = tuple(map(tuple, basis))
        if reduced is None:
            reduced = {}
        order = 1
        generators = []
        for i, row in enumerate(basis):
            order *= group[i] // row[i]
            if row not in reduced:
                r = tuple([x % f for x, f in zip(row, group)])
                reduced[row] = r if any(r) else None
            r = reduced[row]
            if r is not None:
                generators.append(r)
        self.generators = tuple(generators)
        self.order = order

    def __eq__(self, other):
        return (isinstance(other, Metabolizer)
                and self.group == other.group and self.basis == other.basis)

    def __hash__(self):
        return hash((self.group, self.basis))

    def __repr__(self):
        return "Metabolizer(%r)" % (list(self.generators),)

    def to_json(self):
        return {"group": self.group, "generators": self.generators,
                "order": self.order}


def _canonical_basis(rows, group):
    """Hermite basis of the lattice spanned by rows and diag(group)."""
    k = len(group)
    full = [list(r) for r in rows]
    full += [[group[i] if j == i else 0 for j in range(k)] for i in range(k)]
    hnf = linalg.hermite_normal_form(full)
    if len(hnf) != k:
        raise InternalInvariantViolation("subgroup lattice lost full rank")
    return hnf


def _sparse(M):
    """Each row of M as the tuple of its nonzero (column, entry) pairs."""
    return tuple(tuple((c, x) for c, x in enumerate(row) if x) for row in M)


def _apply(cols, v):
    """M v from the nonzero coordinates of v, cols the _sparse rows of the
    transpose of M: the sum of the columns of M weighted by v."""
    acc = [0] * len(v)
    for b, x in enumerate(v):
        if x:
            for a, y in cols[b]:
                acc[a] += x * y
    return acc


def _pairs_to_zero(gram, den, r, s):
    """Whether r N s = 0 (mod den), gram the _sparse rows of N."""
    acc = 0
    for a, x in enumerate(r):
        if x:
            for b, y in gram[a]:
                acc += x * y * s[b]
    return acc % den == 0


def enumerate_metabolizers(L, invariant_only=False, budget=DEFAULT_BUDGET):
    """All metabolizers of L, optionally only the deck-invariant ones,
    sorted by Hermite basis.

    Each row's tail is solved from the echelon form of its pairing
    congruences with the rows below it (and, with invariant_only, with
    their deck orbits) rather than searched; the module docstring has the
    details, and of the eigenspace route some invariant searches take.
    The budget counts candidate rows, those that pass these linear
    conditions; a search that needs more raises BudgetExceeded.
    Each search runs once per process; the module docstring says what is
    kept.
    """
    # a scalar deck, as on every double branched cover, leaves every
    # subgroup invariant, and its orbit forms are unit multiples of a
    # row's own form, so the plain search finds the same candidates
    deck = (L.deck if invariant_only and not _is_scalar(L.deck, L.group)
            else None)
    return list(_search(L.group, L.N, L.den, deck, budget))


@cache
def _search(group, N, den, deck, budget):
    """The Metabolizers of the form N / den on group, invariant under deck
    unless it is None, sorted by Hermite basis; kept for the life of the
    process, and an exception is not stored."""
    root = isqrt(prod(group))
    if root * root != prod(group):
        return ()
    pair = None if deck is None else _eigenspace_pair(group, N, den, deck)
    if pair is None:
        bases = _walk(group, N, den, (root,), deck, budget)
    else:
        bases = _paired_metabolizers(group, *pair, budget)
    reduced = {}
    return tuple(Metabolizer(group, basis, reduced)
                 for basis in sorted(bases))


def _walk(group, N, den, indices, deck, budget):
    """The subgroups of each given index that are isotropic for the form
    N / den on group and, when deck is not None, invariant under it: their
    Hermite bases in the order the walk finds them, one budget for all."""
    search = _Search(group, N, den, deck, budget)
    for index in indices:
        for diag in _diag_choices(group, index, 0, 1):
            search.fill(diag, len(group) - 1)
    return search.found


def _eigenspace_pair(group, N, den, deck):
    """(p, e, U, D) when the deck splits group = (Z/q)^k, q = p^e, into
    just two nonzero eigenspaces E_lam and E_mu, lam mu = 1 and lam^2 != 1
    (mod p), each isotropic and paired perfectly with the other: U is a
    basis of E_lam and D the basis of E_mu dual to it, <U_j, D_l> = 1/q
    when j = l and 0 otherwise.  Otherwise None.

    For a deck that is an isometry the eigenvalue condition makes E_lam
    and E_mu isotropic, since <x, y> = lam mu <x, y> on E_lam x E_mu; the
    Gram blocks are still checked, so any deck gets an exact answer.
    """
    q = group[0] if group else 1
    if any(f != q for f in group):
        return None
    try:
        primes = factor(q)
        if len(primes) != 1:
            return None
        (p, e), = primes
        eigen, split = deck_eigenspaces(deck, p, e, None)
    except (BudgetExceeded, UnsupportedShape):
        # a prime power q too large to factor, or a deck whose roots
        # agree mod p or whose order passes the cap: the walk decides
        return None
    live = [(lam, vecs) for lam, vecs in eigen.items() if vecs]
    if not split or len(live) != 2:
        return None
    (lam, U), (mu, W) = live
    if (lam * mu - 1) % p or (lam * lam - 1) % p == 0 or len(U) != len(W):
        return None

    rows = _sparse(N)

    def gram(X, Y):
        forms = [_linear_form(rows, den, x) for x in X]
        return [[sum(a * b for a, b in zip(form, y)) * (q // den) % q
                 for y in Y] for form in forms]

    if any(map(any, gram(U, U) + gram(W, W))):
        return None
    try:
        inv = linalg.modm_inverse(gram(U, W), q)
    except ZeroDivisionError:
        return None
    return p, e, U, linalg.modm_mat_mul(linalg.transpose(inv), W, q)


def _paired_metabolizers(group, p, e, U, D, budget):
    """The Hermite bases of the A + ann(A) for A <= E_lam, the route of
    _search when _eigenspace_pair gives (p, e, U, D).

    A subgroup of E_lam + E_mu is deck-invariant exactly when it is the sum
    of its parts in the two eigenspaces, and with both isotropic and of
    rank r it is a metabolizer exactly when its E_mu part is ann(A) in
    E_mu for its E_lam part A.  The A are the subgroups of (Z/q)^r in the
    coordinates of U, one walk on the zero form over every index p^j; the
    budget counts its candidates.  With H the Hermite basis of A, the
    coordinates c in D of ann(A) are those with H c = 0 (mod q): the
    columns of q H^-1, integral since the rows of H span q Z^r.
    """
    q, r = group[0], len(U)
    indices = [p ** j for j in range(r * e + 1)]
    found = []
    interned = {}
    for H in _walk((q,) * r, ((0,) * r,) * r, 1, indices, None, budget):
        cols = []
        for c in range(r):
            # H col = q e_c by back substitution; col[i] = 0 for i > c
            col = [0] * r
            for i in range(c, -1, -1):
                s = q if i == c else 0
                s -= sum(H[i][j] * col[j] for j in range(i + 1, c + 1))
                col[i] = s // H[i][i]
            cols.append(col)
        rows = (linalg.modm_mat_mul(H, U, q)
                + linalg.modm_mat_mul(cols, D, q))
        found.append(tuple(interned.setdefault(row, row) for row in
                           map(tuple, _canonical_basis(rows, group))))
    return found


def subspaces(n, m, p, budget=DEFAULT_BUDGET):
    """The m-dimensional subspaces of (Z/p)^n, p prime, each as the rows of
    its reduced echelon basis: ordered by pivot columns, as
    itertools.combinations orders them, then by the rows.

    They are the subgroups of index p^(n - m), all isotropic for the zero
    form; the rows of a Hermite basis whose diagonal entry is 1 are the
    echelon rows, and the others are p e_i.  The budget bounds the walk's
    candidates, as in enumerate_metabolizers.
    """
    bases = _walk((p,) * n, ((0,) * n,) * n, 1, (p ** (n - m),), None,
                  budget)
    bases.sort(key=lambda b: ([row[i] for i, row in enumerate(b)], b))
    return [tuple(row for i, row in enumerate(b) if row[i] == 1)
            for b in bases]


def subspace_count(n, m, p):
    """The number of m-dimensional subspaces of (Z/p)^n, the Gaussian
    binomial prod_{i<m} (p^(n-i) - 1) / (p^(i+1) - 1)."""
    num = den = 1
    for i in range(m):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _diag_choices(group, root, i, prod):
    """Hermite diagonals, d_i dividing f_i with product root, in
    lexicographic order."""
    if i == len(group):
        if prod == root:
            yield ()
        return
    f = group[i]
    for d in range(1, f + 1):
        if f % d == 0 and root % (prod * d) == 0:
            for rest in _diag_choices(group, root, i + 1, prod * d):
                yield (d,) + rest


class _Search:
    """One walk: the form, the rows fixed so far and, for each, the linear
    forms a later row must pair to zero with; found holds the Hermite
    bases of the finished subgroups.

    The form and the deck are read as sparse rows, and linear forms are
    computed only where a row above reads them, as the module docstring
    says.  Rows are tuples when they are built, and a forced row is the
    one tuple f_i e_i of the search.

    The recursion lives in methods and module-level generators, never in
    closures defined per node or per diagonal: such a closure refers to
    itself, and the cycle stays in memory until the garbage collector
    runs, which a caller that disables it for a whole batch of searches
    would not see happen.
    """

    def __init__(self, group, N, den, deck, budget):
        """The form N / den on group; deck: its deck for an invariant
        search, else None.  Both are kept as _sparse rows, the deck by its
        columns, which _apply reads."""
        k = len(group)
        self.group = group
        self.gram, self.den = _sparse(N), den
        self.deck = None if deck is None else _sparse(linalg.transpose(deck))
        self.budget = budget
        self.nodes = 0
        self.found = []
        self.rows = [None] * k
        self.forms = [None] * k
        self.forced = [(0,) * i + (f,) + (0,) * (k - i - 1)
                       for i, f in enumerate(group)]
        self.interned = {}
        self.diag = None
        self.free = 0

    def fill(self, diag, i):
        group, rows, gram, den = self.group, self.rows, self.gram, self.den
        k = len(group)
        if diag is not self.diag:
            # the first row that is not forced, k when all of them are
            self.diag = diag
            self.free = next((j for j, (d, f) in enumerate(zip(diag, group))
                              if d != f), k)
        if i < self.free:
            # rows 0..i are forced: the relation f_m e_m is row m minus its
            # tail, so the tail lies in the span of the rows below, where a
            # Hermite tail is 0; each is one candidate, f_m e_m, zero in the
            # group, with no form
            self.charge(i + 1)
            rows[:i + 1] = self.forced[:i + 1]
            self.finish(diag)
            return
        if diag[i] == group[i]:
            self.charge(1)
            rows[i] = self.forced[i]
            self.forms[i] = ()
            self.fill(diag, i - 1)
            return
        by_col = _echelon(self.system(diag, i), k - i - 1, den)
        if by_col is None:
            return
        rel = [0] * k
        rel[i] = group[i]
        g = group[i] // diag[i]
        below = group[i + 1:]
        # the relation f_i e_i = g row - g tail must lie in the span of rows
        # i..k-1; the rows below span every f_m e_m, so it does when
        # g t_m = 0 (mod f_m) for each m, always so when each f_m divides g,
        # and otherwise it is reduced
        check = any(g % f for f in below)
        head = (0,) * i + (diag[i],)
        deck = self.deck
        for tail in _tail_walk(by_col, diag[i + 1:], den):
            self.charge(1)
            row = head + tuple(tail)
            if not _pairs_to_zero(gram, den, row, row):
                continue
            orbit = (row,)
            if deck is not None:
                orbit = _deck_orbit(deck, group, row)
                if not all(_pairs_to_zero(gram, den, row, v)
                           for v in orbit[1:]):
                    continue
            rows[i] = row
            if (not check or all(g * t % f == 0 for t, f in zip(tail, below))
                    or _suffix_member(rows, diag, rel, i)):
                if i > self.free:
                    self.forms[i] = [_linear_form(gram, den, v)
                                     for v in orbit]
                self.fill(diag, i - 1)

    def finish(self, diag):
        """Keep the basis in rows, when the deck maps its subgroup into
        itself; its rows are interned."""
        rows = self.rows
        if self.deck is not None:
            for r in rows:
                if not _suffix_member(rows, diag, _apply(self.deck, r), 0):
                    return
        self.found.append(tuple([self.interned.setdefault(r, r)
                                 for r in rows]))

    def charge(self, count):
        """Count count candidates against the budget."""
        self.nodes += count
        if self.nodes > self.budget:
            raise BudgetExceeded(
                "metabolizer search visited more than %d candidates"
                % self.budget, self.budget)

    def system(self, diag, i):
        """The congruences on the tail of row i, one per linear form of
        the rows below it: <row, v> = diag[i] (N v)[i] + sum_m t_m (N v)[m].
        A tail column whose diagonal entry is 1 holds only t_m = 0, so its
        coefficient is zeroed."""
        den = self.den
        live = [d > 1 for d in diag[i + 1:]]
        system = set()
        for forms in self.forms[i + 1:]:
            for form in forms:
                system.add(tuple([x if on else 0
                                  for x, on in zip(form[i + 1:], live)])
                           + ((-diag[i] * form[i]) % den,))
        return system


def _is_scalar(deck, group):
    """Whether the deck acts as multiplication by one integer c: off the
    diagonal it is 0 mod the group, and the diagonal entries agree mod
    gcd(f_i, f_j) for every pair, so that by the Chinese remainder theorem
    one c matches them all."""
    k = len(group)
    for i in range(k):
        for j in range(k):
            if i != j and deck[i][j] % group[i]:
                return False
        for j in range(i):
            if (deck[i][i] - deck[j][j]) % gcd(group[i], group[j]):
                return False
    return True


def _linear_form(gram, den, v):
    """N v mod den, gram the _sparse rows of N: N is symmetric, so they are
    also the rows of its transpose."""
    return [s % den for s in _apply(gram, v)]


def _deck_orbit(cols, group, vec):
    """vec and its deck images, reduced mod the group, until one repeats;
    cols are the _sparse columns of the deck.

    An invariant subgroup holds all of them, so an isotropic one pairs
    each of them to zero with every element."""
    v = tuple(x % f for x, f in zip(vec, group))
    orbit = [v]
    seen = {v}
    while True:
        v = tuple([x % f for x, f in zip(_apply(cols, v), group)])
        if v in seen:
            return orbit
        orbit.append(v)
        seen.add(v)


def _echelon(system, width, den):
    """Echelon form of the congruences sum_c a_c t_c = b (mod den), each
    given as (a_0, ..., a_{width-1}, b).

    Returns by_col, where by_col[c] is the one congruence whose first
    nonzero coefficient is in column c, or None when no congruence starts
    there; or None when the system has no solution.  Congruences are
    combined only by unimodular integer row operations (Euclid on the
    column), so the solutions mod den stay the same for any den.
    """
    by_col = [None] * width
    for eq in system:
        eq = list(eq)
        c = 0
        while True:
            while c < width and eq[c] == 0:
                c += 1
            if c == width:
                if eq[width]:
                    return None
                break
            piv = by_col[c]
            if piv is None:
                by_col[c] = eq
                break
            while eq[c]:
                q = piv[c] // eq[c]
                piv, eq = eq, [(x - q * y) % den for x, y in zip(piv, eq)]
            by_col[c] = piv
    return by_col


def _tail_walk(by_col, bounds, den):
    """Tails t with 0 <= t_m < bounds[m] that solve the echelon system,
    choosing t_c for c from the last column to the first; the list t is
    reused between yields.

    A column without a congruence is free.  Otherwise the later columns
    are set, and its congruence reads g t_c = s (mod den): it has no
    solution unless h = gcd(g, den) divides s, and then the solutions
    are t_0 + (den / h) Z.  One generator walks all columns, keeping for
    each open column the next value to try; its step is den / h, or 1
    for a free column.
    """
    w = len(bounds)
    t = [0] * w
    if not w:
        yield t
        return
    # per congruence column: the congruence, h and (g / h)^-1 mod den / h
    solve = [None] * w
    steps = [1] * w
    for c, eq in enumerate(by_col):
        if eq is not None:
            h = gcd(eq[c], den)
            steps[c] = den // h
            solve[c] = (eq, h, pow(eq[c] // h, -1, den // h))
    nxt = [0] * w
    c = w
    while True:
        if c:
            # open column c - 1, the later columns being set
            c -= 1
            sol = solve[c]
            if sol is None:
                nxt[c] = 0
            else:
                eq, h, inv = sol
                s = eq[w]
                for m in range(c + 1, w):
                    s -= eq[m] * t[m]
                nxt[c] = bounds[c] if s % h else s // h * inv % steps[c]
        else:
            yield t
        # take the next value of the lowest open column that has one left
        while nxt[c] >= bounds[c]:
            c += 1
            if c == w:
                return
        t[c] = nxt[c]
        nxt[c] += steps[c]


def _suffix_member(rows, diag, vec, start):
    v = list(vec)
    k = len(v)
    for i in range(start, k):
        if v[i] % diag[i]:
            return False
        q = v[i] // diag[i]
        if q:
            v = [a - q * b for a, b in zip(v, rows[i])]
    return not any(v)


def vanishing_chars(L, A, p):
    """Z_p characters vanishing on A, with the deck eigenspace split."""
    idx = [i for i, f in enumerate(L.group) if f % p == 0]
    constraints = [[row[i] % p for i in idx] for row in A.basis]
    action = [[L.deck[i][j] % p for i in idx] for j in idx]
    # a direct sum carries no homology; the order of the action is then
    # its degree
    degree = L.homology.degree if L.homology is not None else None
    eigen, _ = deck_eigenspaces(action, p, 1, degree, constraints)
    return CharSpace(p, linalg.modp_kernel(constraints, p), eigen)


def span_vectors(basis, p, budget=DEFAULT_BUDGET):
    """The nonzero vectors of the row span of an independent basis mod p,
    in lexicographic order of their coefficients.

    Each vector is the previous one plus one row: the next coefficient
    vector raises c_j by one and wraps every later c_m from p - 1 to 0,
    which adds row m once more, so the step adds the sum of rows j..dim-1.
    """
    dim = len(basis)
    if p ** dim > budget:
        raise BudgetExceeded("span of dimension %d exceeds the budget" % dim,
                             budget)
    n = len(basis[0]) if basis else 0
    steps = [None] * dim
    acc = [0] * n
    for j in range(dim - 1, -1, -1):
        acc = [(a + b) % p for a, b in zip(acc, basis[j])]
        steps[j] = acc
    coeffs = [0] * dim
    vec = [0] * n
    for _ in range(p ** dim - 1):
        j = dim - 1
        while coeffs[j] == p - 1:
            coeffs[j] = 0
            j -= 1
        coeffs[j] += 1
        vec = [(a + b) % p for a, b in zip(vec, steps[j])]
        yield tuple(vec)


def _weight(vec):
    return sum(1 for x in vec if x)


def find_odd_char(basis, n, p=7, budget=DEFAULT_BUDGET):
    """A vector with an odd number of nonzero entries in the span, or None.

    None comes with an exhaustive certificate; spans wider than half the
    ambient dimension always produce a vector constructively.
    """
    rows = [[x % p for x in row] for row in basis]
    for row in rows:
        if len(row) != n:
            raise ValueError("basis width does not match the summand count")
    if rows:
        red, pivots = linalg.modp_rref(rows, p)
        red = [r for r in red if any(r)]
    else:
        red, pivots = [], []
    m = len(red)
    if m == 0:
        return None
    for row in red:
        if _weight(row) % 2:
            return tuple(row)
    # all reduced rows even, so every non-pivot block has odd weight and
    # in particular is nonzero
    free = [j for j in range(n) if j not in pivots]
    if not free:
        raise InternalInvariantViolation("even pivot rows must have free part")
    B = [[row[j] for j in free] for row in red]
    dep = linalg.modp_kernel(linalg.transpose(B), p)
    if dep:
        s = list(dep[0])
        combo = [sum(s[i] * red[i][j] for i in range(m)) % p for j in range(n)]
        if _weight(s) % 2:
            if _weight(combo) % 2 == 0:
                raise InternalInvariantViolation("parity argument failed")
            return tuple(combo)
        j = next(i for i in range(m) if s[i])
        f = next(c for c in range(1, p) if c != s[j])
        vec = [(combo[c] - f * red[j][c]) % p for c in range(n)]
        if _weight(vec) % 2 == 0:
            raise InternalInvariantViolation("parity argument failed")
        return tuple(vec)
    # square nonsingular reduced block: certify by exhausting the span
    return next((v for v in span_vectors(red, p, budget) if _weight(v) % 2),
                None)


def admissible_pair(a, b, signs, p=7):
    """Orthogonality constraint binding the two eigenspace halves of a
    vanishing character: sum of sign-weighted products is zero mod p."""
    if not (len(a) == len(b) == len(signs)):
        raise ValueError("coordinate vectors and signs must align")
    return sum(e * x * y for e, x, y in zip(signs, a, b)) % p == 0
