"""Planar diagram codes and metacyclic labeling counts.

A diagram is given as text: whitespace separated crossing entries

    X[a,b,c,d]   or   X+[a,b,c,d]   or   X-[a,b,c,d]

where the four numbers are edge labels.  Edges are the segments between
consecutive crossing points, numbered 1..2n consecutively along the knot's
orientation.  The slots are read counterclockwise around the crossing
starting from the incoming under-edge, so a is the under-edge entering the
crossing, c = a's successor is the under-edge leaving it, and {b, d} is the
over-strand pair.  The crossing sign is taken from the over direction (over
running d to b is positive); an explicit + or - annotation overrides that
inference, which is what to use for codes whose edge numbering does not
follow the orientation convention, or for the one-crossing kink where the
direction cannot be read off the numbers.

Arcs in the Wirtinger sense are maximal overpasses.  They are recovered by
merging the two over-edges of every crossing; a knot diagram with n >= 1
crossings has exactly n arcs, each starting at the undercrossing of exactly
one crossing.

Labelings assign b_i in Z_n to arc i so that meridians can be sent to
r^{b_i} t in the metacyclic group <t, r | t^d, r^n, t r t^-1 = r^q>.  The
Wirtinger relation x_k = x_i x_j x_i^-1 (overstrand i, positive crossing)
translates to b_k = q b_j + (1-q) b_i; a negative crossing uses q^-1 in
place of q.  Dihedral q = -1 recovers Fox colorings, b_k = 2 b_i - b_j.
"""

import re
from collections import namedtuple
from math import gcd

from . import linalg
from .cyclo import euler_phi, factor
from .errors import (IncidenceError, InternalInvariantViolation, ParseError,
                     PreconditionError)


class MetacyclicGroup(namedtuple("MetacyclicGroup", "d n q")):
    """Semidirect product Z_d acting on Z_n, the generator twisting by q."""

    __slots__ = ()

    def __new__(cls, d, n, q):
        if d < 1 or n < 2:
            raise PreconditionError("metacyclic group needs d >= 1, n >= 2")
        q %= n
        if gcd(q, n) != 1:
            raise PreconditionError(f"twist q = {q} is not a unit mod {n}")
        if pow(q, d, n) != 1:
            raise PreconditionError(
                f"twist must satisfy q^d = 1 mod n; got q = {q}, "
                f"d = {d}, n = {n}")
        return super().__new__(cls, d, n, q)

    @classmethod
    def dihedral(cls, p):
        return cls(2, p, p - 1)

    @property
    def qinv(self):
        return pow(self.q, -1, self.n)

    def to_json(self):
        return {"d": self.d, "n": self.n, "q": self.q}


class Diagram(namedtuple("Diagram", "crossings arcs")):
    """Validated crossing data.

    crossings holds (over arc, incoming under arc, outgoing under arc, sign)
    with arc ids 0..arc_count-1; arcs lists the edge labels making up each
    arc.  A zero-crossing diagram is the round unknot with a single arc.
    """

    __slots__ = ()

    @property
    def arc_count(self):
        return len(self.arcs)

    @property
    def writhe(self):
        return sum(c[3] for c in self.crossings)


# edge labels are ASCII digits: \d would also match non-ASCII decimal digits
_ENTRY = re.compile(
    r"[Xx]([+-]?)\[(-?[0-9]+),(-?[0-9]+),(-?[0-9]+),(-?[0-9]+)\]\Z")


def parse_pd(text):
    """Parse planar diagram text into a validated Diagram."""
    quads = []
    for m in re.finditer(r"\S+", text):
        token = m.group(0)
        em = _ENTRY.match(token.replace(" ", ""))
        if em is None:
            raise ParseError(
                f"bad crossing entry {token!r} at position {m.start()}",
                position=m.start())
        annot = em.group(1)
        edges = tuple(int(em.group(i)) for i in range(2, 6))
        quads.append((edges, 1 if annot == "+" else -1 if annot == "-" else 0))

    n = len(quads)
    if n == 0:
        return Diagram(crossings=(), arcs=((),))

    counts = {}
    for edges, _ in quads:
        for e in edges:
            counts[e] = counts.get(e, 0) + 1
    for e in sorted(counts):
        if counts[e] != 2:
            raise IncidenceError(
                f"edge {e} appears {counts[e]} times, expected 2", arc=e)
    if sorted(counts) != list(range(1, 2 * n + 1)):
        missing = min(set(range(1, 2 * n + 1)) - set(counts))
        raise IncidenceError(
            f"edges must be numbered 1..{2 * n}; {missing} is missing",
            arc=missing)

    def succ(e):
        return e % (2 * n) + 1

    # union-find on edges: the over pair at each crossing is one arc
    parent = list(range(2 * n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    crossings = []
    for (a, b, c, d), annot in quads:
        if succ(a) != c:
            raise IncidenceError(
                f"under strand at X[{a},{b},{c},{d}] must leave on edge "
                f"{succ(a)}, not {c}", arc=a)
        if annot != 0:
            sign = annot
        elif succ(d) == b and succ(b) != d:
            sign = 1
        elif succ(b) == d and succ(d) != b:
            sign = -1
        else:
            raise ParseError(
                f"crossing sign of X[{a},{b},{c},{d}] is ambiguous; "
                "annotate the entry with X+ or X-")
        parent[find(b)] = find(d)
        crossings.append((a, b, c, d, sign))

    reps = sorted({find(e) for e in range(1, 2 * n + 1)})
    arc_of = {}
    arcs = [[] for _ in reps]
    for e in range(1, 2 * n + 1):
        i = reps.index(find(e))
        arc_of[e] = i
        arcs[i].append(e)

    out = tuple((arc_of[b], arc_of[a], arc_of[c], sign)
                for a, b, c, d, sign in crossings)

    starts = {}
    for c in out:
        starts[c[2]] = starts.get(c[2], 0) + 1
    for i in range(len(arcs)):
        if starts.get(i, 0) != 1:
            raise IncidenceError(
                f"arc {i} must begin at exactly one undercrossing, "
                f"found {starts.get(i, 0)}", arc=i)

    return Diagram(crossings=out, arcs=tuple(tuple(a) for a in arcs))


def _relation_rows(D, G):
    """Integer relation matrix, one row per crossing; rows sum to zero."""
    rows = []
    for over, uin, uout, sign in D.crossings:
        qq = G.q if sign > 0 else G.qinv
        row = [0] * D.arc_count
        row[uout] += 1
        row[uin] -= qq
        row[over] -= 1 - qq
        rows.append(row)
    return rows


def _cyclic_orders(rows, cols, n):
    """Orders of the cyclic pieces of {x in Z_n^cols : rows . x = 0}: the
    gcds with n of the Smith diagonal d_1 | d_2 | ..., padded with n.  They
    form an ascending divisibility chain, so the entries above 1 are the
    invariant factors."""
    if not rows or cols == 0:
        return [n] * cols
    rows = [[x % n for x in row] for row in rows]
    diag = linalg.smith_diagonal(rows)
    gs = [gcd(d, n) for d in diag]
    gs += [n] * (cols - len(diag))
    return gs


class LabelingSpace(namedtuple(
        "LabelingSpace", "group arc_count relation_count size "
        "invariant_factors translation_order classes_mod_translation "
        "scaling_units")):
    """Solution module of the crossing relations over Z_n."""

    __slots__ = ()

    def to_json(self):
        return {"group": self.group.to_json(),
                "arc_count": self.arc_count,
                "relation_count": self.relation_count,
                "size": self.size,
                "invariant_factors": list(self.invariant_factors),
                "translation_order": self.translation_order,
                "classes_mod_translation": self.classes_mod_translation,
                "scaling_units": self.scaling_units}


def labeling_space(D, G):
    """Solve the labeling relations of D over Z_n.

    Constant labelings always solve, so the translation action x -> x + c
    is free and the class count after translation is size / n.  Scaling by
    any unit of Z_n also preserves solutions; both reductions are reported,
    only translation is quotiented out by classify_characters.
    """
    rows = _relation_rows(D, G)
    n = G.n
    for row in rows:
        if sum(row) != 0:
            raise InternalInvariantViolation(
                "constant labelings must satisfy every crossing relation")
    gs = _cyclic_orders(rows, D.arc_count, n)
    size = 1
    for g in gs:
        size *= g
    if size % n != 0:
        raise InternalInvariantViolation(
            "translation subgroup must sit inside the solution module")
    return LabelingSpace(group=G,
                         arc_count=D.arc_count,
                         relation_count=len(rows),
                         size=size,
                         invariant_factors=tuple(g for g in gs if g > 1),
                         translation_order=n,
                         classes_mod_translation=size // n,
                         scaling_units=euler_phi(n))


class CharacterModule(namedtuple("CharacterModule",
                                 "group order invariant_factors")):
    """Labelings modulo translation, as a Z_n-module."""

    __slots__ = ()

    def to_json(self):
        return {"group": self.group.to_json(),
                "order": self.order,
                "invariant_factors": list(self.invariant_factors)}


def classify_characters(D, G):
    """Labelings of D modulo global translation.

    Requires n to be a prime power so that the quotient module decomposition
    is unambiguous over Z_n.  Since the relation rows sum to zero, labelings
    modulo translation are exactly the solutions after eliminating one arc
    coordinate, so the quotient is computed by dropping a column.
    """
    n = G.n
    if len(factor(n)) != 1:
        raise PreconditionError(
            f"character classification needs a prime power modulus, "
            f"got {n}")

    rows = [row[:-1] for row in _relation_rows(D, G)]
    gs = _cyclic_orders(rows, D.arc_count - 1, n)
    order = 1
    for g in gs:
        order *= g
    return CharacterModule(group=G,
                           order=order,
                           invariant_factors=tuple(g for g in gs if g > 1))
