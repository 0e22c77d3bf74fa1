"""Diagram parsing and metacyclic labeling counts.

Expected labeling counts and class counts were frozen from a brute-force
enumeration over all n^arcs label vectors, run against arc structures and
crossing relations extracted by hand from the PD codes below (independently
of parse_pd).  The granny class structure is forced: its nine translation
classes are all killed by 3, so the quotient module must be Z3 + Z3.
"""

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from knotconcord.cover import branched_cover
from knotconcord.diagram import (Diagram, MetacyclicGroup, classify_characters,
                                 labeling_space, parse_pd, _cyclic_orders,
                                 _relation_rows)
from knotconcord.errors import IncidenceError, ParseError, PreconditionError
from knotconcord.seifert import SeifertMatrix, torus_matrix

TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
FIG8 = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"
# connected sum of two trefoils, built by splicing a second copy into edge 2
GRANNY = ("X[1,10,2,11] X[9,12,10,1] X[11,8,12,9] "
          "X[2,5,3,6] X[4,7,5,8] X[6,3,7,4]")
# trefoil with a kink added on the edge entering the first crossing
TREFOIL_R1 = "X[1,3,2,2] X[3,6,4,7] X[5,8,6,1] X[7,4,8,5]"
# trefoil with one arc pushed over a neighbouring one and back
TREFOIL_R2 = "X[1,6,2,7] X[5,10,6,1] X[9,4,10,5] X[7,3,8,2] X[8,3,9,4]"
# unknot after one R2 move
UNKNOT_R2 = "X[1,4,2,3] X[3,2,4,1]"

FIG8_MATRIX = SeifertMatrix([[1, 1], [0, -1]])


# ---------------------------------------------------------------------------
# parsing


def test_parse_trefoil():
    D = parse_pd(TREFOIL)
    assert len(D.crossings) == 3
    assert D.arc_count == 3
    assert D.arcs == ((1, 6), (2, 3), (4, 5))
    assert D.writhe == -3
    assert D.crossings == ((2, 0, 1, -1), (0, 1, 2, -1), (1, 2, 0, -1))


def test_parse_figure8():
    D = parse_pd(FIG8)
    assert len(D.crossings) == 4
    assert D.arc_count == 4
    # two positive and two negative crossings
    assert D.writhe == 0
    assert sorted(c[3] for c in D.crossings) == [-1, -1, 1, 1]


def test_parse_granny():
    D = parse_pd(GRANNY)
    assert len(D.crossings) == 6
    assert D.arc_count == 6
    assert D.writhe == -6


def test_parse_unknot():
    D = parse_pd("")
    assert D.crossings == ()
    assert D.arc_count == 1


def test_parse_kink_merges_loop_edges():
    # the loop edge of a kink meets its crossing twice; that is legal
    D = parse_pd(TREFOIL_R1)
    assert len(D.crossings) == 4
    assert D.arc_count == 4
    assert D.writhe == -2


def test_parse_whitespace_and_annotations():
    D = parse_pd("  X[1,4,2,5]\n\tX[3,6,4,1]   X[5,2,6,3]\n")
    assert D.arc_count == 3
    # explicit annotation overrides the numbering-derived sign
    flipped = parse_pd("X+[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
    assert flipped.crossings[0][3] == 1
    assert flipped.writhe == -1


def test_parse_one_crossing_kink_needs_annotation():
    # with two edges the over direction cannot be read off the numbering
    with pytest.raises(ParseError):
        parse_pd("X[1,2,2,1]")
    D = parse_pd("X+[1,2,2,1]")
    assert D.arc_count == 1
    assert D.writhe == 1


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as e:
        parse_pd("X[1,4,2,5] Y[3,6,4,1]")
    assert e.value.position == 11
    with pytest.raises(ParseError):
        parse_pd("X[1,4,2]")
    with pytest.raises(ParseError):
        parse_pd("X[1,4,2,5,6]")


def test_incidence_error_repeated_slot():
    # edge 1 appears three times, edge 3 once
    with pytest.raises(IncidenceError) as e:
        parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,1]")
    assert e.value.arc == 1


def test_incidence_error_bad_numbering():
    with pytest.raises(IncidenceError):
        parse_pd("X[1,8,2,9] X[3,12,4,1] X[9,2,12,3]")
    # under strand must leave on the successor edge
    with pytest.raises(IncidenceError):
        parse_pd("X[1,4,3,5] X[2,6,4,1] X[5,3,6,2]")


def test_incidence_error_arc_with_two_starts():
    with pytest.raises(IncidenceError):
        parse_pd("X[1,3,2,4] X[1,4,2,3]")


# ---------------------------------------------------------------------------
# groups and relations


def test_metacyclic_group_validation():
    G = MetacyclicGroup(3, 49, 30)
    assert pow(30, 3, 49) == 1
    assert G.qinv == 18
    assert MetacyclicGroup.dihedral(5) == MetacyclicGroup(2, 5, 4)
    assert MetacyclicGroup(2, 5, -1).q == 4
    with pytest.raises(PreconditionError):
        MetacyclicGroup(2, 4, 2)      # q not a unit
    with pytest.raises(PreconditionError):
        MetacyclicGroup(3, 5, 2)      # 2^3 = 3 mod 5
    with pytest.raises(PreconditionError):
        MetacyclicGroup(0, 5, 1)


def test_relation_row_instance_q30():
    # positive crossing, overstrand arc 0 acting on arc 1 -> arc 2:
    # the row must read 29*b_over - 30*b_in + b_out
    D = Diagram(crossings=((0, 1, 2, 1),), arcs=((1,), (2,), (3,)))
    G = MetacyclicGroup(3, 49, 30)
    assert _relation_rows(D, G) == [[29, -30, 1]]
    # a negative crossing uses the inverse twist
    Dn = Diagram(crossings=((0, 1, 2, -1),), arcs=((1,), (2,), (3,)))
    assert _relation_rows(Dn, G) == [[17, -18, 1]]


def test_relation_row_dihedral_specialization():
    D = Diagram(crossings=((0, 1, 2, 1), (0, 1, 2, -1)),
                arcs=((1,), (2,), (3,)))
    G = MetacyclicGroup.dihedral(7)
    # b_out = 2 b_over - b_in regardless of sign
    for row in _relation_rows(D, G):
        assert [x % 7 for x in row] == [-2 % 7, 1, 1]


def test_constant_labelings_always_solve():
    G = MetacyclicGroup(3, 49, 30)
    for text in [TREFOIL, FIG8, GRANNY, TREFOIL_R1]:
        for row in _relation_rows(parse_pd(text), G):
            assert sum(row) == 0


# ---------------------------------------------------------------------------
# labeling counts (frozen from brute force)


def test_trefoil_fox_colorings():
    L = labeling_space(parse_pd(TREFOIL), MetacyclicGroup.dihedral(3))
    assert L.size == 9
    assert L.classes_mod_translation == 3
    assert L.invariant_factors == (3, 3)
    assert L.translation_order == 3
    assert L.scaling_units == 2


def test_figure8_fox_colorings():
    L = labeling_space(parse_pd(FIG8), MetacyclicGroup.dihedral(5))
    assert L.size == 25
    assert L.classes_mod_translation == 5
    assert L.invariant_factors == (5, 5)


def test_granny_labelings():
    L = labeling_space(parse_pd(GRANNY), MetacyclicGroup.dihedral(3))
    assert L.size == 27
    assert L.classes_mod_translation == 9


def test_unknot_labelings_are_constants():
    for G in [MetacyclicGroup.dihedral(3), MetacyclicGroup(3, 49, 30)]:
        L = labeling_space(parse_pd(""), G)
        assert L.size == G.n
        assert L.classes_mod_translation == 1


def test_trefoil_metacyclic_49():
    # H_1 of the 3-fold cover of the trefoil has no 7-torsion, so only
    # constant labelings survive
    L = labeling_space(parse_pd(TREFOIL), MetacyclicGroup(3, 49, 30))
    assert L.size == 49
    assert L.invariant_factors == (49,)


def test_figure8_metacyclic_counts():
    assert labeling_space(parse_pd(FIG8), MetacyclicGroup(4, 5, 2)).size == 5
    assert labeling_space(parse_pd(FIG8), MetacyclicGroup(4, 15, 2)).size == 15


def test_labeling_space_report_shape():
    L = labeling_space(parse_pd(TREFOIL), MetacyclicGroup.dihedral(3))
    j = L.to_json()
    assert j["group"] == {"d": 2, "n": 3, "q": 2}
    assert j["size"] == 9
    assert j["invariant_factors"] == [3, 3]


# ---------------------------------------------------------------------------
# character classification


def test_classify_trefoil_z3():
    C = classify_characters(parse_pd(TREFOIL), MetacyclicGroup.dihedral(3))
    assert C.order == 3
    assert C.invariant_factors == (3,)


def test_classify_figure8_z5():
    C = classify_characters(parse_pd(FIG8), MetacyclicGroup.dihedral(5))
    assert C.invariant_factors == (5,)


def test_classify_granny_z3_z3():
    C = classify_characters(parse_pd(GRANNY), MetacyclicGroup.dihedral(3))
    assert C.order == 9
    assert C.invariant_factors == (3, 3)


def test_classify_unknot_trivial():
    C = classify_characters(parse_pd(""), MetacyclicGroup.dihedral(7))
    assert C.order == 1
    assert C.invariant_factors == ()


def test_classify_trefoil_metacyclic_trivial():
    C = classify_characters(parse_pd(TREFOIL), MetacyclicGroup(3, 49, 30))
    assert C.order == 1


def test_classify_requires_prime_power():
    with pytest.raises(PreconditionError) as e:
        classify_characters(parse_pd(FIG8), MetacyclicGroup(4, 15, 2))
    assert str(e.value) == ("character classification needs a prime power "
                            "modulus, got 15")
    # prime powers are fine
    classify_characters(parse_pd(FIG8), MetacyclicGroup(2, 9, 8))


def test_classify_accepts_exactly_prime_powers():
    D = parse_pd(TREFOIL)
    for n in range(2, 200):
        G = MetacyclicGroup.dihedral(n) if n > 2 else MetacyclicGroup(2, 2, 1)
        if len(sp.factorint(n)) == 1:
            classify_characters(D, G)
        else:
            with pytest.raises(PreconditionError):
                classify_characters(D, G)


def test_classify_consistent_with_labeling_count():
    for text, G in [(TREFOIL, MetacyclicGroup.dihedral(3)),
                    (FIG8, MetacyclicGroup.dihedral(5)),
                    (GRANNY, MetacyclicGroup.dihedral(3)),
                    (TREFOIL, MetacyclicGroup(3, 49, 30))]:
        D = parse_pd(text)
        assert (classify_characters(D, G).order * G.n
                == labeling_space(D, G).size)


# ---------------------------------------------------------------------------
# invariants


def test_labeling_count_matches_double_cover():
    # |labelings| = p * |H_1(M_2; Z_p)| for dihedral Z_p labelings
    from math import gcd
    for V, text, p in [(torus_matrix(2, 3), TREFOIL, 3),
                       (FIG8_MATRIX, FIG8, 5),
                       (torus_matrix(2, 3), TREFOIL, 7),
                       (FIG8_MATRIX, FIG8, 3),
                       (torus_matrix(2, 3).block_sum(torus_matrix(2, 3)),
                        GRANNY, 3)]:
        H = branched_cover(V, 2)
        hp = 1
        for f in H.factors:
            hp *= gcd(f, p)
        L = labeling_space(parse_pd(text), MetacyclicGroup.dihedral(p))
        assert L.size == p * hp


def test_reidemeister_invariance():
    for G in [MetacyclicGroup.dihedral(3), MetacyclicGroup.dihedral(5),
              MetacyclicGroup(3, 49, 30)]:
        base = labeling_space(parse_pd(TREFOIL), G)
        for text in [TREFOIL_R1, TREFOIL_R2]:
            moved = labeling_space(parse_pd(text), G)
            assert moved.size == base.size
            assert moved.invariant_factors == base.invariant_factors
        c_base = classify_characters(parse_pd(TREFOIL), G)
        for text in [TREFOIL_R1, TREFOIL_R2]:
            c_moved = classify_characters(parse_pd(text), G)
            assert c_moved.invariant_factors == c_base.invariant_factors


def test_reidemeister_unknot_pair():
    G = MetacyclicGroup.dihedral(7)
    assert labeling_space(parse_pd(UNKNOT_R2), G).size == 7
    assert classify_characters(parse_pd(UNKNOT_R2), G).order == 1


def test_classify_order_divides_cover_homology():
    from math import gcd
    cases = [(torus_matrix(2, 3), TREFOIL, MetacyclicGroup.dihedral(3)),
             (FIG8_MATRIX, FIG8, MetacyclicGroup.dihedral(5)),
             (torus_matrix(2, 3).block_sum(torus_matrix(2, 3)), GRANNY,
              MetacyclicGroup.dihedral(3)),
             (torus_matrix(2, 3), TREFOIL, MetacyclicGroup(3, 49, 30))]
    for V, text, G in cases:
        H = branched_cover(V, G.d)
        hn = 1
        for f in H.factors:
            hn *= gcd(f, G.n ** 10)
        C = classify_characters(parse_pd(text), G)
        assert hn % C.order == 0


# ---------------------------------------------------------------------------
# invariant factors off the Smith diagonal


def _regrouped(gs):
    """Invariant factors of the product of cyclic groups of orders gs, by
    splitting each order into prime powers and regrouping them into an
    ascending divisibility chain: the route labeling_space took before it
    read them off the Smith diagonal."""
    primes = {}
    for g in gs:
        for p, e in sp.factorint(g).items():
            primes.setdefault(p, []).append(e)
    width = max((len(v) for v in primes.values()), default=0)
    factors = []
    for i in range(width):
        f = 1
        for p, exps in primes.items():
            exps = sorted(exps, reverse=True)
            if i < len(exps):
                f *= p ** exps[i]
        factors.append(f)
    return tuple(sorted(factors))


@settings(max_examples=400, deadline=None)
@given(st.integers(2, 60), st.integers(1, 5), st.data())
def test_cyclic_orders_are_a_divisibility_chain(n, cols, data):
    rows = data.draw(st.lists(st.lists(st.integers(-2 * n, 2 * n),
                                       min_size=cols, max_size=cols),
                              max_size=5))
    gs = _cyclic_orders(rows, cols, n)
    assert len(gs) == cols
    assert all(b % a == 0 for a, b in zip(gs, gs[1:]))
    assert tuple(g for g in gs if g > 1) == _regrouped(gs)


def test_invariant_factors_match_regrouping():
    groups = [MetacyclicGroup.dihedral(3), MetacyclicGroup.dihedral(5),
              MetacyclicGroup(2, 9, 8), MetacyclicGroup(3, 49, 30),
              MetacyclicGroup(4, 15, 2), MetacyclicGroup(2, 45, 44),
              MetacyclicGroup(2, 100, 99)]
    for text in [TREFOIL, FIG8, GRANNY, TREFOIL_R1, TREFOIL_R2]:
        D = parse_pd(text)
        for G in groups:
            rows = _relation_rows(D, G)
            gs = _cyclic_orders(rows, D.arc_count, G.n)
            L = labeling_space(D, G)
            assert L.invariant_factors == _regrouped(gs)
            assert L.scaling_units == sp.totient(G.n)
            if len(sp.factorint(G.n)) == 1:
                gs = _cyclic_orders([r[:-1] for r in rows], D.arc_count - 1,
                                    G.n)
                C = classify_characters(D, G)
                assert C.invariant_factors == _regrouped(gs)
