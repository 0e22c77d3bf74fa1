"""Representation-arc signature tests.

Interval endpoints for small a were enumerated by hand; agreement values
against the Seifert-matrix signature are the cross-check of two
independent definitions, and the t = 1/2 values were additionally
confirmed with floating-point eigenvalue counts.
"""

import random
from fractions import Fraction as F

import pytest

from knotconcord.errors import EndpointCollision, PreconditionError, SingularAtT
from knotconcord.seifert import lt_signature, torus_matrix
from knotconcord.su2 import RepArc, count_signature, verify_herald


def rep_arcs(a):
    """Complete arc list for the (-a, a+1) torus knot group, ordered by
    (m, n): the oracle count_signature is held to.  Empty for a = 1: no
    interior m exists."""
    if not isinstance(a, int) or a < 1:
        raise PreconditionError("torus parameter must be a positive integer")
    return [RepArc(a, m, n) for m in range(1, a) for n in range(1, a + 1)
            if (m - n) % 2 == 0]


def _count_arcs(arcs, t):
    """Twice the number of arcs of an explicit list that contain t."""
    for arc in arcs:
        if t in (arc.lo, arc.hi):
            raise EndpointCollision(
                "t = %s is an endpoint of the (m, n) = (%d, %d) arc"
                % (t, arc.m, arc.n))
    return 2 * sum(1 for arc in arcs if arc.lo < t < arc.hi)


def test_rep_arcs_smallest_cases():
    assert rep_arcs(1) == []
    arcs = rep_arcs(2)
    assert [(a.m, a.n) for a in arcs] == [(1, 1)]
    assert (arcs[0].lo, arcs[0].hi) == (F(1, 6), F(5, 6))
    assert not arcs[0].folded


def test_rep_arcs_a3_intervals():
    arcs = rep_arcs(3)
    assert [(a.m, a.n) for a in arcs] == [(1, 1), (1, 3), (2, 2)]
    table = {(a.m, a.n): (a.lo, a.hi, a.folded) for a in arcs}
    assert table[(1, 1)] == (F(1, 12), F(7, 12), False)
    # raw upper angle 13/12 reflects to 11/12
    assert table[(1, 3)] == (F(5, 12), F(11, 12), True)
    assert table[(2, 2)] == (F(1, 6), F(5, 6), True)


def test_rep_arcs_parity_and_ranges():
    for a in range(2, 9):
        for arc in rep_arcs(a):
            assert 0 < arc.m < a
            assert 0 < arc.n < a + 1
            assert (arc.m - arc.n) % 2 == 0
            assert 0 <= arc.lo < arc.hi <= 1


def test_rep_arcs_rejects_bad_input():
    with pytest.raises(PreconditionError):
        rep_arcs(0)
    with pytest.raises(PreconditionError):
        rep_arcs(-3)


def test_count_signature_examples():
    assert count_signature(2, F(1, 5)) == 2
    assert count_signature(2, F(1, 10)) == 0
    assert count_signature(5, F(1, 2)) == 16
    assert count_signature(5, F(1, 2)) == lt_signature(torus_matrix(-5, 6),
                                                       F(1, 2))


def _outcome(count, *args):
    try:
        return count(*args)
    except EndpointCollision as e:
        return "collision: %s" % e


def test_integer_count_matches_arc_list():
    # count_signature counts on the scale a(a+1) without building arcs; the
    # arc list is the oracle.  The grids k/(2N), N = a(a+1), hold every
    # arc endpoint; k/(N+1) and k/97 mostly miss them.
    collisions = counts = 0
    for a in range(1, 31):
        arcs = rep_arcs(a)
        N = a * (a + 1)
        for den in (2 * N, N + 1, 97):
            for k in range(1, den, max(1, den // 40)):
                t = F(k, den)
                want = _outcome(_count_arcs, arcs, t)
                assert _outcome(count_signature, a, t) == want, (a, t)
                if isinstance(want, str):
                    collisions += 1
                else:
                    counts += 1
    assert collisions > 100 and counts > 1000


def test_count_signature_endpoint_collision():
    with pytest.raises(EndpointCollision):
        count_signature(2, F(1, 6))
    with pytest.raises(EndpointCollision):
        count_signature(2, F(5, 6))
    with pytest.raises(EndpointCollision):
        count_signature(3, F(11, 12))


def test_count_signature_domain():
    for t in (F(0), F(1), F(3, 2), F(-1, 4)):
        with pytest.raises(PreconditionError):
            count_signature(2, t)


def test_count_signature_symmetric():
    rng = random.Random(7)
    for a in range(2, 7):
        for _ in range(20):
            t = F(rng.randrange(1, 200), 200)
            try:
                left = count_signature(a, t)
            except EndpointCollision:
                continue
            assert left == count_signature(a, 1 - t)


def test_count_matches_matrix_signature_small():
    for a in (2, 3):
        V = torus_matrix(-a, a + 1)
        for k in range(1, 40):
            t = F(k, 40)
            try:
                expected = lt_signature(V, t)
            except SingularAtT:
                with pytest.raises(EndpointCollision):
                    count_signature(a, t)
                continue
            assert count_signature(a, t) == expected


def test_count_matches_matrix_signature_spot():
    rng = random.Random(11)
    for a in (4, 5):
        V = torus_matrix(-a, a + 1)
        done = 0
        while done < 4:
            t = F(rng.randrange(1, 60), 60)
            try:
                expected = lt_signature(V, t)
                got = count_signature(a, t)
            except (SingularAtT, EndpointCollision):
                continue
            assert got == expected
            done += 1


def test_one_odd_family_chains_from_window_edge():
    # first arc starts exactly at the window edge; consecutive (1, odd)
    # arcs overlap, which is what the covering argument needs
    for a in range(2, 9):
        fam = [arc for arc in rep_arcs(a) if arc.m == 1 and arc.n % 2 == 1]
        fam.sort(key=lambda arc: arc.n)
        assert fam[0].lo == F(1, a * (a + 1))
        for prev, nxt in zip(fam, fam[1:]):
            assert nxt.lo < prev.hi
        assert max(arc.hi for arc in fam) > F(1, 2)


def test_verify_herald_window_positive():
    for a in range(2, 7):
        rep = verify_herald(a, 100)
        assert rep["all_positive"]
        assert rep["covers_window"]
        assert rep["min_count"] >= 2
        assert rep["samples_checked"] + rep["skipped_endpoints"] == 100
        assert rep["failures"] == []


def test_verify_herald_rejects_bad_input():
    with pytest.raises(PreconditionError):
        verify_herald(1, 10)
    with pytest.raises(PreconditionError):
        verify_herald(3, 0)
