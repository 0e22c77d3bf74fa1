"""Tests of the benchmark itself: each answer check accepts the right
answer and rejects a planted wrong one, the tracer changes no answer, and
the workloads are a pure function of the seed.

    python3 -m pytest bench -q
"""

import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from workloads import (DIAGRAMS, FIG8, WORKLOADS, t2q_matrix,  # noqa: E402
                       t2q_pd, torus, workload)

T23 = torus(2, 3)
T25_MATRIX = {"kind": "matrix", "entries": t2q_matrix(5)}


def sig_report(t, value):
    return {"command": "signature",
            "result": {"t": str(Fraction(t)), "signature": value}}


# ---------------------------------------------------------------------------
# signatures and singular points


def test_litherland_matches_numpy_on_t2q():
    # the two independent routes agree, so neither has a sign convention off
    for q in (3, 5, 7):
        for d in (5, 7, 9, 11):
            for k in range(1, d):
                t = Fraction(k, d)
                if checks.singular(("torus", 2, q), t.denominator):
                    continue
                assert (checks.litherland(2, q, t)
                        == checks.numpy_signature(t2q_matrix(q), t))


def test_signature_accepts_right_value():
    checks.check_signature(T23, "1/2", 0, sig_report("1/2", -2), "")
    checks.check_signature(T25_MATRIX, "2/5", 0, sig_report("2/5", -4), "")
    mirror = torus(-2, 5)
    checks.check_signature(mirror, "2/5", 0, sig_report("2/5", 4), "")


@pytest.mark.parametrize("spec,t,wrong", [
    (T23, "1/2", 2),                      # flipped sign
    (T25_MATRIX, "2/5", 4),               # flipped sign, numpy route
    ({"kind": "matrix", "entries": FIG8}, "1/3", 2),
    ({"kind": "sum", "summands": [{"sign": 1, "knot": T23},
                                  {"sign": -1, "knot": torus(2, 5)}]},
     "1/2", -6),                          # mirror sign dropped
])
def test_signature_rejects_wrong_value(spec, t, wrong):
    with pytest.raises(CheckFailed):
        checks.check_signature(spec, t, 0, sig_report(t, wrong), "")


def test_singular_points():
    stderr = "precondition violated: form singular at t = 1/6"
    checks.check_signature(T23, "1/6", 2, None, stderr)
    with pytest.raises(CheckFailed):        # a value where there is none
        checks.check_signature(T23, "1/6", 0, sig_report("1/6", 0), "")
    with pytest.raises(CheckFailed):        # singular where it is not
        checks.check_signature(T23, "1/5", 2, None, stderr)
    assert checks.singular(("torus", 4, 5), 10)
    assert not checks.singular(("torus", 4, 5), 7)


def test_untrusted_eigenvalues_are_not_a_pass():
    with pytest.raises(CheckFailed):
        checks.numpy_signature(t2q_matrix(3), Fraction(1, 6))


# ---------------------------------------------------------------------------
# covers, linking forms, metabolizers


def cover_report(order, factors, d=2):
    return {"command": "cover",
            "result": {"degree": d, "order": order,
                       "invariant_factors": factors, "deck": []}}


def test_cover_order():
    checks.check_cover(T23, 2, cover_report(3, [3]))
    checks.check_cover(T23, 3, cover_report(4, [2, 2], 3))
    with pytest.raises(CheckFailed):
        checks.check_cover(T23, 2, cover_report(5, [5]))
    with pytest.raises(CheckFailed):
        checks.check_cover(T23, 3, cover_report(4, [2, 3], 3))


# T(2,5) # -T(2,5) on the double cover: (Z/5)^2, lk = diag(1/5, 4/5),
# deck = -1; the metabolizers are the lines y = x and y = -x
LINKING = {"command": "linking",
           "result": {"group": [5, 5], "gram": [["1/5", "0/1"], ["0/1", "4/5"]],
                      "deck": [[4, 0], [0, 4]]}}


def met_report(gens_list):
    mets = [{"group": [5, 5], "generators": gens, "order": 5}
            for gens in gens_list]
    return {"command": "metabolizers",
            "result": {"count": len(mets), "metabolizers": mets}}


def test_metabolizers_accepts_right_lists():
    both = [[[1, 1]], [[1, 4]]]
    checks.check_metabolizers(LINKING, met_report(both), met_report(both))


@pytest.mark.parametrize("full,inv", [
    ([[[1, 1]]], [[[1, 1]]]),                      # dropped from both lists
    ([[[1, 1]], [[1, 4]]], [[[1, 1]]]),            # dropped from one list
    ([[[1, 1]], [[1, 2]]], [[[1, 1]], [[1, 2]]]),  # not isotropic
    ([[[1, 1]], [[1, 4]], [[1, 1]]], [[[1, 1]], [[1, 4]]]),   # repeated
])
def test_metabolizers_rejects_planted_errors(full, inv):
    with pytest.raises(CheckFailed):
        checks.check_metabolizers(LINKING, met_report(full), met_report(inv))


def test_metabolizer_order_is_recomputed():
    bad = met_report([[[1, 1]], [[1, 4]]])
    bad["result"]["metabolizers"][0]["generators"] = [[1, 1], [0, 1]]
    with pytest.raises(CheckFailed):
        checks.check_metabolizers(LINKING, bad, met_report([[[1, 1]], [[1, 4]]]))


def test_lagrangian_counts():
    hyperbolic = [["1/5", "0/1"], ["0/1", "4/5"]]
    anisotropic = [["1/5", "0/1"], ["0/1", "1/5"]]    # x^2 + y^2, p = 1 mod 4
    assert checks.lagrangian_count([5, 5], hyperbolic) == 2
    assert checks.lagrangian_count([5, 5], [["1/5", "0/1"], ["0/1", "2/5"]]) == 0
    assert checks.lagrangian_count([5, 5], anisotropic) == 2
    symplectic = [["0/1", "1/2"], ["1/2", "0/1"]]
    assert checks.lagrangian_count([2, 2], symplectic) == 3
    assert checks.lagrangian_count([25, 25], hyperbolic) is None


# ---------------------------------------------------------------------------
# labelings and the drivers


def lab_report(pd, p, size):
    return {"command": "labelings", "input": {"pd": pd.split()},
            "result": {"labelings": {"size": size},
                       "characters": {"order": size // p}}}


def test_labelings():
    pd, V = DIAGRAMS["trefoil"]
    checks.check_labelings(pd, V, 3, lab_report(pd, 3, 9))
    checks.check_labelings(pd, V, 5, lab_report(pd, 5, 5))
    with pytest.raises(CheckFailed):
        checks.check_labelings(pd, V, 3, lab_report(pd, 3, 3))
    pd8, V8 = DIAGRAMS["fig8"]
    checks.check_labelings(pd8, V8, 5, lab_report(pd8, 5, 25))
    with pytest.raises(CheckFailed):
        checks.check_labelings(pd8, V8, 3, lab_report(pd8, 3, 9))


def test_trefoil_pd_is_the_fixture():
    with open(os.path.join(ROOT, "tests", "fixtures", "trefoil.pd")) as fh:
        assert fh.read().split() == t2q_pd(3).split()


def td_report(a, obstructed, sigs):
    return {"result": {"obstructed": obstructed,
                       "claim": "not cg-slice" if obstructed else None,
                       "companion_signatures": {str(j): v
                                                for j, v in sigs.items()}}}


def test_twisted_double():
    sigs = {j: -checks.litherland(2, 3, Fraction(j, 5)) for j in range(1, 5)}
    assert all(v > 0 for v in sigs.values())
    checks.check_twisted_double(2, 1, td_report(2, True, sigs))
    checks.check_twisted_double(1, 1, td_report(1, False, {}))
    with pytest.raises(CheckFailed):
        checks.check_twisted_double(2, 1, td_report(2, False, sigs))
    with pytest.raises(CheckFailed):
        checks.check_twisted_double(1, 1, td_report(1, True, {}))
    with pytest.raises(CheckFailed):
        checks.check_twisted_double(2, 1, td_report(2, True, {**sigs, 1: -2}))


def test_order2():
    checks.check_order2(1, 2, {"result": {"coefficient": -4, "obstructed": True}})
    checks.check_order2(3, 3, {"result": {"coefficient": 0, "obstructed": False}})
    with pytest.raises(CheckFailed):
        checks.check_order2(1, 2, {"result": {"coefficient": 8,
                                              "obstructed": True}})
    with pytest.raises(CheckFailed):
        checks.check_order2(2, 2, {"result": {"coefficient": 0,
                                              "obstructed": True}})


def test_mutant_sum():
    ok = {"result": {"cases": [{"verdict": "NOT_NORM"}] * 3,
                     "obstructed": True}}
    checks.check_mutant_sum(ok)
    bad = {"result": {"cases": [{"verdict": "NOT_NORM"}, {"verdict": "NORM"}],
                      "obstructed": True}}
    with pytest.raises(CheckFailed):
        checks.check_mutant_sum(bad)


def test_round_reports_a_planted_error():
    specs = {"k": T23}
    reqs = [{"id": "signature k 1/2", "argv": ["signature", "--knot", "@k",
                                                "--t", "1/2"],
             "code": 0, "stderr": "",
             "report": json.dumps(dict(sig_report("1/2", -2),
                                       input={"knot": T23, "t": "1/2"}))}]
    assert checks.check_round(specs, {}, {}, reqs) == []
    reqs[0]["report"] = reqs[0]["report"].replace("-2", "2")
    assert len(checks.check_round(specs, {}, {}, reqs)) == 1


# ---------------------------------------------------------------------------
# workloads and tracing


def test_workload_is_a_function_of_the_seed():
    for name in WORKLOADS:
        a, b, c = (workload(name, s) for s in (1, 1, 2))
        assert a == b
        ids = sorted(r for _, reqs in a[2] for r, _ in reqs)
        assert ids == sorted(r for _, reqs in c[2] for r, _ in reqs)
        assert len(ids) == len(set(ids))


def test_benchmark_json_lists_every_metric():
    from tracing import METRICS
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == METRICS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_layer_checks_name_reported_metrics():
    # a misspelt name in MUST_MOVE would make the traced run fail on a
    # KeyError instead of on a wrapper bound at the wrong import site
    from run import MUST_MOVE
    from tracing import METRICS
    assert sorted(MUST_MOVE) == sorted(WORKLOADS)
    assert {m for ms in MUST_MOVE.values() for m in ms} <= set(METRICS)


def test_tracer_changes_no_answer():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from knotconcord import cli, seifert
    from tracing import Tracer
    plain = seifert.lt_signature(seifert.torus_matrix(-3, 4), Fraction(2, 7))
    tracer = Tracer()
    try:
        tracer.install()
        assert cli.lt_signature is seifert.lt_signature
        got = seifert.lt_signature(seifert.torus_matrix(-3, 4), Fraction(2, 7))
    finally:
        tracer.uninstall()
    assert got == plain
    m = tracer.metrics()
    assert m["seifert.lt_signature.calls"] == 1
    assert m["kernels.hermitian_inertia.field_deg_sum"] == 6
    assert m["cyclo.sign_real.calls"] > 0
    assert m["seifert.lt_signature.s"] >= m["seifert.lt_signature.self_s"] > 0
    assert not hasattr(cli.lt_signature, "__wrapped__")
