"""Command line reports over the fixture corpus.

Expectations for the twisted double family come from the closed form of
its Seifert matrix [[-1,1],[0,m]], m = a(a+1): Alexander polynomial
m t^2 - (2m+1) t + m and double cover order 4m+1 = (2a+1)^2.  Torus knot
values repeat numbers already pinned in the module test files; the su2
comparison is a genuine dual route (arc counting vs matrix signature).
"""

import ast
import json
import os
import subprocess
import sys

from fractions import Fraction
from pathlib import Path

import pytest

import knotconcord
from knotconcord.cli import _HANDLERS, main
from knotconcord.errors import SingularAtT
from knotconcord.seifert import build, lt_signature

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


# ---------------------------------------------------------------------------
# alexander / signature / cover over the corpus


ALEXANDER_EXPECTED = [
    ("twisted_double_a1.json", "2t^2-5t+2"),
    ("twisted_double_a2.json", "6t^2-13t+6"),
    ("twisted_double_a3.json", "12t^2-25t+12"),
    ("twisted_double_a4.json", "20t^2-41t+20"),
    ("twisted_double_a5.json", "30t^2-61t+30"),
    ("twisted_double_a6.json", "42t^2-85t+42"),
    ("fig8.json", "t^2-3t+1"),
    ("torus_2_3.json", "t^2-t+1"),
    ("torus_2_5.json", "t^4-t^3+t^2-t+1"),
    ("torus_2_7.json", "t^6-t^5+t^4-t^3+t^2-t+1"),
    ("order_two_t1.json", "t^2-3t+1"),
    ("order_two_t4.json", "t^2-3t+1"),
]


@pytest.mark.parametrize("name,expected", ALEXANDER_EXPECTED)
def test_alexander_corpus(capsys, name, expected):
    report = run_json(capsys, ["alexander", "--knot", fx(name)])
    assert report["result"]["rendered"] == expected


SIGNATURE_EXPECTED = [
    ("torus_2_7.json", "1/5", -2),
    ("torus_2_7.json", "2/5", -6),
    ("torus_2_7.json", "1/2", -6),
    ("fig8.json", "1/3", 0),
    ("fig8.json", "1/2", 0),
    ("torus_neg_5_6.json", "1/2", 16),
    ("torus_neg_2_3.json", "1/2", 2),
]


@pytest.mark.parametrize("name,t,expected", SIGNATURE_EXPECTED)
def test_signature_corpus(capsys, name, t, expected):
    report = run_json(capsys, ["signature", "--knot", fx(name), "--t", t])
    assert report["result"]["signature"] == expected


COVER_EXPECTED = (
    [(f"twisted_double_a{a}.json", (2 * a + 1) ** 2) for a in range(1, 7)]
    + [(f"torus_2_{q}.json", q) for q in (3, 5, 7, 9, 11)]
    + [(f"order_two_t{i}.json", 5) for i in range(1, 5)]
    + [("sum_double_a2_n2.json", 625), ("sum_double_a2_n3.json", 15625)]
)


@pytest.mark.parametrize("name,order", COVER_EXPECTED)
def test_cover_corpus(capsys, name, order):
    report = run_json(capsys, ["cover", "--knot", fx(name), "--d", "2"])
    assert report["result"]["order"] == order


def test_su2_agrees_with_matrix_signature(capsys):
    # arc counting and the exact matrix signature are independent routes
    for a in (2, 3, 4):
        for t in ("1/3", "2/5"):
            arcs = run_json(capsys, ["su2", "--a", str(a), "--t", t])
            mat = run_json(capsys, ["signature", "--knot",
                                    fx(f"torus_neg_{a}_{a + 1}.json"),
                                    "--t", t])
            assert arcs["result"]["count"] == mat["result"]["signature"]


# ---------------------------------------------------------------------------
# linking / metabolizers


def test_linking_report(capsys):
    report = run_json(capsys, ["linking", "--knot",
                               fx("twisted_double_a1.json"), "--d", "2"])
    assert report["result"]["group"] == [9]


def test_metabolizers_unique_for_z25(capsys):
    report = run_json(capsys, ["metabolizers", "--knot",
                               fx("twisted_double_a2.json"), "--d", "2"])
    assert report["result"]["count"] == 1
    assert report["result"]["metabolizers"][0]["order"] == 5


def test_metabolizers_invariant_only_pair_form(capsys):
    report = run_json(capsys, ["metabolizers", "--knot",
                               fx("sum_double_a2_n2.json"), "--d", "2",
                               "--invariant-only"])
    assert report["result"]["count"] == 3
    assert all(m["order"] == 25 for m in report["result"]["metabolizers"])


# ---------------------------------------------------------------------------
# satellite primitives


def test_cg_sigma_values(capsys):
    report = run_json(capsys, ["cg-sigma", "--knot", fx("torus_2_7.json"),
                               "--a", "1", "--p", "5"])
    assert report["result"]["growth"]["coefficient"] == -2
    assert report["result"]["zero"] is False
    report = run_json(capsys, ["cg-sigma", "--knot", fx("torus_2_7.json"),
                               "--a", "0", "--p", "5"])
    assert report["result"]["zero"] is True


def test_cg_delta_factors(capsys):
    report = run_json(capsys, ["cg-delta", "--knot",
                               fx("twisted_double_a1.json"),
                               "--lifts", "1,2,4", "--p", "7"])
    factors = report["result"]["factors"]
    assert [f["shift"] for f in factors] == [1, 2, 4]
    assert all(f["poly"] == [2, -5, 2] for f in factors)
    assert all(f["multiplicity"] == 1 for f in factors)


# ---------------------------------------------------------------------------
# obstruction drivers


def test_obstruct_twisted_double_a2(capsys):
    report = run_json(capsys, ["obstruct-twisted-double", "--a", "2"])
    r = report["result"]
    assert r["claim"] == "not cg-slice"
    assert r["obstructed"] is True
    assert r["all_signatures_positive"] is True
    assert [c["min_coefficient"] for c in r["cases"]] == [2]


def test_obstruct_twisted_double_a1_no_claim(capsys):
    report = run_json(capsys, ["obstruct-twisted-double", "--a", "1"])
    assert report["result"]["claim"] is None
    assert report["result"]["obstructed"] is False


def test_obstruct_order2(capsys):
    report = run_json(capsys, ["obstruct-order2", "--i", "1", "--j", "2"])
    assert report["result"]["coefficient"] == -4
    assert report["result"]["obstructed"] is True
    report = run_json(capsys, ["obstruct-order2", "--i", "2", "--j", "2"])
    assert report["result"]["obstructed"] is False
    assert report["result"]["claim"] is None


@pytest.mark.parametrize("name", ["mutant_single.json",
                                  "mutant_equal_pair.json",
                                  "mutant_mixed_pair.json"])
def test_obstruct_mutant_sum(capsys, name):
    report = run_json(capsys, ["obstruct-mutant-sum", "--knot", fx(name)])
    assert report["result"]["obstructed"] is True
    assert report["result"]["all_not_norm"] is True


def test_obstruct_mutant_sum_mode_override(capsys):
    report = run_json(capsys, ["obstruct-mutant-sum", "--knot",
                               fx("mutant_single.json"),
                               "--mode", "abstract"])
    assert report["result"]["mode"] == "abstract"
    assert report["result"]["obstructed"] is True


# ---------------------------------------------------------------------------
# su2 and labelings


def test_su2_herald_report(capsys):
    report = run_json(capsys, ["su2", "--a", "3", "--grid", "60"])
    r = report["result"]
    assert r["all_positive"] is True
    assert r["covers_window"] is True
    assert r["samples_checked"] + r["skipped_endpoints"] == 60


def test_labelings_dihedral_counts(capsys):
    report = run_json(capsys, ["labelings", "--pd", fx("trefoil.pd"),
                               "--p", "3", "--classify"])
    assert report["result"]["labelings"]["size"] == 9
    assert report["result"]["labelings"]["classes_mod_translation"] == 3
    assert report["result"]["characters"]["order"] == 3
    report = run_json(capsys, ["labelings", "--pd", fx("fig8.pd"),
                               "--p", "5"])
    assert report["result"]["labelings"]["size"] == 25


def test_labelings_metacyclic(capsys):
    report = run_json(capsys, ["labelings", "--pd", fx("trefoil.pd"),
                               "--d", "3", "--n", "49", "--q", "30",
                               "--classify"])
    assert report["result"]["labelings"]["size"] == 49
    assert report["result"]["characters"]["order"] == 1


# ---------------------------------------------------------------------------
# report mechanics: determinism, rendering, exit codes


def test_reports_are_byte_identical(capsys):
    for argv in [["obstruct-twisted-double", "--a", "2", "--json"],
                 ["labelings", "--pd", fx("trefoil.pd"), "--p", "3",
                  "--classify", "--json"],
                 ["metabolizers", "--knot", fx("twisted_double_a2.json"),
                  "--d", "2", "--json"]]:
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        json.loads(first)


def test_subprocess_runs_are_byte_identical():
    cmd = [sys.executable, "-m", "knotconcord.cli",
           "obstruct-twisted-double", "--a", "2", "--json"]
    runs = [subprocess.run(cmd, capture_output=True, text=True)
            for _ in range(2)]
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout == runs[1].stdout
    assert "elapsed seconds" in runs[0].stderr


def test_human_rendering(capsys):
    code = main(["signature", "--knot", fx("torus_2_7.json"), "--t", "2/5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "signature: -6" in out


def test_exit_code_precondition(capsys):
    # t = 1/6 is an Alexander root of the trefoil
    code = main(["signature", "--knot", fx("torus_2_3.json"), "--t", "1/6"])
    assert code == 2
    code = main(["alexander", "--knot", fx("does_not_exist.json")])
    assert code == 2
    code = main(["labelings", "--pd", fx("trefoil.pd"), "--n", "15",
                 "--q", "2", "--d", "4", "--classify"])
    assert code == 2


MALFORMED_SPECS = [
    ({"kind": "twisted_double", "a": 2.7}, "'a' must be an integer, got 2.7"),
    ({"kind": "twisted_double", "a": True}, "'a' must be an integer, got True"),
    ({"kind": "twisted_double", "a": "x"}, "'a' must be an integer, got 'x'"),
    ({"kind": "torus", "p": 2.0, "q": 3}, "'p' must be an integer, got 2.0"),
    ({"kind": "sum",
      "summands": [{"sign": "1", "knot": {"kind": "torus", "p": 2, "q": 3}}]},
     "summand sign must be an integer, got '1'"),
    ({"kind": "twisted_double"},
     "field 'a' is missing from the twisted_double knot description"),
    ({"kind": "sum"},
     "field 'summands' is missing from the sum knot description"),
    ({"kind": "sum",
      "summands": [{"Sign": -1, "knot": {"kind": "torus", "p": 2, "q": 3}}]},
     "unknown field 'Sign' in a summand"),
]


@pytest.mark.parametrize("spec,message", MALFORMED_SPECS)
def test_malformed_knot_spec_exits_2(capsys, tmp_path, spec, message):
    path = tmp_path / "knot.json"
    path.write_text(json.dumps(spec))
    code = main(["signature", "--knot", str(path), "--t", "1/3", "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"precondition violated: {message}\n"


BAD_ARGUMENTS = [
    (["cover", "--knot", fx("torus_2_3.json"), "--d", "1"], {}),
    (["cover", "--knot", fx("torus_2_3.json"), "--d", "0"], {}),
    (["cover", "--knot", fx("torus_2_3.json"), "--d", "-3"], {}),
    (["linking", "--knot", fx("torus_2_3.json"), "--d", "1"], {}),
    (["metabolizers", "--knot", fx("torus_2_3.json"), "--d", "1"], {}),
    (["cg-sigma", "--knot", fx("torus_2_3.json"), "--a", "1", "--p", "0"], {}),
    (["cg-sigma", "--knot", fx("torus_2_3.json"), "--a", "1", "--p", "-3"], {}),
    (["cg-sigma", "--knot", fx("torus_2_3.json"), "--a", "1", "--p", "1"], {}),
    (["cg-delta", "--knot", fx("torus_2_3.json"), "--lifts", "1,x"], {}),
    (["metabolizers", "--knot", fx("sum_double_a2_n2.json"), "--budget", "0"],
     {}),
    (["metabolizers", "--knot", fx("sum_double_a2_n2.json"), "--budget", "-1"],
     {}),
    (["obstruct-order2", "--i", "1", "--j", "2"], {"KNOTCONCORD_BUDGET": "0"}),
    (["labelings", "--pd", fx("trefoil.pd"), "--p", "3", "--n", "7",
      "--q", "2"], {}),
    (["labelings", "--pd", fx("trefoil.pd"), "--p", "3", "--d", "2"], {}),
]


@pytest.mark.parametrize("argv, env", BAD_ARGUMENTS, ids=[
    "cover-d1", "cover-d0", "cover-d-3", "linking-d1", "metabolizers-d1",
    "cg-sigma-p0", "cg-sigma-p-3", "cg-sigma-p1", "cg-delta-lifts",
    "budget-0", "budget-minus-1", "budget-env-0", "labelings-p-with-n-q",
    "labelings-p-with-d"])
def test_bad_arguments_exit_2(capsys, monkeypatch, argv, env):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code = main(argv + ["--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("precondition violated: ")
    assert captured.err.count("\n") == 1


MALFORMED_INPUTS = [
    ("cg-delta", '["2", -5, "2"]'),
    ("cg-delta", "[2.0, -5, 2]"),
    ("cg-delta", "[true, -3, true]"),
    ("cg-delta", "[1, [2]]"),
    ("cg-delta", "[[1, 2], 3]"),
    ("labelings", "X[1,2,3]"),
    ("labelings", "X[1,2,3,4] X[1,2,3,4]"),
    ("labelings", "X[1,1,2,2]"),
    ("labelings", "X[1,4,2,5] X[3,6,4,1]"),
]


@pytest.mark.parametrize("command, text", MALFORMED_INPUTS, ids=[
    "coeffs-strings", "coeffs-floats", "coeffs-bools", "coeffs-nested",
    "matrix-ragged", "pd-short-entry", "pd-repeated-crossing",
    "pd-ambiguous-sign", "pd-open-edge"])
def test_malformed_input_file_exits_2(capsys, tmp_path, command, text):
    # companion coefficient lists must hold integers, not values that a
    # Fraction would coerce; planar diagram codes must close up
    path = tmp_path / "input.txt"
    path.write_text(text)
    if command == "cg-delta":
        argv = ["cg-delta", "--knot", str(path), "--lifts", "1"]
    else:
        argv = ["labelings", "--pd", str(path), "--p", "3"]
    code = main(argv + ["--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("precondition violated: ")
    assert captured.err.count("\n") == 1


def test_mutant_sum_unknown_field_exits_2(capsys, tmp_path):
    path = tmp_path / "sum.json"
    path.write_text(json.dumps({"companions": [[[-1, 1], [0, 3]]],
                                "sign": [1]}))
    code = main(["obstruct-mutant-sum", "--knot", str(path), "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("precondition violated: unknown field 'sign' "
                            "in the mutant-sum input\n")


def test_cover_degree_budget_exits_3(capsys):
    code = main(["cover", "--knot", fx("torus_2_3.json"), "--d", "400"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("budget exceeded: the 400-fold cover of a 2 x 2 "
                            "Seifert matrix needs a layered presentation of "
                            "size 798, over the budget of 64\n")


def test_exit_code_budget(capsys):
    code = main(["metabolizers", "--knot", fx("sum_double_a2_n2.json"),
                 "--d", "2", "--budget", "2"])
    assert code == 3


# samples times the bound (a - 1) * ceil(a / 2) on the arc count: 20000 *
# 1225, 1 * 1001112 and 3 * 499500, each over the budget of 10^6
@pytest.mark.parametrize("argv", [
    ["--a", "50", "--grid", "20000"],
    ["--a", "1415", "--t", "1/3"],
    ["--a", "1000", "--grid", "3"],
], ids=["grid", "single-t", "grid-large-a"])
def test_su2_budget_exits_3(capsys, argv):
    code = main(["su2"] + argv + ["--json"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("budget exceeded: ")
    assert captured.err.count("\n") == 1


# t = 1/1031 and 1/3000001 need fields beyond seifert.MAX_FIELD_DEGREE,
# but they lie on the trefoil's arc (0, 1/6), which the CLI evaluates at
# its cheapest point 1/8; 515/1031 lies on the arc (1/6, 1/2]
@pytest.mark.parametrize("t, value", [("1/1031", 0), ("1/3000001", 0),
                                      ("515/1031", -2)],
                         ids=["1/1031", "1/3000001", "515/1031"])
def test_signature_beyond_field_budget_answers(capsys, t, value):
    report = run_json(capsys, ["signature", "--knot", fx("torus_2_3.json"),
                               "--t", t])
    assert report["input"]["t"] == t
    assert report["result"] == {"t": t, "signature": value}
    V = build({"kind": "torus", "p": 2, "q": 3})
    assert value == lt_signature(V, Fraction(1, 8) if value == 0
                                 else Fraction(2, 5))


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("KNOTCONCORD_BUDGET", "2")
    code = main(["metabolizers", "--knot", fx("sum_double_a2_n2.json"),
                 "--d", "2"])
    assert code == 3
    monkeypatch.setenv("KNOTCONCORD_BUDGET", "not a number")
    code = main(["metabolizers", "--knot", fx("sum_double_a2_n2.json"),
                 "--d", "2"])
    assert code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


# ---------------------------------------------------------------------------
# the signature command evaluates on arcs; lt_signature evaluates at t


def _knot_fixtures():
    out = []
    for name in sorted(os.listdir(FIXTURES)):
        if name.endswith(".json"):
            with open(fx(name)) as fh:
                if "kind" in json.load(fh):
                    out.append(name)
    return out


@pytest.mark.parametrize("name", _knot_fixtures())
def test_signature_grid_matches_direct_route(capsys, name):
    # every k/40 and k/97: the same value as lt_signature at t itself, and
    # exit 2 with the same message at exactly its singular points.  The
    # direct route at k/97 costs up to 0.7 s a point on the three torus
    # knots of size 12 and more, so there it runs at every eighth k.
    with open(fx(name)) as fh:
        model = build(json.load(fh))
    large = model.matrix.size >= 12
    for d in (40, 97):
        for k in range(1, d):
            if large and d == 97 and k % 8 != 1:
                continue
            t = Fraction(k, d)
            code = main(["signature", "--knot", fx(name), "--t", str(t),
                         "--json"])
            captured = capsys.readouterr()
            try:
                expected = lt_signature(model, t)
            except SingularAtT as e:
                assert code == 2, (name, t)
                assert captured.out == ""
                assert captured.err == "precondition violated: %s\n" % e
                continue
            assert code == 0, (name, t)
            assert json.loads(captured.out)["result"] == {
                "t": str(t), "signature": expected}, (name, t)


# T(2,5): Delta = Phi_10, so the upper half circle has the arcs (0, 1/10),
# (1/10, 3/10) and (3/10, 1/2], and 1/10, 3/10 are singular
MEMO_REQUESTS = ["1/7", "6/7", "2/9", "1/7", "1/2", "2/5", "3/5", "1/20",
                 "19/20", "2/9", "1/2"]
MEMO_SINGULAR = ["1/10", "9/10", "3/10", "1/10"]


def test_signature_memo_computes_each_arc_once(capsys, monkeypatch):
    # repeated requests, t and 1 - t, and two points of one arc: one
    # inertia per block and arc, in one process
    from knotconcord import seifert

    seifert._signatures.clear()
    calls = []
    inertia = seifert.hermitian_inertia

    def counted(*args):
        calls.append(args)
        return inertia(*args)

    monkeypatch.setattr(seifert, "hermitian_inertia", counted)
    values = {}
    for t in MEMO_REQUESTS:
        value = run_json(capsys, ["signature", "--knot", fx("torus_2_5.json"),
                                  "--t", t])["result"]["signature"]
        assert values.setdefault(t, value) == value
    blocks = build({"kind": "torus", "p": 2, "q": 5}).matrix.blocks
    assert len(calls) == 3 * len(blocks)
    assert values["1/7"] == values["6/7"] == values["2/9"]
    assert values["1/2"] == values["2/5"] == values["3/5"]
    assert values["1/20"] == values["19/20"] == 0


def test_signature_memo_bytes_match_a_fresh_process(capsys):
    # each report of one long-lived process, memo hits included, is the
    # report of a process that answers that request alone
    argvs = [["signature", "--knot", fx("torus_2_5.json"), "--t", t, "--json"]
             for t in MEMO_REQUESTS]
    for argv in argvs:
        assert main(argv) == 0
        here = capsys.readouterr().out.encode()
        fresh = subprocess.run([sys.executable, "-m", "knotconcord.cli"] + argv,
                               capture_output=True)
        assert fresh.returncode == 0
        assert here == fresh.stdout, argv


def test_signature_memo_keeps_singular_points_singular(capsys):
    # a singular t is never memoised: exit 2 and the same message each time
    for t in MEMO_SINGULAR + MEMO_REQUESTS[:2] + MEMO_SINGULAR:
        code = main(["signature", "--knot", fx("torus_2_5.json"), "--t", t,
                     "--json"])
        captured = capsys.readouterr()
        if t in MEMO_SINGULAR:
            assert code == 2
            assert captured.out == ""
            assert captured.err == (
                "precondition violated: form singular at t = %s\n" % t)
        else:
            assert code == 0


def test_closed_stdout_exits_1_without_traceback():
    # like `knotconcord alexander ... --json | head -c 0`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "knotconcord.cli", "alexander",
             "--knot", fx("torus_2_3.json"), "--json"],
            stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


NO_SYMPY_REQUESTS = [
    ["alexander", "--knot", fx("torus_2_3.json")],
    ["signature", "--knot", fx("torus_2_3.json"), "--t", "1/1031"],
    ["cover", "--knot", fx("twisted_double_a1.json"), "--d", "3"],
    ["linking", "--knot", fx("twisted_double_a1.json")],
    ["metabolizers", "--knot", fx("sum_double_a2_n2.json"),
     "--invariant-only"],
    ["cg-sigma", "--knot", fx("torus_2_7.json"), "--a", "1", "--p", "5"],
    ["cg-delta", "--knot", fx("twisted_double_a1.json"), "--lifts", "1,2,4"],
    ["obstruct-twisted-double", "--a", "5", "--n", "1"],
    ["obstruct-order2", "--i", "1", "--j", "2"],
    ["obstruct-mutant-sum", "--knot", fx("mutant_single.json")],
    ["su2", "--a", "3", "--t", "1/7"],
    ["labelings", "--pd", fx("trefoil.pd"), "--p", "3", "--classify"],
]

# runs each request of a JSON list with sympy unimportable and prints the
# exit codes and stdout texts as one JSON list
_NO_SYMPY_CHILD = """
import contextlib, io, json, sys
sys.modules["sympy"] = None
from knotconcord.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--json"])
    runs.append([code, out.getvalue()])
print(json.dumps(runs))
"""


def test_signature_and_obstruction_paths_import_no_sympy(capsys):
    # with sympy unimportable, one request per subcommand gives the same
    # exit code and stdout bytes as here; all run in one child process
    assert [argv[0] for argv in NO_SYMPY_REQUESTS] == list(_HANDLERS)
    plain = []
    for argv in NO_SYMPY_REQUESTS:
        code = main(argv + ["--json"])
        plain.append([code, capsys.readouterr().out])
    assert all(code == 0 for code, _ in plain)
    child = subprocess.run(
        [sys.executable, "-c", _NO_SYMPY_CHILD, json.dumps(NO_SYMPY_REQUESTS)],
        capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == plain


def test_package_imports_no_sympy():
    found = []
    for path in sorted(Path(knotconcord.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=path.name)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += ["%s:%d" % (path.name, node.lineno)
                      for m in modules if m.split(".")[0] == "sympy"]
    assert found == []
