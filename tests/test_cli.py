"""Command line reports over the fixture corpus.

Expectations for the twisted double family come from the closed form of
its Seifert matrix [[-1,1],[0,m]], m = a(a+1): Alexander polynomial
m t^2 - (2m+1) t + m and double cover order 4m+1 = (2a+1)^2.  Torus knot
values repeat numbers already pinned in the module test files; the su2
comparison is a genuine dual route (arc counting vs matrix signature).
"""

import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
import unicodedata

from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knotconcord
from knotconcord import metabolizers
from knotconcord.cli import _COMMANDS, BUDGET_ENV, main
from knotconcord.cyclo import cyclotomic_polynomial
from knotconcord.errors import SingularAtT
from knotconcord.seifert import build, lt_signature

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


@pytest.fixture(autouse=True)
def child_processes_import_the_package(monkeypatch):
    # pyproject's pytest pythonpath puts src on this process's sys.path
    # only; the fresh `python -m knotconcord.cli` processes need it too
    src = os.path.dirname(os.path.dirname(knotconcord.__file__))
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                 if p]))


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


@pytest.mark.parametrize("name, d, extra", [
    ("sum_double_a2_n2.json", "2", []),
    ("sum_double_a2_n2.json", "2", ["--invariant-only"]),
    ("twisted_double_a2.json", "3", []),
], ids=["double-all", "double-invariant", "triple"])
def test_metabolizers_report_same_cold_and_on_a_hit(capsys, name, d, extra):
    # the kept metabolizers render to the bytes of a fresh search; the
    # invariant request on the double cover is the scalar-deck case
    argv = ["metabolizers", "--knot", fx(name), "--d", d, "--json"] + extra
    metabolizers._search.cache_clear()
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert metabolizers._search.cache_info().currsize == 1
    assert main(argv) == 0
    assert capsys.readouterr().out == cold
    info = metabolizers._search.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert json.loads(cold)["result"]["count"] > 0


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


def test_obstruct_mutant_sum_abstract_budget(capsys, monkeypatch, tmp_path):
    # four summands: 802 one-sided shapes, and of the 2,850 half shapes
    # only the 108 with no odd-weight vector are paired, 108 of the pairs
    # admissibly, so the request fits the default budget
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    companion = [[-1, 1], [0, 3]]
    four = tmp_path / "four.json"
    four.write_text(json.dumps({"companions": [companion] * 4}))
    r = run_json(capsys, ["obstruct-mutant-sum", "--knot", str(four),
                          "--mode", "abstract"])["result"]
    assert r["shape_cases"] == len(r["cases"]) == 910
    assert sum(c["shape"]["side"] == "paired" for c in r["cases"]) == 108
    assert r["obstructed"] is True
    # six summands walk 13769720 one-sided and 48177200 half shapes:
    # refused before any walk, in a fresh process, and also under a budget
    # that covers the one-sided shapes alone
    six = tmp_path / "six.json"
    six.write_text(json.dumps({"companions": [companion] * 6}))
    refusal = ("budget exceeded: abstract character-space enumeration "
               "needs 61946920 shapes\n")
    env = {k: v for k, v in os.environ.items() if k != BUDGET_ENV}
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "knotconcord.cli", "obstruct-mutant-sum",
         "--knot", str(six), "--mode", "abstract"],
        capture_output=True, text=True, timeout=10, env=env)
    assert time.monotonic() - start < 1
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == refusal
    start = time.monotonic()
    code = main(["obstruct-mutant-sum", "--knot", str(six), "--mode",
                 "abstract", "--budget", "14000000"])
    assert time.monotonic() - start < 1
    assert code == 3
    assert capsys.readouterr() == ("", refusal)


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


# the report at n = 10^8 as an O(n) count of units gave it, in about 20 s;
# phi(n) from the factorisation must give the same bytes at once
LABELINGS_1E8 = (
    '{"command":"labelings","input":{"group":{"d":2,"n":100000000,'
    '"q":99999999},"pd":["X[1,4,2,5]","X[3,6,4,1]","X[5,2,6,3]"]},'
    '"notes":["meridian labelings b with x -> r^b t in the metacyclic group"],'
    '"result":{"diagram":{"arcs":3,"crossings":3,"writhe":-3},'
    '"labelings":{"arc_count":3,"classes_mod_translation":1,'
    '"group":{"d":2,"n":100000000,"q":99999999},'
    '"invariant_factors":[100000000],"relation_count":3,'
    '"scaling_units":40000000,"size":100000000,'
    '"translation_order":100000000}}}')


def test_labelings_large_modulus(capsys):
    code = main(["labelings", "--pd", fx("trefoil.pd"), "--d", "2",
                 "--n", "100000000", "--q", "99999999", "--json"])
    assert code == 0
    assert capsys.readouterr().out == LABELINGS_1E8 + "\n"


def _labelings(n, *extra):
    return subprocess.run(
        [sys.executable, "-m", "knotconcord.cli", "labelings", "--pd",
         fx("trefoil.pd"), "--d", "2", "--n", str(n), "--q", str(n - 1),
         *extra], capture_output=True, text=True, timeout=10)


def test_labelings_modulus_budget():
    # (10^9 + 7)(10^9 + 9) would take 10^9 trial divisions and is refused;
    # the prime 10^9 + 7 takes 3 * 10^4 and answers
    semiprime = (10 ** 9 + 7) * (10 ** 9 + 9)
    for extra in ((), ("--classify",)):
        proc = _labelings(semiprime, *extra)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == ("budget exceeded: factoring %d needs trial "
                               "divisors over the budget of 1000000\n"
                               % semiprime)
    proc = _labelings(10 ** 9 + 7, "--classify", "--json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["characters"]["order"] == 1


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


@pytest.mark.parametrize("lifts", ["1,,2", "1,2,", ",1", ""],
                         ids=["empty-item", "trailing-comma", "leading-comma",
                              "empty"])
def test_cg_delta_lifts_need_an_integer_in_every_item(capsys, lifts):
    code = main(["cg-delta", "--knot", fx("torus_2_3.json"), "--lifts", lifts,
                 "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("precondition violated: --lifts must be comma "
                            "separated integers, got %r\n" % lifts)


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


# each request needs a Seifert matrix far past seifert.MAX_SEIFERT_SIZE = 90;
# before the size was bounded, each ran for 10 s or more
SEIFERT_SIZE_REQUESTS = [
    (["alexander", "--knot", {"kind": "torus", "p": 40, "q": 41}],
     "T(40,41) needs a Seifert matrix of size 1560"),
    (["signature", "--knot", {"kind": "torus", "p": -16, "q": 17},
      "--t", "1/3"], "T(-16,17) needs a Seifert matrix of size 240"),
    (["alexander", "--knot", {"kind": "sum", "summands": [
        {"knot": {"kind": "torus", "p": 2, "q": 7}}] * 16}],
     "the knot needs a Seifert matrix of size 96"),
    (["obstruct-order2", "--i", "50", "--j", "1"],
     "a companion sum of 50 copies of T(2,7) needs a Seifert matrix of "
     "size 300"),
    (["obstruct-twisted-double", "--a", str(10 ** 18)],
     "the companion T(-%d,%d) needs a Seifert matrix of size %d"
     % (10 ** 18, 10 ** 18 + 1, 10 ** 18 * (10 ** 18 - 1))),
]


@pytest.mark.parametrize("argv, message", SEIFERT_SIZE_REQUESTS,
                         ids=["torus-alexander", "torus-signature", "sum",
                              "order2", "twisted-double"])
def test_seifert_size_budget_exits_3_quickly(tmp_path, argv, message):
    argv = list(argv)
    if isinstance(argv[2], dict):
        (tmp_path / "knot.json").write_text(json.dumps(argv[2]))
        argv[2] = str(tmp_path / "knot.json")
    proc = subprocess.run([sys.executable, "-m", "knotconcord.cli"] + argv,
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == ("budget exceeded: %s, over the budget of 90\n"
                           % message)


def test_largest_torus_knot_still_answers(capsys, tmp_path):
    # T(-10,11) has size 90; its Alexander polynomial is Phi_22 Phi_55 Phi_110
    (tmp_path / "knot.json").write_text('{"kind":"torus","p":-10,"q":11}')
    report = run_json(capsys, ["alexander", "--knot",
                               str(tmp_path / "knot.json")])
    expected = [1]
    for k in (22, 55, 110):
        phi = cyclotomic_polynomial(k)
        expected = [sum(expected[i] * phi[j - i]
                        for i in range(len(expected)) if 0 <= j - i < len(phi))
                    for j in range(len(expected) + len(phi) - 1)]
    assert report["result"]["coefficients"] == [
        [e, c, 1] for e, c in enumerate(expected) if c]


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


# ---------------------------------------------------------------------------
# the command line: one table, one reader, one rule for numbers


def _assert_one_precondition_line(captured):
    assert captured.out == ""
    assert captured.err.startswith("precondition violated: ")
    assert captured.err.count("\n") == 1


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    captured = capsys.readouterr()
    _assert_one_precondition_line(captured)
    assert "unknown command 'frobnicate'" in captured.err


MALFORMED_COMMAND_LINES = [
    [],
    ["cover", "--knot", fx("torus_2_3.json"), "--degree", "2"],
    ["cover", "--knot"],
    ["cover", "--d", "2"],
    ["cover", "--knot", fx("torus_2_3.json"), "--d", "x"],
    ["obstruct-mutant-sum", "--knot", fx("mutant_single.json"),
     "--mode", "bogus"],
    ["metabolizers", "--knot", fx("sum_double_a2_n2.json"), "--inv"],
    ["cover", "--knot", fx("torus_2_3.json"), "--json=yes"],
    ["cover", fx("torus_2_3.json")],
    ["signature", "--knot", fx("torus_2_3.json"), "--t", "1/0"],
]


@pytest.mark.parametrize("argv", MALFORMED_COMMAND_LINES, ids=[
    "empty", "unknown-option", "missing-value", "missing-required",
    "bad-integer", "bad-mode", "abbreviated-option", "flag-with-value",
    "stray-word", "zero-denominator"])
def test_malformed_command_line_exits_2(capsys, argv):
    assert main(argv) == 2
    _assert_one_precondition_line(capsys.readouterr())


@pytest.mark.parametrize("argv", [
    ["signature", "--knot", fx("torus_2_7.json"), "--t", "2/5"],
    ["metabolizers", "--knot", fx("sum_double_a2_n2.json"), "--d", "2",
     "--budget", "100"],
    ["obstruct-mutant-sum", "--knot", fx("mutant_single.json"),
     "--mode", "abstract"],
    ["labelings", "--pd", fx("trefoil.pd"), "--p", "3"],
], ids=["signature", "metabolizers", "mutant-sum", "labelings"])
def test_equals_form_gives_the_same_bytes(capsys, argv):
    joined = argv[:1] + ["%s=%s" % pair for pair in zip(argv[1::2],
                                                         argv[2::2])]
    assert main(argv + ["--json"]) == 0
    spaced = capsys.readouterr().out
    assert main(joined + ["--json"]) == 0
    assert capsys.readouterr().out == spaced


def test_repeated_option_keeps_the_last(capsys):
    assert main(["su2", "--a", "3", "--t", "1/7", "--json"]) == 0
    once = capsys.readouterr().out
    assert main(["su2", "--a", "2", "--t=1/5", "--a=3", "--t", "1/7",
                 "--json"]) == 0
    assert capsys.readouterr().out == once


def test_help_is_built_from_the_command_table(capsys):
    for argv in (["--help"], ["-h"], ["frobnicate", "--help"]):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert all(name in captured.out for name in _COMMANDS)
    for name, (_, blurb, options) in _COMMANDS.items():
        assert main([name, "--knot", "--help"]) == 0
        out = capsys.readouterr().out
        assert blurb in out
        assert all(option in out for option in list(options) + ["--json"])


# one ASCII rule reads every number from outside: each site maps to (the
# plain ASCII spellings of one number, a function from a spelling to argv
# and environment); None marks a site whose report echoes its text, so
# only its non-ASCII spellings are tried
NUMBER_SITES = {
    "su2-a": (["3"], lambda x, _: (["su2", "--a", x, "--t", "1/7"], {})),
    "su2-t": (["1/7", "2/14"],
              lambda x, _: (["su2", "--a", "3", "--t", x], {})),
    "signature-t": (["2/5", "0.4", ".40", "4/10"], lambda x, _: (
        ["signature", "--knot", fx("torus_2_7.json"), "--t", x], {})),
    "cg-sigma-p": (["5"], lambda x, _: (
        ["cg-sigma", "--knot", fx("torus_2_7.json"), "--a", "1", "--p", x],
        {})),
    "metabolizers-budget": (["60"], lambda x, _: (
        ["metabolizers", "--knot", fx("sum_double_a2_n2.json"),
         "--budget", x], {})),
    "cg-delta-lifts": (["2"], lambda x, _: (
        ["cg-delta", "--knot", fx("twisted_double_a1.json"),
         "--lifts", "1,%s,4" % x], {})),
    "budget-env": (["60"], lambda x, _: (
        ["metabolizers", "--knot", fx("sum_double_a2_n2.json")],
        {BUDGET_ENV: x})),
    "pd-entry": (None, lambda x, pd: (["labelings", "--pd", _write(
        pd, "X[1,4,2,5] X[3,6,4,1] X[%s,2,6,3]" % x), "--p", "3"], {})),
}
_PADDING = [" ", "\t", "\n", "\u00a0", "\u2003", "\u3000"]
_NON_ASCII_DIGITS = st.characters(categories=["Nd"]).filter(
    lambda c: not c.isascii())


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _request(argv, env):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--json"])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def pd_path(tmp_path_factory):
    return tmp_path_factory.mktemp("pd") / "entry.pd"


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.sampled_from(sorted(NUMBER_SITES)), st.data())
def test_numbers_from_outside_follow_one_ascii_rule(pd_path, site, data):
    spellings, make = NUMBER_SITES[site]
    plain = data.draw(st.sampled_from(spellings or ["5"]))
    # a plus sign and leading zeros (not after a decimal point) keep a
    # spelling plain
    if spellings is not None:
        plain = "+" * data.draw(st.integers(0, 1)) + re.sub(
            r"(?<![.0-9])[0-9]+", lambda m: "0" * data.draw(st.integers(0, 2)) + m[0],
            plain)
    form = data.draw(st.sampled_from(
        ["digit"] if spellings is None
        else ["plain", "digit", "underscore", "padding"]))
    text = plain
    if form == "digit":
        # the same value in another script's decimal digits
        i = data.draw(st.sampled_from(
            [k for k, c in enumerate(plain) if c.isdigit()]))
        zero = data.draw(_NON_ASCII_DIGITS)
        zero = chr(ord(zero) - unicodedata.decimal(zero))
        text = plain[:i] + chr(ord(zero) + int(plain[i])) + plain[i + 1:]
    elif form == "underscore":
        run = data.draw(st.sampled_from(re.findall("[0-9]+", plain)))
        cut = data.draw(st.integers(1, len(run)))
        text = plain.replace(run, "0" + run[:cut] + "_" + run[cut:], 1)
    elif form == "padding":
        text = (data.draw(st.text(st.sampled_from(_PADDING), max_size=2))
                + text + data.draw(st.text(st.sampled_from(_PADDING),
                                           min_size=1, max_size=2)))
    code, out, err = _request(*make(text, pd_path))
    if form != "plain":
        assert (code, out, err.count("\n")) == (2, "", 1), text
        assert err.startswith("precondition violated: ")
        return
    expected = _request(*make(spellings[0], pd_path))
    assert expected[0] == 0
    assert (code, out) == expected[:2], text


def test_a_request_imports_no_argparse_or_locale():
    # building argument parsers and their help formatters cost milliseconds
    # per process; a request must not bring either module back
    child = subprocess.run(
        [sys.executable, "-c", _IMPORTS_CHILD, "signature", "--knot",
         fx("torus_2_3.json"), "--t", "1/5", "--json"],
        capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "0 []\n"


def test_a_labelings_request_imports_no_dataclasses():
    # dataclasses brings inspect, ast, dis and tokenize with it; the
    # diagram records are named tuples, so no request imports them
    child = subprocess.run(
        [sys.executable, "-c", _IMPORTS_CHILD, "labelings", "--pd",
         fx("trefoil.pd"), "--p", "3", "--classify", "--json"],
        capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "0 []\n"


_IMPORTS_CHILD = """
import contextlib, io, sys
from knotconcord.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, [m for m in ("argparse", "locale", "dataclasses", "inspect")
             if m in sys.modules])
"""


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

    seifert._signature.cache_clear()
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


# T(2,3) # T(2,3) and T(2,3) # -T(2,3) at d = 3 have one linking form, so
# the second one's metabolizer requests are memo hits; budgets below the
# candidate count (3 on mutant_single, more on the sums) must still exit 3
COVER_MEMO_REQUESTS = [
    ["metabolizers", "--knot", fx("sum_double_a2_n2.json"), "--d", "2"],
    ["cover", "--knot", fx("sum_double_a2_n2.json"), "--d", "2"],
    ["obstruct-mutant-sum", "--knot", fx("mutant_single.json")],
    ["metabolizers", "--knot", fx("sum_double_a2_n2.json"), "--d", "2",
     "--invariant-only", "--budget", "2"],
    ["linking", "--knot", fx("sum_double_a2_n2.json"), "--d", "2"],
    ["metabolizers", "--knot", fx("sum_double_a2_n2.json"), "--d", "2",
     "--invariant-only"],
    ["obstruct-mutant-sum", "--knot", fx("mutant_equal_pair.json"),
     "--mode", "enumerate"],
    ["obstruct-mutant-sum", "--knot", fx("mutant_single.json"),
     "--budget", "2"],
    ["metabolizers", "--knot", fx("sum_double_a2_n3.json"), "--d", "2",
     "--budget", "2"],
    ["cover", "--knot", fx("torus_2_3.json"), "--d", "6"],
    ["linking", "--knot", fx("torus_2_3.json"), "--d", "3"],
    ["metabolizers", "--knot", fx("torus_2_3.json"), "--d", "3"],
    ["obstruct-mutant-sum", "--knot", fx("mutant_single.json")],
]


def test_cover_memo_reports_match_a_fresh_process(capsys):
    # after a mixed sequence in one process, hits and refusals included,
    # every exit code, stdout and stderr is that of a process that answers
    # the request alone
    codes = set()
    for argv in COVER_MEMO_REQUESTS + COVER_MEMO_REQUESTS[::-1]:
        code = main(argv + ["--json"])
        here = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "knotconcord.cli"] + argv + ["--json"],
            capture_output=True, text=True)
        assert (code, here.out) == (fresh.returncode, fresh.stdout), argv
        if code:
            assert here.err == fresh.stderr, argv
        codes.add(code)
    assert codes == {0, 2, 3}


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
    assert [argv[0] for argv in NO_SYMPY_REQUESTS] == list(_COMMANDS)
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
