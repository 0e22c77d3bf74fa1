"""Benchmark of the knotconcord command line, end to end and per layer.

    python3 bench/run.py --workload sig_sweep --seed 1 --seconds 36 --trace 0

Runs from the root of a source checkout; the program is imported from
`src`, nothing is installed.  A run repeats whole rounds of the workload,
each in a fresh interpreter (bench/worker.py), until the next round would
end after --seconds.  Every report of the first round is checked against
an independent computation (bench/checks.py), and every later round must
give the same report bytes.

--trace 0 prints the end-to-end metrics: wall_s (time of one round from
its first request to its last report, averaged over the run's rounds),
setup_s (median time from starting an interpreter to its inputs being
written; the time left after the last round that fits is filled with
set-up probes) and peak_rss_mb (median peak resident memory of a round).
--trace 1 runs one plain and one traced round and prints the per-layer
metrics of bench/tracing.py.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Diagnostics (round times, the reference-loop time that shows
host drift, report hashes that differ from bench/reference_hashes.json)
go to stderr and to bench/out/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
HASHES = os.path.join(HERE, "reference_hashes.json")
MIN_SETUPS = 12
WORKER_TIMEOUT = 150

sys.path.insert(0, HERE)
from workloads import DIAGRAMS, WORKLOADS, workload  # noqa: E402


class BenchError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def start_worker(name, seed, workdir, trace=False, keep=False,
                 setup_only=False):
    """Start a worker and wait for its set-up; return (process, seconds)."""
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", name, "--seed", str(seed), "--workdir", workdir]
    cmd += ["--trace"] * trace + ["--keep-reports"] * keep
    cmd += ["--setup-only"] * setup_only
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        stop(proc)
        raise BenchError("worker failed during set-up")
    return proc, setup


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def finish(proc, workdir):
    """Let a started worker run its round; return its result."""
    try:
        proc.stdin.write("go\n")
        proc.stdin.close()
        code = proc.wait(timeout=WORKER_TIMEOUT)
    finally:
        stop(proc)
    if code != 0:
        raise BenchError("worker exited with %d" % code)
    with open(os.path.join(workdir, "result.json")) as fh:
        return json.load(fh)


def run_round(name, seed, workdir, trace=False, keep=False):
    proc, setup = start_worker(name, seed, workdir, trace, keep)
    return setup, finish(proc, workdir)


def setup_probe(name, seed, workdir):
    proc, setup = start_worker(name, seed, workdir, setup_only=True)
    try:
        proc.wait(timeout=WORKER_TIMEOUT)
    finally:
        stop(proc)
    return setup


def hashes(result):
    return {r["id"]: r["sha256"] for op in result["ops"]
            for r in op["requests"]}


def failed_requests(result):
    """Requests that did not answer: anything but exit 0, except the exit
    2 of a signature request, which the checks judge."""
    return [r for op in result["ops"] for r in op["requests"]
            if r["code"] != 0
            and not (r["id"].startswith("signature ") and r["code"] == 2)]


def check_answers(name, seed, result):
    """Independent checks of one round kept with its reports."""
    from checks import check_round
    specs, pds, ops = workload(name, seed)
    argv = {rid: a for _, reqs in ops for rid, a in reqs}
    bad = {r["id"] for r in failed_requests(result)}
    requests = [dict(r, argv=argv[r["id"]], report=r.get("report", ""),
                     stderr=" ".join(r.get("stderr", [])))
                for op in result["ops"] for r in op["requests"]
                if r["id"] not in bad]
    diagrams = {k: m for k, (_, m) in DIAGRAMS.items()}
    return check_round(specs, pds, diagrams, requests)


def compare_reference(name, got):
    try:
        with open(HASHES) as fh:
            ref = json.load(fh).get(name, {})
    except FileNotFoundError:
        ref = {}
    return sorted(rid for rid in got if ref.get(rid) != got[rid])


# the per-layer metrics that must be nonzero on each workload: a zero
# means a wrapper missed the binding the program calls through
MUST_MOVE = {
    "sig_sweep": ["cyclo.sign_real.calls", "cyclo.sign_real.s",
                  "kernels.hermitian_inertia.calls",
                  "kernels.hermitian_inertia.field_deg_sum",
                  "seifert.lt_signature.calls", "seifert.lt_signature.distinct",
                  "cassongordon.satellite_sigma.calls",
                  "metabolizers.enumerate_metabolizers.found",
                  "cli.main.self_s", "seifert.build.s"],
    "sig_large_d": ["kernels.hermitian_pivots.self_s",
                    "cyclo.CyclotomicField.calls", "cyclo.CyclotomicField.s",
                    "cyclo.sign_real.calls",
                    "cli.main.self_s", "seifert.build.s"],
    "cover_metab": ["seifert.alexander.calls", "seifert.alexander.distinct",
                    "metabolizers.enumerate_metabolizers.s",
                    "metabolizers.enumerate_metabolizers.found",
                    "metabolizers.vanishing_chars.s",
                    "linalg.smith_normal_form.s", "cover.branched_cover.s",
                    "cover.linking_form.s",
                    "cassongordon.satellite_delta.calls",
                    "cassongordon.norm_test.calls",
                    "diagram.labeling_space.calls",
                    "cli.main.self_s", "seifert.build.s"],
}


def unit(metric):
    if metric.endswith((".s", ".self_s", "_s")):
        return "s"
    return "count"


def untraced(args, tmp, diag):
    deadline = time.perf_counter() + args.seconds
    setups, rounds = [], []
    while True:
        t0 = time.perf_counter()
        setup, result = run_round(args.workload, args.seed,
                                  os.path.join(tmp, "round%d" % len(rounds)),
                                  keep=not rounds)
        setups.append(setup)
        rounds.append(result)
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            break
    # the time left, too short for another round, goes to set-up probes
    while len(setups) < MIN_SETUPS or time.perf_counter() < deadline:
        setups.append(setup_probe(args.workload, args.seed,
                                  os.path.join(tmp, "probe%d" % len(setups))))
    first = rounds[0]
    failures = check_answers(args.workload, args.seed, first)
    ref = hashes(first)
    for i, r in enumerate(rounds[1:], 1):
        if hashes(r) != ref:
            failures.append("round %d reports differ from round 0" % i)
    per_op = {}
    for r in rounds:
        for op in r["ops"]:
            per_op.setdefault(op["id"], []).append(op["seconds"])
    diag.update({"round_wall_s": [r["wall_s"] for r in rounds],
                 "round_cpu_s": [r["cpu_s"] for r in rounds],
                 "op_seconds": per_op,
                 "setup_s": setups,
                 "ref_loop_s": [r["ref_loop_s"] for r in rounds],
                 "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
                 "hashes": ref})
    metrics = {
        "wall_s": (statistics.mean(r["wall_s"] for r in rounds), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds),
                        "MB"),
    }
    return rounds, failures, metrics


def traced(args, tmp, diag):
    from tracing import METRICS
    _, plain = run_round(args.workload, args.seed, os.path.join(tmp, "plain"),
                         keep=True)
    _, result = run_round(args.workload, args.seed,
                          os.path.join(tmp, "traced"), trace=True)
    failures = check_answers(args.workload, args.seed, plain)
    ref = hashes(plain)
    got = hashes(result)
    diff = sorted(rid for rid in ref if got.get(rid) != ref[rid])
    if diff:
        failures.append("traced reports differ from plain ones: %s" % diff[:5])
    layers = dict(result["layers"])
    layers["trace.overhead_s"] = result["wall_s"] - plain["wall_s"]
    for m in MUST_MOVE[args.workload]:
        if not layers[m]:
            failures.append("layer metric %s is 0 on %s" % (m, args.workload))
    diag.update({"round_wall_s": [plain["wall_s"], result["wall_s"]],
                 "ref_loop_s": [plain["ref_loop_s"], result["ref_loop_s"]],
                 "hashes": ref})
    metrics = {m: (layers[m], unit(m)) for m in METRICS}
    return [plain, result], failures, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-hashes", action="store_true",
                    help="store this run's report hashes as the reference")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "knotconcord", "cli.py")):
        log("no knotconcord source under %s" % os.path.join(ROOT, "src"))
        return 2
    os.makedirs(OUT, exist_ok=True)
    tmp = os.path.join(OUT, "tmp-%d" % os.getpid())
    diag = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        run = traced if args.trace else untraced
        rounds, failures, metrics = run(args, tmp, diag)
    except BenchError as e:
        log("benchmark failed: %s" % e)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = [r for res in rounds for r in failed_requests(res)]
    attempted = sum(len(op["requests"]) for res in rounds for op in res["ops"])
    mismatched = compare_reference(args.workload, diag["hashes"])
    diag.update({"failures": failures, "failed_requests": failed,
                 "hashes_differing_from_reference": mismatched})
    if args.write_hashes:
        try:
            with open(HASHES) as fh:
                stored = json.load(fh)
        except FileNotFoundError:
            stored = {}
        stored[args.workload] = dict(sorted(diag["hashes"].items()))
        with open(HASHES, "w") as fh:
            json.dump(stored, fh, indent=1, sort_keys=True)
            fh.write("\n")
    with open(os.path.join(OUT, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(diag, fh, indent=1)
    log("rounds: %s" % " ".join("%.3f" % w for w in diag["round_wall_s"]))
    log("reference loop s: %s" % " ".join("%.4f" % w
                                          for w in diag["ref_loop_s"]))
    if mismatched:
        log("%d report hashes differ from %s" % (len(mismatched), HASHES))
    for f in failures[:20]:
        log("CHECK FAILED: %s" % f)
    for r in failed[:20]:
        log("FAILED REQUEST: %s exit %s" % (r["id"], r["code"]))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
