"""One round of a workload in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --workdir DIR
                            [--trace] [--keep-reports] [--setup-only]

Set-up (import `knotconcord` from the checkout's `src`, write the inputs)
ends with the line `ready` on stdout.  The worker then waits for one line
on stdin, runs every operation of the workload once, in-process through
`knotconcord.cli.main`, writes `DIR/result.json` and exits.  Garbage is
collected between operations and never inside one.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def reference_loop():
    """A fixed pure-Python loop; its time shows how fast the host runs."""
    t0 = time.perf_counter()
    x = 0
    for i in range(400000):
        x = (x * 31 + i) % 1000003
    return time.perf_counter() - t0


def run_request(main, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as e:
        code = "exit %s" % (e.code,)
    except Exception as e:  # a crash is a failed request, not a dead round
        code = "%s: %s" % (type(e).__name__, e)
    return code, out.getvalue(), err.getvalue()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--keep-reports", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import knotconcord.cli as cli
    from workloads import resolve, workload, write_inputs

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    specs, pds, ops = workload(args.workload, args.seed)
    paths = write_inputs(specs, pds, os.path.join(args.workdir, "inputs"))
    print("ready", flush=True)
    if args.setup_only:
        return 0
    sys.stdin.readline()

    ref_s = reference_loop()
    results = []
    wall = 0.0
    cpu0 = time.process_time()
    for oid, reqs in ops:
        argvs = [resolve(argv, paths) for _, argv in reqs]
        gc.collect()
        gc.disable()
        t0 = time.perf_counter()
        outs = [run_request(cli.main, argv) for argv in argvs]
        dt = time.perf_counter() - t0
        gc.enable()
        wall += dt
        entries = []
        for (rid, _), (code, out, err) in zip(reqs, outs):
            entry = {"id": rid, "code": code,
                     "sha256": hashlib.sha256(out.encode()).hexdigest()}
            if code != 0:
                entry["stderr"] = err.strip().splitlines()[-1:] or [""]
            if args.keep_reports and code == 0:
                entry["report"] = out
            entries.append(entry)
        results.append({"id": oid, "seconds": dt, "requests": entries})
    result = {"workload": args.workload, "seed": args.seed,
              "wall_s": wall, "ref_loop_s": ref_s,
              "cpu_s": time.process_time() - cpu0,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "ops": results}
    if tracer is not None:
        result["layers"] = tracer.metrics()
    with open(os.path.join(args.workdir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
