"""Command line front end.

Every subcommand reads JSON knot descriptions (the build() schema) or
planar diagram text, dispatches to one module operation, and emits a
report.  Reports are JSON objects; the default output is an indented
human-readable rendering of the same object, and --json switches to the
canonical compact form, which is byte-identical across reruns.  Timing
goes to stderr so it never perturbs the report bytes.

Exit codes: 0 success, 1 stdout closed before the report was written,
2 precondition violated, 3 enumeration budget exceeded.
"""

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from functools import cache

from . import su2
from .cassongordon import (DiscExpr, SigGrowth, mutant_sum_obstruction,
                           order2_obstruction, satellite_delta,
                           satellite_sigma, twisted_double_obstruction)
from .cover import branched_cover, linking_form
from .diagram import (MetacyclicGroup, classify_characters, labeling_space,
                      parse_pd)
from .errors import BudgetExceeded, PreconditionError
from .metabolizers import DEFAULT_BUDGET, enumerate_metabolizers
# lt_signature is not called here (signature is), but the name stays bound:
# the benchmark's tracer rebinds a layer at every module that imports it,
# and bench/test_bench.py checks that it did so in this one
from .seifert import _only, alexander, build, lt_signature, signature  # noqa: F401

BUDGET_ENV = "KNOTCONCORD_BUDGET"


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise PreconditionError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise PreconditionError(f"{path} is not valid JSON: {e}")


def _load_text(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise PreconditionError(f"cannot read {path}: {e}")


def _budget(args):
    if args.budget is not None:
        budget, source = args.budget, "--budget"
    elif BUDGET_ENV in os.environ:
        env, source = os.environ[BUDGET_ENV], BUDGET_ENV
        try:
            budget = int(env)
        except ValueError:
            raise PreconditionError(
                f"{BUDGET_ENV} must be an integer, got {env!r}")
    else:
        return DEFAULT_BUDGET
    if budget < 1:
        raise PreconditionError(f"{source} must be at least 1, got {budget}")
    return budget


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise PreconditionError(f"expected a rational number, got {text!r}")


def _poly_str(coeffs):
    """Render integer coefficients (lowest degree first) like 2t^2-5t+2,
    highest power first."""
    out = ""
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if not c:
            continue
        mag = abs(c)
        coeff = "" if (mag == 1 and e != 0) else str(mag)
        if e == 0:
            term = coeff or "1"
        elif e == 1:
            term = f"{coeff}t"
        else:
            term = f"{coeff}t^{e}"
        out += ("-" if c < 0 else "+" if out else "") + term
    return out


def _poly_json(coeffs):
    return {"rendered": _poly_str(coeffs),
            "coefficients": [[e, c, 1] for e, c in enumerate(coeffs) if c]}


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (input echo, result payload, notes)


def _cmd_alexander(args):
    spec = _load_json(args.knot)
    poly = alexander(build(spec))
    return ({"knot": spec}, _poly_json(poly),
            ["determinant of V - tV^T, normalized to lowest exponent 0 "
             "and positive leading coefficient"])


def _cmd_signature(args):
    spec = _load_json(args.knot)
    t = _fraction(args.t)
    value = signature(build(spec), t)
    return ({"knot": spec, "t": str(t)},
            {"t": str(t), "signature": value},
            ["signature of (1-w)V + (1-conj w)V^T at w = exp(2 pi i t), "
             "computed exactly over a cyclotomic field"])


def _cmd_cover(args):
    spec = _load_json(args.knot)
    H = branched_cover(build(spec).matrix, args.d)
    return ({"knot": spec, "d": args.d}, H.to_json(),
            [f"homology of the {args.d}-fold branched cyclic cover "
             "with its deck action"])


def _cmd_linking(args):
    spec = _load_json(args.knot)
    form = linking_form(build(spec).matrix, args.d)
    return ({"knot": spec, "d": args.d}, form.to_json(),
            ["torsion linking pairing on the branched cover homology"])


def _cmd_metabolizers(args):
    spec = _load_json(args.knot)
    form = linking_form(build(spec).matrix, args.d)
    mets = enumerate_metabolizers(form, invariant_only=args.invariant_only,
                                  budget=_budget(args))
    return ({"knot": spec, "d": args.d,
             "invariant_only": bool(args.invariant_only)},
            {"count": len(mets),
             "metabolizers": [m.to_json() for m in mets]},
            ["self-annihilating subgroups of square-root order"
             + (", deck invariant" if args.invariant_only else "")])


def _cmd_cg_sigma(args):
    spec = _load_json(args.knot)
    growth = satellite_sigma(SigGrowth(0), spec, args.a, args.p)
    return ({"companion": spec, "a": args.a, "p": args.p},
            {"growth": growth.to_json(),
             "zero": growth.is_zero()},
            ["signature-growth contribution of one infection: the "
             f"companion signature at {args.a % args.p}/{args.p}"])


def _cmd_cg_delta(args):
    spec = _load_json(args.knot)
    try:
        lifts = [int(x) for x in args.lifts.split(",") if x.strip() != ""]
    except ValueError:
        raise PreconditionError(
            f"--lifts must be comma separated integers, got {args.lifts!r}")
    expr = satellite_delta(DiscExpr(args.p), spec, lifts)
    return ({"companion": spec, "lifts": lifts, "p": args.p},
            expr.to_json(),
            ["discriminant factors: one shifted companion Alexander "
             "polynomial per lift of the infection curve"])


def _cmd_twisted_double(args):
    report = twisted_double_obstruction(args.a, n=args.n, budget=_budget(args))
    return ({"a": args.a, "n": args.n}, report,
            ["signature-growth obstruction for the doubled unknot family"])


def _cmd_order2(args):
    report = order2_obstruction(args.i, args.j, budget=_budget(args))
    return ({"i": args.i, "j": args.j}, report,
            ["signature-growth obstruction for the order-two satellite "
             "pair with torus companions"])


def _cmd_mutant_sum(args):
    spec = _load_json(args.knot)
    if not isinstance(spec, dict) or "companions" not in spec:
        raise PreconditionError(
            "mutant-sum input must be an object with a 'companions' list")
    _only(spec, ("companions", "signs", "mode"), "the mutant-sum input")
    companions = spec["companions"]
    signs = spec.get("signs")
    mode = args.mode or spec.get("mode")
    report = mutant_sum_obstruction(companions, signs=signs,
                                    budget=_budget(args), mode=mode)
    return ({"companions": companions, "signs": signs, "mode": mode},
            report,
            ["discriminant-norm obstruction for sums of mutant satellites"])


def _cmd_su2(args):
    if args.t is not None:
        t = _fraction(args.t)
        count = su2.count_signature(args.a, t)
        return ({"a": args.a, "t": str(t)},
                {"t": str(t), "count": int(count)},
                ["trace-arc count for the (-a, a+1) torus knot, twice the "
                 "number of arcs whose angle interval contains t"])
    report = su2.verify_herald(args.a, grid=args.grid)
    return ({"a": args.a, "grid": args.grid}, report,
            ["window positivity of the arc count, with the covering "
             "family certificate"])


def _cmd_labelings(args):
    text = _load_text(args.pd)
    D = parse_pd(text)
    if args.p is not None:
        if (args.d, args.n, args.q) != (None, None, None):
            raise PreconditionError(
                "--p (dihedral) cannot be combined with --d/--n/--q")
        G = MetacyclicGroup.dihedral(args.p)
    elif args.n is not None and args.q is not None:
        G = MetacyclicGroup(2 if args.d is None else args.d, args.n, args.q)
    else:
        raise PreconditionError(
            "give either --p (dihedral) or --d/--n/--q (metacyclic)")
    L = labeling_space(D, G)
    payload = {"diagram": {"crossings": len(D.crossings),
                           "arcs": D.arc_count,
                           "writhe": D.writhe},
               "labelings": L.to_json()}
    notes = ["meridian labelings b with x -> r^b t in the metacyclic group"]
    if args.classify:
        payload["characters"] = classify_characters(D, G).to_json()
        notes.append("character module = labelings modulo global translation")
    return ({"pd": text.split(), "group": G.to_json()}, payload, notes)


_HANDLERS = {
    "alexander": _cmd_alexander,
    "signature": _cmd_signature,
    "cover": _cmd_cover,
    "linking": _cmd_linking,
    "metabolizers": _cmd_metabolizers,
    "cg-sigma": _cmd_cg_sigma,
    "cg-delta": _cmd_cg_delta,
    "obstruct-twisted-double": _cmd_twisted_double,
    "obstruct-order2": _cmd_order2,
    "obstruct-mutant-sum": _cmd_mutant_sum,
    "su2": _cmd_su2,
    "labelings": _cmd_labelings,
}


@cache
def _build_parser():
    """The argument parser, built once per process."""
    top = argparse.ArgumentParser(
        prog="knotconcord",
        description="Exact concordance obstructions from Seifert data, "
                    "branched covers, and satellite constructions.")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--json", action="store_true",
                       help="emit the canonical compact JSON report")
        return p

    p = add("alexander", help="Alexander polynomial of a knot spec")
    p.add_argument("--knot", required=True, help="knot spec JSON file")

    p = add("signature", help="Levine-Tristram signature at a rational t")
    p.add_argument("--knot", required=True)
    p.add_argument("--t", required=True, help="rational in (0,1), e.g. 2/5")

    for name, blurb in [("cover", "branched cover homology"),
                        ("linking", "linking form of the branched cover")]:
        p = add(name, help=blurb)
        p.add_argument("--knot", required=True)
        p.add_argument("--d", type=int, default=2, help="cover degree")

    p = add("metabolizers", help="enumerate metabolizers of the linking form")
    p.add_argument("--knot", required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--invariant-only", action="store_true",
                   help="keep only deck-invariant metabolizers")
    p.add_argument("--budget", type=int)

    p = add("cg-sigma", help="signature growth from one infection")
    p.add_argument("--knot", required=True, help="companion spec JSON file")
    p.add_argument("--a", type=int, required=True,
                   help="character value on the infection curve")
    p.add_argument("--p", type=int, required=True, help="character order")

    p = add("cg-delta", help="discriminant factors from one infection")
    p.add_argument("--knot", required=True, help="companion spec JSON file")
    p.add_argument("--lifts", required=True,
                   help="comma separated lift values, e.g. 1,2,4")
    p.add_argument("--p", type=int, default=7, help="residue field order")

    p = add("obstruct-twisted-double",
            help="slice obstruction for the doubled unknot family")
    p.add_argument("--a", type=int, required=True, help="clasp parameter")
    p.add_argument("--n", type=int, default=1, help="number of summands")
    p.add_argument("--budget", type=int)

    p = add("obstruct-order2",
            help="slice obstruction for the order-two satellite pair")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--budget", type=int)

    p = add("obstruct-mutant-sum",
            help="norm obstruction for sums of mutant satellites")
    p.add_argument("--knot", required=True,
                   help="JSON file with companions/signs/mode")
    p.add_argument("--mode", choices=["enumerate", "abstract"])
    p.add_argument("--budget", type=int)

    p = add("su2", help="representation arc count for (-a, a+1) torus knots")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--t", help="rational sample point in (0,1)")
    p.add_argument("--grid", type=int, default=100,
                   help="window sample count when --t is absent")

    p = add("labelings", help="metacyclic labelings of a planar diagram")
    p.add_argument("--pd", required=True, help="PD text file")
    p.add_argument("--p", type=int, help="dihedral: labels mod this prime")
    p.add_argument("--d", type=int,
                   help="metacyclic exponent (default 2)")
    p.add_argument("--n", type=int, help="metacyclic modulus")
    p.add_argument("--q", type=int, help="metacyclic twist")
    p.add_argument("--classify", action="store_true",
                   help="also report labelings modulo translation")

    return top


def _render(obj, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k in obj:
            v = obj[k]
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_render(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {json.dumps(v)}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}-")
                lines.extend(_render(v, indent + 1))
            else:
                lines.append(f"{pad}- {json.dumps(v)}")
    else:
        lines.append(f"{pad}{json.dumps(obj)}")
    return lines


def main(argv=None):
    args = _build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        echo, payload, notes = _HANDLERS[args.command](args)
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except PreconditionError as e:
        print(f"precondition violated: {e}", file=sys.stderr)
        return 2
    report = {"command": args.command,
              "input": echo,
              "result": payload,
              "notes": notes}
    if args.json:
        text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    else:
        text = "\n".join(_render(report))
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so that the flush
        # at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    print(f"elapsed seconds: {time.monotonic() - started:.3f}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
