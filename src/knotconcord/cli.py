"""Command line front end.

Every subcommand reads JSON knot descriptions (the build() schema) or
planar diagram text, dispatches to one module operation, and emits a
report.  Reports are JSON objects; the default output is an indented
human-readable rendering of the same object, and --json switches to the
canonical compact form, which is byte-identical across reruns.  Timing
goes to stderr so it never perturbs the report bytes.

The command line is read against one table, _COMMANDS; -h or --help
prints usage built from it.  Exit codes: 0 success, 1 stdout closed
before the report was written, 2 precondition violated (a malformed
command line included), 3 enumeration budget exceeded.
"""

import json
import os
import re
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

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

# Every number from outside is read by one ASCII rule: digits 0-9 with an
# optional sign, and for a rational an optional /denominator or an exact
# decimal (0.2 reads as 1/5).  int() and Fraction() alone also take
# non-ASCII digits, underscores, exponents and surrounding whitespace.
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?([0-9]+(/0*[1-9][0-9]*)?|[0-9]*\.[0-9]+)")


def _int(text):
    """The integer that text spells under the ASCII rule; ValueError, naming
    what was expected, for any other text."""
    if _INTEGER.fullmatch(text) is None:
        raise ValueError("an integer")
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise ValueError("an integer within Python's digit limit")


def _rational(text):
    """The Fraction that text spells under the ASCII rule, like _int."""
    if _RATIONAL.fullmatch(text) is None:
        raise ValueError("a rational number such as 2/5 or 0.2")
    return Fraction(text)


def _choice(*names):
    """A reader that accepts exactly one of names."""
    def read(text):
        if text not in names:
            raise ValueError("one of " + ", ".join(names))
        return text
    return read


def _unique_keys(pairs):
    """The JSON object of pairs; a repeated key, of which json would keep
    the last value, is a ValueError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _load_json(path):
    text = _load_text(path)
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise PreconditionError(f"{path} is not valid JSON: {e}")
    except ValueError as e:  # a repeated key, or too many digits for int()
        raise PreconditionError(f"cannot read {path}: {e}")
    except RecursionError:
        raise PreconditionError(f"cannot read {path}: nested too deeply")


def _load_text(path):
    """The text of the file at path, decoded as strict UTF-8 whatever the
    locale."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise PreconditionError(f"cannot read {path}: {e}")
    except UnicodeDecodeError as e:
        raise PreconditionError(f"{path} is not UTF-8 text: {e}")


def _budget(args):
    if args.budget is not None:
        budget, source = args.budget, "--budget"
    elif BUDGET_ENV in os.environ:
        env, source = os.environ[BUDGET_ENV], BUDGET_ENV
        try:
            budget = _int(env)
        except ValueError:
            raise PreconditionError(
                f"{BUDGET_ENV} must be an integer, got {env!r}")
    else:
        return DEFAULT_BUDGET
    if budget < 1:
        raise PreconditionError(f"{source} must be at least 1, got {budget}")
    return budget


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
    spec, t = _load_json(args.knot), args.t
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
        lifts = [_int(x) for x in args.lifts.split(",")]
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
        t = args.t
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


# command -> (handler, help blurb, {option: (reader, default, required,
# help)}).  A reader turns an option's text into its value or raises
# ValueError naming what it expected; the reader bool marks a flag, which
# takes no value and reads True.  Every command also takes --json.
_KNOT = (str, None, True, "knot spec JSON file")
_COMPANION = (str, None, True, "companion spec JSON file")
_DEGREE = (_int, 2, False, "cover degree")
_BUDGET = (_int, None, False, f"candidate budget (else ${BUDGET_ENV}, "
                              f"else {DEFAULT_BUDGET})")
_JSON = (bool, False, False, "emit the canonical compact JSON report")

_COMMANDS = {
    "alexander": (_cmd_alexander, "Alexander polynomial of a knot spec",
                  {"--knot": _KNOT}),
    "signature": (_cmd_signature,
                  "Levine-Tristram signature at a rational t", {
        "--knot": _KNOT,
        "--t": (_rational, None, True, "rational in (0,1), e.g. 2/5")}),
    "cover": (_cmd_cover, "branched cover homology",
              {"--knot": _KNOT, "--d": _DEGREE}),
    "linking": (_cmd_linking, "linking form of the branched cover",
                {"--knot": _KNOT, "--d": _DEGREE}),
    "metabolizers": (_cmd_metabolizers,
                     "enumerate metabolizers of the linking form", {
        "--knot": _KNOT, "--d": _DEGREE,
        "--invariant-only": (bool, False, False,
                             "keep only deck-invariant metabolizers"),
        "--budget": _BUDGET}),
    "cg-sigma": (_cmd_cg_sigma, "signature growth from one infection", {
        "--knot": _COMPANION,
        "--a": (_int, None, True, "character value on the infection curve"),
        "--p": (_int, None, True, "character order")}),
    "cg-delta": (_cmd_cg_delta, "discriminant factors from one infection", {
        "--knot": _COMPANION,
        "--lifts": (str, None, True, "comma separated lift values, e.g. 1,2,4"),
        "--p": (_int, 7, False, "residue field order")}),
    "obstruct-twisted-double": (
        _cmd_twisted_double,
        "slice obstruction for the doubled unknot family", {
            "--a": (_int, None, True, "clasp parameter"),
            "--n": (_int, 1, False, "number of summands"),
            "--budget": _BUDGET}),
    "obstruct-order2": (
        _cmd_order2, "slice obstruction for the order-two satellite pair", {
            "--i": (_int, None, True, "first companion index"),
            "--j": (_int, None, True, "second companion index"),
            "--budget": _BUDGET}),
    "obstruct-mutant-sum": (
        _cmd_mutant_sum, "norm obstruction for sums of mutant satellites", {
            "--knot": (str, None, True, "JSON file with companions/signs/mode"),
            "--mode": (_choice("enumerate", "abstract"), None, False,
                       "overrides the file's mode"),
            "--budget": _BUDGET}),
    "su2": (_cmd_su2, "representation arc count for (-a, a+1) torus knots", {
        "--a": (_int, None, True, "torus parameter"),
        "--t": (_rational, None, False, "rational sample point in (0,1)"),
        "--grid": (_int, 100, False, "window sample count when --t is absent")}),
    "labelings": (_cmd_labelings, "metacyclic labelings of a planar diagram", {
        "--pd": (str, None, True, "PD text file"),
        "--p": (_int, None, False, "dihedral: labels mod this prime"),
        "--d": (_int, None, False, "metacyclic exponent (default 2)"),
        "--n": (_int, None, False, "metacyclic modulus"),
        "--q": (_int, None, False, "metacyclic twist"),
        "--classify": (bool, False, False,
                       "also report labelings modulo translation")}),
}


def _parse(argv):
    """argv read against _COMMANDS: a namespace with `command` and one
    attribute per option of that command, named without the leading
    dashes and with - as _.  An option is `--opt value` or `--opt=value`,
    spelled out in full, and the last of repeats wins.  Any other command
    line raises PreconditionError."""
    if not argv or argv[0] not in _COMMANDS:
        raise PreconditionError(
            (f"unknown command {argv[0]!r}" if argv else "no command given")
            + "; expected one of " + ", ".join(_COMMANDS))
    command = argv[0]
    options = {**_COMMANDS[command][2], "--json": _JSON}
    given = {}
    words = iter(argv[1:])
    for word in words:
        name, eq, text = word.partition("=")
        if name not in options:
            raise PreconditionError(f"unknown option {word!r} for {command}")
        reader = options[name][0]
        if reader is bool:
            if eq:
                raise PreconditionError(f"{name} takes no value")
            given[name] = True
            continue
        if not eq:
            text = next(words, None)
            if text is None:
                raise PreconditionError(f"{name} needs a value")
        try:
            given[name] = reader(text)
        except ValueError as e:
            raise PreconditionError(f"{name} must be {e}, got {text!r}")
    args = SimpleNamespace(command=command)
    for name, (_, default, required, _) in options.items():
        if required and name not in given:
            raise PreconditionError(f"{command} needs {name}")
        setattr(args, name[2:].replace("-", "_"), given.get(name, default))
    return args


def _usage(command=None):
    """Help text built from _COMMANDS: the commands, or one command's
    options."""
    if command is None:
        width = max(map(len, _COMMANDS))
        return "\n".join(
            ["usage: knotconcord COMMAND [--OPTION VALUE | --OPTION=VALUE] ...",
             "", "Exact concordance obstructions from Seifert data, branched "
             "covers, and satellite constructions.", "", "commands:"]
            + [f"  {name:<{width}}  {blurb}"
               for name, (_, blurb, _) in _COMMANDS.items()]
            + ["", "knotconcord COMMAND --help lists the options of COMMAND."])
    _, blurb, options = _COMMANDS[command]
    options = {**options, "--json": _JSON}
    heads = {name: name if reader is bool else name + " VALUE"
             for name, (reader, *_) in options.items()}
    width = max(map(len, heads.values()))
    lines = [f"usage: knotconcord {command} [OPTION] ...", "", blurb, "",
             "options:"]
    for name, (_, default, required, text) in options.items():
        note = (" (required)" if required else
                "" if default in (None, False) else f" (default {default})")
        lines.append(f"  {heads[name]:<{width}}  {text}{note}")
    return "\n".join(lines)


def _render(obj, indent=0):
    pad = "  " * indent
    lines = []
    # a tuple is an array in JSON and renders as a list does
    if isinstance(obj, dict):
        for k in obj:
            v = obj[k]
            if isinstance(v, (dict, list, tuple)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_render(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {json.dumps(v)}")
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            if isinstance(v, (dict, list, tuple)) and v:
                lines.append(f"{pad}-")
                lines.extend(_render(v, indent + 1))
            else:
                lines.append(f"{pad}- {json.dumps(v)}")
    else:
        lines.append(f"{pad}{json.dumps(obj)}")
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_usage(argv[0] if argv[0] in _COMMANDS else None)
                         + "\n")
        return 0
    started = time.monotonic()
    try:
        args = _parse(argv)
        echo, payload, notes = _COMMANDS[args.command][0](args)
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
        # a report holds no cycle: each handler builds its dicts and lists
        # afresh, and the leaves it shares with the caches, such as a
        # metabolizer's rows, are tuples of ints, which cannot hold one
        text = json.dumps(report, sort_keys=True, separators=(",", ":"),
                          check_circular=False)
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
