"""The three workloads: which requests, on which inputs, in which order.

A workload is a fixed list of operations.  An operation is a small group
of `knotconcord ... --json` requests on one input (a knot's sweep over
k/d at one denominator, or cover + linking + metabolizers of one sum),
so that no timed unit is a lone millisecond request.  The seed only
shuffles the order of the operations and of the requests inside them;
the set of requests, and with it every answer, is the same for every
seed.

Inputs are plain data: knot specs in the `knotconcord` JSON schema and
PD codes.  `write_inputs` writes them into a directory, and request
argv refer to those files only.
"""

import json
import os
import random
from fractions import Fraction
from math import gcd

WORKLOADS = ("sig_sweep", "sig_large_d", "cover_metab")


# ---------------------------------------------------------------------------
# input specs


def torus(p, q):
    return {"kind": "torus", "p": p, "q": q}


def twisted_double(a):
    return {"kind": "twisted_double", "a": a}


def matrix(entries):
    return {"kind": "matrix", "entries": [list(r) for r in entries]}


def ksum(*parts):
    return {"kind": "sum",
            "summands": [{"sign": s, "knot": k} for s, k in parts]}


def t2q_matrix(q):
    """Seifert matrix of T(2, q): -1 on the diagonal, 1 above it."""
    n = q - 1
    return [[-1 if i == j else (1 if j == i + 1 else 0) for j in range(n)]
            for i in range(n)]


TREFOIL = t2q_matrix(3)
FIG8 = [[1, 1], [0, -1]]


def t2q_pd(q):
    """PD code of the closed 2-braid sigma_1^q (q odd), edges 1..2q."""
    n = 2 * q

    def e(x):
        return (x - 1) % n + 1

    return " ".join("X[%d,%d,%d,%d]" % (e(2 * i - 1), e(2 * i - 1 + q),
                                        e(2 * i), e(2 * i + q))
                    for i in range(1, q + 1))


FIG8_PD = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"

# PD diagrams with the Seifert matrix of the knot they draw; the labeling
# check reads the double-cover homology off that matrix.
DIAGRAMS = {
    "trefoil": (t2q_pd(3), TREFOIL),
    "fig8": (FIG8_PD, FIG8),
    "t2_5": (t2q_pd(5), t2q_matrix(5)),
    "t2_7": (t2q_pd(7), t2q_matrix(7)),
}


def units_mod(d):
    return [k for k in range(1, d) if gcd(k, d) == 1]


# ---------------------------------------------------------------------------
# request helpers; argv entries "@name" stand for the input file `name`


def sig_requests(name, d):
    """signature of one knot at every k/d in lowest terms."""
    return [("signature %s %d/%d" % (name, k, d),
             ["signature", "--knot", "@" + name, "--t", "%d/%d" % (k, d)])
            for k in units_mod(d)]


def cover_op(knots, pd=None):
    """cover, linking and both metabolizer lists of each (knot, d), with
    the labelings of a PD diagram at p = 3, 5, 7 riding along."""
    reqs = []
    if pd:
        reqs += [("labelings %s p=%d" % (pd, p),
                  ["labelings", "--pd", "@" + pd, "--p", str(p),
                   "--classify"]) for p in (3, 5, 7)]
    for name, d in knots:
        tag, dd = "%s d=%d" % (name, d), str(d)
        reqs += [("cover " + tag, ["cover", "--knot", "@" + name, "--d", dd]),
                 ("linking " + tag,
                  ["linking", "--knot", "@" + name, "--d", dd]),
                 ("metabolizers " + tag,
                  ["metabolizers", "--knot", "@" + name, "--d", dd]),
                 ("metabolizers-inv " + tag,
                  ["metabolizers", "--knot", "@" + name, "--d", dd,
                   "--invariant-only"])]
    label = "cover " + ", ".join("%s d=%d" % k for k in knots)
    return (label + (" + labelings %s" % pd if pd else ""), reqs)


def mutant_op(names, modes):
    reqs = [("mutant-sum %s %s" % (name, m),
             ["obstruct-mutant-sum", "--knot", "@" + name, "--mode", m])
            for name in names for m in modes]
    return ("mutant-sum " + " ".join(names), reqs)


# ---------------------------------------------------------------------------
# the workloads


def _sig_sweep():
    specs = {}
    ops = []
    for a in range(2, 7):
        specs["tn%d" % a] = torus(-a, a + 1)
    for q in (5, 7, 9, 11):
        specs["t2_%d" % q] = torus(2, q)
    for a in (1, 2):
        specs["td%d" % a] = twisted_double(a)
    specs["fig8"] = matrix(FIG8)
    specs["sum_tn3_td2"] = ksum((1, torus(-3, 4)), (1, twisted_double(2)))
    specs["sum_td2_td3_fig8"] = ksum((1, twisted_double(2)),
                                     (-1, twisted_double(3)),
                                     (1, matrix(FIG8)))
    # one operation per knot (or family of small knots): every k/d at each
    # denominator; phi(d) runs from 4 to 24, and d = 10, 12 and 14 hit
    # roots of the torus knots' Alexander polynomials
    sweeps = [("T(-2,3)", [("tn2", 25)]),
              ("T(-3,4)", [("tn3", 12), ("tn3", 13)]),
              ("T(-4,5)", [("tn4", 7), ("tn4", 10)]),
              ("T(-5,6)", [("tn5", 5)]),
              ("T(-6,7)", [("tn6", 5)]),
              ("T(2,q)", [("t2_5", 10), ("t2_7", 14), ("t2_9", 5),
                          ("t2_11", 3)]),
              ("twisted doubles", [("td1", 35), ("td2", 16)]),
              ("sums", [("sum_tn3_td2", 5), ("sum_td2_td3_fig8", 13)])]
    for label, parts in sweeps:
        ops.append(("sweep " + label,
                    [r for name, d in parts for r in sig_requests(name, d)]))
    # twisted doubles: 2a+1 must be prime, so a = 4 is no input; a = 5
    # takes 2 s a request, a = 6 5 s, and n > 1 multiplies that
    for group in (((1, 1), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)), ((2, 4),),
                  ((5, 1),)):
        ops.append(("twisted-double " + " ".join("a=%d,n=%d" % an
                                                  for an in group),
                    [("obstruct-twisted-double a=%d n=%d" % (a, n),
                      ["obstruct-twisted-double", "--a", str(a),
                       "--n", str(n)]) for a, n in group]))
    for group in (((1, 1), (1, 2)), ((2, 1), (2, 2)), ((3, 3), (4, 4)),
                  ((1, 4),), ((3, 4),)):
        ops.append(("order2 " + " ".join("i=%d,j=%d" % ij for ij in group),
                    [("obstruct-order2 i=%d j=%d" % (i, j),
                      ["obstruct-order2", "--i", str(i), "--j", str(j)])
                     for i, j in group]))
    return specs, {}, ops


def _sig_large_d():
    specs = {"trefoil": matrix(TREFOIL), "fig8": matrix(FIG8),
             "t2_5": matrix(t2q_matrix(5)), "td2": matrix([[-1, 1], [0, 6]])}
    points = [("trefoil", Fraction(1, 101)), ("trefoil", Fraction(7, 127)),
              ("trefoil", Fraction(40, 151)),
              ("fig8", Fraction(3, 103)), ("fig8", Fraction(50, 139)),
              ("t2_5", Fraction(1, 107)), ("t2_5", Fraction(33, 113)),
              ("td2", Fraction(2, 109)), ("td2", Fraction(60, 131)),
              ("trefoil", Fraction(17, 109)), ("trefoil", Fraction(1, 211))]
    ops = [("signature %s %s" % (n, t),
            [("signature %s %s" % (n, t),
              ["signature", "--knot", "@" + n, "--t", str(t)])])
           for n, t in points]
    return specs, {}, ops


def _cover_metab():
    t23, t25, t27 = torus(2, 3), torus(2, 5), torus(2, 7)
    specs = {
        "t25x3_mt25x3": ksum(*([(1, t25)] * 3 + [(-1, t25)] * 3)),
        "t23x4": ksum(*([(1, t23)] * 4)),
        "t23x2_mt23x2": ksum((1, t23), (1, t23), (-1, t23), (-1, t23)),
        "t23x3_mt23x3": ksum(*([(1, t23)] * 3 + [(-1, t23)] * 3)),
        "td2x4": ksum(*([(1, twisted_double(2))] * 4)),
        "fig8x6": ksum(*([(1, matrix(FIG8))] * 6)),
        "t27x2_mt27x2": ksum((1, t27), (1, t27), (-1, t27), (-1, t27)),
        "mutant_equal_pair": {"companions": [[[-1, 1], [0, 3]],
                                             [[-1, 1], [0, 3]]]},
        "mutant_mixed_pair": {"companions": [[[-1, 1], [0, 3]],
                                             [[-1, 1], [0, 5]]],
                              "signs": [1, -1]},
        "mutant_single": {"companions": [[[-1, 1], [0, 3]]]},
        "mutant_triple": {"companions": [[[-1, 1], [0, 3]], [[-1, 1], [0, 3]],
                                         [[-1, 1], [0, 5]]]},
        "mutant_triple_mixed": {"companions": [[[-1, 1], [0, 3]],
                                               [[-1, 1], [0, 5]],
                                               [[-1, 1], [0, 5]]],
                                "signs": [1, -1, -1]},
    }
    pds = {name: pd for name, (pd, _) in DIAGRAMS.items()}
    ops = [cover_op([("t25x3_mt25x3", 2)], "t2_5"),
           cover_op([("t23x4", 3)], "trefoil"),
           cover_op([("t23x2_mt23x2", 3)]),
           cover_op([("t23x3_mt23x3", 2), ("td2x4", 2)]),
           cover_op([("fig8x6", 2)], "fig8"),
           cover_op([("t27x2_mt27x2", 2)], "t2_7"),
           mutant_op(["mutant_equal_pair"], ("enumerate", "abstract")),
           # the single-companion sum takes 15 ms, so it rides along
           mutant_op(["mutant_mixed_pair", "mutant_single"],
                     ("enumerate", "abstract")),
           mutant_op(["mutant_triple"], ("abstract",)),
           mutant_op(["mutant_triple_mixed"], ("abstract",))]
    return specs, pds, ops


_BUILDERS = {"sig_sweep": _sig_sweep, "sig_large_d": _sig_large_d,
             "cover_metab": _cover_metab}


def workload(name, seed):
    """(specs, pds, ops) with ops in the seeded order.

    specs: name -> knot spec; pds: name -> PD text; ops: list of
    (op_id, [(request_id, argv), ...]).
    """
    specs, pds, ops = _BUILDERS[name]()
    rng = random.Random("%s/%d" % (name, seed))
    ops = [(oid, rng.sample(reqs, len(reqs))) for oid, reqs in ops]
    rng.shuffle(ops)
    return specs, pds, ops


def write_inputs(specs, pds, directory):
    """Write every input file; return name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, spec in specs.items():
        path = os.path.join(directory, name + ".json")
        with open(path, "w") as fh:
            json.dump(spec, fh, sort_keys=True)
        paths[name] = path
    for name, text in pds.items():
        path = os.path.join(directory, name + ".pd")
        with open(path, "w") as fh:
            fh.write(text + "\n")
        paths[name] = path
    return paths


def resolve(argv, paths):
    return [paths[a[1:]] if a.startswith("@") else a for a in argv] + ["--json"]
