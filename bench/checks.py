"""Answer checks made apart from the program.

Nothing here imports `knotconcord`.  Each knot spec is read into signed
parts: torus knots, whose signatures come from Litherland's lattice-point
count and whose Alexander polynomials have a closed form, and explicit
Seifert matrices, whose signatures come from numpy eigenvalues and whose
Alexander polynomials come from a sympy determinant.  Each check raises
CheckFailed with a reason.

    signature      numpy / Litherland value; exit 2 exactly where Phi_d
                   divides the Alexander polynomial (sympy)
    cover          order = |Res(Delta, 1 + x + ... + x^(d-1))| (sympy)
    metabolizers   order sqrt|H|, isotropic under the reported Gram matrix,
                   invariant list = deck-stable part of the full list, and
                   for (Z/p)^2m the count of Lagrangians in closed form
    labelings      p * p^(invariant factors of H_1(double cover) divisible
                   by p), with H_1 read off V + V^T (sympy Smith form)
    drivers        twisted doubles a >= 2 obstructed, a = 1 no claim;
                   order-two coefficient +-4(i-j), obstructed iff i != j;
                   every mutant-sum case NOT_NORM
"""

import json
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, prod

import numpy as np
import sympy as sp
from sympy.matrices.normalforms import smith_normal_form

X = sp.Symbol("x")

# an eigenvalue ratio below this is too close to rounding to trust a sign
TRUST_RATIO = 1e-9


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# knot specs -> signed parts


def parts(spec, sign=1):
    """[(sign, ("torus", p, q)) | (sign, ("matrix", entries))], p, q > 0."""
    kind = spec["kind"]
    if kind == "torus":
        p, q = spec["p"], spec["q"]
        s = -sign if (p < 0) != (q < 0) else sign
        return [(s, ("torus", abs(p), abs(q)))]
    if kind == "twisted_double":
        m = spec["a"] * (spec["a"] + 1)
        return [(sign, ("matrix", ((-1, 1), (0, m))))]
    if kind == "matrix":
        return [(sign, ("matrix", tuple(tuple(r) for r in spec["entries"])))]
    if kind == "mirror":
        return parts(spec["knot"], -sign)
    if kind == "sum":
        return [pt for item in spec["summands"]
                for pt in parts(item["knot"], sign * item.get("sign", 1))]
    raise CheckFailed("no independent model for knot kind %r" % (kind,))


@lru_cache(maxsize=None)
def alexander(part):
    """Alexander polynomial of a part as a sympy Poly in x."""
    if part[0] == "torus":
        _, p, q = part
        num = (X ** (p * q) - 1) * (X - 1)
        den = (X ** p - 1) * (X ** q - 1)
        return sp.Poly(sp.cancel(num / den), X)
    V = sp.Matrix(part[1])
    return sp.Poly(sp.expand((V - X * V.T).det()), X)


@lru_cache(maxsize=None)
def singular(part, d):
    """Whether exp(2 pi i k/d), gcd(k, d) = 1, is a root of Delta."""
    return alexander(part).rem(sp.Poly(sp.cyclotomic_poly(d, X), X)).is_zero


def litherland(p, q, t):
    """Signature of the positive torus knot T(p, q) at exp(2 pi i t):
    lattice points i/p + j/q outside (t, t+1) minus those inside."""
    out = inside = 0
    for i in range(1, p):
        for j in range(1, q):
            x = Fraction(i, p) + Fraction(j, q)
            if x == t or x == t + 1:
                raise CheckFailed("T(%d,%d) is singular at %s" % (p, q, t))
            if t < x < t + 1:
                inside += 1
            else:
                out += 1
    return out - inside


def numpy_signature(entries, t):
    V = np.array(entries, dtype=float)
    w = np.exp(2j * np.pi * float(t))
    M = (1 - w) * V + (1 - np.conj(w)) * V.T
    lam = np.linalg.eigvalsh(M)
    mags = np.abs(lam)
    require(mags.min() > TRUST_RATIO * mags.max(),
            "eigenvalues too close to 0 to trust a sign at t = %s" % t)
    return int((lam > 0).sum() - (lam < 0).sum())


def signature(spec, t):
    """Independent signature at t, or None where the form is singular."""
    t = Fraction(t)
    total = 0
    for sign, part in parts(spec):
        if singular(part, t.denominator):
            return None
        if part[0] == "torus":
            total += sign * litherland(part[1], part[2], t)
        else:
            total += sign * numpy_signature(part[1], t)
    return total


def cover_order(spec, d):
    """|Res(Delta, 1 + x + ... + x^(d-1))|, multiplied over the parts."""
    ring = sp.Poly(sum(X ** i for i in range(d)), X)
    return prod(abs(int(sp.resultant(alexander(part), ring)))
                for _, part in parts(spec))


# ---------------------------------------------------------------------------
# per-request checks; `report` is the parsed --json report


def check_signature(spec, t, code, report, stderr):
    expected = signature(spec, t)
    if expected is None:
        require(code == 2 and "singular" in stderr,
                "t = %s is a root of Delta, expected exit 2 (singular), got "
                "exit %s" % (t, code))
        return
    require(code == 0, "t = %s is regular, got exit %s: %s"
            % (t, code, stderr))
    require(report["result"]["t"] == str(Fraction(t)), "t echoed wrong")
    got = report["result"]["signature"]
    require(got == expected, "signature at %s is %s, independent value %s"
            % (t, got, expected))


def check_cover(spec, d, report):
    res = report["result"]
    order = cover_order(spec, d)
    factors = res["invariant_factors"]
    require(res["degree"] == d, "cover degree echoed wrong")
    require(res["order"] == order, "cover order %s, resultant gives %s"
            % (res["order"], order))
    require(prod(factors) == order, "invariant factors do not multiply "
            "to the order")
    require(all(f > 1 for f in factors)
            and all(b % a == 0 for a, b in zip(factors, factors[1:])),
            "invariant factors %s are not a divisor chain" % (factors,))


def _add(a, b, group):
    return tuple((x + y) % f for x, y, f in zip(a, b, group))


def span(gens, group):
    """Every element of the subgroup the generators span."""
    elems = {tuple(0 for _ in group)}
    for g in gens:
        frontier = elems
        while frontier:
            frontier = {_add(e, g, group) for e in frontier} - elems
            elems = elems | frontier
    return frozenset(elems)


def _legendre(a, p):
    return pow(a % p, (p - 1) // 2, p)


def lagrangian_count(group, gram):
    """Number of metabolizers of a form on (Z/p)^2m, or None when no
    closed form applies: not elementary, or p = 2 and not alternating."""
    k = len(group)
    p = group[0] if group else 0
    if k == 0 or k % 2 or any(f != p for f in group) or not sp.isprime(p):
        return None
    m = k // 2
    B = [[int(Fraction(x) * p) % p for x in row] for row in gram]
    if p == 2:
        if any(B[i][i] for i in range(k)):
            return None
        return prod(2 ** i + 1 for i in range(1, m + 1))
    disc = int(sp.Matrix(B).det()) % p
    hyperbolic = _legendre((-1) ** m * disc, p) == 1
    return prod(p ** i + 1 for i in range(m)) if hyperbolic else 0


def check_metabolizers(linking, full, inv):
    """linking, full, inv: reports of `linking`, `metabolizers` and
    `metabolizers --invariant-only` on the same knot and degree."""
    lk = linking["result"]
    group = tuple(lk["group"])
    gram = [[Fraction(x) for x in row] for row in lk["gram"]]
    den = 1
    for row in gram:
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
    N = [[int(x * den) for x in row] for row in gram]    # lk = N / den
    deck = lk["deck"]
    k = len(group)
    half = isqrt(prod(group))
    require(half * half == prod(group) or not full["result"]["count"],
            "metabolizers reported for a group of non-square order")

    def subgroups(report, label):
        res = report["result"]
        mets = res["metabolizers"]
        require(res["count"] == len(mets), label + " count differs from list")
        out = []
        for m in mets:
            require(tuple(m["group"]) == group, label + " group differs")
            gens = [tuple(g) for g in m["generators"]]
            elems = span(gens, group)
            require(len(elems) == half == m["order"],
                    "%s subgroup %s has order %d (reported %s), want %d"
                    % (label, gens, len(elems), m["order"], half))
            for h in gens:
                Nh = [sum(row[j] * h[j] for j in range(k)) for row in N]
                for g in gens:
                    require(sum(g[i] * Nh[i] for i in range(k)) % den == 0,
                            "%s subgroup %s does not pair to zero"
                            % (label, gens))
            out.append((elems, gens))
        require(len({e for e, _ in out}) == len(out), label + " repeats")
        return out

    full_list = subgroups(full, "full")
    inv_list = subgroups(inv, "invariant")

    def stable(elems, gens):
        return all(tuple(sum(deck[i][j] * g[j] for j in range(k)) % group[i]
                         for i in range(k)) in elems for g in gens)

    want = {e for e, gens in full_list if stable(e, gens)}
    require({e for e, _ in inv_list} == want,
            "invariant list (%d) is not the deck-stable part of the full "
            "list (%d)" % (len(inv_list), len(want)))
    count = lagrangian_count(group, lk["gram"])
    if count is not None:
        require(len(full_list) == count, "%d metabolizers, the Lagrangian "
                "count of this form is %d" % (len(full_list), count))


def check_linking(cover, linking):
    require(linking["result"]["group"] == cover["result"]["invariant_factors"],
            "linking group differs from the cover's invariant factors")


def double_cover_factors(entries):
    V = sp.Matrix(entries)
    snf = smith_normal_form(V + V.T, domain=sp.ZZ)
    return [abs(int(snf[i, i])) for i in range(snf.rows)]


def check_labelings(pd_text, entries, p, report):
    res = report["result"]
    require(report["input"]["pd"] == pd_text.split(), "PD echoed wrong")
    factors = double_cover_factors(entries)
    want = p * p ** sum(1 for f in factors if f % p == 0)
    size = res["labelings"]["size"]
    require(size == want, "%d labelings mod %d, want %d" % (size, p, want))
    if "characters" in res:
        require(res["characters"]["order"] * p == size,
                "characters modulo translation do not number size / p")


def check_twisted_double(a, n, report):
    res = report["result"]
    if a == 1:
        require(res["claim"] is None and res["obstructed"] is False,
                "a = 1 must give no claim")
        return
    require(res["obstructed"] is True and res["claim"] == "not cg-slice",
            "twisted double a=%d n=%d must be obstructed" % (a, n))
    p = 2 * a + 1
    sigs = {int(j): v for j, v in res["companion_signatures"].items()}
    for j in range(1, p):
        want = -litherland(a, a + 1, Fraction(j, p))
        require(sigs.get(j) == want, "companion T(-%d,%d) signature at %d/%d "
                "is %s, want %d" % (a, a + 1, j, p, sigs.get(j), want))


def check_order2(i, j, report):
    res = report["result"]
    c = res["coefficient"]
    require(abs(c) == 4 * abs(i - j), "order-two coefficient %d, want "
            "+-4(i-j) = +-%d" % (c, 4 * abs(i - j)))
    require(res["obstructed"] is (i != j),
            "order-two pair (%d, %d) obstructed=%s" % (i, j, res["obstructed"]))


def check_mutant_sum(report):
    res = report["result"]
    verdicts = [c["verdict"] for c in res["cases"]]
    require(verdicts, "no mutant-sum cases")
    require(all(v == "NOT_NORM" for v in verdicts),
            "mutant-sum verdicts %s are not all NOT_NORM" % sorted(set(verdicts)))
    require(res["obstructed"] is True, "mutant sum not obstructed")


# ---------------------------------------------------------------------------
# a whole round


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def check_round(specs, pds, diagrams, requests):
    """Check every request of one round; return the list of failures.

    requests: dicts with id, argv (inputs as "@name"), code, report (the
    stdout text, for exit 0) and stderr.
    """
    failures = []
    by_id = {}
    for r in requests:
        try:
            report = json.loads(r["report"]) if r["code"] == 0 else None
            if report is not None:
                require(report["command"] == r["argv"][0],
                        "report for another command")
            by_id[r["id"]] = report
            _check_one(specs, pds, diagrams, r, report)
        except (CheckFailed, KeyError, TypeError, ValueError) as e:
            failures.append("%s: %s: %s" % (r["id"], type(e).__name__, e))
    for rid in by_id:
        if not rid.startswith("linking "):
            continue
        tag = rid[len("linking "):]
        keys = [k + tag for k in ("cover ", "linking ", "metabolizers ",
                                  "metabolizers-inv ")]
        if not all(by_id.get(k) for k in keys):
            continue        # a failed request is counted, not checked
        try:
            reports = [by_id[k] for k in keys]
            check_linking(reports[0], reports[1])
            check_metabolizers(*reports[1:])
        except (CheckFailed, KeyError, TypeError, ValueError) as e:
            failures.append("metabolizers %s: %s: %s"
                            % (tag, type(e).__name__, e))
    return failures


def _check_one(specs, pds, diagrams, r, report):
    argv, code = r["argv"], r["code"]
    cmd = argv[0]
    if cmd == "signature":
        spec = specs[_arg(argv, "--knot")[1:]]
        require(report is None or report["input"]["knot"] == spec,
                "knot echoed wrong")
        check_signature(spec, _arg(argv, "--t"), code, report, r["stderr"])
        return
    require(code == 0, "exit %s: %s" % (code, r["stderr"]))
    if cmd in ("cover", "linking", "metabolizers"):
        spec = specs[_arg(argv, "--knot")[1:]]
        require(report["input"]["knot"] == spec, "knot echoed wrong")
        if cmd == "cover":
            check_cover(spec, int(_arg(argv, "--d")), report)
    elif cmd == "labelings":
        name = _arg(argv, "--pd")[1:]
        check_labelings(pds[name], diagrams[name], int(_arg(argv, "--p")),
                        report)
    elif cmd == "obstruct-twisted-double":
        check_twisted_double(int(_arg(argv, "--a")), int(_arg(argv, "--n")),
                             report)
    elif cmd == "obstruct-order2":
        check_order2(int(_arg(argv, "--i")), int(_arg(argv, "--j")), report)
    elif cmd == "obstruct-mutant-sum":
        check_mutant_sum(report)
    else:
        raise CheckFailed("no check for command %r" % (cmd,))
