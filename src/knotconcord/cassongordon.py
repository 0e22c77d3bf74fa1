"""Signature-growth and discriminant obstruction calculus.

Two algebraic carriers feed the slice-obstruction drivers.  A SigGrowth is
the class of a signature-defect sequence (c * 2^k) modulo bounded sequences;
only the rational growth coefficient c survives, and nonvanishing of c is
the obstruction.  A DiscExpr is a formal product of shifted Alexander
polynomial factors f(zeta^a t) over p-th roots of unity, together with
opaque self-conjugate residual tokens for base knots whose discriminant is
not presentable; the norm test decides membership in the subgroup of norms
g(t) * conj(g)(t) by multiplicity parity, under genericity hypotheses that
are checked exactly where checkable.

Satellite rules translate a character's values on the lifts of an infection
curve into signature shifts and discriminant factors.  Three drivers
assemble end-to-end reports: the doubled-unknot family over its 2-fold
cover, the order-two satellite family over Z_5 + Z_5, and mutated-satellite
sums over the 3-fold cover with its mod-7 eigencharacter calculus.
"""

from collections import Counter
from fractions import Fraction
from math import isqrt, prod

from . import linalg
from .cover import deck_eigenspaces, direct_sum, linking_form
from .cyclo import factor, is_prime, poly_gcd
from .errors import (PreconditionError, UnsupportedShape, HypothesisUnverified,
                     BudgetExceeded, InternalInvariantViolation)
from .metabolizers import (DEFAULT_BUDGET, enumerate_metabolizers,
                           vanishing_chars, find_odd_char, admissible_pair,
                           span_vectors, subspaces, subspace_count)
from .seifert import (SeifertMatrix, KnotModel, build, alexander, check_size,
                      signature, torus_matrix, twisted_double_matrix, _integer)

NORM = "NORM"
NOT_NORM = "NOT_NORM"
UNKNOWN = "UNKNOWN"

# genus-2 carrier surface for the mutated-satellite family; its Alexander
# polynomial is the square (2t^2-5t+2)^2 and its 3-fold cover is (Z_49)^2
# with deck eigenvalues 2 and 4 on the mod-7 character space
_SATELLITE_BASE = [[-1, 1, 1, 1],
                   [0, 2, 0, 0],
                   [1, 0, -1, 1],
                   [1, 0, 0, 2]]

# modulus of the mutant-sum eigencharacter calculus: the deck eigenvalues
# 2 and 4 of the carrier's 3-fold cover are cube roots of unity mod 7 and
# under no other modulus, so the calculus holds mod 7 alone
_P = 7

_MODELING_NOTE = ("character values on companion lifts are taken nonzero "
                  "where the construction requires it; this is a modeling "
                  "assumption, not a computed fact")


def satellite_base_matrix():
    return SeifertMatrix(_SATELLITE_BASE)


def mutant_family_spec(companion_spec, mutated=True):
    """Build description of the genus-2 satellite with the companion tied
    into both bands.  The positive mutant flips the sign pattern of the
    character values on the second band's lifts; the plain satellite keeps
    both positive."""
    return {"kind": "satellite",
            "base": {"kind": "matrix",
                     "entries": [row[:] for row in _SATELLITE_BASE]},
            "base_token": "K",
            "infections": [
                {"curve": "B1", "companion": companion_spec,
                 "pattern": "triple_lift", "param": 1},
                {"curve": "B2", "companion": companion_spec,
                 "pattern": "triple_lift", "param": -1 if mutated else 1}]}


# ---------------------------------------------------------------------------
# carriers


class SigGrowth:
    """Growth class of a signature sequence (c * 2^k) modulo bounded
    sequences; c is the whole invariant.  The coefficient must be an int
    or a Fraction (not a bool); anything else raises PreconditionError."""

    __slots__ = ("coefficient",)

    def __init__(self, coefficient=0):
        if not isinstance(coefficient, Fraction):
            coefficient = Fraction(_integer(coefficient, "growth coefficient"))
        self.coefficient = coefficient

    def is_zero(self):
        return self.coefficient == 0

    def __eq__(self, other):
        return isinstance(other, SigGrowth) and self.coefficient == other.coefficient

    def __repr__(self):
        return "SigGrowth(%s)" % (self.coefficient,)

    def to_json(self):
        c = self.coefficient
        return {"coefficient": int(c) if c.denominator == 1 else str(c)}


class DiscExpr:
    """Formal discriminant class modulo norms.

    factors maps (polynomial key, shift mod p) to an integer multiplicity;
    tokens maps opaque residual symbols to multiplicities.  Every factor
    class here is fixed by conjugation (the polynomials are symmetric, so
    conj f(zeta^a t) is a unit times f(zeta^a t)), and tokens are declared
    self-conjugate, so inverses agree with the class itself modulo norms
    and only multiplicity parity matters to the norm test.

    The constructor and times() share one merge: shifts are reduced mod p,
    entries of one class add, and a class whose total is zero is dropped.
    p, key coefficients, shifts and multiplicities must be ints (not
    bools); anything else raises PreconditionError instead of being
    coerced.
    """

    __slots__ = ("p", "factors", "tokens")

    def __init__(self, p=7, factors=None, tokens=None):
        self.p = _integer(p, "root-of-unity modulus")
        if self.p < 2:
            raise PreconditionError("root-of-unity modulus must be at least 2")
        self.factors = {}
        self.tokens = {}
        self._merge(factors, tokens)

    def times(self, factors=None, tokens=None):
        """The product of this expression and the factor classes and
        tokens given in the constructor's form; this one is unchanged."""
        out = object.__new__(DiscExpr)
        out.p = self.p
        out.factors = dict(self.factors)
        out.tokens = dict(self.tokens)
        out._merge(factors, tokens)
        return out

    def _merge(self, factors, tokens):
        # a key object shared by several classes, as satellite_delta's is,
        # is checked once; by identity, since (2.0,) == (2,)
        keys = {}
        for (key, shift), mult in (factors or {}).items():
            checked = keys.get(id(key))
            if checked is None:
                checked = keys[id(key)] = tuple(
                    _integer(c, "polynomial coefficient") for c in key)
            _add(self.factors,
                 (checked, _integer(shift, "factor shift") % self.p),
                 _integer(mult, "factor multiplicity"))
        for token, mult in (tokens or {}).items():
            _add(self.tokens, token, _integer(mult, "token multiplicity"))

    def __eq__(self, other):
        return (isinstance(other, DiscExpr) and self.p == other.p
                and self.factors == other.factors and self.tokens == other.tokens)

    def __repr__(self):
        return "DiscExpr(p=%d, %d factor classes, %d tokens)" % (
            self.p, len(self.factors), len(self.tokens))

    def to_json(self):
        facs = [{"poly": list(key), "shift": shift, "multiplicity": mult}
                for (key, shift), mult in sorted(self.factors.items())]
        toks = [{"token": _token_json(tok), "multiplicity": mult}
                for tok, mult in sorted(self.tokens.items())]
        return {"p": self.p, "factors": facs, "tokens": toks}


def _add(counts, key, mult):
    """Add mult to counts[key] in place; a total of zero is dropped."""
    m = counts.get(key, 0) + mult
    if m:
        counts[key] = m
    else:
        counts.pop(key, None)


def _token_json(token):
    if isinstance(token, tuple):
        return [_token_json(t) for t in token]
    return token


def residual_token(base_id, char_id):
    """Opaque self-conjugate discriminant symbol for an unpresentable base
    knot at a character, keyed up to deck translation and conjugation."""
    return ("delta", str(base_id), char_id)


def _canonical_char_token(a, b):
    # deck translates scale the two eigencoordinates by 2 and 4, and the
    # conjugate character negates both; all of them share one residual class
    orb = []
    x, y = a % _P, b % _P
    for _ in range(3):
        orb.append((x, y))
        orb.append(((-x) % _P, (-y) % _P))
        x, y = (2 * x) % _P, (4 * y) % _P
    return min(orb)


# ---------------------------------------------------------------------------
# polynomial keys and genericity hypotheses


def _companion_matrix(J):
    if (isinstance(J, (list, tuple)) and J
            and all(isinstance(r, (list, tuple)) for r in J)):
        return SeifertMatrix(J)
    if isinstance(J, SeifertMatrix):
        return J
    if isinstance(J, KnotModel):
        if not J.matrix_only:
            raise PreconditionError("companion knots must be matrix-presented")
        return J.matrix
    if isinstance(J, dict):
        return _companion_matrix(build(J))
    raise PreconditionError(
        "companion must be a Seifert matrix, a knot model, or a build() description")


def _resolve_poly(J):
    """Polynomial key of a factor: the integer coefficient tuple (lowest
    exponent 0, positive leading coefficient) of a coefficient list
    (lowest degree first), or the Alexander polynomial of a companion
    (anything _companion_matrix accepts).  Zero ends are stripped and the
    sign is fixed; the content is kept."""
    if isinstance(J, (list, tuple)) and not any(isinstance(c, (list, tuple))
                                                for c in J):
        if any(isinstance(c, bool) or not isinstance(c, int) for c in J):
            raise PreconditionError(
                "polynomial coefficients must be integers, got %r" % (list(J),))
        support = [e for e, c in enumerate(J) if c]
        if not support:
            raise PreconditionError("zero polynomial cannot be a discriminant factor")
        key = tuple(J[support[0]:support[-1] + 1])
        return key if key[-1] > 0 else tuple(-c for c in key)
    return alexander(_companion_matrix(J))


def _squarefree_part(n):
    """Signed squarefree kernel: n over its largest square factor."""
    if n == 0:
        return 0
    return (1 if n > 0 else -1) * prod(p for p, e in factor(abs(n)) if e % 2)


class PolyHypotheses:
    """Genericity report for one companion polynomial."""

    def __init__(self, coefficients, family, corrected, symmetric,
                 discriminant, q_irreducible, zeta7_irreducible,
                 not_seventh_power_composition, notes):
        self.coefficients = tuple(coefficients)
        self.family = family
        self.corrected = corrected
        self.symmetric = symmetric
        self.discriminant = discriminant
        self.q_irreducible = q_irreducible
        self.zeta7_irreducible = zeta7_irreducible
        self.not_seventh_power_composition = not_seventh_power_composition
        self.notes = list(notes)
        self.passes = bool(symmetric and q_irreducible and zeta7_irreducible
                           and not_seventh_power_composition)

    def failures(self):
        out = []
        if not self.symmetric:
            out.append("not symmetric")
        if not self.q_irreducible:
            out.append("reducible over Q (discriminant %d is a square)"
                       % self.discriminant)
        elif not self.zeta7_irreducible:
            out.append("splits over the 7th cyclotomic field "
                       "(discriminant has squarefree part -7)")
        if not self.not_seventh_power_composition:
            out.append("is a monomial times a polynomial in t^7")
        return out

    def __repr__(self):
        return "PolyHypotheses(%r, passes=%r)" % (self.coefficients, self.passes)

    def to_json(self):
        return {"coefficients": list(self.coefficients),
                "family": self.family,
                "corrected": self.corrected,
                "symmetric": self.symmetric,
                "discriminant": self.discriminant,
                "q_irreducible": self.q_irreducible,
                "zeta7_irreducible": self.zeta7_irreducible,
                "not_seventh_power_composition": self.not_seventh_power_composition,
                "passes": self.passes,
                "notes": self.notes}


def check_poly_hypotheses(f):
    """Decide the checkable genericity hypotheses for a quadratic factor.

    Checks: symmetry; irreducibility over Q (integer quadratic, so exactly
    when the discriminant is not a perfect square); irreducibility over the
    7th cyclotomic field, which for a Q-irreducible quadratic fails only
    when its splitting field is the unique quadratic subfield Q(sqrt(-7)) --
    a real splitting field passes outright, otherwise compare squarefree
    parts; and not being a monomial times a polynomial in t^7 (no quadratic
    span is).  The doubled-unknot family m t^2 - (2m+1) t + m is recognized
    with its common sign slip (constant term printed as -m) repaired.

    Raises UnsupportedShape for anything that is not a quadratic.
    """
    key = _resolve_poly(f)
    if len(key) != 3:
        raise UnsupportedShape("hypothesis checks cover quadratics only")
    c0, c1, c2 = key
    notes = []
    corrected = False
    if c0 == -c2 and c1 == -(2 * c2 + 1):
        corrected = True
        c0 = c2
        notes.append("constant term sign repaired to +%d to match the "
                     "doubled-unknot family m*t^2-(2m+1)*t+m" % c2)
    symmetric = (c0 == c2)
    family = None
    if symmetric and c1 == -(2 * c2 + 1):
        family = "negative_clasp_double"
    elif symmetric and c1 == 1 - 2 * c2:
        family = "positive_clasp_double"
    disc = c1 * c1 - 4 * c0 * c2
    q_irreducible = disc < 0 or isqrt(disc) ** 2 != disc
    if not q_irreducible:
        zeta7 = False
    elif disc > 0:
        zeta7 = True
        notes.append("real splitting field; the only quadratic subfield of "
                     "the 7th cyclotomic field is imaginary")
    else:
        zeta7 = _squarefree_part(disc) != -7
        notes.append("imaginary splitting field compared with Q(sqrt(-7)) "
                     "by squarefree part %d" % _squarefree_part(disc))
    # the exponents 0 and 2 both carry nonzero coefficients, so the
    # exponent gaps have gcd 1 or 2, never a multiple of 7
    not_t7 = True
    return PolyHypotheses((c0, c1, c2), family, corrected, symmetric, disc,
                          q_irreducible, zeta7, not_t7, notes)


class HypothesisRecord:
    """Checked genericity facts for a collection of factor polynomials.

    Each registered polynomial carries its own report; distinct registered
    polynomials are verified pairwise coprime over Q.  Coprimality of the
    residual tokens with the factors is not checkable from a token and is
    carried as a standing assumption."""

    def __init__(self):
        self.reports = {}
        self.noncoprime = []
        self.assumes_token_coprimality = True

    @classmethod
    def for_polys(cls, polys):
        rec = cls()
        for poly in polys:
            rec.register(poly)
        return rec

    def register(self, poly):
        key = _resolve_poly(poly)
        if key in self.reports:
            return self.reports[key]
        report = check_poly_hypotheses(key)
        for other in self.reports:
            if len(poly_gcd(other, key)) != 1:
                self.noncoprime.append((other, key))
        self.reports[key] = report
        return report

    def require(self, keys):
        """Raise HypothesisUnverified unless every key has a passing report
        and the keys are pairwise coprime."""
        keys = [tuple(k) for k in keys]
        for key in keys:
            report = self.reports.get(key)
            if report is None:
                raise HypothesisUnverified("no genericity record for factor %s" % (key,))
            if not report.passes:
                raise HypothesisUnverified("factor %s fails genericity: %s"
                                           % (key, "; ".join(report.failures())))
        wanted = set(keys)
        for a, b in self.noncoprime:
            if a in wanted and b in wanted:
                raise HypothesisUnverified(
                    "factors %s and %s share a factor over Q" % (a, b))

    def to_json(self):
        return {"polynomials": [r.to_json() for _, r in sorted(self.reports.items())],
                "noncoprime_pairs": [[list(a), list(b)] for a, b in self.noncoprime],
                "assumes_token_coprimality": self.assumes_token_coprimality}


# ---------------------------------------------------------------------------
# satellite rules and exponent multisets


def satellite_sigma(base, J, a, p):
    """Signature-growth shift from one infection: the companion's signature
    at (a mod p)/p is added to the growth coefficient.  Value 0 contributes
    nothing; a singular evaluation point propagates SingularAtT.  a and p
    must be ints.

    Signatures come from seifert.signature, memoised per process on
    (companion matrix entries, arc point of (a mod p)/p), so the
    obstructions' tables and witness replays compute each arc of the
    companion's signature function once; a singular point raises in
    seifert.arc_point every time."""
    p = _integer(p, "character order")
    if p < 2:
        raise PreconditionError("character order must be at least 2, got %d" % p)
    a = _integer(a, "character value") % p
    if a == 0:
        return SigGrowth(base.coefficient)
    return SigGrowth(base.coefficient
                     + signature(_companion_matrix(J), Fraction(a, p)))


def satellite_delta(base, J, lift_values, p=None):
    """Discriminant factors from one infection: one shifted copy of the
    companion's Alexander polynomial per lift of the infection curve.
    Orientation reversal of a lift is absorbed by the symmetry of the
    polynomial, so the shift is all that is recorded.  Lift values and p
    must be ints."""
    if p is not None and _integer(p, "lift modulus") != base.p:
        raise PreconditionError("lift values are modulo %d but the expression "
                                "is over %d" % (p, base.p))
    key = _resolve_poly(J)
    return base.times(factors=Counter((key, _integer(v, "lift value") % base.p)
                                      for v in lift_values))


def _lift_values(a, b, sign):
    # values of the character on the three lifts of a band curve, at
    # eigencoordinates (a, b); the mutated band carries the negatives
    return [(sign * (a + b)) % _P,
            (sign * (2 * a + 4 * b)) % _P,
            (sign * (4 * a + 2 * b)) % _P]


# ---------------------------------------------------------------------------
# norm test


def norm_test(e, hypotheses=None):
    """Decide whether a DiscExpr lies in the subgroup of norms g * conj(g).

    Under verified genericity of the factor polynomials, a product of
    shifted symmetric factors is a norm exactly when every (polynomial,
    shift) class has even multiplicity.  Residual tokens are self-conjugate,
    so they square to norms; an odd token multiplicity leaves the verdict
    open.  Returns NOT_NORM on any odd factor class, else UNKNOWN on any
    odd token, else NORM.

    When no hypothesis record is supplied one is built from the factors
    themselves; an unverifiable factor raises HypothesisUnverified.  The
    hypotheses are checked over Q(zeta_7) only, so an expression over any
    other p raises HypothesisUnverified too.
    """
    if e.p != _P:
        raise HypothesisUnverified(
            "genericity is checked over Q(zeta_7) only, not over Q(zeta_%d)"
            % e.p)
    keys = sorted({key for (key, _shift) in e.factors})
    if hypotheses is None:
        hypotheses = HypothesisRecord()
        for key in keys:
            try:
                hypotheses.register(key)
            except UnsupportedShape:
                raise HypothesisUnverified(
                    "factor %s is outside the checkable quadratic family" % (key,))
    hypotheses.require(keys)
    if any(mult % 2 for mult in e.factors.values()):
        return NOT_NORM
    if any(mult % 2 for mult in e.tokens.values()):
        return UNKNOWN
    return NORM


# ---------------------------------------------------------------------------
# character plumbing shared by the drivers

def _dual_eigenpair(form, sign=1):
    """For a (Z_49)^2 block whose deck acts with eigenvalues 2 and 4 on the
    mod-7 character space: the matrix taking ambient character coordinates
    to eigencoordinates, the inverse mod 7 of the column matrix (w2 | w4)
    of the dual eigenvectors.

    The frame is computed mod 7: w2 and w4 come from the mod-7 split of
    the transposed deck, and characters pair through the inverse mod 7 of
    the Gram numerators.  The right eigenvector is rescaled so that the
    pairing between the two eigenvectors equals sign/7; with that
    normalization the vanishing constraint on a character with
    eigencoordinates (a_s, b_s) per summand is exactly
    sum(sign_s * a_s * b_s) = 0 mod 7."""
    if form.group != (_P * _P, _P * _P) or form.den != _P * _P:
        raise InternalInvariantViolation("block must be homogeneous of height two")
    action = [[x % _P for x in col] for col in zip(*form.deck)]
    # a direct sum carries no homology; the order of the action is then
    # its degree
    degree = form.homology.degree if form.homology is not None else None
    eigen, split = deck_eigenspaces(action, _P, 1, degree)
    if not split or [len(eigen.get(lam, ())) for lam in (1, 2, 4)] != [0, 1, 1]:
        raise InternalInvariantViolation(
            "block does not carry the split 2/4 eigencharacter calculus")
    (w2,), (w4,) = eigen[2], eigen[4]
    try:
        Ninv = linalg.modm_inverse(form.N, _P)
    except ZeroDivisionError:
        raise InternalInvariantViolation(
            "linking form is singular mod 7") from None

    def pairing(u, v):
        return sum(x * y for x, y in zip(u, linalg.mat_vec(Ninv, v))) % _P

    # invariance forces (lam * mu - 1) * pairing = 0, and 2 * 2 and 4 * 4
    # are not 1 mod 7
    if pairing(w2, w2) or pairing(w4, w4):
        raise InternalInvariantViolation(
            "character pairing breaks deck invariance")
    unit = pairing(w2, w4)
    if unit == 0:
        raise InternalInvariantViolation(
            "dual eigenvectors pair degenerately")
    scale = sign * pow(unit, -1, _P) % _P
    w4 = tuple(scale * x % _P for x in w4)
    if pairing(w2, w4) != sign % _P:
        raise InternalInvariantViolation("pairing normalization failed")
    try:
        return linalg.modm_inverse(linalg.transpose([w2, w4]), _P)
    except ZeroDivisionError:
        raise InternalInvariantViolation(
            "dual eigenvectors are dependent") from None


def _case_expression(a_vec, b_vec, model_summands, keys):
    """DiscExpr of a sum of carrier satellites at the character whose
    per-summand eigencoordinates are (a_vec, b_vec); keys[s] is the
    polynomial key of the companion that mutant_family_spec ties into
    both bands of summand s.

    Mirrored summands contribute the inverse discriminant class; every
    class here is self-conjugate, hence equal to its inverse modulo norms,
    so the multiplicities are recorded positively throughout."""
    expr = DiscExpr(_P, tokens=Counter(
        residual_token(summand.token, _canonical_char_token(a, b))
        for summand, a, b in zip(model_summands, a_vec, b_vec)
        if summand.token is not None))
    for key, summand, a, b in zip(keys, model_summands, a_vec, b_vec):
        for inf in summand.infections:
            if inf.pattern != "triple_lift":
                raise PreconditionError("discriminant assembly expects "
                                        "triple_lift infections")
            expr = satellite_delta(expr, key, _lift_values(a, b, inf.param))
    return expr


def _paired_character(rows2, rows4, n, signs):
    """Even-case character from eigen-split bases with no odd vectors:
    both sides reduce to half-dimensional echelon bases whose first rows
    couple through a single shared column; the emitted character adds the
    first-summand-signed right row to the left row."""
    red2, piv2 = linalg.modp_rref([list(r) for r in rows2], _P)
    red2 = [r for r in red2 if any(r)]
    red4, piv4 = linalg.modp_rref([list(r) for r in rows4], _P)
    red4 = [r for r in red4 if any(r)]
    if 2 * len(red2) != n or 2 * len(red4) != n:
        raise InternalInvariantViolation(
            "no-odd character spaces must have exactly half dimension")
    alpha2 = red2[0]
    p0 = piv2[0]
    support2 = [k for k in range(n) if k != p0 and alpha2[k]]
    if len(support2) != 1:
        raise InternalInvariantViolation(
            "echelon row without odd vectors must couple one pair of summands")
    q0 = support2[0]
    if p0 not in piv4:
        raise InternalInvariantViolation(
            "right eigenspace does not pair with the left pivot")
    alpha4 = red4[piv4.index(p0)]
    support4 = [k for k in range(n) if k != p0 and alpha4[k]]
    if support4 != [q0]:
        raise InternalInvariantViolation(
            "eigen-split bases do not couple the same summand pair")
    a = [x % _P for x in alpha2]
    b = [(signs[0] * x) % _P for x in alpha4]
    return a, b


def _charspace_case(rows2, rows4, n, signs, budget):
    """Decision tree on an eigen-split character space: take an odd-weight
    vector in either eigenspace if one exists, else the paired even-case
    character.  Returns (branch, a_vec, b_vec)."""
    v = find_odd_char(rows2, n, _P, budget)
    if v is not None:
        return "odd_left", [x % _P for x in v], [0] * n
    v = find_odd_char(rows4, n, _P, budget)
    if v is not None:
        return "odd_right", [0] * n, [x % _P for x in v]
    a, b = _paired_character(rows2, rows4, n, signs)
    return "paired", a, b


# ---------------------------------------------------------------------------
# driver: doubled-unknot family over the 2-fold cover


def twisted_double_obstruction(a, n=1, budget=DEFAULT_BUDGET):
    """Slice obstruction for the n-fold sum of the doubled unknot with
    clasp parameter a (2a+1 prime).

    The 2-fold cover carries (Z_{(2a+1)^2})^n; for every deck-invariant
    metabolizer and every nonzero vanishing character, the signature growth
    coefficient is a sum of companion torus-knot signatures at nonzero
    fractions j/(2a+1), each certified positive.  The companion is the
    (-a, a+1) torus knot.  For a = 1 the family gives no claim.
    """
    if not isinstance(a, int) or a < 1:
        raise PreconditionError("clasp parameter must be a positive integer")
    if not isinstance(n, int) or n < 1:
        raise PreconditionError("summand count must be a positive integer")
    check_size(a * (a - 1), "the companion T(%d,%d)" % (-a, a + 1))
    p = 2 * a + 1
    if not is_prime(p):
        raise PreconditionError("2a+1 = %d must be prime" % p)
    single = {"kind": "twisted_double", "a": a}
    spec = single if n == 1 else {
        "kind": "sum", "summands": [{"knot": dict(single)} for _ in range(n)]}
    report = {"operation": "twisted_double_obstruction",
              "knot": spec, "a": a, "p": p, "n": n,
              "assumption": _MODELING_NOTE}
    if a == 1:
        report.update({"claim": None, "obstructed": False,
                       "note": "clasp parameter 1 lies outside the obstructed "
                               "family; no claim is made"})
        return report
    companion = torus_matrix(-a, a + 1)
    sig = {j: signature(companion, Fraction(j, p)) for j in range(1, p)}
    all_positive = all(v > 0 for v in sig.values())
    V = twisted_double_matrix(a)
    one = linking_form(V, 2)
    form = one if n == 1 else direct_sum(*[one] * n)
    mets = enumerate_metabolizers(form, invariant_only=True, budget=budget)
    cases = []
    obstructed = all_positive and bool(mets)
    for A in mets:
        S = vanishing_chars(form, A, p)
        chars = list(span_vectors(S.basis, p, budget))
        coeffs = {}
        for u in chars:
            coeffs[u] = sum(sig[x] for x in u if x)
        witness = min(chars)
        acc = SigGrowth(0)
        for x in witness:
            acc = satellite_sigma(acc, companion, x, p)
        if acc.coefficient != coeffs[witness]:
            raise InternalInvariantViolation(
                "satellite rule disagrees with the tabulated coefficients")
        positive = all(c > 0 for c in coeffs.values())
        obstructed = obstructed and positive
        cases.append({"metabolizer": A.to_json(),
                      "character_dim": S.dim,
                      "characters_checked": len(chars),
                      "all_coefficients_positive": positive,
                      "min_coefficient": min(coeffs.values()),
                      "witness": {"character": list(witness),
                                  "growth": acc.to_json()}})
    report.update({
        "companion": {"kind": "torus", "p": -a, "q": a + 1},
        "companion_signatures": {str(j): v for j, v in sorted(sig.items())},
        "all_signatures_positive": all_positive,
        "metabolizer_count": len(mets),
        "cases": cases,
        "obstructed": obstructed,
        "claim": "not cg-slice" if obstructed else None})
    return report


# ---------------------------------------------------------------------------
# driver: order-two satellite family over Z_5 + Z_5


def order2_obstruction(i, j, budget=DEFAULT_BUDGET):
    """Slice obstruction for the sum of two order-two satellites whose
    companions are the i- and j-fold sums of the (2,7) torus knot.

    Each satellite ties the companion into one band and its mirror into the
    other, with lift multipliers 1 and 2 on the 2-fold cover Z_5.  For every
    metabolizer of the sum form, the vanishing characters give growth
    coefficient +-4(i-j); the obstruction vanishes exactly when i = j.
    """
    if not isinstance(i, int) or not isinstance(j, int) or i < 1 or j < 1:
        raise PreconditionError("companion multiplicities must be positive integers")
    check_size(6 * max(i, j), "a companion sum of %d copies of T(2,7)"
               % max(i, j))
    p = 5
    torus = {"kind": "torus", "p": 2, "q": 7}

    def companion_spec(m):
        if m == 1:
            return dict(torus)
        return {"kind": "sum", "summands": [{"knot": dict(torus)} for _ in range(m)]}

    spec = {"kind": "sum", "summands": [
        {"knot": {"kind": "order_two", "companion": companion_spec(i)}},
        {"knot": {"kind": "order_two", "companion": companion_spec(j)}}]}
    model = build(spec)
    forms = [linking_form(s.matrix, 2) for s in model.summands]
    form = direct_sum(*forms)
    mets = enumerate_metabolizers(form, invariant_only=True, budget=budget)
    # per summand and infection, the signature shift at each character value
    tables = []
    for s in model.summands:
        per = []
        for inf in s.infections:
            if inf.pattern != "double_lift":
                raise PreconditionError("order-two driver expects double_lift "
                                        "infections")
            V = inf.companion.matrix
            per.append({u: (0 if (inf.param * u) % p == 0
                            else signature(V, Fraction(inf.param * u % p, p)))
                        for u in range(p)})
        tables.append(per)

    def coefficient(u_vec):
        return sum(table[u_vec[s] % p]
                   for s, per in enumerate(tables) for table in per)

    cases = []
    obstructed = bool(mets)
    canonical = None
    for A in mets:
        S = vanishing_chars(form, A, p)
        chars = list(span_vectors(S.basis, p, budget))
        entries = []
        nonzero_found = False
        for u in sorted(chars):
            c = coefficient(u)
            entries.append({"character": list(u), "coefficient": c})
            if c != 0:
                nonzero_found = True
            if u[0] == 1 and canonical is None:
                canonical = c
                # replay the same character through the satellite rule
                acc = SigGrowth(0)
                for s, summand in enumerate(model.summands):
                    for inf in summand.infections:
                        acc = satellite_sigma(acc, inf.companion,
                                              inf.param * u[s], p)
                if acc.coefficient != c:
                    raise InternalInvariantViolation(
                        "satellite rule disagrees with the tabulated coefficients")
        obstructed = obstructed and (nonzero_found or i == j) and i != j
        cases.append({"metabolizer": A.to_json(),
                      "characters": entries,
                      "has_nonzero": nonzero_found})
    if canonical is None:
        raise InternalInvariantViolation("no vanishing character with leading "
                                         "value 1 was found")
    return {"operation": "order2_obstruction",
            "knot": spec, "p": p,
            "summand_multiplicities": [i, j],
            "cover_group": list(form.group),
            "metabolizer_count": len(mets),
            "coefficient": canonical,
            "cases": cases,
            "obstructed": obstructed,
            "claim": "not cg-slice" if obstructed else None,
            "assumption": _MODELING_NOTE}


# ---------------------------------------------------------------------------
# driver: mutated satellite sums over the 3-fold cover


def mutant_sum_obstruction(companions, signs=None, budget=DEFAULT_BUDGET,
                           mode=None):
    """Slice obstruction for a signed sum of mutated genus-2 satellites.

    Each summand ties one companion J_i into both bands of the carrier
    surface and mutates the second band, so a character with per-summand
    eigencoordinates (a_i, b_i) meets factors of the companion Alexander
    polynomial at the shifts {a+b, 2a+4b, 4a+2b} and their negatives.  For
    every deck-invariant metabolizer of the 3-fold-cover linking form (mode
    "enumerate"), or for every admissible abstract eigen-split character
    space shape (mode "abstract", the default for three or more summands),
    the driver emits a character whose discriminant expression fails the
    norm test.

    Preconditions: every companion passes check_poly_hypotheses; equal
    companions carry equal signs; the first sign is +1 (mirror the whole
    sum otherwise).  HypothesisUnverified propagates from the record.
    """
    if not isinstance(companions, (list, tuple)) or not companions:
        raise PreconditionError("companions must be a non-empty list")
    n = len(companions)
    signs = [1] * n if signs is None else signs
    if (not isinstance(signs, (list, tuple)) or len(signs) != n
            or any(_integer(s, "a sign") not in (1, -1) for s in signs)):
        raise PreconditionError("signs must be +1/-1, one per companion")
    if signs[0] != 1:
        raise PreconditionError("the leading sign must be +1; mirror the "
                                "whole sum to arrange it")
    keys = [_resolve_poly(J) for J in companions]
    for s in range(n):
        for t in range(s + 1, n):
            if keys[s] == keys[t] and signs[s] != signs[t]:
                raise PreconditionError("equal companions must carry equal signs")
    record = HypothesisRecord.for_polys(keys)
    record.require(keys)

    def companion_spec(J):
        if isinstance(J, dict):
            return J
        return {"kind": "matrix",
                "entries": [list(r) for r in _companion_matrix(J).entries]}

    member_specs = [mutant_family_spec(companion_spec(J)) for J in companions]
    models = [build(ms) for ms in member_specs]
    summands = [m.summands[0] for m in models]

    if mode is None:
        mode = "enumerate" if n <= 2 else "abstract"
    if mode not in ("enumerate", "abstract"):
        raise PreconditionError("mode must be 'enumerate' or 'abstract'")

    cases = []
    all_not_norm = True

    def run_case(rows2, rows4, where):
        branch, a_vec, b_vec = _charspace_case(rows2, rows4, n, signs, budget)
        if not admissible_pair(a_vec, b_vec, signs):
            raise InternalInvariantViolation(
                "emitted character violates the metabolizer pairing constraint")
        expr = _case_expression(a_vec, b_vec, summands, keys)
        verdict = norm_test(expr, record)
        case = dict(where)
        case.update({"branch": branch,
                     "character": {"a": list(a_vec), "b": list(b_vec)},
                     "admissible": True,
                     "expression": expr.to_json(),
                     "verdict": verdict})
        cases.append(case)
        return verdict

    if mode == "enumerate":
        base = satellite_base_matrix()
        forms = [linking_form(base if signs[s] == 1 else base.mirror(), 3)
                 for s in range(n)]
        # eigencoordinates (a_0, b_0, a_1, b_1, ...) of a character: the
        # block sum of the summands' 2 x 2 matrices
        to_eigen = []
        for s, f in enumerate(forms):
            for row in _dual_eigenpair(f, signs[s]):
                to_eigen.append([0] * (2 * s) + row + [0] * (2 * (n - s - 1)))
        form = direct_sum(*forms) if n > 1 else forms[0]
        mets = enumerate_metabolizers(form, invariant_only=True, budget=budget)
        for A in mets:
            S = vanishing_chars(form, A, _P)
            if not S.split:
                raise InternalInvariantViolation(
                    "vanishing characters do not split under the deck action")
            rows = {2: [], 4: []}
            for lam, side in ((2, 0), (4, 1)):
                for vec in S.eigen.get(lam, ()):
                    coords = [x % _P for x in linalg.mat_vec(to_eigen, vec)]
                    if any(coords[1 - side::2]):
                        raise InternalInvariantViolation(
                            "eigenvector mixes the two eigencoordinates")
                    rows[lam].append(coords[side::2])
            verdict = run_case(rows[2], rows[4],
                               {"metabolizer": A.to_json(),
                                "charspace": {"dim": S.dim,
                                              "dim_left": len(rows[2]),
                                              "dim_right": len(rows[4])}})
            all_not_norm = all_not_norm and verdict == NOT_NORM
        scope = {"mode": "enumerate", "metabolizer_count": len(mets)}
    else:
        # the one-sided shapes and the half shapes are counted before any
        # walk; of the half shapes only those with no odd-weight vector are
        # paired, so the pairs are counted after the half shapes are walked
        # and filtered
        needs = "abstract character-space enumeration needs %d shapes"
        one_sided = sum(2 * subspace_count(n, m, _P)
                        for m in range(n // 2 + 1, n + 1))
        walked = one_sided + (0 if n % 2 else subspace_count(n, n // 2, _P))
        if walked > budget:
            raise BudgetExceeded(needs % walked, budget)
        no_odd = [] if n % 2 else [
            shape for shape in subspaces(n, n // 2, _P, budget)
            if find_odd_char([list(r) for r in shape], n, _P, budget) is None]
        if one_sided + len(no_odd) ** 2 > budget:
            raise BudgetExceeded(needs % (one_sided + len(no_odd) ** 2), budget)
        for m in range(n // 2 + 1, n + 1):
            for shape in subspaces(n, m, _P, budget):
                for side in ("left", "right"):
                    rows2 = [list(r) for r in shape] if side == "left" else []
                    rows4 = [list(r) for r in shape] if side == "right" else []
                    verdict = run_case(rows2, rows4,
                                       {"shape": {"side": side, "dim": m,
                                                  "basis": [list(r) for r in shape]}})
                    all_not_norm = all_not_norm and verdict == NOT_NORM
        for s2 in no_odd:
            for s4 in no_odd:
                # bilinearity: the constraint on sums of left and right
                # characters reduces to all basis cross pairs
                if not all(admissible_pair(a, b, signs, _P)
                           for a in s2 for b in s4):
                    continue
                verdict = run_case([list(r) for r in s2],
                                   [list(r) for r in s4],
                                   {"shape": {"side": "paired",
                                              "basis_left": [list(r) for r in s2],
                                              "basis_right": [list(r) for r in s4]}})
                all_not_norm = all_not_norm and verdict == NOT_NORM
        scope = {"mode": "abstract", "shape_cases": len(cases)}

    report = {"operation": "mutant_sum_obstruction",
              "members": [{"sign": signs[s], "knot": member_specs[s],
                           "companion_poly": list(keys[s])}
                          for s in range(n)],
              "n": n,
              "hypotheses": record.to_json(),
              "cases": cases,
              "all_not_norm": all_not_norm,
              "obstructed": all_not_norm and bool(cases),
              "growth": None,
              "notes": ["mirrored summands contribute inverse discriminant "
                        "classes; all classes here are self-conjugate, so "
                        "parity and verdicts are unaffected",
                        _MODELING_NOTE]}
    report.update(scope)
    return report
