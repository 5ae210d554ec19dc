"""Wieferich and Wilson prime detection through every equivalent route.

A prime P of degree d is a-Wieferich when a^(q^d) = a mod P^2, and
Wilson when F_d = -1 mod P^2, where F_d is the product of all nonzero
polynomials of degree below d.  Each property admits a family of
equivalent conditions phrased through the three derivatives; the suites
here evaluate every route independently and raise EquivalenceViolation
if the routes ever disagree, so a disagreement is a loud bug signal
rather than a quietly wrong answer.

A suite and a base classification come back as their JSON payloads,
the plain dicts that `check --json` and `classify-base --json` print;
holds(suite) reads a suite's common verdict.
"""

from .deriv import delta, delta_at_theta, fermat_quotient_mod
from .errors import EquivalenceViolation, FieldMismatch, ZeroC
from .irr import PrimeContext
from .poly import Poly, divrem, embed, eval_poly, pth_root_poly

WIEFERICH_LABELS = ("def", "i", "i'", "ii", "ii'", "iii")
WILSON_LABELS = (
    "def", "i", "i'", "i''", "ii", "ii'", "iii",
    "i-ii", "i-ii'", "ii-i", "ii-i'", "i-iii", "iii-i", "ii-iii", "iii-ii",
)


def holds(suite) -> bool:
    """The common verdict of a suite (its routes were found unanimous)."""
    return next(iter(suite["verdicts"].values()))


def _suite(ctx, kind, verdicts, base=None, skipped=(), marker=""):
    """A suite as its JSON payload; raises if its routes disagree."""
    suite = {"prime": str(ctx.prime), "kind": kind, "verdicts": verdicts,
             "unanimous": len(set(verdicts.values())) <= 1,
             "skipped": list(skipped)}
    if base is not None:
        suite["base"] = str(base)
    if marker:
        suite["marker"] = marker
    if not suite["unanimous"]:
        raise EquivalenceViolation(
            f"{kind} conditions disagree at {ctx.prime}: {verdicts}"
        )
    return suite


def _is_zero_at_theta(f: Poly, ctx: PrimeContext) -> bool:
    val = eval_poly(embed(f, ctx.residue_field), ctx.theta)
    return val == ctx.residue_field(0)


def wieferich_suite(ctx: PrimeContext, a: Poly) -> dict:
    """All six a-Wieferich conditions, each by its own route.

    def   a^(q^d) = a mod P^2, by d Frobenius steps x -> x^q mod P^2
    i     P divides da/dt
    i'    (da/dt)(theta) = 0
    ii    Q(a) = 0 mod P
    ii'   Q(a)(theta) = 0
    iii   a^[1](theta) = 0
    """
    if a.field != ctx.prime.field:
        raise FieldMismatch("base must live over the prime's coefficient field")
    prime = ctx.prime
    verdicts = {}

    red = ctx.reducer(2)
    ra = red.enter(a)
    verdicts["def"] = red.frobenius(ra, ctx.degree) == ra

    da = a.derivative()
    verdicts["i"] = divrem(da, prime)[1].is_zero
    verdicts["i'"] = _is_zero_at_theta(da, ctx)

    # One modular quotient serves both routes: Q(a)(theta) only needs
    # the residue of Q(a) mod P, since P(theta) = 0.
    qm = fermat_quotient_mod(a, ctx, 1)
    verdicts["ii"] = qm.is_zero
    verdicts["ii'"] = _is_zero_at_theta(qm, ctx)

    verdicts["iii"] = delta_at_theta(a, ctx, 1) == ctx.residue_field(0)

    return _suite(ctx, "wieferich", verdicts, base=a)


def wilson_suite(ctx: PrimeContext, skip_def: bool = False) -> dict:
    """All fifteen Wilson conditions for p > 2; definition only for p = 2.

    The pure conditions:
    def   F_d = -1 mod P^2
    i     d2P/dt2 = 0 identically
    i'    P divides d2P/dt2
    i''   (d2P/dt2)(theta) = 0
    ii    Q(Q(t)) = 0 mod P
    ii'   Q(Q(t))(theta) = 0
    iii   P^[2](theta) = 0
    plus the eight mixed second derivatives.  The equivalences only
    hold for odd characteristic, so for p = 2 the suite evaluates the
    definition alone and carries a definition-only marker.  skip_def
    substitutes condition i for the definition and records the skip,
    for callers working under an explicit budget.
    """
    prime = ctx.prime
    field = prime.field
    p = field.char
    t = Poly.t(field)

    if p == 2:
        verdicts = {"def": ctx.chain(2).F(ctx.degree) == -Poly.one(field)}
        skipped = tuple(lab for lab in WILSON_LABELS if lab != "def")
        return _suite(ctx, "wilson", verdicts, skipped=skipped,
                      marker="definition-only")

    # Q(t) mod P^2 first: it memoizes T mod P^3, so Q(Q(t)) mod P
    # reduces that T rather than running d Frobenius steps of its own
    qt = fermat_quotient_mod(t, ctx, 2)
    verdicts = {}
    skipped = ()
    if skip_def:
        skipped = ("def",)
    else:
        verdicts["def"] = ctx.chain(2).F(ctx.degree) == -Poly.one(field)

    # each shared quantity is computed once: P', Q(t) mod P^2 (qt) and
    # P^[1]
    dp = prime.derivative()
    d2 = dp.derivative()
    verdicts["i"] = d2.is_zero
    verdicts["i'"] = divrem(d2, prime)[1].is_zero
    verdicts["i''"] = _is_zero_at_theta(d2, ctx)

    q2 = fermat_quotient_mod(qt, ctx, 1)
    verdicts["ii"] = q2.is_zero
    verdicts["ii'"] = _is_zero_at_theta(q2, ctx)

    zero = ctx.residue_field(0)
    p1 = delta(prime, ctx, 1)
    verdicts["iii"] = delta_at_theta(p1, ctx, 1) == zero

    # the eight mixed second derivatives, in MIXED_LABELS order
    dqt = divrem(qt.derivative(), prime)[1]
    verdicts["i-ii"] = dqt.is_zero
    verdicts["i-ii'"] = _is_zero_at_theta(dqt, ctx)
    qdp = fermat_quotient_mod(dp, ctx, 1)
    verdicts["ii-i"] = qdp.is_zero
    verdicts["ii-i'"] = _is_zero_at_theta(qdp, ctx)
    verdicts["i-iii"] = eval_poly(p1.derivative(), ctx.theta) == zero
    verdicts["iii-i"] = delta_at_theta(dp, ctx, 1) == zero
    verdicts["ii-iii"] = eval_poly(fermat_quotient_mod(p1, ctx, 1), ctx.theta) == zero
    verdicts["iii-ii"] = delta_at_theta(qt, ctx, 1) == zero

    return _suite(ctx, "wilson", verdicts, skipped=skipped,
                  marker="skipped (bound)" if skip_def else "")


def classify_base(a: Poly) -> dict:
    """Theorem-2 trichotomy for the base a.

    a = b^p for some b           -> every prime is a-Wieferich
    a = b^p + c t with c nonzero -> no prime is a-Wieferich
    anything else                -> generic
    Coefficientwise p-th roots always exist in F_q, so the structural
    exponent test (nonzero coefficients only at multiples of p, with
    exponent 1 allowed in the second form) is exact.  Returns {"tag"},
    plus the witness b as text and c as its code where the form has
    them.
    """
    field = a.field
    p = field.char
    idx = [i for i, c in enumerate(a.codes) if c]
    if all(i % p == 0 for i in idx):
        b = pth_root_poly(a)
        assert b ** p == a
        return {"tag": "AllPrimesWieferich", "witness": str(b)}
    c = a.coeff(1)
    if c and all(i % p == 0 for i in idx if i != 1):
        shifted = a - Poly.monomial(field, 1, c)
        b = pth_root_poly(shifted)
        assert b ** p + Poly.monomial(field, 1, c) == a
        return {"tag": "NoWieferichPrimes", "witness": str(b), "c": c.code}
    return {"tag": "Generic"}


def wilson_multiplicity(ctx: PrimeContext) -> int:
    """Largest k with F_d = -1 mod P^k, capped at p+2.

    A return of p+2 means "at least p+2": the residue of F_d + 1 was
    zero at the working precision P^(p+3).
    """
    field = ctx.prime.field
    cap = field.char + 2
    r = ctx.chain(cap + 1).F(ctx.degree) + Poly.one(field)
    return _capped_valuation(r, ctx.prime, cap)


def coefficient_characterization(prime: Poly) -> bool:
    """Nonzero coefficients only at indices i with p | i or p | i-1.

    For irreducible arguments in odd characteristic this is the Wilson
    property read off the coefficients; for p = 2 it is vacuously true.
    """
    p = prime.field.char
    return all(i % p == 0 or (i - 1) % p == 0
               for i, c in enumerate(prime.codes) if c)


def is_special_wilson(ctx: PrimeContext, c) -> bool:
    """Whether dP/dt is the constant (-1)^(d-1) c.

    Checked twice: directly on the derivative, and structurally as
    P = a^p + (-1)^(d-1) c t.  The two must agree for every input.
    """
    field = ctx.prime.field
    c = field(c)
    if c == field(0):
        raise ZeroC("c must be a nonzero field constant")
    target = -c if (ctx.degree - 1) % 2 else c
    p = field.char

    by_derivative = ctx.prime.derivative() == Poly.constant(field, target)

    shifted = ctx.prime - Poly.monomial(field, 1, target)
    by_form = all(i % p == 0 for i, cc in enumerate(shifted.codes) if cc)

    if by_derivative != by_form:
        raise EquivalenceViolation(
            f"derivative and p-th power form disagree at {ctx.prime}"
        )
    return by_derivative


def valuation(f: Poly, prime: Poly) -> int:
    """Largest k with prime^k dividing f, by repeated division."""
    if f.is_zero:
        raise ValueError("valuation of the zero polynomial")
    k = 0
    cur = f
    while True:
        quot, rem = divrem(cur, prime)
        if not rem.is_zero:
            return k
        cur = quot
        k += 1


def _capped_valuation(f_mod: Poly, prime: Poly, cap: int) -> int:
    # f_mod must be the operand reduced mod prime^(cap+1); a zero
    # residue therefore means valuation at least cap+1, reported cap.
    if f_mod.is_zero:
        return cap
    return min(valuation(f_mod, prime), cap)


def _wilson_by_pattern(prime: Poly) -> bool:
    """Wilson for p > 2 by the second derivative, cross-checked against
    the coefficient pattern."""
    wil = prime.derivative().derivative().is_zero
    if wil != coefficient_characterization(prime):
        raise EquivalenceViolation(
            f"second-derivative and coefficient routes disagree at {prime}"
        )
    return wil


def _perturbation_valuation(ctx: PrimeContext, kind: str, d: int, c,
                            cap: int) -> int:
    """The prime's valuation in a perturbation, capped at cap, from the
    perturbation's residue mod prime^(cap+1)."""
    return _capped_valuation(ctx.chain(cap + 1).perturbation(kind, d, c),
                             ctx.prime, cap)
