"""The paper's recorded worked examples, each value next to its check.

A check compares the objects a run computed (a survey record, a theorem
report, a factorization) with the recorded values through a Verifier;
`verify paper` and the acceptance tests make the same comparisons.
"""

from collections import Counter

from .congruence import is_special_wilson, wilson_multiplicity, wilson_suite
from .deriv import MIXED_LABELS, delta, fermat_quotient, fermat_quotient_iter
from .gf import parse_field
from .irr import PrimeContext, is_irreducible
from .poly import ModReducer, Poly, embed, eval_poly, parse_poly

# recorded values that more than one check, or a caller, reads
Q3D6_SPECIAL_PER_C = {1: 3, 2: 3}  # special primes of degree 6 over F_3, by c
Q3D6_WILSON = 15  # Wilson primes of degree 6 over F_3
Q2D14_SPECIAL = 12  # special primes of degree 14 over F_2 at c = 1
Q2D14_TRIAL_DEGREE = 22  # trial-division bound for L_13 + 1 over F_2
L13_DEGREE = 16382  # degree of L_13 + 1 over F_2


class Verifier:
    """Collects labelled comparisons and renders them uniformly."""

    def __init__(self):
        self.checks = []

    def check(self, label, got, want):
        self.checks.append({"label": label, "got": got, "want": want,
                            "ok": got == want})

    def note(self, text):
        self.checks.append({"note": text})

    @property
    def ok(self) -> bool:
        return all(c.get("ok", True) for c in self.checks)

    def lines(self):
        out = []
        for c in self.checks:
            if "note" in c:
                out.append(f"note: {c['note']}")
            elif c["ok"]:
                out.append(f"ok: {c['label']} = {c['got']}")
            else:
                out.append(f"MISMATCH: {c['label']}: expected {c['want']}, "
                           f"got {c['got']}")
        n_real = sum("ok" in c for c in self.checks)
        n_bad = sum(not c.get("ok", True) for c in self.checks)
        if n_bad:
            out.append(f"FAILED: {n_bad} of {n_real} checks")
        else:
            out.append(f"all {n_real} checks passed")
        return out

    def payload(self, case):
        return {"case": case, "ok": self.ok,
                "checks": [{k: _jsonable(v) for k, v in c.items()}
                           for c in self.checks]}


def _jsonable(v):
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in sorted(v.items())}
    if isinstance(v, (bool, int, str)) or v is None:
        return v
    return str(v)


def degree_multiset(pairs) -> str:
    """Render [(degree, mult), ...] as e.g. '1^4x3 6x15 18x2'."""
    cnt = Counter((int(d), int(m)) for d, m in pairs)
    parts = []
    for (deg, mult), n in sorted(cnt.items()):
        stem = str(deg) if mult == 1 else f"{deg}^{mult}"
        parts.append(f"{stem}x{n}")
    return " ".join(parts)


def q3d6_census(v, rec):
    """The full-suite survey record of degree 6 over F_3."""
    special_total = sum(len(t) for t in rec.special_primes.values())
    v.check("counts (primes, special, wilson)",
            (rec.prime_count, special_total, len(rec.wilson_primes)),
            (116, 6, Q3D6_WILSON))
    v.check("special primes per c",
            {c: len(t) for c, t in sorted(rec.special_primes.items())},
            Q3D6_SPECIAL_PER_C)
    v.check("15-condition suites unanimous on every prime",
            rec.suite_agreement, True)


def q3d6_wilson_sum(v, rep):
    """The theorem-5 report of degree 6 over F_3."""
    v.check("wilson sum degree", rep.poly_degree, 360)
    v.check("wilson sum factors", degree_multiset(rep.factor_degrees),
            "1^4x3 2x3 6x15 18x2 20x3 24x3 28x3")
    v.check("wilson sum degree-6 factor set size",
            len(rep.degree_d_multiplicities), Q3D6_WILSON)


def q3d6_perturbation(v, rep):
    """The full-mode theorem-7 report of degree 6 over F_3, for one c."""
    c = rep.c
    field = parse_field(rep.field_descriptor)
    v.check(f"L_5-{c} degree", rep.L.poly_degree, 363)
    v.check(f"L_5-{c} factors", degree_multiset(rep.L.factor_degrees),
            "6^2x3 14x3 95x3")
    derivs = sorted({str(parse_poly(text, field).derivative())
                     for text in rep.special_primes})
    v.check(f"L_5-{c} degree-6 factor derivative", derivs,
            [{1: "2", 2: "1"}[c]])  # dP/dt = (-1)^5 c
    v.check(f"D_5 side multiplicities at c={c}",
            sorted(rep.D.degree_d_multiplicities.values()),
            [1] * Q3D6_SPECIAL_PER_C[c])


def q2d14_census(v, rec):
    """The survey record of degree 14 over F_2."""
    special = rec.special_primes.get(1, [])
    v.check("counts (primes, special)", (rec.prime_count, len(special)),
            (1161, Q2D14_SPECIAL))
    for side, table in (("L", "L_minus_c"), ("D", "D_plus_sign_c")):
        mults = rec.multiplicities.get(table, {}).get(1, {})
        v.check(f"{side}-side multiplicities", sorted(mults.values()),
                [1] * Q2D14_SPECIAL)


def l13_trial_division(v, pert, fac, special):
    """L_13 + 1 over F_2 and its trial division to Q2D14_TRIAL_DEGREE;
    special holds the texts of the degree-14 special primes."""
    v.check("L_13+1 degree", pert.degree, L13_DEGREE)
    v.check(f"factors of degree <= {Q2D14_TRIAL_DEGREE}",
            degree_multiset((b.degree, m) for b, m in fac.factors),
            "14x12 22x1")
    v.check("degree-14 factor set",
            sorted(str(b) for b, m in fac.factors if b.degree == 14),
            sorted(special))


def l13_remaining(v, fac, rest):
    """The full factorization of the trial division's cofactor."""
    v.check("remaining factor degrees",
            degree_multiset((b.degree, m) for b, m in rest.factors),
            "128x1 1156x2 2246x2 9260x1")
    total = sum(b.degree * m for b, m in fac.factors)
    total += sum(b.degree * m for b, m in rest.factors)
    v.check("degree bookkeeping", total, L13_DEGREE)
    v.note("the published figure 8192 for the largest remaining factor is "
           f"inconsistent: verified degrees sum to {L13_DEGREE} with largest "
           "factor 9260")


def artin_schreier_prime(v, p, m, extended=False):
    """The prime t^p - t - m over F_p, for m in 1..p-1; no census holds
    this family, so the check computes what it compares."""
    field = parse_field(str(p))
    t = Poly.t(field)
    prime = t ** p - t - Poly.constant(field, m)
    name = f"t^{p}-t-{m}"
    v.check(f"{name} irreducible", is_irreducible(prime), True)
    ctx = PrimeContext.for_prime(prime)
    suite = wilson_suite(ctx)
    v.check(f"{name} wilson suite",
            (suite.holds, suite.unanimous, len(suite.verdicts)),
            (True, True, 15))
    v.check(f"{name} wilson multiplicity >= {p - 1}",
            wilson_multiplicity(ctx) >= p - 1, True)
    v.check(f"{name} special with c={p - 1}",
            is_special_wilson(ctx, field(p - 1)), True)

    ext = ctx.residue_field
    shift = Poly.t(ext) - Poly.constant(ext, ctx.theta)
    v.check(f"{name} first difference quotient",
            delta(prime, ctx, 1) == shift ** (p - 1) - Poly.one(ext), True)
    v.check(f"{name} second difference quotient",
            delta(prime, ctx, 2) == shift ** (p - 2), True)

    q1 = fermat_quotient(t, ctx)
    expansion = Poly.zero(field)
    for i in range(p):
        expansion = expansion + prime ** (p ** i - 1)
    v.check(f"{name} fermat quotient expansion", q1 == expansion, True)
    v.check(f"{name} fermat quotient at theta",
            eval_poly(embed(q1, ext), ctx.theta) == ext.one, True)
    v.check(f"{name} mixed conditions all vanish",
            all(suite.verdicts[label] for label in MIXED_LABELS), True)
    if extended and p == 3:
        red = ModReducer(prime)
        for order in (2, 3):
            exact = fermat_quotient_iter(t, ctx, order)
            ladder = fermat_quotient_iter(t, ctx, order, k=1)
            v.check(f"{name} iterated quotient order {order}, "
                    "exact vs modular ladder",
                    red.reduce(exact) == red.reduce(ladder), True)


def q3d9_scan(v, special_c1, special_c2, scan):
    """The degree-9 special primes over F_3 at c = 1 and c = -1, and
    the divisor scan of L_8 - 1 and L_8 + 1 over all degree-9 primes."""
    v.check("special primes at c=1", len(special_c1), 6)
    v.check("special primes at c=-1", len(special_c2), 0)
    v.check("degree-9 prime count", scan["prime_count"], 2184)
    v.check("degree-9 divisors of L_8-1",
            sorted(scan["divisors"][("L_minus_c", 1)]),
            sorted(str(f) for f in special_c1))
    v.check("degree-9 divisors of L_8+1",
            sorted(scan["divisors"][("L_minus_c", 2)]), [])
