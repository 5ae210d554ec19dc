"""Theorem reports and gcd scans, returned as the JSON objects the
commands print; the gcd scans keep each prime's chain for the whole
range of degrees.  The sweeps of survey.py never compile this module,
and it imports congruence (with deriv) only where a report checks a
prime by a congruence route.
"""

from collections import Counter

from .carlitz import CarlitzCache
from .errors import EquivalenceViolation, TheoremViolation, ZeroC
from .factor import factorize, trial_division
from .gf import Field, FieldElement
from .irr import PrimeContext, is_irreducible, iter_monic_irreducibles, monic_polys
from .poly import Poly


def special_primes_by_form(field: Field, d: int, c) -> list:
    """All degree-d primes with derivative (-1)^(d-1) c, found as
    irreducible values of b^p + (-1)^(d-1) c t over monic b.

    A constant derivative e forces P - e t to have derivative zero,
    hence to be a p-th power; so d = p deg b and the enumeration is
    complete.  When p does not divide d there is nothing to scan.
    """
    c = field(c)
    if not c:
        raise ZeroC("c must be a nonzero field constant")
    p = field.char
    if d == 1:
        # t + a always has derivative 1, so every linear prime is
        # special for c = 1 and none is for other c
        if c != field(1):
            return []
        return [Poly(field, (a, 1)) for a in range(field.order)]
    if d % p:
        return []
    from .congruence import is_special_wilson  # only where a prime is checked

    target = c if (d - 1) % 2 == 0 else -c
    lin = Poly.monomial(field, 1, target)
    out = []
    for b in monic_polys(field, d // p):
        cand = b ** p + lin
        if is_irreducible(cand):
            # Rabin has just certified cand: its context runs no second test
            if not is_special_wilson(PrimeContext(cand), c):
                raise EquivalenceViolation(
                    f"form enumeration and derivative check disagree at {cand}"
                )
            out.append(cand)
    out.sort(key=lambda f: tuple(reversed(f.codes)))
    return out


def perturbation_divisor_scan(field: Field, d: int, targets):
    """Which degree-d primes divide which perturbations, by residues.

    targets is an iterable of (kind, c) pairs.  Every degree-d prime
    is enumerated once; each requested perturbation is reduced mod the
    prime through a CarlitzChain, and divisors get a valuation capped
    at p+2.  Returns {"prime_count": n, "divisors": {(kind, c_code):
    {prime text: valuation}}}.
    """
    from .congruence import _perturbation_valuation

    targets = [(kind, field(c)) for kind, c in targets]
    for _, c in targets:
        if not c:
            raise ZeroC("c must be a nonzero field constant")
    cap = field.char + 2
    divisors = {(kind, c.code): {} for kind, c in targets}
    n = 0
    for ctx in iter_monic_irreducibles(field, d):
        n += 1
        for kind, c in targets:
            if ctx.chain(1).perturbation(kind, d, c).is_zero:
                val = _perturbation_valuation(ctx, kind, d, c, cap)
                divisors[(kind, c.code)][str(ctx.prime)] = val
    return {"prime_count": n, "divisors": divisors}


def _factor_table(fac, d):
    """The factor degrees of a factorization, as [degree, multiplicity]
    pairs, and its degree-d primes by text with their multiplicities."""
    return ([[base.degree, mult] for base, mult in fac.factors],
            {str(base): mult for base, mult in fac.factors
             if base.degree == d})


def degree_multiset(pairs) -> str:
    """Render [(degree, mult), ...] as e.g. '1^4x3 6x15 18x2'."""
    cnt = Counter((int(d), int(m)) for d, m in pairs)
    parts = []
    for (deg, mult), n in sorted(cnt.items()):
        stem = str(deg) if mult == 1 else f"{deg}^{mult}"
        parts.append(f"{stem}x{n}")
    return " ".join(parts)


def theorem5_report(field: Field, d: int, seed: int = 0) -> dict:
    """Factor the Wilson sum polynomial and match its degree-d primes
    against the Wilson primes of degree d, multiplicity at least p-2.

    Returns the report as its JSON payload."""
    from .congruence import _wilson_by_pattern

    p = field.char
    if p == 2:
        raise ValueError("the Wilson-sum factorization statement needs p > 2")
    if d < 2:
        raise ValueError("degree must be at least 2")
    cache = CarlitzCache(field)
    ws = cache.wilson_sum_poly(d)
    factor_degrees, degree_d = _factor_table(factorize(ws, seed=seed), d)

    wilson = {str(ctx.prime) for ctx in iter_monic_irreducibles(field, d)
              if _wilson_by_pattern(ctx.prime)}
    if set(degree_d) != wilson:
        raise EquivalenceViolation(
            f"degree-{d} factors of the Wilson sum differ from the Wilson "
            f"primes: {sorted(set(degree_d) ^ wilson)}"
        )
    low = [text for text, mult in degree_d.items() if mult < p - 2]
    if low:
        raise EquivalenceViolation(
            f"Wilson-sum multiplicity below p-2 at {sorted(low)}"
        )
    return {
        "field": field.descriptor(),
        "degree": d,
        "poly_degree": ws.degree,
        "wilson_primes": sorted(wilson),
        "factor_degrees": factor_degrees,
        "degree_d_multiplicities": degree_d,
    }


def _check_theorem7_sides(field, d, special_texts, l_mults, d_mults):
    p = field.char
    if set(l_mults) != special_texts or set(d_mults) != special_texts:
        raise EquivalenceViolation(
            f"degree-{d} divisors of the perturbations differ from the "
            f"constant-derivative primes: L={sorted(l_mults)} "
            f"D={sorted(d_mults)} special={sorted(special_texts)}"
        )
    bad_l = {t: m for t, m in l_mults.items() if m < p - 1}
    if bad_l:
        raise EquivalenceViolation(f"L-side multiplicity below p-1: {bad_l}")
    bad_d = {t: m for t, m in d_mults.items() if m != 1}
    if bad_d:
        raise EquivalenceViolation(f"D-side multiplicity is not one: {bad_d}")


def theorem7_report(field: Field, d: int, c, mode: str = "full",
                    max_degree=None, seed: int = 0) -> dict:
    """Check that the degree-d primes dividing L_(d-1) - c and
    D_(d-1) + (-1)^d c are exactly those with derivative (-1)^(d-1) c,
    with multiplicity at least p-1 on the L side and exactly one on
    the D side; exact multiplicities are recorded.

    full mode factorizes both perturbations completely.  partial mode
    trial-divides the L side up to max_degree and settles the degree-d
    questions for both sides by residue scans over the enumerated
    primes, leaving the large cofactors untouched.  Returns the report
    as its JSON payload: one entry per side under "L" and "D", and in
    partial mode a note on each and the L side's cofactor, if any.
    """
    if d < 2:
        raise ValueError("degree must be at least 2")
    c = field(c)
    if not c:
        raise ZeroC("c must be a nonzero field constant")
    q = field.order
    special_texts = {str(f) for f in special_primes_by_form(field, d, c)}
    cache = CarlitzCache(field)
    report = {"field": field.descriptor(), "degree": d, "c": c.code,
              "mode": mode, "special_primes": sorted(special_texts)}

    if mode == "full":
        for key, kind in (("L", "L_minus_c"), ("D", "D_plus_sign_c")):
            poly = cache.perturbation(kind, d, c)
            factor_degrees, mults = _factor_table(factorize(poly, seed=seed), d)
            report[key] = {"kind": kind, "poly_degree": poly.degree,
                           "factor_degrees": factor_degrees,
                           "degree_d_multiplicities": mults}
        _check_theorem7_sides(field, d, special_texts,
                              report["L"]["degree_d_multiplicities"],
                              report["D"]["degree_d_multiplicities"])
        return report

    if mode != "partial":
        raise ValueError(f"unknown mode {mode!r}")
    if max_degree is None or max_degree < d:
        raise ValueError("partial mode needs max_degree >= d")

    scan = perturbation_divisor_scan(
        field, d, [("L_minus_c", c), ("D_plus_sign_c", c)])
    l_scan = scan["divisors"][("L_minus_c", c.code)]
    d_scan = scan["divisors"][("D_plus_sign_c", c.code)]

    l_poly = cache.perturbation("L_minus_c", d, c)
    l_fac = trial_division(l_poly, max_degree, seed=seed)
    factor_degrees, l_mults = _factor_table(l_fac, d)
    if set(l_mults) != set(l_scan):
        raise EquivalenceViolation(
            f"trial division and residue scan disagree on the degree-{d} "
            f"divisors of L_{d-1} - c"
        )
    _check_theorem7_sides(field, d, special_texts, l_mults, d_scan)

    report["L"] = {"kind": "L_minus_c", "poly_degree": l_poly.degree,
                   "factor_degrees": factor_degrees,
                   "degree_d_multiplicities": l_mults,
                   "note": f"trial division to degree {max_degree}"}
    if l_fac.cofactor is not None:
        report["L"]["cofactor_degree"] = l_fac.cofactor.degree
        report["L"]["cofactor_irreducible"] = l_fac.cofactor_irreducible
    report["D"] = {
        "kind": "D_plus_sign_c",
        "poly_degree": (d - 1) * q ** (d - 1),
        "factor_degrees": [[d, m] for _, m in sorted(d_scan.items())],
        "degree_d_multiplicities": d_scan,
        "note": "degree-d divisors via residue scan; cofactor not factored",
    }
    return report


# -- gcd scans ---------------------------------------------------------


def _divisors(d: int):
    return [e for e in range(1, d + 1) if d % e == 0]


def _prime_chains(field, e, chains_by_degree):
    """(prime, CarlitzChain mod prime) for the degree-e primes, built on
    first request and kept, so each chain extends across all d."""
    if e not in chains_by_degree:
        chains_by_degree[e] = [(ctx.prime, ctx.chain(1))
                               for ctx in iter_monic_irreducibles(field, e)]
    return chains_by_degree[e]


def _finding(kind, field, d, c, matched):
    """One nontrivial gcd hit as its payload, save that the gcd, the
    product of the matched primes, stays a Poly until it is printed."""
    g = Poly.one(field)
    for prime in matched:
        g = g * prime
    return {"kind": kind, "field": field.descriptor(), "q": field.order,
            "d": d, "c": c, "gcd": g,
            "violates_expectation": d % field.char != 0}


def borisov_scan(field: Field, d_max: int) -> list:
    """gcd(L_(d-1) + c, [d]) for 2 <= d <= d_max and nonzero c.

    [d] is squarefree with prime factors of degree dividing d, so the
    gcd is the product of those primes whose L-residue is -c; each hit
    is verified to divide both operands.  A nontrivial gcd with p not
    dividing d falsifies the theorem and raises.
    """
    if d_max < 2:
        raise ValueError("d_max must be at least 2")
    p = field.char
    q = field.order
    chains_by_degree = {}
    findings = []
    for d in range(2, d_max + 1):
        matched = {c: [] for c in range(1, q)}
        for e in _divisors(d):
            for prime, chain in _prime_chains(field, e, chains_by_degree):
                l_res = chain.L(d - 1)
                for c in range(1, q):
                    if (l_res + FieldElement(field, c)).is_zero:
                        # verify the hit divides both operands: [d] is
                        # one chain step past L_(d-1)
                        if not chain.bracket(d).is_zero:
                            raise EquivalenceViolation(
                                f"{prime} does not divide [{d}]"
                            )
                        matched[c].append(prime)
        for c in range(1, q):
            if not matched[c]:
                continue
            finding = _finding("borisov_gcd", field, d, c, matched[c])
            if finding["violates_expectation"]:
                raise TheoremViolation(
                    f"nontrivial gcd(L_{d-1}+{c}, [{d}]) over F{q} with "
                    f"p = {p} not dividing d = {d}: {finding['gcd']}"
                )
            findings.append(finding)
    return findings


def alt_gcd_conjecture_scan(field: Field, d_max: int) -> list:
    """gcd([d], 1 - [d-1] + [d-1][d-2] - ... + (-1)^(d-1) L_(d-1)).

    The alternating sum is read per prime from a chain mod the prime,
    by the nested recurrence T_m = 1 - [m] T_(m-1).  Findings with p
    not dividing d would be counterexamples to an open conjecture: they
    are reported with a flag, never raised on.
    """
    p = field.char
    if p == 2:
        raise ValueError("the alternating-sum conjecture is posed for p > 2")
    if d_max < 2:
        raise ValueError("d_max must be at least 2")
    chains_by_degree = {}
    findings = []
    for d in range(2, d_max + 1):
        matched = []
        for e in _divisors(d):
            for prime, chain in _prime_chains(field, e, chains_by_degree):
                if chain.T(d - 1).is_zero:
                    matched.append(prime)
        if matched:
            findings.append(_finding("alt_gcd_conjecture", field, d, None,
                                     matched))
    return findings
