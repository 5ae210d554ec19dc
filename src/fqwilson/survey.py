"""Degree sweeps, theorem reports, conjecture scans, and persistence.

Everything here orchestrates the lower modules over whole families of
primes.  Giant Carlitz quantities are never formed exactly when a
check only needs a residue: F_d, L_(d-1), D_(d-1) and the alternating
sums come from the prime context's CarlitzChain modulo a small power of
the prime, PrimeContext.chain, which costs O(d) modular multiplications
per prime instead of a division of astronomically large polynomials.
A survey does all of a prime's work, its verdicts and its table rows,
in one pass over the prime's context; the gcd scans keep each prime's
chain for the whole range of degrees.

Survey records, reports and scan findings are returned as the JSON
objects the commands print and the JSONL lines hold, so there is no
record class to mirror; validate and made_with read a record as such.
"""

from __future__ import annotations

import json
import os

from . import __version__, canonical_json
from .carlitz import CarlitzCache
from .congruence import (
    _capped_valuation,
    coefficient_characterization,
    holds,
    is_special_wilson,
    wilson_suite,
)
from .deriv import derivative_mod
from .errors import (
    EquivalenceViolation,
    SchemaVersionMismatch,
    TheoremViolation,
    ZeroC,
)
from .gf import Field, FieldElement, parse_field
from .irr import (
    PrimeContext,
    count_irreducibles,
    is_irreducible,
    iter_monic_irreducibles,
    monic_polys,
)
from .poly import Poly

SCHEMA = "fqwilson.survey/1"


# -- survey records ----------------------------------------------------
#
# A survey record is the JSON object of its JSONL line: field, degree,
# prime_count, wilson_primes, special_primes and the three multiplicity
# tables by c, multiplicity_cap, suite_agreement and def_skipped.  As
# in the file, the c keys of special_primes and of the L and D tables
# are decimal text.


def record_key(field_descriptor: str, degree: int) -> str:
    """The key under which persisted files store a degree's record."""
    return f"{field_descriptor}|{degree}"


def made_with(rec, field: Field, *, multiplicities: bool,
              def_skipped: bool) -> bool:
    """Whether survey_degree with these options yields the record.

    Records store no options, so the tables decide: without
    multiplicities (or below degree 2) all three are empty; with them
    each special prime's c has an L and a D row and, for p > 2, each
    Wilson prime has a wilson_sum entry.
    """
    if rec["def_skipped"] != def_skipped:
        return False
    specials, wilson = set(), set()
    if multiplicities and rec["degree"] >= 2:
        specials = {c for c, primes in rec["special_primes"].items() if primes}
        if field.char > 2:
            wilson = set(rec["wilson_primes"])
    tables = rec["multiplicities"]
    return (set(tables["L_minus_c"]) == specials
            and set(tables["D_plus_sign_c"]) == specials
            and set(tables["wilson_sum"]) == wilson)


def validate(rec, field: Field):
    """Raise TheoremViolation if the record contradicts a theorem."""
    p = field.char
    d = rec["degree"]
    if rec["prime_count"] != count_irreducibles(field, d):
        raise TheoremViolation(
            f"prime count {rec['prime_count']} at degree {d} contradicts "
            f"the Gauss enumeration formula"
        )
    if any(rec["special_primes"].values()) and d % p != 0 and d != 1:
        raise TheoremViolation(
            f"special primes found at degree {d} although p does not divide d"
        )
    if rec["wilson_primes"] and d % p != 0 and (d - 1) % p != 0:
        raise TheoremViolation(
            f"Wilson primes found at degree {d} although p divides "
            f"neither d nor d-1"
        )


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _texts(v) -> bool:
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


def _valuations(v) -> bool:
    return isinstance(v, dict) and all(_is_int(x) for x in v.values())


def _by_c(v, entry_ok) -> bool:
    return isinstance(v, dict) and all(
        c.isdecimal() and c == str(int(c)) and entry_ok(x)
        for c, x in v.items())


def _tables(v) -> bool:
    return (isinstance(v, dict)
            and set(v) == {"L_minus_c", "D_plus_sign_c", "wilson_sum"}
            and _by_c(v["L_minus_c"], _valuations)
            and _by_c(v["D_plus_sign_c"], _valuations)
            and _valuations(v["wilson_sum"]))


# each record key, and the check its JSON value must pass
_RECORD_SHAPE = {
    "field": lambda v: isinstance(v, str),
    "degree": _is_int,
    "prime_count": _is_int,
    "wilson_primes": _texts,
    "special_primes": lambda v: _by_c(v, _texts),
    "multiplicities": _tables,
    "multiplicity_cap": _is_int,
    "suite_agreement": lambda v: isinstance(v, bool),
    "def_skipped": lambda v: isinstance(v, bool),
}


def _record_from_json(obj) -> dict:
    """The record in a parsed JSONL line; ValueError names the first key
    that is missing or has the wrong JSON type."""
    if not isinstance(obj, dict):
        raise ValueError("a record must be a JSON object")
    for key, ok in _RECORD_SHAPE.items():
        if key not in obj:
            raise ValueError(f"record has no {key!r}")
        if not ok(obj[key]):
            raise ValueError(f"record {key!r} has the wrong type")
    return {key: obj[key] for key in _RECORD_SHAPE}


# -- degree sweep ------------------------------------------------------


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


def _survey_chunk(descriptor, d, start, stop, full_suites, skip_def,
                  multiplicities):
    """Enumerate primes with candidate index in [start, stop) and do
    all of each prime's work on its context: the Wilson verdict, the
    special-form check and, with multiplicities, the prime's valuations
    for the tables.  Returns plain data for easy merging: per prime a
    dict of its text, verdict, special c as text (or None) and
    valuations."""
    field = parse_field(descriptor)
    p = field.char
    cap = p + 2
    tables = multiplicities and d >= 2
    minus_one = -Poly.one(field)
    rows = []
    for ctx in iter_monic_irreducibles(field, d, start, stop):
        prime = ctx.prime
        if full_suites or p == 2:
            wil = holds(wilson_suite(ctx, skip_def=skip_def and p > 2))
        else:
            wil = _wilson_by_pattern(prime)
            if not skip_def and (ctx.chain(2).F(d) == minus_one) != wil:
                raise EquivalenceViolation(
                    f"definition and second-derivative routes disagree at {prime}"
                )
        row = {"text": str(prime), "wilson": wil, "special_c": None}
        if wil and tables and p > 2:
            # the derivative of a residue mod P^(cap+2) pins the
            # derivative of L itself mod P^(cap+1)
            ws = -derivative_mod(ctx.chain(cap + 2).L(d - 1), ctx, cap + 1)
            row["wilson_sum"] = _capped_valuation(ws, prime, cap)

        dp = prime.derivative()
        if dp.degree == 0:
            e = dp.coeff(0)
            c = e if d % 2 else -e
            if not is_special_wilson(ctx, c):
                raise EquivalenceViolation(
                    f"derivative scan and special-form check disagree at {prime}"
                )
            row["special_c"] = str(c.code)  # the record's c key
            if tables:
                for kind in ("L_minus_c", "D_plus_sign_c"):
                    row[kind] = _perturbation_valuation(ctx, kind, d, c, cap)
        rows.append(row)
    return rows


def skips_definition(field: Field, d: int, def_budget) -> bool:
    """Whether survey_degree drops the definition route: q^d is above
    def_budget and p > 2 (characteristic 2 has no other route)."""
    return (def_budget is not None and field.order ** d > def_budget
            and field.char > 2)


def survey_degree(field: Field, d: int, *, jobs: int = 1,
                  full_suites: bool = False, def_budget=None,
                  multiplicities: bool = True) -> dict:
    """Census of all monic primes of one degree.

    The Wilson verdict runs the fifteen-condition suite per prime when
    full_suites is set, and otherwise the cheap routes (definition,
    second derivative, coefficient pattern) cross-checked against each
    other.  def_budget bounds q^d for the definition route; beyond it
    the verdict falls back to the second derivative alone (p > 2) and
    the record says so.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    skip_def = skips_definition(field, d, def_budget)
    descriptor = field.descriptor()

    jobs = min(jobs, os.cpu_count() or 1)  # a pool forks all its workers
    if jobs == 1:
        rows = _survey_chunk(descriptor, d, 0, field.order ** d,
                             full_suites, skip_def, multiplicities)
    else:
        # imported here: the pool module costs start-up time of every
        # command, and most runs never start a pool
        from concurrent.futures import ProcessPoolExecutor

        total = field.order ** d
        step = -(-total // jobs)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_survey_chunk, descriptor, d, lo,
                            min(lo + step, total), full_suites, skip_def,
                            multiplicities)
                for lo in range(0, total, step)
            ]
            rows = []
            for fut in futures:
                rows.extend(fut.result())

    wilson = []
    special = {str(c): [] for c in range(1, field.order)}
    tables = {"L_minus_c": {}, "D_plus_sign_c": {}, "wilson_sum": {}}
    for row in rows:
        text = row["text"]
        if row["wilson"]:
            wilson.append(text)
        if row["special_c"] is not None:
            special[row["special_c"]].append(text)
        if "wilson_sum" in row:
            tables["wilson_sum"][text] = row["wilson_sum"]
        for kind in ("L_minus_c", "D_plus_sign_c"):
            if kind in row:
                tables[kind].setdefault(row["special_c"], {})[text] = row[kind]

    record = {
        "field": descriptor,
        "degree": d,
        "prime_count": len(rows),
        "wilson_primes": wilson,
        "special_primes": special,
        "multiplicities": tables,
        "multiplicity_cap": field.char + 2,
        "suite_agreement": True,
        "def_skipped": skip_def,
    }
    validate(record, field)
    return record


# -- theorem reports ---------------------------------------------------


def special_primes_by_form(field: Field, d: int, c) -> list:
    """All degree-d primes with derivative (-1)^(d-1) c, found as
    irreducible values of b^p + (-1)^(d-1) c t over monic b.

    A constant derivative e forces P - e t to have derivative zero,
    hence to be a p-th power; so d = p deg b and the enumeration is
    complete.  When p does not divide d there is nothing to scan.
    """
    c = c if isinstance(c, FieldElement) else field(c)
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
    targets = [(kind, field(c) if not isinstance(c, FieldElement) else c)
               for kind, c in targets]
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


def theorem5_report(field: Field, d: int, seed: int = 0) -> dict:
    """Factor the Wilson sum polynomial and match its degree-d primes
    against the Wilson primes of degree d, multiplicity at least p-2.

    Returns the report as its JSON payload."""
    from .factor import factorize  # a survey never factors

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
    from .factor import factorize, trial_division  # a survey never factors

    if d < 2:
        raise ValueError("degree must be at least 2")
    c = c if isinstance(c, FieldElement) else field(c)
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


# -- persistence -------------------------------------------------------


def _header(seed: int) -> dict:
    return {"schema": SCHEMA, "seed": seed, "version": __version__}


def jsonl_document(records, seed: int = 0) -> str:
    """The persisted form as one string: header line, then record lines."""
    lines = [canonical_json(_header(seed))]
    lines.extend(canonical_json(rec) for rec in records)
    return "\n".join(lines) + "\n"


def persist(records, path, seed: int = 0, append: bool = False):
    """Write survey records as JSON lines under a versioned header.

    Bytes are reproducible for a fixed seed and package version.
    """
    records = list(records)
    header = _header(seed)
    if append and os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline().rstrip("\n")
        if first != canonical_json(header):
            raise SchemaVersionMismatch(
                "line 1: existing header does not match this writer"
            )
        with open(path, "a", encoding="utf-8") as fh:
            for rec in records:
                fh.write(canonical_json(rec) + "\n")
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(jsonl_document(records, seed))


def resume(path):
    """(header, {record key: record}) from a persisted file.

    Any malformed line, or a record missing a key or holding a value of
    the wrong JSON type, is reported by number as a schema mismatch;
    callers skip keys already present instead of recomputing them.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SchemaVersionMismatch("line 1: empty survey file")
    try:
        header = json.loads(lines[0])
    except ValueError as exc:
        raise SchemaVersionMismatch(f"line 1: {exc}") from exc
    if not isinstance(header, dict) or header.get("schema") != SCHEMA:
        raise SchemaVersionMismatch(
            f"line 1: expected schema {SCHEMA!r}, got "
            f"{header.get('schema') if isinstance(header, dict) else header!r}"
        )
    if header.get("version") != __version__:
        raise SchemaVersionMismatch(
            f"line 1: file version {header.get('version')!r} does not match "
            f"package version {__version__!r}"
        )
    records = {}
    for n, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = _record_from_json(json.loads(line))
        except ValueError as exc:
            raise SchemaVersionMismatch(f"line {n}: {exc}") from exc
        records[record_key(rec["field"], rec["degree"])] = rec
    return header, records
