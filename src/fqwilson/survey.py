"""Degree sweeps, theorem reports, conjecture scans, and persistence.

Everything here orchestrates the lower modules over whole families of
primes.  Giant Carlitz quantities are never formed exactly when a
check only needs a residue: L_(d-1), D_(d-1) and the alternating sums
come from a carlitz.CarlitzChain modulo a small prime power, which
costs O(d) modular multiplications per prime instead of a division of
astronomically large polynomials.  The gcd scans keep one chain per
prime for the whole range of degrees.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field as dc_field

from . import __version__
from .carlitz import CarlitzCache, CarlitzChain
from .congruence import (
    _capped_valuation,
    coefficient_characterization,
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
from .factor import factorize, trial_division
from .gf import Field, FieldElement, parse_field
from .irr import (
    PrimeContext,
    count_irreducibles,
    is_irreducible,
    iter_monic_irreducibles,
    monic_polys,
)
from .poly import ModReducer, Poly

SCHEMA = "fqwilson.survey/1"


def canonical_json(obj) -> str:
    """The one JSON shape used everywhere bytes must be reproducible."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


# -- survey records ----------------------------------------------------


def record_key(field_descriptor: str, degree: int) -> str:
    """The key under which persisted files store a degree's record."""
    return f"{field_descriptor}|{degree}"


@dataclass
class SurveyRecord:
    """Per-degree census: counts, Wilson and special primes, valuations."""

    field_descriptor: str
    degree: int
    prime_count: int
    wilson_primes: list
    special_primes: dict
    multiplicities: dict
    multiplicity_cap: int
    suite_agreement: bool
    def_skipped: bool = False
    timing: dict = dc_field(default_factory=dict, compare=False)

    @property
    def key(self) -> str:
        return record_key(self.field_descriptor, self.degree)

    def made_with(self, field: Field, *, multiplicities: bool,
                  def_skipped: bool) -> bool:
        """Whether survey_degree with these options yields this record.

        Records store no options, so the tables decide: without
        multiplicities (or below degree 2) all three are empty; with
        them each special prime's c has an L and a D row and, for
        p > 2, each Wilson prime has a wilson_sum entry.
        """
        if self.def_skipped != def_skipped:
            return False
        specials, wilson = set(), set()
        if multiplicities and self.degree >= 2:
            specials = {c for c, primes in self.special_primes.items() if primes}
            if field.char > 2:
                wilson = set(self.wilson_primes)
        tables = self.multiplicities
        return (set(tables.get("L_minus_c", ())) == specials
                and set(tables.get("D_plus_sign_c", ())) == specials
                and set(tables.get("wilson_sum", ())) == wilson)

    def validate(self, field: Field):
        p = field.char
        d = self.degree
        if self.prime_count != count_irreducibles(field, d):
            raise TheoremViolation(
                f"prime count {self.prime_count} at degree {d} contradicts "
                f"the Gauss enumeration formula"
            )
        if any(self.special_primes.values()) and d % p != 0 and d != 1:
            raise TheoremViolation(
                f"special primes found at degree {d} although p does not divide d"
            )
        if self.wilson_primes and d % p != 0 and (d - 1) % p != 0:
            raise TheoremViolation(
                f"Wilson primes found at degree {d} although p divides "
                f"neither d nor d-1"
            )

    def to_json(self):
        return {
            "field": self.field_descriptor,
            "degree": self.degree,
            "prime_count": self.prime_count,
            "wilson_primes": list(self.wilson_primes),
            "special_primes": {str(c): list(v)
                               for c, v in self.special_primes.items()},
            "multiplicities": {
                kind: ({str(c): dict(v) for c, v in table.items()}
                       if kind != "wilson_sum" else dict(table))
                for kind, table in self.multiplicities.items()
            },
            "multiplicity_cap": self.multiplicity_cap,
            "suite_agreement": self.suite_agreement,
            "def_skipped": self.def_skipped,
        }

    @classmethod
    def from_json(cls, obj) -> "SurveyRecord":
        mults = {}
        for kind, table in obj["multiplicities"].items():
            if kind == "wilson_sum":
                mults[kind] = dict(table)
            else:
                mults[kind] = {int(c): dict(v) for c, v in table.items()}
        return cls(
            field_descriptor=obj["field"],
            degree=obj["degree"],
            prime_count=obj["prime_count"],
            wilson_primes=list(obj["wilson_primes"]),
            special_primes={int(c): list(v)
                            for c, v in obj["special_primes"].items()},
            multiplicities=mults,
            multiplicity_cap=obj["multiplicity_cap"],
            suite_agreement=obj["suite_agreement"],
            def_skipped=obj["def_skipped"],
        )


@dataclass
class ScanFinding:
    """One nontrivial gcd hit from a conjecture/theorem scan."""

    kind: str
    field_descriptor: str
    q: int
    d: int
    c: object
    gcd: Poly
    violates_expectation: bool

    def to_json(self):
        return {
            "kind": self.kind,
            "field": self.field_descriptor,
            "q": self.q,
            "d": self.d,
            "c": self.c,
            "gcd": str(self.gcd),
            "violates_expectation": self.violates_expectation,
        }


# -- degree sweep ------------------------------------------------------


def _survey_chunk(descriptor, d, start, stop, full_suites, skip_def):
    """Enumerate primes with candidate index in [start, stop) and
    compute per-prime verdicts; returns plain data for easy merging."""
    field = parse_field(descriptor)
    p = field.char
    cache = CarlitzCache(field)
    minus_one = -Poly.one(field)
    rows = []
    for ctx in iter_monic_irreducibles(field, d, start, stop):
        prime = ctx.prime
        dp = prime.derivative()
        if dp.degree == 0:
            e = dp.coeff(0)
            special_c = (e if d % 2 else -e).code
        else:
            special_c = None

        if full_suites or p == 2:
            suite = wilson_suite(ctx, skip_def=skip_def and p > 2)
            wil = suite.holds
        else:
            wil = dp.derivative().is_zero
            if wil != coefficient_characterization(prime):
                raise EquivalenceViolation(
                    f"second-derivative and coefficient routes disagree at {prime}"
                )
            if not skip_def:
                defv = cache.F_mod(d, prime * prime) == minus_one
                if defv != wil:
                    raise EquivalenceViolation(
                        f"definition and second-derivative routes disagree at {prime}"
                    )
        rows.append({"codes": list(prime.codes), "wilson": wil,
                     "special_c": special_c})
    return rows


def skips_definition(field: Field, d: int, def_budget) -> bool:
    """Whether survey_degree drops the definition route: q^d is above
    def_budget and p > 2 (characteristic 2 has no other route)."""
    return (def_budget is not None and field.order ** d > def_budget
            and field.char > 2)


def survey_degree(field: Field, d: int, *, seed: int = 0, jobs: int = 1,
                  full_suites: bool = False, def_budget=None,
                  multiplicities: bool = True) -> SurveyRecord:
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
    t0 = time.perf_counter()
    p = field.char
    skip_def = skips_definition(field, d, def_budget)
    descriptor = field.descriptor()

    jobs = min(jobs, os.cpu_count() or 1)  # a pool forks all its workers
    if jobs == 1:
        rows = _survey_chunk(descriptor, d, 0, field.order ** d,
                             full_suites, skip_def)
    else:
        # imported here: the pool module costs start-up time of every
        # command, and most runs never start a pool
        from concurrent.futures import ProcessPoolExecutor

        total = field.order ** d
        step = -(-total // jobs)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_survey_chunk, descriptor, d, lo,
                            min(lo + step, total), full_suites, skip_def)
                for lo in range(0, total, step)
            ]
            rows = []
            for fut in futures:
                rows.extend(fut.result())
    t1 = time.perf_counter()

    wilson = []
    special = {c: [] for c in range(1, field.order)}
    by_text = {}
    for row in rows:
        prime = Poly(field, row["codes"])
        text = str(prime)
        by_text[text] = prime
        if row["wilson"]:
            wilson.append(text)
        if row["special_c"] is not None:
            c_el = FieldElement(field, row["special_c"])
            if not is_special_wilson(PrimeContext.for_prime(prime), c_el):
                raise EquivalenceViolation(
                    f"derivative scan and special-form check disagree at {prime}"
                )
            special[row["special_c"]].append(text)

    cap = p + 2
    tables = {"L_minus_c": {}, "D_plus_sign_c": {}, "wilson_sum": {}}
    if multiplicities and d >= 2:
        for c_code, plist in special.items():
            if not plist:
                continue
            c_el = FieldElement(field, c_code)
            l_tab, d_tab = {}, {}
            for text in plist:
                prime = by_text[text]
                chain = CarlitzChain(ModReducer(prime ** (cap + 1)))
                l_tab[text] = _capped_valuation(
                    chain.perturbation("L_minus_c", d, c_el), prime, cap)
                d_tab[text] = _capped_valuation(
                    chain.perturbation("D_plus_sign_c", d, c_el), prime, cap)
            tables["L_minus_c"][c_code] = l_tab
            tables["D_plus_sign_c"][c_code] = d_tab
        if p > 2:
            for text in wilson:
                prime = by_text[text]
                # the derivative of a residue mod P^(cap+2) pins the
                # derivative of L itself mod P^(cap+1)
                chain = CarlitzChain(ModReducer(prime ** (cap + 2)))
                ws = -derivative_mod(chain.L(d - 1), prime, cap + 1)
                tables["wilson_sum"][text] = _capped_valuation(ws, prime, cap)
    t2 = time.perf_counter()

    record = SurveyRecord(
        field_descriptor=descriptor,
        degree=d,
        prime_count=len(rows),
        wilson_primes=wilson,
        special_primes=special,
        multiplicities=tables,
        multiplicity_cap=cap,
        suite_agreement=True,
        def_skipped=skip_def,
        timing={"sweep_s": t1 - t0, "tables_s": t2 - t1, "total_s": t2 - t0},
    )
    record.validate(field)
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
            if not is_special_wilson(PrimeContext.for_prime(cand), c):
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
        prime = ctx.prime
        chain = CarlitzChain(ModReducer(prime))
        big = None
        for kind, c in targets:
            if not chain.perturbation(kind, d, c).is_zero:
                continue
            if big is None:
                big = CarlitzChain(ModReducer(prime ** (cap + 1)))
            divisors[(kind, c.code)][str(prime)] = _capped_valuation(
                big.perturbation(kind, d, c), prime, cap)
    return {"prime_count": n, "divisors": divisors}


@dataclass
class Theorem5Report:
    """Factorization of -dL_(d-1)/dt checked against the Wilson set."""

    field_descriptor: str
    degree: int
    poly_degree: int
    wilson_primes: list
    factor_degrees: list
    degree_d_multiplicities: dict

    def to_json(self):
        return {
            "field": self.field_descriptor,
            "degree": self.degree,
            "poly_degree": self.poly_degree,
            "wilson_primes": list(self.wilson_primes),
            "factor_degrees": [list(pair) for pair in self.factor_degrees],
            "degree_d_multiplicities": dict(self.degree_d_multiplicities),
        }


def theorem5_report(field: Field, d: int, seed: int = 0) -> Theorem5Report:
    """Factor the Wilson sum polynomial and match its degree-d primes
    against the Wilson primes of degree d, multiplicity at least p-2."""
    p = field.char
    if p == 2:
        raise ValueError("the Wilson-sum factorization statement needs p > 2")
    if d < 2:
        raise ValueError("degree must be at least 2")
    cache = CarlitzCache(field)
    ws = cache.wilson_sum_poly(d)
    fac = factorize(ws, seed=seed)

    wilson = set()
    for ctx in iter_monic_irreducibles(field, d):
        wil = ctx.prime.derivative().derivative().is_zero
        if wil != coefficient_characterization(ctx.prime):
            raise EquivalenceViolation(
                f"Wilson routes disagree at {ctx.prime}"
            )
        if wil:
            wilson.add(str(ctx.prime))

    degree_d = {str(base): mult for base, mult in fac.factors
                if base.degree == d}
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
    return Theorem5Report(
        field_descriptor=field.descriptor(),
        degree=d,
        poly_degree=ws.degree,
        wilson_primes=sorted(wilson),
        factor_degrees=[[base.degree, mult] for base, mult in fac.factors],
        degree_d_multiplicities=degree_d,
    )


@dataclass
class PerturbationSide:
    """One of the two perturbed Carlitz factorials in a theorem-7 report."""

    kind: str
    poly_degree: int
    factor_degrees: list
    degree_d_multiplicities: dict
    cofactor_degree: object = None
    cofactor_irreducible: object = None
    note: str = ""

    def to_json(self):
        out = {
            "kind": self.kind,
            "poly_degree": self.poly_degree,
            "factor_degrees": [list(pair) for pair in self.factor_degrees],
            "degree_d_multiplicities": dict(self.degree_d_multiplicities),
        }
        if self.cofactor_degree is not None:
            out["cofactor_degree"] = self.cofactor_degree
            out["cofactor_irreducible"] = self.cofactor_irreducible
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class Theorem7Report:
    field_descriptor: str
    degree: int
    c: int
    mode: str
    special_primes: list
    L: PerturbationSide
    D: PerturbationSide

    def to_json(self):
        return {
            "field": self.field_descriptor,
            "degree": self.degree,
            "c": self.c,
            "mode": self.mode,
            "special_primes": list(self.special_primes),
            "L": self.L.to_json(),
            "D": self.D.to_json(),
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
                    max_degree=None, seed: int = 0) -> Theorem7Report:
    """Check that the degree-d primes dividing L_(d-1) - c and
    D_(d-1) + (-1)^d c are exactly those with derivative (-1)^(d-1) c,
    with multiplicity at least p-1 on the L side and exactly one on
    the D side; exact multiplicities are recorded.

    full mode factorizes both perturbations completely.  partial mode
    trial-divides the L side up to max_degree and settles the degree-d
    questions for both sides by residue scans over the enumerated
    primes, leaving the large cofactors untouched.
    """
    if d < 2:
        raise ValueError("degree must be at least 2")
    c = c if isinstance(c, FieldElement) else field(c)
    if not c:
        raise ZeroC("c must be a nonzero field constant")
    p = field.char
    q = field.order
    special = special_primes_by_form(field, d, c)
    special_texts = {str(f) for f in special}
    cache = CarlitzCache(field)

    if mode == "full":
        sides = {}
        for kind in ("L_minus_c", "D_plus_sign_c"):
            poly = cache.perturbation(kind, d, c)
            fac = factorize(poly, seed=seed)
            mults = {str(base): mult for base, mult in fac.factors
                     if base.degree == d}
            sides[kind] = PerturbationSide(
                kind=kind,
                poly_degree=poly.degree,
                factor_degrees=[[b.degree, m] for b, m in fac.factors],
                degree_d_multiplicities=mults,
            )
        _check_theorem7_sides(field, d, special_texts,
                              sides["L_minus_c"].degree_d_multiplicities,
                              sides["D_plus_sign_c"].degree_d_multiplicities)
        return Theorem7Report(
            field_descriptor=field.descriptor(), degree=d, c=c.code,
            mode="full", special_primes=sorted(special_texts),
            L=sides["L_minus_c"], D=sides["D_plus_sign_c"],
        )

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
    l_mults = {str(base): mult for base, mult in l_fac.factors
               if base.degree == d}
    if set(l_mults) != set(l_scan):
        raise EquivalenceViolation(
            f"trial division and residue scan disagree on the degree-{d} "
            f"divisors of L_{d-1} - c"
        )
    _check_theorem7_sides(field, d, special_texts, l_mults, d_scan)

    d_degree = (d - 1) * q ** (d - 1)
    d_side = PerturbationSide(
        kind="D_plus_sign_c",
        poly_degree=d_degree,
        factor_degrees=[[d, m] for _, m in sorted(d_scan.items())],
        degree_d_multiplicities=d_scan,
        note="degree-d divisors via residue scan; cofactor not factored",
    )
    l_side = PerturbationSide(
        kind="L_minus_c",
        poly_degree=l_poly.degree,
        factor_degrees=[[b.degree, m] for b, m in l_fac.factors],
        degree_d_multiplicities=l_mults,
        cofactor_degree=(l_fac.cofactor.degree
                         if l_fac.cofactor is not None else None),
        cofactor_irreducible=l_fac.cofactor_irreducible,
        note=f"trial division to degree {max_degree}",
    )
    return Theorem7Report(
        field_descriptor=field.descriptor(), degree=d, c=c.code,
        mode="partial", special_primes=sorted(special_texts),
        L=l_side, D=d_side,
    )


# -- gcd scans ---------------------------------------------------------


def _divisors(d: int):
    return [e for e in range(1, d + 1) if d % e == 0]


def _prime_chains(field, e, chains_by_degree):
    """(prime, CarlitzChain mod prime) for the degree-e primes, built on
    first request and kept, so each chain extends across all d."""
    if e not in chains_by_degree:
        chains_by_degree[e] = [(ctx.prime, CarlitzChain(ModReducer(ctx.prime)))
                               for ctx in iter_monic_irreducibles(field, e)]
    return chains_by_degree[e]


def _scan_gcd_product(field, matched):
    g = Poly.one(field)
    for prime in matched:
        g = g * prime
    return g


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
                red = chain.red
                l_res = chain.L(d - 1)
                for c in range(1, q):
                    if (l_res + FieldElement(field, c)).is_zero:
                        # verify the hit divides both operands
                        if red.powmod(red.reduce(Poly.t(field)), q ** d) != \
                                red.reduce(Poly.t(field)):
                            raise EquivalenceViolation(
                                f"{prime} does not divide [{d}]"
                            )
                        matched[c].append(prime)
        for c in range(1, q):
            if not matched[c]:
                continue
            finding = ScanFinding(
                kind="borisov_gcd",
                field_descriptor=field.descriptor(),
                q=q, d=d, c=c,
                gcd=_scan_gcd_product(field, matched[c]),
                violates_expectation=(d % p != 0),
            )
            if finding.violates_expectation:
                raise TheoremViolation(
                    f"nontrivial gcd(L_{d-1}+{c}, [{d}]) over F{q} with "
                    f"p = {p} not dividing d = {d}: {finding.gcd}"
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
    q = field.order
    chains_by_degree = {}
    findings = []
    for d in range(2, d_max + 1):
        matched = []
        for e in _divisors(d):
            for prime, chain in _prime_chains(field, e, chains_by_degree):
                if chain.T(d - 1).is_zero:
                    matched.append(prime)
        if matched:
            findings.append(ScanFinding(
                kind="alt_gcd_conjecture",
                field_descriptor=field.descriptor(),
                q=q, d=d, c=None,
                gcd=_scan_gcd_product(field, matched),
                violates_expectation=(d % p != 0),
            ))
    return findings


# -- persistence -------------------------------------------------------


def _header(seed: int) -> dict:
    return {"schema": SCHEMA, "seed": seed, "version": __version__}


def jsonl_document(records, seed: int = 0) -> str:
    """The persisted form as one string: header line, then record lines."""
    lines = [canonical_json(_header(seed))]
    lines.extend(canonical_json(rec.to_json()) for rec in records)
    return "\n".join(lines) + "\n"


def persist(records, path, seed: int = 0, append: bool = False):
    """Write survey records as JSON lines under a versioned header.

    Bytes are reproducible for a fixed seed and package version:
    timing metadata never reaches the file.
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
                fh.write(canonical_json(rec.to_json()) + "\n")
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(jsonl_document(records, seed))


def resume(path):
    """(header, {record key: SurveyRecord}) from a persisted file.

    Any malformed line is reported by number as a schema mismatch;
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
            rec = SurveyRecord.from_json(json.loads(line))
        except (ValueError, KeyError, TypeError) as exc:
            raise SchemaVersionMismatch(f"line {n}: {exc}") from exc
        records[rec.key] = rec
    return header, records
