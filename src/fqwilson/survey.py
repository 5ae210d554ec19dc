"""Degree sweeps and persistence.

Everything here orchestrates the lower modules over all the primes of a
degree.  Giant Carlitz quantities are never formed exactly when a check
only needs a residue: F_d and L_(d-1) come from the prime context's
CarlitzChain modulo a small power of the prime, PrimeContext.chain,
which costs O(d) modular multiplications per prime instead of a
division of astronomically large polynomials.  A survey does all of a
prime's work, its verdicts and its table rows, in one pass over the
prime's context.  The theorem reports and the gcd scans live in
reports.py, which a sweep never compiles; they stay importable from
here.

Survey records are returned as the JSON objects the commands print and
the JSONL lines hold, so there is no record class to mirror; validate
and made_with read a record as such.
"""

import json
import os

from . import __version__, canonical_json
from .congruence import (_capped_valuation, _perturbation_valuation, _wilson_by_pattern,
                         holds, is_special_wilson, wilson_suite)
from .deriv import derivative_mod
from .errors import EquivalenceViolation, SchemaVersionMismatch, TheoremViolation
from .gf import Field, parse_field
from .irr import count_irreducibles, iter_monic_irreducibles
from .irr import is_irreducible  # noqa: F401  (perfbench/tests looks it up here)
from .poly import Poly

SCHEMA = "fqwilson.survey/1"


def __getattr__(name):
    if name in ("special_primes_by_form", "perturbation_divisor_scan",
                "theorem5_report", "theorem7_report", "borisov_scan",
                "alt_gcd_conjecture_scan"):
        from . import reports
        return getattr(reports, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
