"""Command line front end.

Subcommands map one to one onto library operations:

  primes list          enumerate the monic irreducibles of one degree
  check wieferich      every equivalent a-Wieferich condition on one prime
  check wilson         every equivalent Wilson condition on one prime
  classify-base        the Wieferich trichotomy for a base polynomial
  carlitz compute      [n], L_n, D_n, F_d, the Wilson sum, perturbations
  factor               full or degree-bounded factorization
  survey               sweep every prime of one degree; JSONL via --out
  theorem5             factor the Wilson sum polynomial, check its factor law
  theorem7             factor a perturbed product, check its factor law
  scan borisov         gcd(L_{d-1} + c, [d]) sweep over degrees
  scan alt-conjecture  gcd([d], 1 - [d-1] + [d-1][d-2] - ... +- L_{d-1}) sweep
  verify paper         re-run a recorded worked example against frozen values

Exit status is 0 on success, 1 when a reproduction or internal
cross-check fails, 2 on usage errors.  Output is byte-stable for a
fixed invocation and seed; --json swaps human tables for canonical
JSON.  The seed falls back to the CARLITZ_SEED environment variable.
"""

import argparse
import os
import sys

from . import __version__, canonical_json
from .errors import (
    EquivalenceViolation,
    FqwilsonError,
    SchemaVersionMismatch,
    TheoremViolation,
)
from .factor import factorize, trial_division
from .gf import parse_field
from .irr import PrimeContext, count_irreducibles, iter_monic_irreducibles
from .irr import is_irreducible  # noqa: F401  (perfbench/tests looks it up here)
from .poly import ModReducer, divrem, parse_poly

# The survey, report, Carlitz and congruence layers (and deriv, which
# congruence pulls in) are imported inside the commands that run them,
# so factor and primes list never compile them.


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        seed, source = args.seed, "--seed"
    else:
        seed, source = int(os.environ.get("CARLITZ_SEED", "0")), "CARLITZ_SEED"
    if not -(1 << 127) <= seed < 1 << 127:
        # the splitting stream hashes the seed as 16 signed bytes
        raise ValueError(f"{source} {seed} is outside the signed 128-bit range")
    return seed


def _emit(args, payload, human_lines):
    if getattr(args, "json", False):
        print(canonical_json(payload))
    else:
        for line in human_lines:
            print(line)


def _bool(v) -> str:
    return "true" if v else "false"


# -- plain subcommands -------------------------------------------------


def cmd_primes_list(args) -> int:
    field = parse_field(args.field)
    ctxs = iter_monic_irreducibles(field, args.degree, args.start, args.stop)
    texts = [str(ctx.prime) for ctx in ctxs]
    if args.start == 0 and args.stop is None:
        expected = count_irreducibles(field, args.degree)
        if len(texts) != expected:
            raise EquivalenceViolation(
                f"enumerated {len(texts)} primes, the counting formula "
                f"gives {expected}")
    payload = {
        "field": field.descriptor(),
        "degree": args.degree,
        "count": len(texts),
        "primes": texts,
    }
    _emit(args, payload, [f"{len(texts)} monic irreducibles of degree "
                          f"{args.degree} over {field.descriptor()}"] + texts)
    return 0


def cmd_check(args) -> int:
    from .congruence import holds, wieferich_suite, wilson_suite

    field = parse_field(args.field)
    prime = parse_poly(args.prime, field)
    ctx = PrimeContext.for_prime(prime)
    if args.kind == "wieferich":
        base = parse_poly(args.base, field)
        suite = wieferich_suite(ctx, base)
    else:
        suite = wilson_suite(ctx, skip_def=args.skip_def)
    verdicts = suite["verdicts"]
    lines = []
    if args.all_conditions:
        for label, verdict in verdicts.items():
            lines.append(f"{label}: {_bool(verdict)}")
    n = len(verdicts)
    summary = f"{args.kind}: {_bool(holds(suite))} ({n} condition"
    summary += "s" if n != 1 else ""
    summary += ", unanimous)" if suite["unanimous"] else ")"
    if "marker" in suite:
        summary += f" [{suite['marker']}]"
    lines.append(summary)
    _emit(args, suite, lines)
    return 0


def cmd_classify_base(args) -> int:
    from .congruence import classify_base

    field = parse_field(args.field)
    base = parse_poly(args.base, field)
    cls = classify_base(base)
    lines = [f"class: {cls['tag']}"]
    if "witness" in cls:
        lines.append(f"witness: b={cls['witness']}"
                     + (f" c={cls['c']}" if "c" in cls else ""))
    _emit(args, cls, lines)
    return 0


def cmd_carlitz(args) -> int:
    from .carlitz import CarlitzCache, CarlitzChain

    field = parse_field(args.field)
    what, n = args.what, args.n
    modulus = parse_poly(args.mod, field) if args.mod is not None else None
    if modulus is None:
        source = CarlitzCache(field)
    else:
        # the exact values outgrow the degree guard long before their
        # residues do, so they are reduced along the chain, not after;
        # the Wilson sum mod m is fixed by L_(d-1) mod m^2
        source = CarlitzChain(ModReducer(
            modulus * modulus if what == "wilson-sum" else modulus))
    if what == "wilson-sum":
        value = source.wilson_sum_poly(n)
        if modulus is not None:
            value = divrem(value, modulus)[1]
    elif what == "perturbation":
        if args.c is None:
            raise ValueError("perturbation requires --c")
        value = source.perturbation(args.kind, n, args.c)
    else:  # bracket, L, D and F have one method each on both sources
        value = getattr(source, what)(n)
    payload = {
        "field": field.descriptor(),
        "what": what,
        "n": n,
        "degree": None if value.is_zero else value.degree,
        "poly": str(value),
    }
    _emit(args, payload, [f"degree {'-' if value.is_zero else value.degree}",
                          str(value)])
    return 0


def cmd_factor(args) -> int:
    field = parse_field(args.field)
    f = parse_poly(args.poly, field)
    seed = _resolve_seed(args)
    if args.max_trial_degree is not None:
        fac = trial_division(f, args.max_trial_degree, seed=seed)
    else:
        fac = factorize(f, seed=seed)
    lines = [f"unit: {fac.unit.code}"]
    for base, mult in fac.factors:
        lines.append(str(base) if mult == 1 else f"({base})^{mult}")
    if fac.cofactor is not None:
        lines.append(f"cofactor: degree {fac.cofactor.degree} "
                     f"(irreducible: {fac.cofactor_irreducible})")
    _emit(args, fac.to_json(), lines)
    return 0


def cmd_survey(args) -> int:
    from .survey import (jsonl_document, made_with, persist, record_key,
                         resume, skips_definition, survey_degree, validate)

    field = parse_field(args.field)
    seed = _resolve_seed(args)
    rec = None
    if args.out and args.append and os.path.exists(args.out):
        # resume: a record stored for this key by a run with the same
        # table and budget options is reused as is
        header, stored = resume(args.out)
        if header.get("seed") != seed:
            raise SchemaVersionMismatch(
                f"line 1: file seed {header.get('seed')!r} does not match "
                f"seed {seed}"
            )
        rec = stored.get(record_key(field.descriptor(), args.degree))
        if rec is not None and not made_with(
                rec, field, multiplicities=not args.no_multiplicities,
                def_skipped=skips_definition(field, args.degree, args.budget)):
            rec = None
        if rec is not None:
            validate(rec, field)
    if rec is None:
        rec = survey_degree(
            field,
            args.degree,
            jobs=args.jobs,
            full_suites=args.full_suites,
            def_budget=args.budget,
            multiplicities=not args.no_multiplicities,
        )
        if args.out:
            persist([rec], args.out, seed=seed, append=args.append)
    wilson, special = rec["wilson_primes"], rec["special_primes"]
    lines = [
        f"field {rec['field']} degree {rec['degree']}: "
        f"{rec['prime_count']} primes",
        f"wilson ({len(wilson)}): " + (" ".join(wilson) if wilson else "-"),
    ]
    # c keys are decimal text: c=10 sorts after c=9
    for c in sorted(special, key=int):
        primes = special[c]
        lines.append(f"special c={c} ({len(primes)}): "
                     + (" ".join(primes) if primes else "-"))
    for table, entry in sorted(rec["multiplicities"].items()):
        if table == "wilson_sum":
            body = " ".join(f"{t}:{v}" for t, v in sorted(entry.items()))
            lines.append(f"mult wilson_sum: {body or '-'}")
        else:
            for c in sorted(entry, key=int):
                body = " ".join(f"{t}:{v}" for t, v in sorted(entry[c].items()))
                lines.append(f"mult {table} c={c}: {body or '-'}")
    if rec["def_skipped"]:
        lines.append("def condition skipped (bound)")
    if args.json:
        sys.stdout.write(jsonl_document([rec], seed))
        return 0
    for line in lines:
        print(line)
    return 0


def cmd_theorem5(args) -> int:
    from .reports import theorem5_report

    field = parse_field(args.field)
    rep = theorem5_report(field, args.degree, seed=_resolve_seed(args))
    _emit(args, rep, () if args.json else _theorem5_lines(rep))
    return 0


def _theorem5_lines(rep):
    from .reports import degree_multiset

    d = rep["degree"]
    return [
        f"wilson sum, degree {d}: polynomial degree {rep['poly_degree']}",
        f"factors: {degree_multiset(rep['factor_degrees'])}",
        f"degree-{d} factors = wilson primes "
        f"({len(rep['wilson_primes'])}), multiplicities "
        + " ".join(f"{t}:{m}" for t, m in
                   sorted(rep["degree_d_multiplicities"].items())),
    ]


def cmd_theorem7(args) -> int:
    from .reports import theorem7_report

    if args.mode == "partial" and (args.max_trial_degree is None
                                   or args.max_trial_degree < args.degree):
        raise ValueError("partial mode needs --max-trial-degree >= --degree")
    field = parse_field(args.field)
    rep = theorem7_report(
        field,
        args.degree,
        args.c,
        mode=args.mode,
        max_degree=args.max_trial_degree,
        seed=_resolve_seed(args),
    )
    _emit(args, rep, () if args.json else _theorem7_lines(rep))
    return 0


def _theorem7_lines(rep):
    from .reports import degree_multiset

    d, special = rep["degree"], rep["special_primes"]
    lines = [
        f"perturbations at degree {d}, c={rep['c']} ({rep['mode']} mode)",
        f"special primes ({len(special)}): "
        + (" ".join(special) if special else "-"),
    ]
    for side in (rep["L"], rep["D"]):
        entry = f"{side['kind']}: degree {side['poly_degree']}, " \
                f"factors {degree_multiset(side['factor_degrees']) or '-'}"
        if "cofactor_degree" in side:
            entry += f", cofactor degree {side['cofactor_degree']}"
        lines.append(entry)
        mults = sorted(side["degree_d_multiplicities"].items())
        lines.append(f"  degree-{d} multiplicities: "
                     + (" ".join(f"{t}:{m}" for t, m in mults) or "-"))
        if "note" in side:
            lines.append(f"  note: {side['note']}")
    return lines


def cmd_scan(args) -> int:
    from .reports import alt_gcd_conjecture_scan, borisov_scan

    field = parse_field(args.field)
    if args.kind == "borisov":
        findings = borisov_scan(field, args.max_degree)
    else:
        findings = alt_gcd_conjecture_scan(field, args.max_degree)
    lines = []
    for f in findings:
        entry = f"d={f['d']}"
        if f["c"] is not None:
            entry += f" c={f['c']}"
        entry += f" gcd degree {f['gcd'].degree}: {f['gcd']}"
        if f["violates_expectation"]:
            entry += "  [unexpected]"
        lines.append(entry)
        f["gcd"] = str(f["gcd"])
    if not lines:
        lines = ["no nontrivial gcd found"]
    _emit(args, findings, lines)
    return 0


# -- worked-example reproduction ---------------------------------------


def cmd_verify(args) -> int:
    from . import recorded  # imported here: most commands never read it
    from .carlitz import CarlitzCache
    from .reports import (perturbation_divisor_scan, special_primes_by_form,
                          theorem5_report, theorem7_report)
    from .survey import survey_degree

    seed = _resolve_seed(args)
    v = recorded.Verifier()
    if args.case == "q3d6":
        field = parse_field("3")
        recorded.q3d6_census(v, survey_degree(field, 6, jobs=args.jobs,
                                              full_suites=True))
        recorded.q3d6_wilson_sum(v, theorem5_report(field, 6, seed=seed))
        for c in (1, 2):
            recorded.q3d6_perturbation(
                v, theorem7_report(field, 6, c, mode="full", seed=seed))
    elif args.case == "q2d14":
        field = parse_field("2")
        rec = survey_degree(field, 14, jobs=args.jobs)
        recorded.q2d14_census(v, rec)
        if args.extended:
            pert = CarlitzCache(field).perturbation("L_minus_c", 14, 1)
            fac = trial_division(pert, recorded.Q2D14_TRIAL_DEGREE, seed=seed)
            recorded.l13_trial_division(v, pert, fac,
                                        rec["special_primes"].get("1", []))
            recorded.l13_remaining(v, fac, factorize(fac.cofactor, seed=seed))
    elif args.case == "artin-schreier":
        for p in (3, 5):
            for m in range(1, p):
                recorded.artin_schreier_prime(v, p, m, args.extended)
    else:
        field = parse_field("3")
        recorded.q3d9_scan(v, special_primes_by_form(field, 9, 1),
                           special_primes_by_form(field, 9, 2),
                           perturbation_divisor_scan(
                               field, 9, [("L_minus_c", 1), ("L_minus_c", 2)]))
    _emit(args, v.payload(args.case), [f"case {args.case}"] + v.lines())
    return 0 if v.ok else 1


# -- parser ------------------------------------------------------------


def _add_common(sub, *, field=True, seed=False, json_flag=True):
    if field:
        sub.add_argument("--field", required=True,
                         help="field: p, q, p^k, q:modulus, or a tower base/modulus")
    if seed:
        sub.add_argument("--seed", type=int, default=None,
                         help="seed for randomized splitting "
                              "(default: CARLITZ_SEED or 0)")
    if json_flag:
        sub.add_argument("--json", action="store_true",
                         help="canonical JSON instead of tables")


def _jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fqwilson",
        description="Wieferich and Wilson primes in F_q[t]: checks, "
                    "surveys, factorizations, reproductions.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    top = parser.add_subparsers(dest="command", required=True)

    primes = top.add_parser("primes", help="prime enumeration")
    psub = primes.add_subparsers(dest="subcommand", required=True)
    plist = psub.add_parser("list", help="list monic irreducibles of a degree")
    _add_common(plist)
    plist.add_argument("--degree", type=int, required=True)
    plist.add_argument("--start", type=int, default=0,
                       help="skip this many candidates")
    plist.add_argument("--stop", type=int, default=None,
                       help="stop at this candidate index")
    plist.set_defaults(func=cmd_primes_list)

    check = top.add_parser("check", help="condition suites on one prime")
    csub = check.add_subparsers(dest="kind", required=True)
    wief = csub.add_parser("wieferich", help="all a-Wieferich conditions")
    _add_common(wief)
    wief.add_argument("--prime", required=True, help="monic prime, poly text")
    wief.add_argument("--base", required=True, help="base a, poly text")
    wief.add_argument("--all-conditions", action="store_true",
                      help="print one verdict per condition")
    wief.set_defaults(func=cmd_check)
    wils = csub.add_parser("wilson", help="all Wilson conditions")
    _add_common(wils)
    wils.add_argument("--prime", required=True, help="monic prime, poly text")
    wils.add_argument("--all-conditions", action="store_true",
                      help="print one verdict per condition")
    wils.add_argument("--skip-def", action="store_true",
                      help="skip the defining product congruence")
    wils.set_defaults(func=cmd_check)

    classify = top.add_parser("classify-base",
                              help="Wieferich trichotomy of a base")
    _add_common(classify)
    classify.add_argument("--base", required=True, help="base a, poly text")
    classify.set_defaults(func=cmd_classify_base)

    carlitz = top.add_parser("carlitz", help="Carlitz quantities")
    casub = carlitz.add_subparsers(dest="subcommand", required=True)
    compute = casub.add_parser("compute", help="compute one quantity")
    _add_common(compute)
    compute.add_argument("--what", required=True,
                         choices=["bracket", "L", "D", "F", "wilson-sum",
                                  "perturbation"])
    compute.add_argument("--n", type=int, required=True,
                         help="index n, or degree d for F and wilson-sum")
    compute.add_argument("--kind", default="L_minus_c",
                         choices=["L_minus_c", "D_plus_sign_c"],
                         help="perturbation kind")
    compute.add_argument("--c", type=int, default=None,
                         help="perturbation constant, coefficient code")
    compute.add_argument("--mod", default=None,
                         help="reduce the result modulo this polynomial")
    compute.set_defaults(func=cmd_carlitz)

    factor = top.add_parser("factor", help="factor a polynomial")
    _add_common(factor, seed=True)
    factor.add_argument("--poly", required=True, help="poly text")
    factor.add_argument("--max-trial-degree", type=int, default=None,
                        help="only extract factors up to this degree")
    factor.set_defaults(func=cmd_factor)

    survey = top.add_parser("survey", help="sweep all primes of one degree")
    _add_common(survey, seed=True)
    survey.add_argument("--degree", type=int, required=True)
    survey.add_argument("--jobs", type=_jobs, default=1)
    survey.add_argument("--full-suites", action="store_true",
                        help="run every equivalent condition on every prime")
    survey.add_argument("--budget", type=int, default=None,
                        help="bound on q^d for the defining Wilson "
                             "congruence; past it the cheap routes decide")
    survey.add_argument("--no-multiplicities", action="store_true",
                        help="skip the valuation tables")
    survey.add_argument("--out", default=None, help="write JSONL here")
    survey.add_argument("--append", action="store_true",
                        help="append to --out instead of rewriting")
    survey.set_defaults(func=cmd_survey)

    th5 = top.add_parser("theorem5", help="Wilson sum factor law")
    _add_common(th5, seed=True)
    th5.add_argument("--degree", type=int, required=True)
    th5.set_defaults(func=cmd_theorem5)

    th7 = top.add_parser("theorem7", help="perturbed product factor law")
    _add_common(th7, seed=True)
    th7.add_argument("--degree", type=int, required=True)
    th7.add_argument("--c", type=int, required=True,
                     help="perturbation constant, coefficient code")
    th7.add_argument("--mode", default="full", choices=["full", "partial"])
    th7.add_argument("--max-trial-degree", type=int, default=None,
                     help="trial division bound in partial mode")
    th7.set_defaults(func=cmd_theorem7)

    scan = top.add_parser("scan", help="gcd sweeps over degrees")
    ssub = scan.add_subparsers(dest="kind", required=True)
    bor = ssub.add_parser("borisov", help="gcd(L_{d-1}+c, [d]) for d up to a bound")
    _add_common(bor)
    bor.add_argument("--max-degree", type=int, required=True)
    bor.set_defaults(func=cmd_scan)
    alt = ssub.add_parser("alt-conjecture",
                          help="gcd([d], 1 - [d-1] + [d-1][d-2] - ... "
                               "+- L_{d-1}) for d up to a bound")
    _add_common(alt)
    alt.add_argument("--max-degree", type=int, required=True)
    alt.set_defaults(func=cmd_scan)

    verify = top.add_parser("verify", help="reproduce recorded examples")
    vsub = verify.add_subparsers(dest="subcommand", required=True)
    paper = vsub.add_parser("paper", help="one recorded worked example")
    paper.add_argument("--case", required=True,
                       choices=["q3d6", "q2d14", "artin-schreier", "q3d9"])
    paper.add_argument("--seed", type=int, default=None)
    paper.add_argument("--jobs", type=_jobs, default=1)
    paper.add_argument("--extended", action="store_true",
                       help="include the long-running tier")
    paper.add_argument("--json", action="store_true")
    paper.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TheoremViolation, EquivalenceViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FqwilsonError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
