"""End-to-end gate: one test per published claim bundle.

Each test prints a single "[criterion NN] PASS" or "[criterion NN] FAIL"
line directly to the terminal (bypassing capture), then asserts on the
named sub-checks so a failure names exactly what broke.  Criteria that
reproduce a recorded example run the same checks as `verify paper`,
from fqwilson.recorded, and add their own wall-clock bounds.
"""

import itertools
import time

import pytest

from fqwilson.carlitz import CarlitzCache, CarlitzChain
from fqwilson import recorded
from fqwilson.congruence import classify_base, wieferich_suite, wilson_suite
from fqwilson.deriv import fermat_quotient, fermat_quotient_mod
from fqwilson.factor import factorize, trial_division
from fqwilson.gf import parse_field
from fqwilson.irr import count_irreducibles, iter_monic_irreducibles
from fqwilson.poly import ModReducer, Poly, divrem
from fqwilson.survey import (
    borisov_scan,
    perturbation_divisor_scan,
    special_primes_by_form,
)


def run_criterion(capfd, num, body):
    checks = {}
    try:
        body(checks)
    except Exception as exc:  # the verdict line must print even on a crash
        checks[f"unexpected {type(exc).__name__}: {exc}"] = False
    failed = sorted(name for name, ok in checks.items() if not ok)
    with capfd.disabled():
        print(f"[criterion {num:02d}] {'FAIL' if failed else 'PASS'}")
    assert not failed, f"criterion {num:02d}: {failed}"


def recorded_checks(checks, check, *objects):
    """Run one check of fqwilson.recorded and file each of its verdicts
    under its label; returns the Verifier, which also holds its notes."""
    v = recorded.Verifier()
    check(v, *objects)
    checks.update((c["label"], c["ok"]) for c in v.checks if "label" in c)
    return v


def all_polys(field, max_degree):
    for codes in itertools.product(range(field.order), repeat=max_degree + 1):
        yield Poly(field, codes)


def test_criterion_01_q3d6_census(capfd, q3d6_record):
    def body(checks):
        rec = q3d6_record
        recorded_checks(checks, recorded.q3d6_census, rec)
        checks["under 30 seconds"] = rec.timing["total_s"] < 30
    run_criterion(capfd, 1, body)


def test_criterion_02_q2d14_census(capfd, q2d14_record):
    def body(checks):
        rec = q2d14_record
        recorded_checks(checks, recorded.q2d14_census, rec)
        checks["under 10 seconds"] = rec.timing["total_s"] < 10
    run_criterion(capfd, 2, body)


def test_criterion_03_perturbed_factorizations(capfd, q3d6_perturbations):
    def body(checks):
        reports, elapsed = q3d6_perturbations
        for c in (1, 2):
            rep = reports[c]
            recorded_checks(checks, recorded.q3d6_perturbation, rep)
            name = f"L_5-{c}"
            checks[f"{name}: {recorded.Q3D6_SPECIAL_PER_C[c]} special primes"] = \
                len(rep.special_primes) == recorded.Q3D6_SPECIAL_PER_C[c]
            checks[f"{name} degree-6 factors match the special primes"] = \
                sorted(rep.L.degree_d_multiplicities) == rep.special_primes
        checks["under 2 minutes"] = elapsed < 120
    run_criterion(capfd, 3, body)


def test_criterion_04_wilson_sum_factorization(capfd, q3d6_wilson_sum, q3d6_record):
    def body(checks):
        rep = q3d6_wilson_sum
        recorded_checks(checks, recorded.q3d6_wilson_sum, rep)
        checks["degree-6 factors are the wilson primes"] = \
            rep.wilson_primes == sorted(q3d6_record.wilson_primes)
    run_criterion(capfd, 4, body)


def test_criterion_05_equivalence_grids(capfd):
    def body(checks):
        for q in (2, 3):
            field = parse_field(str(q))
            n = 0
            for d in range(1, 5):
                for ctx in iter_monic_irreducibles(field, d):
                    for a in all_polys(field, 4):
                        wieferich_suite(ctx, a)  # raises if routes split
                        n += 1
            expected = sum(count_irreducibles(field, d)
                           for d in range(1, 5)) * field.order ** 5
            checks[f"wieferich grid complete over F{q} ({n} suites)"] = \
                n == expected
        for q, dmax in ((3, 5), (5, 3)):
            field = parse_field(str(q))
            n = 0
            for d in range(1, dmax + 1):
                for ctx in iter_monic_irreducibles(field, d):
                    wilson_suite(ctx)  # raises if any condition splits
                    n += 1
            expected = sum(count_irreducibles(field, d)
                           for d in range(1, dmax + 1))
            checks[f"wilson grid complete over F{q} ({n} suites)"] = \
                n == expected
    run_criterion(capfd, 5, body)


def test_criterion_06_artin_schreier_family(capfd):
    def body(checks):
        for p in (3, 5):
            for m in range(1, p):
                recorded_checks(checks, recorded.artin_schreier_prime, p, m)
    run_criterion(capfd, 6, body)


def test_criterion_07_coprime_gcd_sweep(capfd):
    def body(checks):
        for q in (2, 3, 4, 5):
            field = parse_field(str(q))
            p = field.char
            findings = borisov_scan(field, 6)  # raises TheoremViolation
            checks[f"F{q}: every nontrivial gcd sits at p | d"] = \
                all(f.d % p == 0 for f in findings)
            checks[f"F{q}: no finding flagged unexpected"] = \
                not any(f.violates_expectation for f in findings)
    run_criterion(capfd, 7, body)


def test_criterion_08_base_trichotomy(capfd):
    def body(checks):
        for q in (2, 3):
            field = parse_field(str(q))
            p = field.char
            ctxs = [ctx for d in (1, 2, 3)
                    for ctx in iter_monic_irreducibles(field, d)]
            power_ok = shifted_ok = True
            n_power = n_shifted = 0
            for b in all_polys(field, 2):
                a = b ** p
                if classify_base(a).tag != "AllPrimesWieferich":
                    power_ok = False
                for ctx in ctxs:
                    n_power += 1
                    if not wieferich_suite(ctx, a).holds:
                        power_ok = False
                for c in range(1, q):
                    shifted = a + Poly.monomial(field, 1, field(c))
                    if classify_base(shifted).tag != "NoWieferichPrimes":
                        shifted_ok = False
                    for ctx in ctxs:
                        n_shifted += 1
                        if wieferich_suite(ctx, shifted).holds:
                            shifted_ok = False
            checks[f"F{q}: p-th power bases Wieferich everywhere "
                   f"({n_power} pairs)"] = power_ok
            checks[f"F{q}: shifted bases Wieferich nowhere "
                   f"({n_shifted} pairs)"] = shifted_ok
    run_criterion(capfd, 8, body)


def test_criterion_09_special_prime_existence(capfd, f2, f3):
    def body(checks):
        f4 = parse_field("4")
        checks["no special primes over F2 at degree 8"] = \
            special_primes_by_form(f2, 8, 1) == []
        checks["none over F4 at degree 4 for c=1"] = \
            special_primes_by_form(f4, 4, 1) == []
        checks["none over F3 at degree 12 for either c"] = (
            special_primes_by_form(f3, 12, 1) == []
            and special_primes_by_form(f3, 12, 2) == [])
        recorded_checks(
            checks, recorded.q3d9_scan, special_primes_by_form(f3, 9, 1),
            special_primes_by_form(f3, 9, 2),
            perturbation_divisor_scan(f3, 9, [("L_minus_c", 1), ("L_minus_c", 2)]))
    run_criterion(capfd, 9, body)


def test_criterion_10_oracle_equivalences(capfd):
    def oracle_factor(f):
        # greedy division by enumerated primes, smallest degree first
        field = f.field
        unit = field(f.lead_code)
        work = f.monic()
        out = []
        d = 1
        while work.degree > 0:
            for ctx in iter_monic_irreducibles(field, d):
                m = 0
                while True:
                    quot, rem = divrem(work, ctx.prime)
                    if not rem.is_zero:
                        break
                    work = quot
                    m += 1
                if m:
                    out.append((ctx.prime, m))
            d += 1
        return unit, out

    def body(checks):
        for q, dmax in ((2, 6), (3, 4), (4, 3), (5, 2)):
            field = parse_field(str(q))
            cache = CarlitzCache(field)
            checks[f"F{q}: F matches the literal product up to d={dmax}"] = \
                all(cache.F(d) == cache.F_brute(d) for d in range(1, dmax + 1))
            prime = next(iter(iter_monic_irreducibles(field, 2))).prime
            ok = True
            for d in range(1, dmax + 1):
                for k in (1, 2):
                    mod = prime ** k
                    red = ModReducer(mod)
                    chain = CarlitzChain(red)
                    if cache.F_mod(d, mod) != divrem(cache.F(d), mod)[1]:
                        ok = False
                    if chain.L(d) != red.reduce(cache.L(d)):
                        ok = False
                    if chain.D(d) != red.reduce(cache.D(d)):
                        ok = False
            checks[f"F{q}: modular Carlitz chains match exact reductions"] = ok

        for q in (2, 3):
            field = parse_field(str(q))
            ok = True
            n = 0
            for f in all_polys(field, 6):
                if f.is_zero:
                    continue
                n += 1
                fac = factorize(f)
                unit, factors = oracle_factor(f)
                if fac.unit != unit or list(fac.factors) != factors:
                    ok = False
            checks[f"F{q}: factorize matches the division oracle "
                   f"({n} polynomials)"] = ok

            ok = True
            for d in (1, 2, 3):
                for ctx in iter_monic_irreducibles(field, d):
                    for a in all_polys(field, 4):
                        exact = fermat_quotient(a, ctx)
                        for k in (1, 2, 3):
                            want = divrem(exact, ctx.prime ** k)[1]
                            if fermat_quotient_mod(a, ctx, k) != want:
                                ok = False
            checks[f"F{q}: modular fermat quotient matches the exact one"] = ok
    run_criterion(capfd, 10, body)


@pytest.mark.extended
def test_criterion_11_q2d14_extended(capfd, f2):
    def body(checks):
        pert = CarlitzCache(f2).perturbation("L_minus_c", 14, 1)
        t0 = time.perf_counter()
        fac = trial_division(pert, recorded.Q2D14_TRIAL_DEGREE)
        trial_s = time.perf_counter() - t0
        checks[f"trial division to degree {recorded.Q2D14_TRIAL_DEGREE} "
               "under 5 minutes"] = trial_s < 300
        special = [str(f) for f in special_primes_by_form(f2, 14, 1)]
        recorded_checks(checks, recorded.l13_trial_division, pert, fac, special)
        v = recorded_checks(checks, recorded.l13_remaining, fac,
                            factorize(fac.cofactor))
        with capfd.disabled():
            for c in v.checks:
                if "note" in c:
                    print(f"[criterion 11] note: {c['note']}")
    run_criterion(capfd, 11, body)
