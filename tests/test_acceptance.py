"""End-to-end gate: one test per published claim bundle.

Each test prints a single "[criterion NN] PASS" or "[criterion NN] FAIL"
line directly to the terminal (bypassing capture), then asserts on the
named sub-checks so a failure names exactly what broke.
"""

import itertools
import time

import pytest

from fqwilson.carlitz import CarlitzCache, CarlitzChain
from fqwilson.congruence import (
    classify_base,
    is_special_wilson,
    wieferich_suite,
    wilson_multiplicity,
    wilson_suite,
)
from fqwilson.deriv import (
    MIXED_LABELS,
    delta,
    fermat_quotient,
    fermat_quotient_mod,
    mixed,
)
from fqwilson.factor import factorize, trial_division
from fqwilson.gf import parse_field
from fqwilson.irr import (
    PrimeContext,
    count_irreducibles,
    is_irreducible,
    iter_monic_irreducibles,
)
from fqwilson.poly import ModReducer, Poly, divrem, embed, eval_poly, parse_poly
from fqwilson.survey import (
    borisov_scan,
    perturbation_divisor_scan,
    special_primes_by_form,
    theorem5_report,
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


def degree_pairs(factor_degrees):
    return sorted((int(d), int(m)) for d, m in factor_degrees)


def all_polys(field, max_degree):
    for codes in itertools.product(range(field.order), repeat=max_degree + 1):
        yield Poly(field, codes)


def test_criterion_01_q3d6_census(capfd, q3d6_record):
    def body(checks):
        rec = q3d6_record
        checks["116 primes"] = rec.prime_count == 116
        checks["6 special primes, 3 per c"] = {
            c: len(v) for c, v in rec.special_primes.items()} == {1: 3, 2: 3}
        checks["15 wilson primes"] = len(rec.wilson_primes) == 15
        checks["full suites unanimous"] = rec.suite_agreement
        checks["under 30 seconds"] = rec.timing["total_s"] < 30
    run_criterion(capfd, 1, body)


def test_criterion_02_q2d14_census(capfd, q2d14_record):
    def body(checks):
        rec = q2d14_record
        checks["1161 primes"] = rec.prime_count == 1161
        checks["12 special primes at c=1"] = len(rec.special_primes[1]) == 12
        lm = rec.multiplicities["L_minus_c"].get(1, {})
        dm = rec.multiplicities["D_plus_sign_c"].get(1, {})
        checks["L-side valuations all 1"] = sorted(lm.values()) == [1] * 12
        checks["D-side valuations all 1"] = sorted(dm.values()) == [1] * 12
        checks["under 10 seconds"] = rec.timing["total_s"] < 10
    run_criterion(capfd, 2, body)


def test_criterion_03_perturbed_factorizations(capfd, q3d6_perturbations):
    def body(checks):
        reports, elapsed = q3d6_perturbations
        field = parse_field("3")
        expected_l = [(6, 2)] * 3 + [(14, 1)] * 3 + [(95, 1)] * 3
        for c, deriv in ((1, "2"), (2, "1")):
            rep = reports[c]
            name = f"L_5-{c}"
            checks[f"{name} degree 363"] = rep.L.poly_degree == 363
            checks[f"{name} factor degrees 6^2 x3, 14 x3, 95 x3"] = \
                degree_pairs(rep.L.factor_degrees) == sorted(expected_l)
            checks[f"{name}: three special primes"] = \
                len(rep.special_primes) == 3
            checks[f"{name} degree-6 factors match the special primes"] = \
                sorted(rep.L.degree_d_multiplicities) == rep.special_primes
            derivs = {str(parse_poly(t, field).derivative())
                      for t in rep.special_primes}
            checks[f"{name} special primes all have derivative {deriv}"] = \
                derivs == {deriv}
            checks[f"D_5 side at c={c}: simple degree-6 factors"] = \
                sorted(rep.D.degree_d_multiplicities.values()) == [1, 1, 1]
        checks["under 2 minutes"] = elapsed < 120
    run_criterion(capfd, 3, body)


def test_criterion_04_wilson_sum_factorization(capfd, f3, q3d6_record):
    def body(checks):
        rep = theorem5_report(f3, 6)
        checks["polynomial degree 360"] = rep.poly_degree == 360
        expected = ([(1, 4)] * 3 + [(2, 1)] * 3 + [(6, 1)] * 15
                    + [(18, 1)] * 2 + [(20, 1)] * 3 + [(24, 1)] * 3
                    + [(28, 1)] * 3)
        checks["factor degrees 1^4 x3, 2 x3, 6 x15, 18 x2, 20 x3, 24 x3, 28 x3"] = \
            degree_pairs(rep.factor_degrees) == sorted(expected)
        checks["degree-6 factors are the 15 wilson primes"] = \
            rep.wilson_primes == sorted(q3d6_record.wilson_primes) \
            and len(rep.degree_d_multiplicities) == 15
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
            field = parse_field(str(p))
            t = Poly.t(field)
            for m in range(1, p):
                prime = t ** p - t - Poly.constant(field, m)
                name = f"t^{p}-t-{m}"
                checks[f"{name} irreducible"] = is_irreducible(prime)
                ctx = PrimeContext.for_prime(prime)
                suite = wilson_suite(ctx)
                checks[f"{name} wilson, 15 conditions unanimous"] = (
                    suite.holds and suite.unanimous
                    and len(suite.verdicts) == 15)
                checks[f"{name} multiplicity at least {p - 1}"] = \
                    wilson_multiplicity(ctx) >= p - 1
                checks[f"{name} special for c={p - 1}"] = \
                    is_special_wilson(ctx, p - 1)
                ext = ctx.residue_field
                shift = Poly.t(ext) - Poly.constant(ext, ctx.theta)
                checks[f"{name} first difference quotient"] = \
                    delta(prime, ctx, 1) == shift ** (p - 1) - Poly.one(ext)
                checks[f"{name} second difference quotient"] = \
                    delta(prime, ctx, 2) == shift ** (p - 2)
                q1 = fermat_quotient(t, ctx)
                expansion = Poly.zero(field)
                for i in range(p):
                    expansion = expansion + prime ** (p ** i - 1)
                checks[f"{name} fermat quotient closed form"] = q1 == expansion
                checks[f"{name} fermat quotient is 1 at theta"] = \
                    eval_poly(embed(q1, ext), ctx.theta) == ext.one
                vanish = []
                for label in MIXED_LABELS:
                    val = mixed(label, ctx)
                    vanish.append(val.is_zero if isinstance(val, Poly)
                                  else not val)
                checks[f"{name} all mixed conditions vanish"] = all(vanish)
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
        checks["none over F3 at degree 9 for c=-1"] = \
            special_primes_by_form(f3, 9, 2) == []
        checks["none over F4 at degree 4 for c=1"] = \
            special_primes_by_form(f4, 4, 1) == []
        checks["none over F3 at degree 12 for either c"] = (
            special_primes_by_form(f3, 12, 1) == []
            and special_primes_by_form(f3, 12, 2) == [])
        six = [str(f) for f in special_primes_by_form(f3, 9, 1)]
        checks["six special primes over F3 at degree 9, c=1"] = len(six) == 6
        scan = perturbation_divisor_scan(
            f3, 9, [("L_minus_c", 1), ("L_minus_c", 2)])
        checks["2184 degree-9 primes scanned"] = scan["prime_count"] == 2184
        checks["exactly the six divide L_8-1"] = \
            sorted(scan["divisors"][("L_minus_c", 1)]) == sorted(six)
        checks["no degree-9 prime divides L_8+1"] = \
            scan["divisors"][("L_minus_c", 2)] == {}
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
        cache = CarlitzCache(f2)
        pert = cache.perturbation("L_minus_c", 14, 1)
        checks["perturbation degree 16382"] = pert.degree == 16382
        t0 = time.perf_counter()
        fac = trial_division(pert, 22)
        trial_s = time.perf_counter() - t0
        checks["trial division to degree 22 under 5 minutes"] = trial_s < 300
        checks["12 degree-14 primes and one degree-22 prime"] = \
            degree_pairs((b.degree, m) for b, m in fac.factors) == \
            [(14, 1)] * 12 + [(22, 1)]
        special = {str(f) for f in special_primes_by_form(f2, 14, 1)}
        checks["degree-14 factors are the constant-derivative primes"] = \
            {str(b) for b, _ in fac.factors if b.degree == 14} == special
        rest = factorize(fac.cofactor)
        checks["remaining factor degrees 128, 1156 x2, 2246 x2, 9260"] = \
            degree_pairs((b.degree, m) for b, m in rest.factors) == \
            [(128, 1), (1156, 1), (1156, 1), (2246, 1), (2246, 1), (9260, 1)]
        total = sum(b.degree * m for b, m in fac.factors)
        total += sum(b.degree * m for b, m in rest.factors)
        checks["factor degrees sum to 16382"] = total == 16382
        with capfd.disabled():
            print("[criterion 11] note: the published largest-factor degree "
                  "8192 is inconsistent with the verified factorization; "
                  "the degrees sum to 16382 with largest factor 9260")
    run_criterion(capfd, 11, body)
