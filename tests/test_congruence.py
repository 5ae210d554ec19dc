import itertools
import time

import pytest

from fqwilson import congruence, deriv
from fqwilson.congruence import (
    WIEFERICH_LABELS,
    WILSON_LABELS,
    classify_base,
    coefficient_characterization,
    holds,
    is_special_wilson,
    valuation,
    wieferich_suite,
    wilson_multiplicity,
    wilson_suite,
)
from fqwilson.errors import FieldMismatch, ZeroC
from fqwilson.gf import make_prime_field, parse_field
from fqwilson.irr import PrimeContext, iter_monic_irreducibles
from fqwilson.poly import Composition, ModReducer, Poly, parse_poly

F2 = make_prime_field(2)
F3 = make_prime_field(3)
F5 = make_prime_field(5)


def ctx3(text):
    return PrimeContext.for_prime(parse_poly(text, F3))


# ---------------------------------------------------------------- wieferich


def test_wieferich_pth_power_base_always_holds():
    a = parse_poly("t^3", F3)
    for d in (1, 2, 3):
        for ctx in iter_monic_irreducibles(F3, d):
            suite = wieferich_suite(ctx, a)
            assert holds(suite) and suite["unanimous"]
            assert tuple(suite["verdicts"]) == WIEFERICH_LABELS


def test_wieferich_t_never_holds():
    # da/dt = 1 kills condition i at every prime
    a = Poly.t(F3)
    for d in (1, 2, 3):
        for ctx in iter_monic_irreducibles(F3, d):
            suite = wieferich_suite(ctx, a)
            assert not holds(suite) and suite["unanimous"]


def test_wieferich_constant_base_always_holds():
    a = Poly.constant(F5, F5(3))
    for ctx in iter_monic_irreducibles(F5, 2):
        assert holds(wieferich_suite(ctx, a))


def test_wieferich_unanimity_smoke_grid():
    # the full grid lives in the acceptance gate; this keeps a small
    # always-on sweep close to the implementation
    for q in (2, 3):
        field = make_prime_field(q)
        polys = [Poly(field, codes)
                 for codes in itertools.product(range(q), repeat=4)]
        for d in (1, 2):
            for ctx in iter_monic_irreducibles(field, d):
                for a in polys:
                    suite = wieferich_suite(ctx, a)
                    assert suite["unanimous"]


def test_wieferich_field_mismatch():
    ctx = ctx3("t^2+1")
    with pytest.raises(FieldMismatch):
        wieferich_suite(ctx, Poly.t(F2))


# ------------------------------------------------------------------ wilson


def test_wilson_example_primes():
    suite = wilson_suite(ctx3("t^3+2*t+2"))
    assert holds(suite) and suite["unanimous"]
    assert tuple(suite["verdicts"]) == WILSON_LABELS
    assert suite["skipped"] == [] and "marker" not in suite

    suite = wilson_suite(ctx3("t^3+t^2+2"))
    assert not holds(suite) and suite["unanimous"]


def test_wilson_char2_definition_only():
    for text, expect in (("t", True), ("t^2+t+1", False)):
        ctx = PrimeContext.for_prime(parse_poly(text, F2))
        suite = wilson_suite(ctx)
        assert list(suite["verdicts"]) == ["def"]
        assert holds(suite) is expect
        assert suite["marker"] == "definition-only"
        assert len(suite["skipped"]) == len(WILSON_LABELS) - 1
        # the definition's chain mod P^2 needs no T = t^(2^d) mod P^2
        assert ctx._frobenius == {}


def test_wilson_suite_builds_only_the_chain_it_extends():
    # Q(t) mod P^2 needs T mod P^3, a reducer mod P^3 and no chain there;
    # the definition's F_d is the one chain, mod P^2
    for ctx in itertools.islice(iter_monic_irreducibles(F5, 4), 3):
        assert wilson_suite(ctx)["unanimous"]
        assert sorted(ctx._chains) == [2]
        assert sorted(ctx._reducers) == [2, 3]
        assert ctx.chain(2).red is ctx.reducer(2) is ctx.frobenius(2)[0]


def test_wilson_skip_def():
    for text in ("t^3+2*t+2", "t^3+t^2+2"):
        full = wilson_suite(ctx3(text))
        partial = wilson_suite(ctx3(text), skip_def=True)
        assert "def" not in partial["verdicts"]
        assert len(partial["verdicts"]) == len(WILSON_LABELS) - 1
        assert partial["skipped"] == ["def"]
        assert partial["marker"] == "skipped (bound)"
        assert holds(partial) == holds(full)


@pytest.mark.parametrize("field,text", [(F3, "t^3+2*t+2"), (F5, "t^4+t^2+2")])
def test_wilson_suite_powers_only_t(monkeypatch, field, text):
    # the Fermat quotients compose with a memoized t^(q^d) and
    # raise no operand of their own to a power, by powmod or by
    # Frobenius steps; the definition route (the Carlitz chain) is
    # skipped, it is its own independent route
    ctx = PrimeContext.for_prime(parse_poly(text, field))
    operands = []
    for name in ("powmod", "frobenius"):
        def counting(self, a, *rest, _real=getattr(ModReducer, name)):
            operands.append(a if isinstance(a, Poly) else self.leave(a))
            return _real(self, a, *rest)

        monkeypatch.setattr(ModReducer, name, counting)
    assert wilson_suite(ctx, skip_def=True)["unanimous"]
    assert 1 <= len(operands) <= 2
    assert all(a == Poly.t(field) for a in operands)


@pytest.mark.parametrize("field,text", [(F3, "t^3+2*t+2"), (F5, "t^4+t^2+2")])
def test_wilson_suite_computes_each_shared_quantity_once(monkeypatch, field, text):
    # Q(t) mod P^2 feeds five conditions, Q(P') mod P two and P^[1] three
    ctx = PrimeContext.for_prime(parse_poly(text, field))
    calls = []

    def counting(name, real):
        def wrapper(a, ctx, k):
            calls.append((name, a, k))
            return real(a, ctx, k)
        return wrapper

    for name in ("fermat_quotient_mod", "delta"):
        wrapper = counting(name, getattr(deriv, name))
        monkeypatch.setattr(deriv, name, wrapper)
        monkeypatch.setattr(congruence, name, wrapper)
    assert wilson_suite(ctx, skip_def=True)["unanimous"]
    prime = ctx.prime
    assert calls.count(("fermat_quotient_mod", Poly.t(field), 2)) == 1
    assert calls.count(("fermat_quotient_mod", prime.derivative(), 1)) == 1
    assert sum(name == "delta" and a == prime for name, a, _ in calls) == 1


@pytest.mark.parametrize("descriptor,text", [
    ("2", "t^3+t+1"), ("3", "t^3+2*t+2"), ("3", "t^3+t^2+2"),
    ("5", "t^4+t^2+2"), ("4", "t^2+t+2"),
])
def test_suites_build_each_modulus_once(built_moduli, descriptor, text):
    # the suites and the multiplicity share one reducer per power of P
    ctx = PrimeContext.for_prime(parse_poly(text, parse_field(descriptor)))
    built = built_moduli()
    wieferich_suite(ctx, ctx.prime.derivative() + Poly.t(ctx.prime.field))
    wilson_suite(ctx)
    wilson_multiplicity(ctx)
    assert built and len(built) == len(set(built))


WILSON_COUNTS_Q3 = {1: 3, 2: 0, 3: 2, 4: 6, 5: 0, 6: 15}
WILSON_COUNTS_Q5 = {1: 5, 2: 0, 3: 0}


@pytest.mark.slow
def test_wilson_sweep_q3():
    # unanimity is asserted inside the suite; here the counts, the
    # coefficient test and the multiplicity floor ride along
    p = 3
    for d, expect in WILSON_COUNTS_Q3.items():
        found = 0
        for ctx in iter_monic_irreducibles(F3, d):
            suite = wilson_suite(ctx)
            assert holds(suite) == coefficient_characterization(ctx.prime)
            if holds(suite):
                found += 1
                assert wilson_multiplicity(ctx) >= p - 1
        assert found == expect, d


def test_wilson_sweep_q5():
    for d, expect in WILSON_COUNTS_Q5.items():
        found = sum(holds(wilson_suite(c))
                    for c in iter_monic_irreducibles(F5, d))
        assert found == expect, d


def _step_counts():
    """(ModReducer.pow calls, Composition rows drawn) over a fixed
    40-step F_5 Frobenius chain mod a degree-64 modulus and the Wilson
    suites of the first three degree-4 F_5 primes."""
    counts = [0, 0]
    real_pow, real_grow = ModReducer.pow, Composition.grow

    def counted_pow(self, r, e):
        counts[0] += 1
        return real_pow(self, r, e)

    def counted_grow(self, count):
        before = len(self.rows)
        real_grow(self, count)
        counts[1] += len(self.rows) - before

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ModReducer, "pow", counted_pow)
        mp.setattr(Composition, "grow", counted_grow)
        red = ModReducer(Poly(F5, [(3 * i + 1) % 5 for i in range(64)] + [1]))
        red.frobenius(red.enter(Poly(F5, [i * i % 5 for i in range(64)])), 40)
        for ctx in itertools.islice(iter_monic_irreducibles(F5, 4), 3):
            wilson_suite(ctx)
    return tuple(counts)


def test_frobenius_step_counts_ignore_the_clock(monkeypatch):
    # whether a Frobenius step is a pow or a composition by the row
    # table is decided by the input alone, so a clock that jumps
    # erratically changes no count
    want = _step_counts()
    jumps = itertools.cycle((1e-9, 5.0, 1e-6, 0.0, 30.0, 1e-3, 2.0))
    now = [0.0]

    def erratic():
        now[0] += next(jumps)
        return now[0]

    monkeypatch.setattr(time, "perf_counter", erratic)
    assert _step_counts() == want


@pytest.mark.slow
def test_wilson_matches_derivative_wieferich():
    # P is Wilson exactly when P is dP/dt-Wieferich, checked on the
    # definitions themselves so neither side leans on the suites'
    # internal equivalences
    for d in range(1, 6):
        for ctx in iter_monic_irreducibles(F3, d):
            wil = wilson_suite(ctx)["verdicts"]["def"]
            wie = wieferich_suite(ctx, ctx.prime.derivative())["verdicts"]["def"]
            assert wil == wie, ctx.prime


# ---------------------------------------------------------- classify_base


def test_classify_base_examples():
    cls = classify_base(parse_poly("t^3", F3))
    assert cls["tag"] == "AllPrimesWieferich"
    assert cls["witness"] == "t"

    cls = classify_base(parse_poly("t^3+2*t", F3))
    assert cls["tag"] == "NoWieferichPrimes"
    assert cls["witness"] == "t"
    assert cls["c"] == 2

    assert classify_base(parse_poly("t^2", F3))["tag"] == "Generic"
    assert classify_base(parse_poly("t^2", F2))["tag"] == "AllPrimesWieferich"
    assert classify_base(Poly.zero(F3))["tag"] == "AllPrimesWieferich"


def test_classify_base_pth_roots_of_coefficients():
    # F9 coefficients: cube roots exist and the witness reconstructs a
    f9 = parse_field("9")
    a = Poly(f9, (2, 0, 0, 5, 0, 0, 1))
    cls = classify_base(a)
    assert cls["tag"] == "AllPrimesWieferich"
    assert parse_poly(cls["witness"], f9) ** 3 == a


def test_classify_base_governs_suites():
    a_all = parse_poly("t^3", F3)
    a_none = parse_poly("t^3+2*t", F3)
    assert classify_base(a_all)["tag"] == "AllPrimesWieferich"
    assert classify_base(a_none)["tag"] == "NoWieferichPrimes"
    for d in (1, 2, 3):
        for ctx in iter_monic_irreducibles(F3, d):
            assert holds(wieferich_suite(ctx, a_all))
            assert not holds(wieferich_suite(ctx, a_none))


# ---------------------------------------------------- multiplicity, special


MULTIPLICITIES = {
    "t+1": 5,
    "t^3+2*t+1": 2,
    "t^3+2*t+2": 2,
    "t^3+t^2+2": 1,
    "t^6+t+2": 2,
    "t^6+2*t+2": 2,
}


def test_wilson_multiplicity_frozen_values():
    for text, expect in MULTIPLICITIES.items():
        assert wilson_multiplicity(ctx3(text)) == expect, text
    ctx = PrimeContext.for_prime(parse_poly("t^5+4*t+4", F5))
    assert wilson_multiplicity(ctx) == 4


def test_wilson_multiplicity_cap_means_at_least():
    # F_1 = -1 exactly, so every linear prime reports the cap p + 2
    for ctx in iter_monic_irreducibles(F3, 1):
        assert wilson_multiplicity(ctx) == 5
    for ctx in iter_monic_irreducibles(F5, 1):
        assert wilson_multiplicity(ctx) == 7


def test_special_wilson():
    # both Artin-Schreier cubics over F3 have derivative 2 and d = 3,
    # so they are special exactly for c = 2
    for text in ("t^3+2*t+1", "t^3+2*t+2"):
        ctx = ctx3(text)
        assert is_special_wilson(ctx, 2)
        assert not is_special_wilson(ctx, 1)
        with pytest.raises(ZeroC):
            is_special_wilson(ctx, 0)
    assert not is_special_wilson(ctx3("t^3+t^2+2"), 1)
    ctx = PrimeContext.for_prime(parse_poly("t^5+4*t+4", F5))
    assert is_special_wilson(ctx, 4)
    assert not is_special_wilson(ctx, 1)


def test_valuation():
    p = parse_poly("t^2+1", F3)
    g = parse_poly("t+2", F3)
    assert valuation(p ** 3 * g, p) == 3
    assert valuation(g, p) == 0
    assert valuation(p, p) == 1
    with pytest.raises(ValueError):
        valuation(Poly.zero(F3), p)


# ------------------------------------------------------------- shapes


def test_suite_json_shape():
    data = wilson_suite(ctx3("t^3+2*t+2"))
    assert data["prime"] == "t^3+2*t+2"
    assert data["kind"] == "wilson"
    assert data["unanimous"] is True
    assert set(data["verdicts"]) == set(WILSON_LABELS)
    assert data["skipped"] == []
    assert "marker" not in data

    data = wieferich_suite(ctx3("t^2+1"), Poly.t(F3))
    assert data["kind"] == "wieferich"
    assert data["base"] == "t"


def test_base_class_json():
    data = classify_base(parse_poly("t^3+2*t", F3))
    assert data == {"tag": "NoWieferichPrimes", "witness": "t", "c": 2}
    assert classify_base(parse_poly("t^2", F3)) == {"tag": "Generic"}
    assert classify_base(Poly.t(F2) ** 2) == {"tag": "AllPrimesWieferich",
                                               "witness": "t"}
