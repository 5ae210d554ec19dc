import itertools
import random

import pytest

from fqwilson import irr

from fqwilson.errors import NotMonic, Reducible
from fqwilson.gf import _prime_factors, _prime_power, make_prime_field, parse_field
from fqwilson.irr import (
    PrimeContext,
    _moebius,
    count_irreducibles,
    is_irreducible,
    iter_monic_irreducibles,
    monic_polys,
)
from fqwilson.poly import Poly, divrem, embed, eval_poly, parse_poly


def monics(field, degree):
    for codes in itertools.product(range(field.order), repeat=degree):
        yield Poly(field, list(codes) + [1])


def brute_irreducible(f):
    """No monic factor of degree between 1 and deg f / 2."""
    if f.degree < 1:
        return False
    for e in range(1, f.degree // 2 + 1):
        for g in monics(f.field, e):
            if divrem(f, g)[1].is_zero:
                return False
    return True


@pytest.mark.parametrize("q,dmax", [(2, 6), (3, 6), (4, 3), (5, 3), (7, 3)])
def test_is_irreducible_matches_brute_force(q, dmax):
    field = parse_field(str(q))
    for d in range(1, dmax + 1):
        for f in monics(field, d):
            assert is_irreducible(f) == brute_irreducible(f), str(f)


@pytest.mark.parametrize("d", [10, 11, 12])
def test_is_irreducible_count_matches_moebius_f2(d):
    # degrees 10 and 12 take two gcd checkpoints, 11 one
    field = make_prime_field(2)
    found = sum(map(is_irreducible, monics(field, d)))
    assert found == count_irreducibles(field, d)


def test_count_irreducibles_known_values():
    expected = {
        2: [2, 1, 2, 3, 6, 9, 18, 30],
        3: [3, 3, 8, 18, 48, 116],
        5: [5, 10, 40],
    }
    for p, counts in expected.items():
        field = make_prime_field(p)
        for d, n in enumerate(counts, start=1):
            assert count_irreducibles(field, d) == n


def test_iteration_agrees_with_count_and_is_sorted():
    field = make_prime_field(3)
    for d in (1, 2, 3, 4):
        ctxs = list(iter_monic_irreducibles(field, d))
        assert len(ctxs) == count_irreducibles(field, d)
        assert all(ctx.prime.degree == d for ctx in ctxs)
        assert all(is_irreducible(ctx.prime) for ctx in ctxs)
        codes = [tuple(ctx.prime.codes) for ctx in ctxs]
        assert codes == sorted(codes, key=lambda cs: cs[::-1])


def test_iteration_windows_partition():
    # each window is sieved on its own; together they are the full run
    for descriptor, d, step in [
            ("2", 5, 7), ("2", 10, 97), ("3", 6, 50), ("4", 4, 33),
            ("5", 4, 101), ("9", 3, 64), ("2", 1, 1), ("5", 2, 7)]:
        field = parse_field(descriptor)
        total = field.order ** d
        whole = [str(ctx.prime) for ctx in iter_monic_irreducibles(field, d)]
        assert len(whole) == count_irreducibles(field, d)
        pieces = []
        for lo in range(0, total, step):
            pieces.extend(str(ctx.prime) for ctx in iter_monic_irreducibles(
                field, d, lo, min(lo + step, total)))
        assert pieces == whole, (descriptor, d, step)


@pytest.mark.parametrize("q,d", [(2, 0), (2, 5), (3, 3), (4, 2)])
def test_monic_polys_enumerates_monics(q, d):
    field = parse_field(str(q))
    whole = list(monic_polys(field, d))
    # every monic exactly once, ordered with the constant term as the
    # least significant digit
    assert whole == sorted(monics(field, d), key=lambda f: f.codes[::-1])
    total = q ** d
    for step in (1, 7):
        pieces = []
        for lo in range(0, total, step):
            pieces.extend(monic_polys(field, d, lo, lo + step))
        assert pieces == whole
    assert list(monic_polys(field, d, 1, total + 5)) == whole[1:]


@pytest.mark.parametrize("start,stop", [(-9, None), (0, -1), (-3, 5)])
def test_monic_polys_rejects_negative_indices(start, stop):
    # floor division would map a negative index onto a real candidate
    field = parse_field("3")
    with pytest.raises(ValueError, match="non-negative"):
        next(monic_polys(field, 2, start, stop))
    with pytest.raises(ValueError, match="non-negative"):
        list(iter_monic_irreducibles(field, 2, start, stop))


def test_prime_factor_helpers_match_trial_division():
    n_max = 2000
    primes = [m for m in range(2, n_max) if all(m % f for f in range(2, m))]
    powers = {p ** k: (p, k) for p in primes for k in range(1, 12) if p ** k < n_max}
    for n in range(1, n_max):
        factors = [p for p in primes if n % p == 0]
        assert _prime_factors(n) == factors
        if n in powers:
            assert _prime_power(n) == powers[n]
        else:
            with pytest.raises(ValueError):
                _prime_power(n)
        squarefree = all(n % (p * p) for p in factors)
        assert _moebius(n) == ((-1) ** len(factors) if squarefree else 0)


def test_prime_context_theta_is_root():
    field = make_prime_field(3)
    for ctx in iter_monic_irreducibles(field, 3):
        ext = ctx.residue_field
        assert ext.order == ctx.norm == 27
        assert eval_poly(embed(ctx.prime, ext), ctx.theta) == ext.zero


def test_prime_context_conjugate_product():
    field = make_prime_field(2)
    for ctx in iter_monic_irreducibles(field, 4):
        ext = ctx.residue_field
        prod = Poly.one(ext)
        root = ctx.theta
        for _ in range(ctx.degree):
            prod = prod * (Poly.t(ext) - Poly.constant(ext, root))
            root = root ** field.order
        assert root == ctx.theta  # Frobenius orbit closes
        assert prod == embed(ctx.prime, ext)


def test_prime_context_degree_one():
    field = make_prime_field(5)
    ctx = PrimeContext.for_prime(parse_poly("t+3", field))
    assert ctx.residue_field is field
    assert ctx.theta == field(2)  # root of t+3


def test_prime_context_rejects_bad_input():
    field = make_prime_field(3)
    with pytest.raises(NotMonic):
        PrimeContext.for_prime(parse_poly("2*t+1", field))
    with pytest.raises(NotMonic):
        PrimeContext.for_prime(parse_poly("2*t^3+t+1", field))
    with pytest.raises(NotMonic):
        PrimeContext.for_prime(Poly.zero(field))
    with pytest.raises(Reducible):
        PrimeContext.for_prime(Poly.one(field))
    with pytest.raises(Reducible):
        PrimeContext.for_prime(parse_poly("t^2+2*t+1", field))
    with pytest.raises(Reducible):
        PrimeContext.for_prime(parse_poly("t^3+2*t", field))
    f9 = parse_field("9")
    with pytest.raises(Reducible):
        PrimeContext.for_prime(Poly(f9, (0, 0, 1)))


@pytest.mark.parametrize("descriptor,d", [
    (q, d) for q in ("2", "3", "4", "5", "9", "67", "81") for d in (2, 3)])
def test_is_irreducible_checkpoint_one_matches_brute_force(descriptor, d):
    # at a prime degree the one checkpoint is n/r = 1; products of
    # distinct linear factors pass t^(q^d) = t mod f and only the
    # bracket gcd gcd(t^q - t, f) rejects them
    field = parse_field(descriptor)
    q = field.order
    rng = random.Random(q * 10 + d)
    sample = [Poly(field, [rng.randrange(q) for _ in range(d)] + [1])
              for _ in range(30)]
    for _ in range(10 if d < q else 0):
        roots = rng.sample(range(1, q), d)
        f = Poly.one(field)
        for r in roots:
            f = f * Poly(field, (field.neg(r), 1))
        sample.append(f)
    verdicts = [is_irreducible(f) for f in sample]
    assert verdicts == [brute_irreducible(f) for f in sample]
    assert True in verdicts and not any(verdicts[30:])


def test_is_irreducible_early_exits_match_brute_force():
    # constants, multiples of t and non-monic inputs leave before or
    # without the Frobenius chain
    field = make_prime_field(3)
    cases = {"0": False, "2": False, "t^3+t^2": False, "2*t^2+2": True,
             "2*t^3+2*t+2": False, "2*t^3+t+1": True}
    for text, want in cases.items():
        f = parse_poly(text, field)
        assert is_irreducible(f) == brute_irreducible(f) == want, text


def _count_gcds(monkeypatch):
    calls = []
    real_gcd = irr.gcd
    monkeypatch.setattr(irr, "gcd", lambda a, b: calls.append(1) or real_gcd(a, b))
    return calls


@pytest.mark.parametrize("d", [5, 7])
def test_is_irreducible_count_matches_moebius_f3(d, monkeypatch):
    # prime degree over F_3: the one checkpoint, n/r = 1, makes one gcd
    # per candidate that t does not divide (2 * 3^(d-1) of them)
    calls = _count_gcds(monkeypatch)
    field = make_prime_field(3)
    found = sum(map(is_irreducible, monics(field, d)))
    assert found == count_irreducibles(field, d)
    assert len(calls) == {5: 162, 7: 1458}[d]


def test_is_irreducible_keeps_the_gcds_above_checkpoint_one(monkeypatch):
    # degree 6 over F_3 still makes its gcds at checkpoints 2 and 3
    calls = _count_gcds(monkeypatch)
    f = parse_poly("t^6+t+2", make_prime_field(3))  # no root in F_3
    assert is_irreducible(f) == brute_irreducible(f)
    assert len(calls) == 2


def _rabin_calls(monkeypatch):
    calls = []
    real = irr.is_irreducible
    monkeypatch.setattr(irr, "is_irreducible",
                        lambda f: calls.append(f) or real(f))
    return calls


def test_sieve_matches_rabin_on_random_windows():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    fields = [parse_field(q) for q in ("2", "3", "4", "5", "9")]

    @hyp.settings(max_examples=80, deadline=None)
    @hyp.given(st.sampled_from(fields), st.integers(1, 8),
               st.floats(0, 1), st.integers(0, 700))
    def check(field, d, where, length):
        total = field.order ** d
        start = int(where * total)
        stop = start + length
        got = [ctx.prime for ctx in iter_monic_irreducibles(field, d, start, stop)]
        want = [f for f in monic_polys(field, d, start, stop) if is_irreducible(f)]
        assert got == want

    check()


@pytest.mark.parametrize("descriptor,d,start,stop", [
    ("3", 6, 0, None), ("4", 4, 13, 200), ("2", 11, 5, 1500)])
def test_sieve_segments_join_up(descriptor, d, start, stop, monkeypatch):
    # a window longer than a segment is marked one segment at a time
    from fqwilson import _sieve

    monkeypatch.setattr(_sieve, "_SIEVE_SEGMENT", 50)
    field = parse_field(descriptor)
    got = [ctx.prime for ctx in iter_monic_irreducibles(field, d, start, stop)]
    assert got == [f for f in monic_polys(field, d, start, stop)
                   if is_irreducible(f)]


def test_full_sieve_proves_nothing_twice(monkeypatch):
    # a full window needs no Rabin test, and its contexts build their
    # residue fields without one
    calls = _rabin_calls(monkeypatch)
    field = parse_field("3")
    ctxs = list(iter_monic_irreducibles(field, 5))
    assert len(ctxs) == count_irreducibles(field, 5)
    assert all(ctx.residue_field.order == 3 ** 5 for ctx in ctxs)
    assert calls == []


def test_sieve_on_a_short_window_rabin_tests_the_survivors(monkeypatch):
    # over F_2 at degree 40 only the degrees with at most 64 primes (up
    # to 9) sieve [0, 64), so the survivors still take Rabin's test
    field = parse_field("2")
    want = [f for f in monic_polys(field, 40, 0, 64) if is_irreducible(f)]
    calls = _rabin_calls(monkeypatch)
    got = [ctx.prime for ctx in iter_monic_irreducibles(field, 40, 0, 64)]
    assert got == want
    assert 0 < len(calls) < 16
    assert all(f.codes[0] for f in calls)  # the prime t sieved the rest


@pytest.mark.parametrize("descriptor,d", [("3", 1), ("3", 4), ("4", 3),
                                          ("9", 2), ("625", 1)])
def test_enumerated_contexts_equal_verified_ones(descriptor, d):
    field = parse_field(descriptor)
    for ctx in itertools.islice(iter_monic_irreducibles(field, d), 25):
        checked = PrimeContext.for_prime(ctx.prime)
        assert ctx == checked and hash(ctx) == hash(checked)
        assert repr(ctx) == repr(checked) == f"PrimeContext({ctx.prime})"
        assert ctx.residue_field == checked.residue_field
        assert ctx.theta == checked.theta
        assert (ctx.degree, ctx.norm) == (checked.degree, checked.norm)
    a, b = itertools.islice(iter_monic_irreducibles(field, d), 2)
    assert a != b and len({a, b, PrimeContext.for_prime(a.prime)}) == 2
