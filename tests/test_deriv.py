import itertools
import random

import pytest

from fqwilson.congruence import wilson_suite
from fqwilson.deriv import (
    MIXED_LABELS,
    delta,
    delta_at_theta,
    derivative_mod,
    fermat_quotient,
    fermat_quotient_iter,
    fermat_quotient_mod,
)
from fqwilson.errors import FieldMismatch
from fqwilson.gf import make_prime_field, parse_field
from fqwilson.irr import PrimeContext, iter_monic_irreducibles
from fqwilson.poly import (
    ModReducer,
    Poly,
    divrem,
    embed,
    eval_poly,
    exact_div,
    parse_poly,
)


def all_polys(field, max_degree):
    for codes in itertools.product(range(field.order), repeat=max_degree + 1):
        yield Poly(field, codes)


def contexts(q, dmax):
    field = make_prime_field(q)
    for d in range(1, dmax + 1):
        yield from iter_monic_irreducibles(field, d)


def test_fermat_quotient_defining_identity():
    for q in (2, 3):
        field = make_prime_field(q)
        for ctx in contexts(q, 3):
            for a in itertools.islice(all_polys(field, 3), 0, None, 5):
                quot = fermat_quotient(a, ctx)
                assert ctx.prime * quot == a ** ctx.norm - a


def test_fermat_quotient_mod_matches_exact():
    # the modular route must agree with the exact quotient reduced
    for q in (2, 3):
        field = make_prime_field(q)
        for ctx in contexts(q, 3):
            for k in (1, 2, 3):
                modulus = ctx.prime ** k
                for a in itertools.islice(all_polys(field, 3), 0, None, 7):
                    exact = divrem(fermat_quotient(a, ctx), modulus)[1]
                    assert fermat_quotient_mod(a, ctx, k) == exact


def sample_contexts(field, d, count=3):
    return list(itertools.islice(iter_monic_irreducibles(field, d), 0, None, 7))[:count]


def rand_poly(field, deg, rng):
    return Poly(field, [rng.randrange(field.order) for _ in range(deg + 1)])


def powmod_quotient(a, prime, norm, k):
    """The oracle: Q(a) mod P^k by one powmod of a to the norm."""
    red = ModReducer(prime ** (k + 1))
    return exact_div(red.powmod(a, norm) - red.reduce(a), prime)


ORACLE_FIELDS = ("2", "3", "4", "5", "7", "9")


@pytest.mark.parametrize("descriptor", ORACLE_FIELDS)
def test_fermat_quotient_mod_matches_powmod_oracle(descriptor):
    # composition a(t^(q^d)) against the direct power, over F_q and,
    # plane by plane, over the residue field against the embedded prime;
    # k runs downward so lower precisions reuse the memoized Frobenius
    field = parse_field(descriptor)
    rng = random.Random(field.order)
    for d in (1, 2, 3):
        for ctx in sample_contexts(field, d):
            ext = ctx.residue_field
            prime_e = embed(ctx.prime, ext)
            for k in (3, 2, 1):
                for _ in range(3):
                    a = rand_poly(field, (k + 1) * d + 2, rng)
                    assert fermat_quotient_mod(a, ctx, k) == \
                        powmod_quotient(a, ctx.prime, ctx.norm, k)
                if d > 1:
                    a = rand_poly(ext, (k + 1) * d + 1, rng)
                    assert fermat_quotient_mod(a, ctx, k) == \
                        powmod_quotient(a, prime_e, ctx.norm, k)


def test_frobenius_memo_matches_direct_power_and_hides_from_identity():
    field = make_prime_field(3)
    text = "t^3+2*t+2"
    t = Poly.t(field)
    ctx = PrimeContext.for_prime(parse_poly(text, field))
    fresh = PrimeContext.for_prime(parse_poly(text, field))
    ctx.frobenius(4)  # m = 2 and 3 below are reductions of this T
    for m in (2, 3, 4):
        want = ModReducer(ctx.prime ** m).powmod(t, ctx.norm)
        assert ctx.frobenius(m)[1] == want
        assert PrimeContext.for_prime(ctx.prime).frobenius(m)[1] == want
    assert ctx.frobenius(2) is ctx.frobenius(2)
    assert ctx == fresh and hash(ctx) == hash(fresh) and repr(ctx) == repr(fresh)


@pytest.mark.parametrize("descriptor,d", [("3", 2), ("3", 3), ("5", 2), ("4", 2)])
def test_fermat_quotient_exact_over_residue_field(descriptor, d):
    field = parse_field(descriptor)
    rng = random.Random(d)
    for ctx in sample_contexts(field, d, count=2):
        ext = ctx.residue_field
        prime_e = embed(ctx.prime, ext)
        for deg in (0, 1, 3):
            a = rand_poly(ext, deg, rng)
            quot = fermat_quotient(a, ctx)
            assert prime_e * quot == a ** ctx.norm - a
            for k in (1, 2):
                assert fermat_quotient_mod(a, ctx, k) == \
                    divrem(quot, prime_e ** k)[1]


def test_fermat_quotient_mod_is_linear_over_residue_field():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    ctxs = [PrimeContext.for_prime(parse_poly(text, make_prime_field(q)))
            for q, text in ((3, "t^2+1"), (3, "t^3+2*t+2"), (5, "t^2+2"))]

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(st.sampled_from(ctxs), st.integers(1, 2), st.data())
    def check(ctx, k, data):
        ext = ctx.residue_field
        codes = st.lists(st.integers(0, ext.order - 1), max_size=3 * ctx.degree + 2)
        a = Poly(ext, data.draw(codes))
        b = Poly(ext, data.draw(codes))
        c = ext(data.draw(st.integers(0, ext.order - 1)))
        assert fermat_quotient_mod(a + b * c, ctx, k) == \
            fermat_quotient_mod(a, ctx, k) + fermat_quotient_mod(b, ctx, k) * c

    check()


def test_fermat_quotient_mod_requires_positive_precision():
    field = make_prime_field(3)
    ctx = PrimeContext.for_prime(parse_poly("t^2+1", field))
    with pytest.raises(ValueError):
        fermat_quotient_mod(Poly.t(field), ctx, 0)


def test_fermat_quotient_determined_by_congruence_class():
    # a mod P^(k+1) pins down Q(a) mod P^k
    rng = random.Random(1)
    field = make_prime_field(3)
    ctx = PrimeContext.for_prime(parse_poly("t^3+2*t+2", field))
    for k in (1, 2):
        lift = ctx.prime ** (k + 1)
        for _ in range(20):
            a = Poly(field, [rng.randrange(3) for _ in range(6)])
            junk = Poly(field, [rng.randrange(3) for _ in range(4)])
            b = a + lift * junk
            assert fermat_quotient_mod(a, ctx, k) == \
                fermat_quotient_mod(b, ctx, k)


def test_derivative_mod_determined_by_congruence_class():
    rng = random.Random(4)
    field = make_prime_field(3)
    ctx = PrimeContext.for_prime(parse_poly("t^2+1", field))
    for k in (1, 2):
        lift = ctx.prime ** (k + 1)
        for _ in range(20):
            a = Poly(field, [rng.randrange(3) for _ in range(6)])
            b = a + lift * Poly(field, [rng.randrange(3) for _ in range(3)])
            assert derivative_mod(a, ctx, k) == derivative_mod(b, ctx, k)
            assert derivative_mod(a, ctx, k) == \
                divrem(a.derivative(), ctx.prime ** k)[1]


def test_iterated_quotient_exact_vs_ladder():
    field = make_prime_field(3)
    t = Poly.t(field)
    for text in ("t^2+1", "t^3+2*t+2"):
        ctx = PrimeContext.for_prime(parse_poly(text, field))
        red = ModReducer(ctx.prime)
        for i in (1, 2):
            exact = fermat_quotient_iter(t, ctx, i)
            ladder = fermat_quotient_iter(t, ctx, i, k=1)
            assert red.reduce(exact) == red.reduce(ladder)
        exact2 = fermat_quotient_iter(t, ctx, 2)
        assert exact2 == fermat_quotient(fermat_quotient(t, ctx), ctx)


def test_iterated_quotient_higher_precision():
    field = make_prime_field(3)
    ctx = PrimeContext.for_prime(parse_poly("t^2+1", field))
    a = parse_poly("t^4+t+2", field)
    for i, k in ((1, 2), (2, 2)):
        exact = fermat_quotient_iter(a, ctx, i)
        modk = ctx.prime ** k
        assert fermat_quotient_iter(a, ctx, i, k=k) == divrem(exact, modk)[1]


def test_delta_taylor_reconstruction():
    # a(t) = sum delta_at_theta(a, j) (t - theta)^j, truncated at any order
    field = make_prime_field(3)
    for ctx in iter_monic_irreducibles(field, 3):
        ext = ctx.residue_field
        shift = Poly.t(ext) - Poly.constant(ext, ctx.theta)
        for a in itertools.islice(all_polys(field, 4), 0, None, 11):
            lifted = embed(a, ext)
            for order in (1, 2, 3):
                acc = Poly.zero(ext)
                for j in range(order):
                    acc = acc + (shift ** j).scale(delta_at_theta(a, ctx, j))
                acc = acc + shift ** order * delta(a, ctx, order)
                assert acc == lifted


def test_delta_zero_order_is_value():
    field = make_prime_field(5)
    ctx = PrimeContext.for_prime(parse_poly("t+3", field))
    a = parse_poly("t^2+t+1", field)
    assert delta_at_theta(a, ctx, 0) == eval_poly(a, field(2))


def test_mixed_labels_complete_and_wilson_linked():
    assert len(MIXED_LABELS) == 8
    field = make_prime_field(3)
    wilson = wilson_suite(PrimeContext.for_prime(parse_poly("t^3+2*t+2", field)))
    plain = wilson_suite(PrimeContext.for_prime(parse_poly("t^3+t^2+2", field)))
    for label in MIXED_LABELS:
        assert wilson["verdicts"][label], label
        assert not plain["verdicts"][label], label


def test_field_mismatch_between_base_and_prime():
    ctx = PrimeContext.for_prime(parse_poly("t^2+1", make_prime_field(3)))
    with pytest.raises(FieldMismatch):
        fermat_quotient(Poly.t(make_prime_field(2)), ctx)
    with pytest.raises(FieldMismatch):
        fermat_quotient_mod(Poly.t(make_prime_field(2)), ctx, 1)


@pytest.mark.parametrize("text", ["t+1", "t^2+t+2"])
def test_fermat_quotient_rejects_foreign_extension(text):
    # F_9 = F_3[x]/(x^2+1) extends F_3 but is not the residue field of
    # either prime, so no route may treat its coefficients as fixed
    f3, f9 = make_prime_field(3), parse_field("9")
    ctx = PrimeContext.for_prime(parse_poly(text, f3))
    assert ctx.residue_field != f9
    a = parse_poly("2*t+5", f9)
    for route in (lambda: fermat_quotient_mod(a, ctx, 1),
                  lambda: fermat_quotient(a, ctx)):
        with pytest.raises(FieldMismatch) as err:
            route()
        assert repr(f9) in str(err.value) and repr(f3) in str(err.value)
