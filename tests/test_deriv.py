import itertools
import random

import pytest

from fqwilson.deriv import (
    MIXED_LABELS,
    delta,
    delta_at_theta,
    derivative_mod,
    fermat_quotient,
    fermat_quotient_iter,
    fermat_quotient_mod,
    mixed,
)
from fqwilson.errors import FieldMismatch
from fqwilson.gf import make_prime_field
from fqwilson.irr import PrimeContext, iter_monic_irreducibles
from fqwilson.poly import ModReducer, Poly, divrem, embed, eval_poly, parse_poly


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
            assert derivative_mod(a, ctx.prime, k) == derivative_mod(b, ctx.prime, k)
            assert derivative_mod(a, ctx.prime, k) == \
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


def _is_zero(value):
    if isinstance(value, Poly):
        return value.is_zero
    return not value


def test_mixed_labels_complete_and_wilson_linked():
    assert len(MIXED_LABELS) == 8
    field = make_prime_field(3)
    wilson = PrimeContext.for_prime(parse_poly("t^3+2*t+2", field))
    plain = PrimeContext.for_prime(parse_poly("t^3+t^2+2", field))
    for label in MIXED_LABELS:
        assert _is_zero(mixed(label, wilson)), label
        assert not _is_zero(mixed(label, plain)), label
    with pytest.raises(ValueError):
        mixed("nope", wilson)


def test_field_mismatch_between_base_and_prime():
    ctx = PrimeContext.for_prime(parse_poly("t^2+1", make_prime_field(3)))
    with pytest.raises(FieldMismatch):
        fermat_quotient(Poly.t(make_prime_field(2)), ctx)
    with pytest.raises(FieldMismatch):
        fermat_quotient_mod(Poly.t(make_prime_field(2)), ctx, 1)
