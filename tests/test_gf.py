import itertools

import pytest

from fqwilson.errors import DivisionByZero, FieldMismatch, NotPrime
from fqwilson.gf import (
    FieldElement,
    default_modulus,
    make_extension,
    make_prime_field,
    parse_field,
)
from fqwilson.irr import is_irreducible
from fqwilson.poly import parse_poly


def test_prime_field_matches_integers_mod_p():
    for p in (2, 3, 5, 7):
        field = make_prime_field(p)
        assert field.order == p and field.char == p
        for a in range(p):
            for b in range(p):
                assert (field(a) + field(b)).code == (a + b) % p
                assert (field(a) * field(b)).code == (a * b) % p
                assert (field(a) - field(b)).code == (a - b) % p


def test_make_prime_field_rejects_composites():
    with pytest.raises(NotPrime):
        make_prime_field(6)
    with pytest.raises(NotPrime):
        make_prime_field(1)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_extension_field_laws_exhaustive(p, k):
    field = make_extension(make_prime_field(p), default_modulus(p, k))
    assert field.order == p ** k
    els = list(field.elements())
    assert len(els) == field.order
    for a, b in itertools.product(els, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
    # associativity and distributivity on a grid bounded for runtime
    for a, b, c in itertools.islice(itertools.product(els, repeat=3), 1000):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    for a in els:
        assert a + field.zero == a
        assert a * field.one == a
        if a.code:
            assert a * a.inverse() == field.one
    with pytest.raises(DivisionByZero):
        field.zero.inverse()


def test_division_and_pow():
    field = make_extension(make_prime_field(3), default_modulus(3, 2))
    for a in field.elements():
        if not a.code:
            continue
        assert a ** (field.order - 1) == field.one
        assert (field.one / a) * a == field.one
        assert a ** 0 == field.one
        assert a ** -1 == a.inverse()


def test_pth_root_inverts_pth_power():
    for p, k in ((2, 3), (3, 2), (5, 1)):
        field = make_prime_field(p)
        if k > 1:
            field = make_extension(field, default_modulus(p, k))
        for a in field.elements():
            assert FieldElement(field, field.pth_root((a ** p).code)) == a


def test_default_modulus_is_irreducible():
    for p, k in ((2, 2), (2, 4), (3, 2), (3, 3), (5, 2)):
        base = make_prime_field(p)
        mod = default_modulus(p, k)
        assert mod.degree == k and mod.is_monic
        assert is_irreducible(mod)


def test_parse_field_round_trip():
    for text in ("2", "3", "4", "5", "8", "9", "25", "2^2", "3^2"):
        field = parse_field(text)
        assert parse_field(field.descriptor()) == field


def test_parse_field_explicit_modulus():
    base = make_prime_field(2)
    mod = default_modulus(2, 2)
    field = parse_field("4:" + str(mod))
    assert field == make_extension(base, mod)
    with pytest.raises(ValueError):
        parse_field("4:t^3+t+1")  # degree mismatch
    with pytest.raises(ValueError):
        parse_field("3:t^2+1")  # prime fields take no modulus
    with pytest.raises(ValueError):
        parse_field("6")  # not a prime power
    with pytest.raises(NotPrime):
        parse_field("6^2")


def test_field_mismatch_raises():
    f2 = make_prime_field(2)
    f3 = make_prime_field(3)
    with pytest.raises(FieldMismatch):
        f2(1) + f3(1)


def test_element_construction_rules():
    # prime fields reduce any integer; extensions insist on codes
    f3 = make_prime_field(3)
    assert f3(3) == f3(0)
    assert f3(-1) == f3(2)
    f4 = parse_field("4")
    with pytest.raises(ValueError):
        f4(4)
    with pytest.raises(ValueError):
        f4(-1)


def test_tower_of_extensions():
    f2 = make_prime_field(2)
    f4 = make_extension(f2, default_modulus(2, 2))
    # find a quadratic irreducible over F_4 by scan
    quad = None
    for c0 in range(4):
        for c1 in range(4):
            cand = parse_poly("t^2", f4) + parse_poly("t", f4).scale(f4(c1)) \
                + parse_poly("1", f4).scale(f4(c0))
            if is_irreducible(cand):
                quad = cand
                break
        if quad:
            break
    f16 = make_extension(f4, quad)
    assert f16.order == 16 and f16.char == 2
    assert f16.is_extension_of(f4) and f16.is_extension_of(f2)
    one = f16.one
    for a in itertools.islice(f16.elements(), 16):
        assert a * one == a
        if a.code:
            assert a * a.inverse() == one


def test_digits_round_trip():
    field = make_extension(make_prime_field(3), default_modulus(3, 2))
    for code in range(field.order):
        assert field.undigits(field.digits(code)) == code
