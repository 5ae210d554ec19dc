import itertools
import random

import pytest

from fqwilson import _ext
from fqwilson.errors import DivisionByZero, FieldMismatch, NotPrime, Reducible
from fqwilson.gf import (
    _TABLE_TRIGGER,
    FieldElement,
    default_modulus,
    make_extension,
    make_prime_field,
    parse_field,
)
from fqwilson.irr import is_irreducible
from fqwilson.poly import Poly, parse_poly


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
    els = list(map(field, range(field.order)))
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
    for a in map(field, range(field.order)):
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
        for a in map(field, range(field.order)):
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
    # two-level towers: F_16 over F_4 and F_81 over F_9
    for base_text, mod_text in (("4", "t^2+t+2"), ("9", "t^2+t+3")):
        base = parse_field(base_text)
        tower = make_extension(base, parse_poly(mod_text, base))
        assert tower.descriptor() == f"{base.descriptor()}/{mod_text}"
        assert parse_field(tower.descriptor()) == tower
        assert parse_field(f"{base_text}/{mod_text}") == tower
    # three levels: F_256 over F_16 over F_4
    f256 = parse_field("4/t^2+t+2/t^2+t+8")
    assert f256.order == 256 and f256.base == parse_field("4/t^2+t+2")
    assert f256.descriptor() == "4:t^2+t+1/t^2+t+2/t^2+t+8"
    assert parse_field(f256.descriptor()) == f256


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
    with pytest.raises(ValueError):
        parse_field("4/t+1")  # a tower modulus needs degree at least 2
    with pytest.raises(Reducible):
        parse_field("4/t^2+1")
    with pytest.raises(Reducible):
        parse_field("4/t^2+t+2/t^2+t+1")  # t^2+t+1 splits over F_16


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
    for a in map(f16, range(16)):
        assert a * one == a
        if a.code:
            assert a * a.inverse() == one


def test_digits_round_trip():
    field = make_extension(make_prime_field(3), default_modulus(3, 2))
    for code in range(field.order):
        assert field.undigits(field.digits(code)) == code


@pytest.mark.parametrize("descriptor", ["9", "25", "625", "4"])
def test_digit_add_matches_digit_lists(descriptor):
    # _digit_add stops dividing once the shorter operand runs out of
    # digits; against adding the full digit lists, on pairs with every
    # mix of digit counts (a one-digit constant plus a long code is the
    # addition of evaluation at theta)
    field = parse_field(descriptor)
    base = field.base
    rng = random.Random(field.order)
    codes = [0, 1, base.order - 1, base.order, field.order - 1]
    codes += [rng.randrange(field.order) for _ in range(30)]
    for a in codes:
        for b in codes:
            want = field.undigits([base.add(x, y) for x, y in
                                   zip(field.digits(a), field.digits(b))])
            assert field._digit_add(a, b) == want



# -- log/antilog (Zech) tables against the slow oracle ------------------

F3 = make_prime_field(3)
F5 = make_prime_field(5)


def quadratic_tower(base):
    """base[y]/(y^2 + c1*y + c0) for the first irreducible quadratic."""
    for c0, c1 in itertools.product(range(1, base.order), range(base.order)):
        cand = Poly(base, (c0, c1, 1))
        if is_irreducible(cand):
            return make_extension(base, cand)
    raise AssertionError("no irreducible quadratic")  # pragma: no cover


# each builds its tables by a different route: walking x, walking some
# x + c or a larger-degree element, XOR addition, or _ext_mul steps
SMALL_TABLE_FIELDS = {
    "F_4, char 2": lambda: parse_field("4"),
    "F_9, x not primitive": lambda: parse_field("9"),
    "F_16, char 2": lambda: parse_field("16"),
    "F_16 over F_4, tower": lambda: quadratic_tower(parse_field("4")),
    "F_25, x not primitive": lambda: parse_field("25"),
    "F_27, x primitive": lambda: parse_field("27"),
    "F_27, no x + c primitive":
        lambda: make_extension(F3, parse_poly("t^3+2*t+2", F3)),
    "F_81 over F_9, tower": lambda: quadratic_tower(parse_field("9")),
}
F625_FIELDS = {
    "F_625, x not primitive": lambda: parse_field("625"),
    "F_625, no x + c primitive":
        lambda: make_extension(F5, parse_poly("t^4+3", F5)),
}
ALL_TABLE_FIELDS = {**SMALL_TABLE_FIELDS, **F625_FIELDS}


def x_plus_c_primitive(field):
    p = field.char
    return [c for c in range(p) if _ext._is_primitive(field, field.gen_code + c)]


def test_table_fields_cover_each_build_route():
    fields = {label: make() for label, make in ALL_TABLE_FIELDS.items()}
    assert 0 in x_plus_c_primitive(fields["F_27, x primitive"])
    for label in ("F_9, x not primitive", "F_25, x not primitive",
                  "F_625, x not primitive"):
        assert 0 not in x_plus_c_primitive(fields[label])
    for label in ("F_27, no x + c primitive", "F_625, no x + c primitive"):
        assert x_plus_c_primitive(fields[label]) == []
    for label in ("F_16 over F_4, tower", "F_81 over F_9, tower"):
        assert not fields[label].base.is_prime_field
    assert fields["F_81 over F_9, tower"].order == 81


def ext_pow(field, a, e):
    """a^e by square-and-multiply on _ext_mul, the oracle of pow."""
    result = 1
    while e:
        if e & 1:
            result = field._ext_mul(result, a)
        e >>= 1
        a = field._ext_mul(a, a)
    return result


def check_against_oracle(field, elements, pairs):
    n = field.order - 1
    for a in elements:
        if field.char == 2:
            assert field.neg(a) == a
        else:
            assert field.neg(a) == field._digit_neg(a)
        if not a:
            continue
        inv = field.inv(a)
        assert field._ext_mul(a, inv) == 1
        for e in (0, 1, 2, 5, n - 1, n, n + 3):
            assert field.pow(a, e) == ext_pow(field, a, e)
            assert field.pow(a, -e) == ext_pow(field, inv, e)
    for a, b in pairs:
        assert field.mul(a, b) == (field._ext_mul(a, b) if a and b else 0)
        if field.char == 2:
            assert field.add(a, b) == field.sub(a, b) == a ^ b
        else:
            assert field.add(a, b) == field._digit_add(a, b)
            assert field.sub(a, b) == field._digit_add(a, field._digit_neg(b))


@pytest.mark.parametrize("label", SMALL_TABLE_FIELDS)
def test_tables_match_oracle_exhaustive(label):
    field = SMALL_TABLE_FIELDS[label]()
    _ext._build_tables(field)
    codes = range(field.order)
    check_against_oracle(field, codes, itertools.product(codes, repeat=2))


@pytest.mark.parametrize("label", F625_FIELDS)
def test_tables_match_oracle_random_f625(label):
    field = F625_FIELDS[label]()
    _ext._build_tables(field)
    rng = random.Random(625)
    elements = [0, 1] + [rng.randrange(field.order) for _ in range(60)]
    pairs = [(rng.randrange(field.order), rng.randrange(field.order))
             for _ in range(4000)]
    check_against_oracle(field, elements, pairs + [(a, a) for a in elements])


@pytest.mark.parametrize("label", ALL_TABLE_FIELDS)
def test_log_and_exp_are_inverse_bijections(label):
    field = ALL_TABLE_FIELDS[label]()
    _ext._build_tables(field)
    q = field.order
    n = q - 1
    exp, log = field._exp, field._log
    assert len(exp) == 2 * n and exp[:n] == exp[n:]
    assert sorted(exp[:n]) == list(range(1, q))
    assert [log[exp[i]] for i in range(n)] == list(range(n))
    g = exp[1]
    assert all(exp[i + 1] == field._ext_mul(exp[i], g) for i in range(n))
    if field.char == 2:
        assert field._zech is None
        return
    zech = field._zech
    assert len(zech) == 2 * n and zech[:n] == zech[n:]
    for i in range(n):
        one_plus = field._digit_add(1, exp[i])
        assert (zech[i] == -1) if one_plus == 0 else exp[zech[i]] == one_plus


# every element of each field: generator by digit shift and one fold
MUL_GEN_FIELDS = {
    "F_4": lambda: parse_field("4"),
    "F_9": lambda: parse_field("9"),
    "F_25": lambda: parse_field("25"),
    "F_625": lambda: parse_field("625"),
    "F_5 by t + 3": lambda: make_extension(F5, parse_poly("t+3", F5)),
}


@pytest.mark.parametrize("label", MUL_GEN_FIELDS)
def test_mul_gen_matches_ext_mul_exhaustive(label):
    # mul(a, x) on every element, in a field that never builds tables
    # (as those above the size cap)
    slow = MUL_GEN_FIELDS[label]()
    slow._countdown = -1
    g = slow.gen_code
    assert [slow.mul(a, g) for a in range(slow.order)] == \
        [slow._ext_mul(a, g) for a in range(slow.order)]
    assert slow._log is None
    # a product by x counts toward the tables as any other does, so a
    # twin multiplying by h builds them at the same product; every
    # element twice, the second pass on the tables
    field, twin = MUL_GEN_FIELDS[label](), MUL_GEN_FIELDS[label]()
    h = g + 1 if g + 1 < field.order else 2
    for a in list(range(field.order)) * 2:
        assert field.mul(a, g) == slow._ext_mul(a, g)
        assert twin.mul(a, h) == slow._ext_mul(a, h)
        assert field._countdown == twin._countdown
        assert (field._log is None) == (twin._log is None)
    assert field._log is not None


def test_mul_by_generator_over_towers():
    # a tower's generator takes _ext_mul, then the tables
    f4 = parse_field("4")
    slow, tower = quadratic_tower(f4), quadratic_tower(f4)
    slow._countdown = -1
    g = tower.gen_code
    for field in (slow, tower):
        assert all(field.mul(a, g) == slow._ext_mul(a, g)
                   for a in range(field.order))
    assert slow._log is None and tower._log is not None


@pytest.mark.parametrize("descriptor", ["27", "625"])
def test_products_by_theta_build_tables_on_the_trigger(descriptor):
    # fed only products by x, a fresh field builds its tables on product
    # order // _TABLE_TRIGGER (6 of F_27, 156 of F_625)
    field = parse_field(descriptor)
    x = field.gen_code
    trigger = field.order // _TABLE_TRIGGER
    for n, a in enumerate(range(2, trigger + 2), 1):
        assert field.mul(a, x) == field._ext_mul(a, x)
        assert (field._log is not None) == (n == trigger)


def test_tables_wait_for_the_trigger():
    field = parse_field("625")
    x = field.gen_code
    for _ in range(field.order // _TABLE_TRIGGER - 1):
        field.mul(x, x)
        field.add(x, x)
        field.mul(x, 1)  # products with 0 or 1 are not slow
    assert field._log is None
    field.mul(x, x)
    assert field._log is not None
    assert field.mul(x, x) == field._ext_mul(x, x)


def test_prime_fields_and_fields_above_the_cap_build_no_tables():
    big = parse_field("5^7")  # 78125 > 2^16
    assert big.order > 1 << 16
    g = big.gen_code
    a = 1
    for _ in range(big.order // _TABLE_TRIGGER + 1):
        a = big.mul(a, g)
    assert big._log is None
    assert a == ext_pow(big, g, big.order // _TABLE_TRIGGER + 1)
    f3 = make_prime_field(3)
    for _ in range(10):
        f3.mul(2, 2)
    assert f3._log is None


def test_field_equality_fast_path_and_keys():
    f9 = parse_field("9")
    assert f9 == f9
    assert f9 == parse_field("9") and f9 is not parse_field("9")
    assert f9 != parse_field("9:t^2+2*t+2")
    assert f9 != make_prime_field(3) and f9 != "9"
