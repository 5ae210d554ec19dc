import itertools
import random
from array import array

import pytest

from fqwilson.errors import DivisionByZero, FieldMismatch, NotDivisible
from fqwilson.gf import default_modulus, make_extension, make_prime_field
from fqwilson.poly import (
    ModReducer,
    Poly,
    _divrem_field,
    _kron_lane,
    _kron_mul,
    _school_mul_prime,
    divrem,
    embed,
    eval_poly,
    exact_div,
    format_poly,
    gcd,
    parse_poly,
    q_power_expand,
    synth_div,
)


def all_polys(field, max_degree):
    for codes in itertools.product(range(field.order), repeat=max_degree + 1):
        yield Poly(field, codes)


def rand_poly(field, degree, rng):
    codes = [rng.randrange(field.order) for _ in range(degree)]
    codes.append(rng.randrange(1, field.order))
    return Poly(field, codes)


ODD_PRIMES = (3, 5, 7, 101, 251)


def rand_codes(p, n, rng):
    return tuple(rng.randrange(p) for _ in range(n))


def lane_edge(width, p):
    """Largest operand length whose convolution sums fit in width bytes."""
    return ((1 << (8 * width)) - 1) // ((p - 1) * (p - 1))


def check_divrem_oracle(field, a, b):
    p = field.char
    q, r = divrem(Poly(field, a), Poly(field, b))
    if len(a) >= len(b):
        slow_q, slow_r = _divrem_field(a, b, field)
        assert (q, r) == (Poly(field, slow_q), Poly(field, slow_r))
    assert q * Poly(field, b) + r == Poly(field, a)
    assert r.is_zero or r.degree < len(b) - 1
    assert all(0 <= c < p for c in q.codes + r.codes)


def check_addsub_oracle(field, a, b):
    n = max(len(a), len(b))
    pa, pb = Poly(field, a), Poly(field, b)
    ea = a + (0,) * (n - len(a))
    eb = b + (0,) * (n - len(b))
    assert pa + pb == Poly(field, [field.add(x, y) for x, y in zip(ea, eb)])
    assert pa - pb == Poly(field, [field.add(x, field.neg(y))
                                   for x, y in zip(ea, eb)])
    assert -pa == Poly(field, [field.neg(x) for x in a])


def test_format_parse_round_trip_exhaustive():
    field = make_prime_field(3)
    for f in all_polys(field, 3):
        assert parse_poly(format_poly(f), field) == f


def test_parse_accepted_forms():
    f3 = make_prime_field(3)
    assert parse_poly("t^3+2*t+1", f3) == Poly(f3, [1, 2, 0, 1])
    assert parse_poly("2t^3", f3) == Poly(f3, [0, 0, 0, 2])
    assert parse_poly("2*t", f3) == Poly(f3, [0, 2])
    assert parse_poly(" t ^ 2 + 1 ".replace(" ", ""), f3) == Poly(f3, [1, 0, 1])
    assert parse_poly("t", f3) == Poly.t(f3)
    assert parse_poly("1", f3) == Poly.one(f3)
    assert parse_poly("0", f3) == Poly.zero(f3)


def test_parse_rejects_garbage():
    f3 = make_prime_field(3)
    for text in ("x+1", "t^", "t^2+", "", "t**2"):
        with pytest.raises(ValueError):
            parse_poly(text, f3)


def test_ring_laws_exhaustive_f2():
    field = make_prime_field(2)
    polys = list(all_polys(field, 2))
    for a, b in itertools.product(polys, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
        assert a - b == -(b - a)
    for a, b, c in itertools.islice(itertools.product(polys, repeat=3), 2000):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_mul_consistent_with_evaluation():
    # black-box check of the fast multiplication paths: evaluation is a
    # ring homomorphism, so products must commute with it
    rng = random.Random(5)
    for p in (2, 3, 5):
        field = make_prime_field(p)
        ext = make_extension(field, default_modulus(p, 2))
        for _ in range(10):
            a = rand_poly(field, rng.randrange(80, 140), rng)
            b = rand_poly(field, rng.randrange(80, 140), rng)
            prod = a * b
            assert prod.degree == a.degree + b.degree
            for x in itertools.islice(ext.elements(), 4):
                assert eval_poly(embed(prod, ext), x) == \
                    eval_poly(embed(a, ext), x) * eval_poly(embed(b, ext), x)


def test_mul_extension_coefficients():
    f4 = make_extension(make_prime_field(2), default_modulus(2, 2))
    rng = random.Random(11)
    for _ in range(10):
        a = rand_poly(f4, rng.randrange(5, 40), rng)
        b = rand_poly(f4, rng.randrange(5, 40), rng)
        prod = a * b
        for x in f4.elements():
            assert eval_poly(prod, x) == eval_poly(a, x) * eval_poly(b, x)


def test_pow_matches_repeated_mul():
    f3 = make_prime_field(3)
    f = parse_poly("t^2+2*t+1", f3)
    acc = Poly.one(f3)
    for e in range(8):
        assert f ** e == acc
        acc = acc * f
    assert f ** 0 == Poly.one(f3)


def test_divrem_invariant():
    rng = random.Random(7)
    field = make_prime_field(3)
    for _ in range(200):
        a = rand_poly(field, rng.randrange(0, 12), rng)
        b = rand_poly(field, rng.randrange(0, 8), rng)
        q, r = divrem(a, b)
        assert a == q * b + r
        assert r.is_zero or r.degree < b.degree
    with pytest.raises(DivisionByZero):
        divrem(a, Poly.zero(field))
    # the plain-int F_p division against the field-call route
    for p in ODD_PRIMES:
        field = make_prime_field(p)
        for _ in range(40):
            a = rand_poly(field, rng.randrange(0, 150), rng).codes
            b = rand_poly(field, rng.randrange(0, 60), rng).codes
            check_divrem_oracle(field, a, b)
            check_divrem_oracle(field, a, (1,) + b)


def test_floordiv_mod_agree_with_divrem():
    field = make_prime_field(5)
    a = parse_poly("t^5+3*t^2+1", field)
    b = parse_poly("t^2+4", field)
    q, r = divrem(a, b)
    assert a // b == q and a % b == r
    assert divmod(a, b) == (q, r)


def test_exact_div():
    field = make_prime_field(3)
    a = parse_poly("t^2+1", field)
    b = parse_poly("t+2", field)
    assert exact_div(a * b, b) == a
    with pytest.raises(NotDivisible):
        exact_div(a, b)


def test_gcd_properties():
    rng = random.Random(3)
    field = make_prime_field(3)
    for _ in range(100):
        a = rand_poly(field, rng.randrange(1, 8), rng)
        b = rand_poly(field, rng.randrange(1, 8), rng)
        g = gcd(a, b)
        assert g.is_monic or g.is_zero
        assert (a % g).is_zero and (b % g).is_zero
        m = rand_poly(field, 2, rng).monic()
        assert gcd(a * m, b * m) == gcd(a, b) * m
    for p in ODD_PRIMES:  # longer operands, through the plain-int kernels
        field = make_prime_field(p)
        for _ in range(20):
            h = rand_poly(field, rng.randrange(0, 20), rng)
            a = rand_poly(field, rng.randrange(0, 60), rng) * h
            b = rand_poly(field, rng.randrange(0, 60), rng) * h
            g = gcd(a, b)
            assert g.is_monic
            assert (a % g).is_zero and (b % g).is_zero
            assert (g % h.monic()).is_zero


def test_field_mismatch_between_polys():
    a = parse_poly("t", make_prime_field(2))
    b = parse_poly("t", make_prime_field(3))
    with pytest.raises(FieldMismatch):
        a + b


def test_derivative_rules():
    field = make_prime_field(3)
    for f in itertools.islice(all_polys(field, 3), 81):
        for g in itertools.islice(all_polys(field, 3), 81):
            assert (f * g).derivative() == \
                f.derivative() * g + f * g.derivative()
    # power rule kills exponents divisible by p
    assert parse_poly("t^3", field).derivative().is_zero
    assert parse_poly("t^4", field).derivative() == parse_poly("t^3", field)


def test_eval_and_synth_div():
    field = make_prime_field(5)
    f = parse_poly("t^4+2*t^2+3", field)
    for code in range(5):
        x = field(code)
        quot, val = synth_div(f, x)
        assert val == eval_poly(f, x)
        assert quot * (Poly.t(field) - Poly.constant(field, x)) \
            + Poly.constant(field, val) == f


def test_q_power_expand_matches_pow():
    for p in (2, 3):
        field = make_prime_field(p)
        for f in itertools.islice(all_polys(field, 2), 30):
            assert q_power_expand(f, 1) == f ** p
            assert q_power_expand(f, 2) == f ** (p * p)


def test_q_power_expand_extension_base_order():
    f4 = make_extension(make_prime_field(2), default_modulus(2, 2))
    f = parse_poly("t^2+t", f4)
    assert q_power_expand(f, 1) == f ** 4


def test_embed_eval_consistency():
    f3 = make_prime_field(3)
    f9 = make_extension(f3, default_modulus(3, 2))
    f = parse_poly("t^2+2*t+1", f3)
    lifted = embed(f, f9)
    for code in range(3):
        assert eval_poly(lifted, f9(code)).code == eval_poly(f, f3(code)).code


def test_mod_reducer_matches_plain_reduction():
    rng = random.Random(13)
    # F_3 degrees span the Barrett switch-over; F_2 runs the packed reducer
    for p, mod_deg in ((3, 4), (3, 40), (3, 120), (2, 5)):
        field = make_prime_field(p)
        m = rand_poly(field, mod_deg, rng).monic()
        red = ModReducer(m)
        for _ in range(6):
            a = rand_poly(field, mod_deg + rng.randrange(0, 30), rng)
            b = rand_poly(field, mod_deg + rng.randrange(0, 30), rng)
            assert red.reduce(a) == a % m
            assert red.mulmod(red.reduce(a), red.reduce(b)) == (a * b) % m
        base = red.reduce(rand_poly(field, mod_deg - 1, rng))
        e = rng.randrange(2, 200)
        naive = Poly.one(field)
        for _ in range(e):
            naive = (naive * base) % m
        assert red.powmod(base, e) == naive
        assert red.powmod(base, 0) == Poly.one(field)


def test_monic_and_scale():
    field = make_prime_field(5)
    f = parse_poly("3*t^2+1", field)
    assert f.monic().lead_code == 1
    assert f.monic().scale(field(3)) == f
    with pytest.raises(DivisionByZero):
        Poly.zero(field).monic()


# -- plain-int F_p kernels against their slow routes --------------------


def test_kron_lane_widths():
    # each width is the narrowest lane that holds the sums at its edge
    seen = set()
    for p in ODD_PRIMES:
        for width in (1, 2, 4):
            edge = lane_edge(width, p)
            if edge:
                assert _kron_lane(edge, p)[0] == width
                assert _kron_lane(edge + 1, p)[0] > width
                seen.add(width)
    assert seen == {1, 2, 4}
    assert _kron_lane(lane_edge(4, 251) + 1, 251)[0] == 8
    for length, p in ((1, 3), (64, 3), (64, 251), (lane_edge(4, 251) + 1, 251)):
        width, tc = _kron_lane(length, p)  # 1-, 2-, 4- and 8-byte lanes
        assert array(tc).itemsize == width


def test_kron_mul_matches_schoolbook_at_lane_edges():
    rng = random.Random(11)
    for p, width in ((3, 1), (5, 1), (7, 1), (101, 2), (251, 2)):
        edge = lane_edge(width, p)
        for m in {max(edge - 1, 1), edge, edge + 1}:
            for n in (m, m + 9):
                a = rand_codes(p, m, rng)
                b = rand_codes(p, n, rng)
                assert _kron_mul(a, b, p) == _school_mul_prime(a, b, p)
                full = (p - 1,) * m, (p - 1,) * n
                assert _kron_mul(*full, p) == _school_mul_prime(*full, p)


def test_kron_mul_full_lanes_closed_form():
    # all-(p-1) operands put the largest possible sum in the middle
    # lanes; (p-1)^2 = 1 mod p, so coefficient k is the overlap count.
    # Lengths straddle the 2-, 4- and 8-byte lane edges, where the
    # schoolbook oracle is too slow.
    for p, width in ((3, 2), (5, 2), (7, 2), (251, 4)):
        for m in (lane_edge(width, p), lane_edge(width, p) + 1):
            n = m + 3
            got = _kron_mul((p - 1,) * m, (p - 1,) * n, p)
            assert len(got) == m + n - 1
            for k in range(m + n - 1):
                assert got[k] == (min(k, m - 1) - max(0, k - n + 1) + 1) % p


def test_kron_mul_matches_schoolbook_fixed_seed():
    rng = random.Random(5)
    for p in ODD_PRIMES:
        for _ in range(40):
            a = rand_codes(p, rng.randrange(1, 200), rng)
            b = rand_codes(p, rng.randrange(1, 200), rng)
            assert _kron_mul(a, b, p) == _school_mul_prime(a, b, p)


def test_prime_add_sub_neg_match_field_calls_fixed_seed():
    rng = random.Random(23)
    for p in ODD_PRIMES:
        field = make_prime_field(p)
        for _ in range(40):
            a = rand_codes(p, rng.randrange(0, 40), rng)
            b = rand_codes(p, rng.randrange(0, 40), rng)
            check_addsub_oracle(field, a, b)
        check_addsub_oracle(field, (1, 2), (p - 1, p - 2))  # cancels to zero


def _codes(st, p, max_size):
    return st.lists(st.integers(0, p - 1), max_size=max_size).map(tuple)


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_kron_mul_matches_schoolbook_property(p):
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    operand = _codes(st, p, 160).filter(bool)

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(operand, operand)
    def check(a, b):
        assert _kron_mul(a, b, p) == _school_mul_prime(a, b, p)

    check()


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_prime_divrem_and_gcd_property(p):
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    field = make_prime_field(p)
    divisor = st.tuples(_codes(st, p, 40), st.integers(1, p - 1))

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(_codes(st, p, 120), divisor)
    def check(a, b):
        b = b[0] + (b[1],)
        check_divrem_oracle(field, a, b)
        g = gcd(Poly(field, a), Poly(field, b))
        assert g.is_monic
        assert (Poly(field, a) % g).is_zero and (Poly(field, b) % g).is_zero

    check()


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_prime_add_sub_neg_property(p):
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    field = make_prime_field(p)

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(_codes(st, p, 40), _codes(st, p, 40))
    def check(a, b):
        check_addsub_oracle(field, a, b)

    check()


def test_prime_monic_scale_derivative_match_field_calls():
    rng = random.Random(29)
    for p in ODD_PRIMES:
        field = make_prime_field(p)
        mul = field.mul
        for _ in range(20):
            f = rand_poly(field, rng.randrange(0, 30), rng)
            c = rng.randrange(1, p)
            inv = field.inv(f.lead_code)
            assert f.monic() == Poly(field, [mul(x, inv) for x in f.codes])
            assert f.scale(field(c)) == Poly(field, [mul(x, c) for x in f.codes])
            assert f.derivative() == Poly(
                field, [mul(x, j % p) for j, x in enumerate(f.codes)][1:])


def _mod_reducers():
    """(reducer, base) pairs covering the school, Barrett, packed GF(2)
    and extension-field modes."""
    rng = random.Random(31)
    f4 = make_extension(make_prime_field(2), default_modulus(2, 2))
    for field, deg in ((make_prime_field(3), 4), (make_prime_field(5), 3),
                       (make_prime_field(3), 30), (make_prime_field(2), 5),
                       (f4, 3)):
        red = ModReducer(rand_poly(field, deg, rng).monic())
        yield red, red.reduce(rand_poly(field, deg + 3, rng))


def test_powmod_matches_plain_power():
    for red, a in _mod_reducers():
        q = red.field.order
        d = red.modulus.degree
        exps = (0, 1, 2, 3, q, q ** 2 if d > 8 else q ** d)
        for e in exps:
            assert red.powmod(a, e) == red.reduce(a ** e)


def test_powmod_product_count(monkeypatch):
    # left-to-right: one squaring and one product for e = 3
    from fqwilson import _gf2

    calls = []
    for cls, names in ((ModReducer, ("reduce",)),
                       (_gf2.Reducer, ("mulmod", "sqrmod"))):
        for name in names:
            orig = getattr(cls, name)

            def counted(self, *args, _orig=orig, _name=name):
                calls.append(_name)
                return _orig(self, *args)

            monkeypatch.setattr(cls, name, counted)
    for red, a in _mod_reducers():
        calls.clear()
        red.powmod(a, 3)
        if red.field.order == 2:
            assert calls == ["sqrmod", "mulmod"]
        else:
            assert calls == ["reduce"] * 3  # the initial reduction, then 2
        calls.clear()
        red.powmod(a, 625)  # 9 squarings and 4 products below the top bit
        products = len(calls) - (red.field.order != 2)
        assert products == 13
