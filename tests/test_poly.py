import itertools
import random
import sys
from array import array

import pytest

from fqwilson import _ext, _gf2, _gf3, _gfp, poly
from fqwilson.errors import DivisionByZero, FieldMismatch, NotDivisible
from fqwilson.gf import default_modulus, make_extension, make_prime_field, parse_field
from fqwilson._ext import _divrem_field
from fqwilson._gfp import (
    _divrem_prime,
    _kron_lane,
    _kron_mul,
    _kron_unpack,
    _school_mul_prime,
)
from fqwilson.poly import (
    Composition,
    ModReducer,
    Poly,
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
            for x in map(ext, range(4)):
                assert eval_poly(embed(prod, ext), x) == \
                    eval_poly(embed(a, ext), x) * eval_poly(embed(b, ext), x)


def test_mul_extension_coefficients():
    f4 = make_extension(make_prime_field(2), default_modulus(2, 2))
    rng = random.Random(11)
    for _ in range(10):
        a = rand_poly(f4, rng.randrange(5, 40), rng)
        b = rand_poly(f4, rng.randrange(5, 40), rng)
        prod = a * b
        for x in map(f4, range(4)):
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
    barrett = _gfp._BARRETT_MIN_DEG
    # F_3 degrees span the plane Barrett switch-over; F_2 runs the packed
    # reducer; F_5, F_7 and F_251 the Kronecker residues on both sides of
    # _BARRETT_MIN_DEG; F_257 the Poly residues
    cases = [(3, 4), (3, 40), (3, 120), (2, 5), (257, 6), (257, barrett + 2)]
    cases += [(p, d) for p in (5, 7, 251) for d in (3, barrett - 1, barrett + 5)]
    modes = set()
    for p, mod_deg in cases:
        field = make_prime_field(p)
        m = rand_poly(field, mod_deg, rng).monic()
        red = ModReducer(m)
        modes.add((p, type(red._ring), getattr(red._ring, "_barrett", None)))
        for _ in range(6):
            a = rand_poly(field, mod_deg + rng.randrange(0, 30), rng)
            b = rand_poly(field, mod_deg + rng.randrange(0, 30), rng)
            assert red.reduce(a) == a % m
            product = red.mul(red.enter(red.reduce(a)), red.enter(red.reduce(b)))
            assert red.leave(product) == (a * b) % m
            # residues are canonical: equal exactly for congruent inputs
            for c in (a + b * m, a + rand_poly(field, 0, rng), b):
                assert (red.enter(a) == red.enter(c)) == ((a - c) % m).is_zero
        base = red.reduce(rand_poly(field, mod_deg - 1, rng))
        e = rng.randrange(2, 200)
        naive = Poly.one(field)
        for _ in range(e):
            naive = (naive * base) % m
        assert red.powmod(base, e) == naive
        assert red.powmod(base, 0) == Poly.one(field)
    kron, school = _gfp._KronRing, _ext._SchoolRing
    assert {(5, kron, False), (5, kron, True), (7, kron, False),
            (7, kron, True), (251, kron, False), (251, kron, True),
            (257, school, None)} <= modes


def test_kron_unpack_matches_percent_per_lane():
    # _kron_unpack reduces one-byte lanes by bytes.translate and wider
    # lanes by % per lane; both against % on every lane, at random and
    # at full lanes
    rng = random.Random(5)
    lanes_by_width = sorted({array(tc).itemsize: tc for tc in "QLIHB"}.items())
    for p in (2, 3, 5, 7, 37, 61, 67, 101, 251):
        for width, tc in lanes_by_width:
            top = (1 << 8 * width) - 1
            for values in ([rng.randrange(top + 1) for _ in range(40)],
                           [top] * 9, [rng.randrange(256) for _ in range(17)]):
                wide = sum(v << 8 * width * i for i, v in enumerate(values))
                got = _kron_unpack(wide, len(values), (width, tc), p)
                assert got == bytes([v % p for v in values])


# (p, modulus degree) at the lane edges of the Kronecker residues: the
# fold's lanes step from one to two bytes between F_5 degrees 15 and
# 16; F_7 and F_61 run two- and four-byte lanes from the smallest
# degrees (a lane also holds p + 1 products); F_251 at 23 and just below
# the Barrett cutover are the widest folds of four-byte lanes; F_37
# steps from two to four bytes between degrees 50 and 51, on the
# Barrett route
_KRON_EDGES = sorted({
    (5, lane_edge(1, 5)), (5, lane_edge(1, 5) + 1), (7, 8), (61, 5),
    (251, 23), (251, _gfp._BARRETT_MIN_DEG - 1),
    (37, lane_edge(2, 37)), (37, lane_edge(2, 37) + 1)})


@pytest.mark.parametrize("p,n", _KRON_EDGES)
def test_kron_residues_match_divrem_property(p, n):
    # mul, sub, pow, frobenius and Composition on the packed residues
    # against Poly arithmetic reduced by long division (_divrem_prime)
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    field = make_prime_field(p)
    codes = _codes(st, p, 2 * n + 2)  # up to past a product's length

    @hyp.settings(max_examples=30, deadline=None)
    @hyp.given(st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
               codes, codes, codes, st.integers(0, 9), st.integers(0, 2))
    def check(m, a, b, T, e, k):
        m = Poly(field, tuple(m) + (1,))
        a, b, T = Poly(field, a), Poly(field, b), Poly(field, T)

        def mod(f):
            return divrem(f, m)[1]

        red = ModReducer(m)
        assert type(red._ring) is _gfp._KronRing
        assert red._ring.lane == _gfp._kron_lane(max(n, p + 1), p)
        r, s = red.enter(a), red.enter(b)
        assert red.leave(r) == mod(a)
        assert red.leave(red.mul(r, s)) == mod(a * b)
        assert red.leave(red.sub(r, s)) == mod(a - b)
        for exp in (e, p):
            want = mod(Poly.one(field))
            for _ in range(exp):
                want = mod(want * a)
            assert red.leave(red.pow(r, exp)) == want
        want = mod(a)
        for _ in range(k):  # x^p = x(t^p): spread, then divide
            want = mod(q_power_expand(want, 1))
        assert red.leave(red.frobenius(r, k)) == want
        x = mod(a)
        want = Poly.zero(field)
        for c in reversed(x.codes):
            want = mod(want * T + Poly(field, (c,)))
        assert red.leave(Composition(red, red.enter(T))(red.enter(x))) == want

    check()


def _mod2_oracle(a, m):
    """a mod m over F_2 by tuple-form long division, independent of the
    packed kernels."""
    return a if len(a) < len(m) else _divrem_prime(a, m, 2)[1]


@pytest.mark.parametrize("mod_deg", (1, 5, 64, 700, 2100))
def test_gf2_mod_reducer_matches_tuple_oracle(mod_deg):
    # degrees 1 and 5 reduce by mod_, the others by the byte table;
    # at 700 and 2100, products take the lane route
    rng = random.Random(mod_deg)
    field = make_prime_field(2)
    m = rand_poly(field, mod_deg, rng).monic()
    red = ModReducer(m)

    def oracle(codes):
        return Poly(field, _mod2_oracle(codes, m.codes))

    for _ in range(3):
        a = rand_poly(field, rng.randrange(0, 2 * mod_deg + 2), rng)
        b = rand_poly(field, mod_deg - 1, rng)
        assert red.reduce(a) == oracle(a.codes)
        assert red.leave(red.mul(red.enter(red.reduce(a)), red.enter(b))) == oracle(
            _school_mul_prime(red.reduce(a).codes, b.codes, 2))
    base = red.reduce(rand_poly(field, mod_deg + 3, rng))
    naive = oracle((1,))
    for e in range(1, 14):
        naive = oracle(_school_mul_prime(naive.codes, base.codes, 2))
        if e in (1, 2, 3, 6, 13):
            assert red.powmod(base, e) == naive


def test_gf2_mod_matches_divmod_and_tuple_oracle():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=100, deadline=None)
    @hyp.given(_codes(st, 2, 200), _codes(st, 2, 80).map(lambda c: c + (1,)))
    def check(a, f):
        pa, pf = _gf2.pack(a), _gf2.pack(f)
        assert _gf2.mod_(pa, pf) == _gf2.divmod_(pa, pf)[1] == _gf2.pack(
            _mod2_oracle(a, f))

    check()


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
    for p in ODD_PRIMES + (2,):
        field = make_prime_field(p)
        for _ in range(40):
            a = rand_codes(p, rng.randrange(0, 40), rng)
            b = rand_codes(p, rng.randrange(0, 40), rng)
            check_addsub_oracle(field, a, b)
        check_addsub_oracle(field, (1, p - 1), (p - 1, 1))  # cancels to zero


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


@pytest.mark.parametrize("p", (2,) + ODD_PRIMES)
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
    """(reducer, base) pairs covering the Kronecker residues over F_5
    and F_7 (fold and Barrett), the packed GF(2) and F_3 modes (F_3 on
    both sides of the plane Barrett cutover) and the extension-field
    mode."""
    rng = random.Random(31)
    f4 = make_extension(make_prime_field(2), default_modulus(2, 2))
    f2, f3, f5, f7 = (make_prime_field(p) for p in (2, 3, 5, 7))
    barrett = _gfp._BARRETT_MIN_DEG
    for field, deg in ((f3, 4), (f5, 3), (f3, _gf3._BARRETT_MIN_DEG + 2),
                       (f5, barrett + 6), (f7, barrett + 2), (f2, 5), (f4, 3)):
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
    # left-to-right: one squaring and one product for e = 3; the packed
    # kernels count their own products, the school ring its reductions
    calls = []
    for owner, name in ((_ext._SchoolRing, "__call__"), (_gf2, "sqr"), (_gf2, "mul"),
                        (_gf3.Reducer, "sqr"), (_gf3.Reducer, "mul"),
                        (_gfp._KronRing, "sqr"), (_gfp._KronRing, "mul")):
        orig = getattr(owner, name)

        def counted(*args, _orig=orig, _name=name):
            calls.append(_name)
            return _orig(*args)

        monkeypatch.setattr(owner, name, counted)
    modes = set()
    for red, a in _mod_reducers():
        ring = type(red._ring)
        packed = ring is not _ext._SchoolRing
        modes.add((red.field.order, ring))
        calls.clear()
        red.powmod(a, 3)
        if packed:
            assert calls == ["sqr", "mul"]
        else:
            assert calls == ["__call__"] * 3  # on entry, then 2
        calls.clear()
        red.powmod(a, 625)  # 9 squarings and 4 products below the top bit
        if packed:
            assert calls.count("sqr") == 9 and calls.count("mul") == 4
        products = len(calls) - (not packed)
        assert products == 13
    assert {(2, _gf2.TableReducer), (3, _gf3.Reducer), (5, _gfp._KronRing),
            (7, _gfp._KronRing), (4, _ext._SchoolRing)} <= modes


# moduli degrees on both sides of the GF(2) table and the F_3 Barrett
# cutovers, and the Poly-mode fields (F_5 prime, F_4 and F_9 extensions)
_FROBENIUS_CASES = {
    "2-mod": ("2", _gf2._TABLE_MIN_DEG - 6),
    "2-table": ("2", _gf2._TABLE_MIN_DEG + 3),
    "3-mod": ("3", _gf3._BARRETT_MIN_DEG - 4),
    "3-barrett": ("3", _gf3._BARRETT_MIN_DEG + 3),
    "5": ("5", 7),
    "5-barrett": ("5", _gfp._BARRETT_MIN_DEG + 4),
    "5-linear": ("5", 1),
    "7": ("7", 6),
    "4": ("4", 6),
    "9": ("9", 4),
    "25": ("25", 7),  # q > deg m: rows by the product by t^q, not q steps
}


@pytest.mark.parametrize("case", sorted(_FROBENIUS_CASES))
def test_frobenius_matches_powmod_property(case):
    # frobenius(r, k) = r^(q^k) three ways: the residue-form steps, one
    # square-and-multiply powmod, and spreading t -> t^(q^k) (each
    # coefficient is fixed by x -> x^q) followed by long division; the
    # same draws check the residue-form mul and sub
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    descriptor, n = _FROBENIUS_CASES[case]
    field = parse_field(descriptor)
    q = field.order
    codes = st.lists(st.integers(0, q - 1), max_size=n + 4).map(tuple)

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
               codes, codes, st.integers(0, 3 if q <= 5 else 2))
    def check(m, a, b, k):
        m = Poly(field, tuple(m) + (1,))
        a, b = Poly(field, a), Poly(field, b)
        red = ModReducer(m)
        r, s = red.enter(a), red.enter(b)
        got = red.leave(red.frobenius(r, k))
        assert got == red.powmod(a, q ** k)
        assert got == q_power_expand(a, k) % m
        if red._frob is not None:  # the same steps by the whole table
            red._frob.grow(m.degree)
            assert len(red._frob.rows) == m.degree
            assert red.leave(red.frobenius(r, k)) == got
        assert red.leave(red.mul(r, s)) == (a * b) % m
        assert red.leave(red.sub(r, s)) == (a - b) % m
        assert red.leave(r) == a % m

    check()


@pytest.mark.parametrize("descriptor,n", [
    ("5", 40), ("7", 9), ("9", 12), ("25", 5),
    ("5", _gfp._BARRETT_MIN_DEG + 2)])
def test_frobenius_chain_builds_rows_as_it_pays(descriptor, n, monkeypatch):
    # a chain pays its rent first: the reducer's first frobenius_rent
    # steps make one pow(x, q) each and no row table; every later step
    # composes by the rows of t^q, drawn as needed up to n, and makes no
    # pow; the rent is ceil(sqrt(n/2)) on Kronecker residues, else 1
    field = parse_field(descriptor)
    q = field.order
    rng = random.Random(n)
    m = Poly(field, [rng.randrange(q) for _ in range(n)] + [1])
    a = Poly(field, [rng.randrange(q) for _ in range(n)])
    red = ModReducer(m)
    rent = red._ring.frobenius_rent
    kron = isinstance(red._ring, _gfp._KronRing)
    assert rent == (next(s for s in range(n + 1) if 2 * s * s >= n) if kron else 1)
    pows = []
    real_pow = ModReducer.pow
    monkeypatch.setattr(ModReducer, "pow",
                        lambda self, r, e: pows.append(e) or real_pow(self, r, e))
    x = red.enter(a)
    for i in range(1, n + 2):
        pows.clear()
        x = red.frobenius(x)
        paying = i <= rent
        assert pows == ([q] if paying else [])
        assert (red._frob is None) == paying
        assert paying or len(red._frob.rows) <= n
        assert red.leave(x) == red.powmod(a, q ** i)


@pytest.mark.parametrize("descriptor,n", [
    ("2", 9), ("2", _gf2._TABLE_MIN_DEG + 2), ("3", 8),
    ("3", _gf3._BARRETT_MIN_DEG + 2), ("5", 6), ("7", 26),
    ("7", _gfp._BARRETT_MIN_DEG + 2), ("4", 5), ("9", 4), ("257", 3)])
def test_composition_matches_horner(descriptor, n):
    # r(T) mod m by the row table, growing its rows on demand, against
    # Horner's rule with a reduction after each product; r is taken
    # reduced, since for a T with m(T) != 0 mod m the map is one on
    # the codes of residues, not on F_q[t]/(m)
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    field = parse_field(descriptor)
    q = field.order
    codes = st.lists(st.integers(0, q - 1), max_size=n + 3).map(tuple)

    @hyp.settings(max_examples=30, deadline=None)
    @hyp.given(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
               codes, st.lists(codes, min_size=1, max_size=4))
    def check(m, T, rs):
        m = Poly(field, tuple(m) + (1,))
        T = Poly(field, T)
        red = ModReducer(m)
        compose = Composition(red, red.enter(T))
        for r in rs:
            r = red.reduce(Poly(field, r))
            want = Poly.zero(field)
            for c in reversed(r.codes):
                want = red.reduce(want * T + Poly(field, (c,)))
            assert red.leave(compose(red.enter(r))) == want

    check()


# -- GF(2) bytes-level boundary, lanes and table reducer --------------


def _pack2_bit_loop(codes):
    acc = 0
    for i, c in enumerate(codes):
        if c:
            acc |= 1 << i
    return acc


def _unpack2_bit_loop(packed):
    if not packed:
        return ()
    return tuple(1 if packed >> i & 1 else 0 for i in range(packed.bit_length()))


def _shift_xor_mul(a, b):
    acc = 0
    while a:
        low = a & -a
        acc ^= b * low
        a ^= low
    return acc


def test_pack2_unpack2_match_bit_loops():
    # base-2 text is exempt from the int/str digit limit, which stays at
    # its default here: a decimal string of 4,301 digits is refused
    assert sys.get_int_max_str_digits() == 4300
    with pytest.raises(ValueError):
        int("1" * 4301)
    field = make_prime_field(2)
    rng = random.Random(41)
    for n in (0, 1, 7, 8, 9, 2047, 2048, 2049, 4300, 4301, 4302, 9000, 20000):
        for codes in (tuple(rng.randrange(2) for _ in range(n)), (1,) * n, (0,) * n):
            packed = _gf2.pack(codes)
            assert packed == _pack2_bit_loop(codes) == _gf2.pack(list(codes))
            assert _gf2.unpack(packed) == _unpack2_bit_loop(packed)
            assert Poly(field, _gf2.unpack(packed)) == Poly(field, codes)


def test_gf2_ring_ops_match_tuple_oracle_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    field = make_prime_field(2)
    # lengths up to 600 send products past the lane cutover
    divisor = _codes(st, 2, 300).map(lambda c: c + (1,))

    @hyp.settings(max_examples=80, deadline=None)
    @hyp.given(_codes(st, 2, 600), _codes(st, 2, 600), divisor)
    def check(a, b, d):
        pa, pb, pd = Poly(field, a), Poly(field, b), Poly(field, d)
        check_addsub_oracle(field, a, b)
        assert -pa is pa
        prod = _school_mul_prime(a, b, 2) if a and b else ()
        assert pa * pb == Poly(field, prod)
        q, r = divmod(pa, pd)
        if len(a) >= len(d):
            oq, orem = _divrem_prime(a, d, 2)
            assert (q, r) == (Poly(field, oq), Poly(field, orem))
        else:
            assert (q, r) == (Poly.zero(field), pa)
        x, y = a, d
        while Poly(field, y):
            x, y = y, _mod2_oracle(x, Poly(field, y).codes)
        assert gcd(pa, pd) == Poly(field, x)

    check()


# extension fields of each kind: char 2, odd char, order above the
# table cap, and a height-2 tower
EXTENSION_FIELDS = ("4", "9", "625", "4:t^2+t+1/t^2+t+2")


def ext_polys(st, field, max_size, nonzero=False):
    codes = st.lists(st.integers(0, field.order - 1), max_size=max_size)
    if nonzero:
        codes = st.tuples(codes, st.integers(1, field.order - 1)).map(
            lambda pair: pair[0] + [pair[1]])
    return codes.map(lambda c: Poly(field, c))


@pytest.mark.parametrize("descriptor", EXTENSION_FIELDS)
def test_extension_ring_divrem_gcd_property(descriptor):
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    field = parse_field(descriptor)
    zero, one = Poly.zero(field), Poly.one(field)

    @hyp.settings(max_examples=100, deadline=None)
    @hyp.given(ext_polys(st, field, 12), ext_polys(st, field, 12),
               ext_polys(st, field, 8, nonzero=True))
    def check(a, b, d):
        assert a + b == b + a and a * b == b * a
        assert (a + b) + d == a + (b + d) and (a * b) * d == a * (b * d)
        assert a * (b + d) == a * b + a * d
        assert a + zero == a and a * one == a and a + (-a) == zero
        assert a - b == a + (-b)
        q, r = divrem(a, d)
        assert q * d + r == a and (r.is_zero or r.degree < d.degree)
        g = gcd(a, d)
        assert g.is_monic and (a % g).is_zero and (d % g).is_zero

    check()


def test_gf2_sqr_matches_mul():
    rng = random.Random(43)
    cut = _gf2._MUL_LANE_CUTOVER
    for n in (0, 1, 7, 8, 9, cut - 1, cut, cut + 1, 2049, 16383):
        a = rng.getrandbits(n) | (1 << (n - 1) if n else 0)
        assert _gf2.sqr(a) == _gf2.mul(a, a) == _shift_xor_mul(a, a)
    codes = tuple(rng.randrange(2) for _ in range(300)) + (1,)
    square = _school_mul_prime(codes, codes, 2)
    assert _gf2.sqr(_gf2.pack(codes)) == _gf2.pack(square)


def _gf2_euclid(a, b):
    """gcd by Euclid over _gf2.mod_, the oracle of gcd's inline loop."""
    while b:
        a, b = b, _gf2.mod_(a, b)
    return a


def test_gf2_gcd_matches_euclid_over_mod_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    # 0 is the zero polynomial; 600 bits crosses the lane cutover
    packed = st.integers(0, (1 << 600) - 1)

    @hyp.settings(max_examples=100, deadline=None)
    @hyp.given(packed, packed, st.integers(1, (1 << 40) - 1))
    def check(a, b, h):
        assert _gf2.gcd(a, b) == _gf2_euclid(a, b)
        assert _gf2.gcd(a, 0) == _gf2.gcd(0, a) == a
        # a common factor h divides the gcd
        ah, bh = _gf2.mul(a, h), _gf2.mul(b, h)
        g = _gf2.gcd(ah, bh)
        assert g == _gf2_euclid(ah, bh)
        assert _gf2.mod_(g, h) == 0

    check()
    assert _gf2.gcd(0, 0) == 0


def test_gf2_lane_mul_matches_shift_xor_at_edges():
    rng = random.Random(47)
    cut = _gf2._MUL_LANE_CUTOVER
    for la, lb in ((cut, cut), (cut + 1, cut + 1), (cut + 1, 5000),
                   (1, cut + 1)):
        a = rng.getrandbits(la - 1) | 1 << (la - 1)
        b = rng.getrandbits(lb - 1) | 1 << (lb - 1)
        assert _gf2._lane_mul(a, b) == _gf2.mul(a, b) == _shift_xor_mul(a, b)
    split = 1 << 16
    for n in (split - 1, split, split + 1):
        # a sparse operand keeps the shift-xor oracle cheap
        a = 1 << (n - 1) | sum(1 << rng.randrange(n) for _ in range(40))
        b = rng.getrandbits(n - 1) | 1 << (n - 1)
        assert _gf2._lane_mul(a, b) == _shift_xor_mul(a, b)
        # all-ones operands fill the widest lane with n terms, and
        # (1 + t + ... + t^(n-1))^2 = 1 + t^2 + ... + t^(2n-2)
        ones = (1 << n) - 1
        assert _gf2._lane_mul(ones, ones) == int("10" * (n - 1) + "1", 2)


@pytest.mark.parametrize("kind", ("dense", "trinomial"))
def test_gf2_table_reducer_matches_mod(kind, monkeypatch):
    rng = random.Random(53)
    lo = _gf2._TABLE_MIN_DEG
    mod = _gf2.mod_
    for n in (1, 2, lo - 1, lo, lo + 1, 16382):
        if kind == "trinomial" and n > 1:
            m = 1 << n | 1 << rng.randrange(1, n) | 1
        else:
            m = 1 << n | rng.getrandbits(n)
        dividends = [0, 1, m, m ^ 1, rng.getrandbits(n)]
        dividends += [rng.getrandbits(k) | 1 << (k - 1) for k in
                      (n + 1, n + 7, n + 8, n + 9, 2 * n - 1, 2 * n + 20)]
        dividends.append(_gf2.sqr(rng.getrandbits(n)))
        expected = [mod(x, m) for x in dividends]
        reduce = _gf2.TableReducer(m)
        assert (reduce.table is None) == (n < lo)
        if reduce.table is not None:
            assert all(t >> n == k and mod(t, m) == 0
                       for k, t in enumerate(reduce.table))
            # the table route makes no mod_ call once built
            monkeypatch.setattr(_gf2, "mod_", None)
        assert [reduce(x) for x in dividends] == expected
        monkeypatch.setattr(_gf2, "mod_", mod)


@pytest.mark.parametrize("p", (5, 7))
def test_barrett_reduce_matches_long_division_property(p):
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    field = make_prime_field(p)
    lo = _gfp._BARRETT_MIN_DEG
    modulus = st.integers(lo, lo + 40).flatmap(
        lambda n: st.lists(st.integers(0, p - 1), min_size=n, max_size=n)).map(
        lambda c: tuple(c) + (1,))

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(modulus, _codes(st, p, 200))
    def check(m, a):
        red = ModReducer(Poly(field, m))
        assert type(red._ring) is _gfp._KronRing and red._ring._barrett
        expected = _divrem_prime(a, m, p)[1] if len(a) >= len(m) else a
        assert red.reduce(Poly(field, a)) == Poly(field, expected)

    check()


# -- bit-sliced F_3 kernels against the tuple oracles -------------------


def _f3_codes(st, min_size=0, max_size=140):
    """F_3 code tuples with zero, constants and either leading code."""
    return st.lists(st.integers(0, 2), min_size=min_size,
                    max_size=max_size).map(tuple)


def _f3_nonzero(st, max_size=140):
    return st.tuples(_f3_codes(st, max_size=max_size), st.integers(1, 2)).map(
        lambda pair: pair[0] + (pair[1],))


def _neg3(a):
    """-a on F_3 plane pairs: negation swaps the planes."""
    return a[1], a[0]


def _strip(codes):
    return Poly(make_prime_field(3), codes).codes


def _f3_euclid(a, b):
    """Monic gcd by tuple-form long division."""
    while _strip(b):
        b = _strip(b)
        a, b = b, (_divrem_prime(a, b, 3)[1] if len(a) >= len(b) else a)
    a = _strip(a)
    return tuple(2 * c % 3 for c in a) if a and a[-1] == 2 else a


def test_gf3_pack_add_sub_neg_match_tuple_oracle_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    field = make_prime_field(3)

    @hyp.settings(max_examples=100, deadline=None)
    @hyp.given(_f3_codes(st), _f3_codes(st))
    def check(a, b):
        pa, pb = _gf3.pack(a), _gf3.pack(b)
        assert pa[0] & pa[1] == 0
        assert _gf3.unpack(pa) == _strip(a)
        assert _gf3.pack(list(a)) == pa
        assert _gf3.deg(pa) == len(_strip(a)) - 1
        for kernel, op in ((_gf3.add, Poly.__add__), (_gf3.sub, Poly.__sub__)):
            assert _gf3.unpack(kernel(pa, pb)) == op(Poly(field, a),
                                                     Poly(field, b)).codes
        assert _gf3.unpack(_neg3(pa)) == (-Poly(field, a)).codes

    check()


@pytest.mark.parametrize("split", (None, 40))
def test_gf3_mul_matches_schoolbook_property(split, monkeypatch):
    # lengths up to 140 cross the 8-/16-bit lane switch at 64; with the
    # 16-bit edge lowered to 40 the longer operands take 32-bit lanes
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    if split is not None:
        monkeypatch.setattr(_gf3, "_LANE16_MAX_LEN", split)

    @hyp.settings(max_examples=100, deadline=None)
    @hyp.given(_f3_codes(st), _f3_codes(st))
    def check(a, b):
        expected = _strip(_school_mul_prime(a, b, 3)) if a and b else ()
        pa, pb = _gf3.pack(a), _gf3.pack(b)
        assert _gf3.unpack(_gf3.mul(pa, pb)) == expected
        assert _gf3.unpack(_gf3.mul(pa, pa)) == (
            _strip(_school_mul_prime(a, a, 3)) if a else ())
        f3 = make_prime_field(3)
        assert (Poly(f3, a) * Poly(f3, b)).codes == expected

    check()


def test_gf3_mul_full_lanes_closed_form():
    # all-2 operands put the largest sum, 4 per overlapping pair, in the
    # middle lanes; 4 = 1 mod 3, so coefficient k is the overlap count.
    # Lengths straddle the 8-bit lane edge and the 32-bit one at 2^14.
    for m in (_gf3._LANE8_MAX_LEN - 1, _gf3._LANE8_MAX_LEN,
              _gf3._LANE16_MAX_LEN - 1, _gf3._LANE16_MAX_LEN,
              _gf3._LANE16_MAX_LEN + 1):
        n = m + 3
        a, b = _gf3.pack((2,) * m), _gf3.pack((2,) * n)
        expected = tuple((min(k, m - 1) - max(0, k - n + 1) + 1) % 3
                         for k in range(m + n - 1))
        assert _gf3.unpack(_gf3.mul(a, b)) == expected
        square = tuple((min(k, m - 1) - max(0, k - m + 1) + 1) % 3
                       for k in range(2 * m - 1))
        assert _gf3.unpack(_gf3.mul(a, a)) == square


def test_gf3_divmod_and_gcd_match_tuple_oracles_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=100, deadline=None)
    @hyp.given(_f3_codes(st, max_size=200), _f3_nonzero(st, max_size=80),
               _f3_codes(st, max_size=30))
    def check(a, b, h):
        pa, pb = _gf3.pack(a), _gf3.pack(b)
        q, r = _gf3.divmod_(pa, pb)
        if len(_strip(a)) >= len(b):
            oq, orem = _divrem_prime(a, b, 3)
            assert (_gf3.unpack(q), _gf3.unpack(r)) == (_strip(oq), _strip(orem))
        else:
            assert (q, r) == (_gf3.ZERO, pa)
        assert _gf3.mod_(pa, pb) == r
        assert _gf3.unpack(_gf3.gcd(pa, pb)) == _f3_euclid(a, b)
        # a common factor h makes the gcd nontrivial
        ah = _school_mul_prime(a, h, 3) if a and h else ()
        bh = _school_mul_prime(b, h, 3) if h else ()
        assert _gf3.unpack(_gf3.gcd(_gf3.pack(ah), _gf3.pack(bh))) == \
            _f3_euclid(ah, bh)

    check()
    assert _gf3.gcd(_gf3.ZERO, _gf3.ZERO) == _gf3.ZERO
    with pytest.raises(ZeroDivisionError):
        _gf3.divmod_(_gf3.pack((1, 2)), _gf3.ZERO)


def _gf3_euclid(a, b):
    """Monic gcd by Euclid over _gf3.mod_, the oracle of gcd's inline
    loop."""
    while b[0] or b[1]:
        a, b = b, _gf3.mod_(a, b)
    return _neg3(a) if a[1].bit_length() > a[0].bit_length() else a


def test_gf3_gcd_matches_euclid_over_mod_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=100, deadline=None)
    @hyp.given(_f3_codes(st, max_size=200), _f3_codes(st, max_size=120),
               _f3_nonzero(st, max_size=30), st.booleans(), st.booleans())
    def check(a, b, h, neg_a, neg_b):
        pa, pb, ph = _gf3.pack(a), _gf3.pack(b), _gf3.pack(h)
        # negating flips the leading coefficient between 1 and 2
        pa = _neg3(pa) if neg_a else pa
        pb = _neg3(pb) if neg_b else pb
        assert _gf3.gcd(pa, pb) == _gf3_euclid(pa, pb)
        assert _gf3.gcd(pa, _gf3.ZERO) == _gf3.gcd(_gf3.ZERO, pa) == \
            _gf3_euclid(pa, _gf3.ZERO)
        # a common factor h divides the gcd
        ah, bh = _gf3.mul(pa, ph), _gf3.mul(pb, ph)
        g = _gf3.gcd(ah, bh)
        assert g == _gf3_euclid(ah, bh)
        assert _gf3.mod_(g, ph) == _gf3.ZERO

    check()
    assert _gf3.gcd(_gf3.ZERO, _gf3.ZERO) == _gf3.ZERO
    two = _gf3.pack((0, 0, 2))  # 2t^2, leading coefficient 2
    assert _gf3.gcd(two, _gf3.ZERO) == _gf3.gcd(_gf3.ZERO, two) == _gf3.pack((0, 0, 1))


def test_gf3_reducer_matches_divrem_property():
    # moduli on both sides of the Barrett cutover; dividends up to three
    # times the modulus degree reach the top-down folding loop
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    lo = _gf3._BARRETT_MIN_DEG
    field = make_prime_field(3)
    modulus = st.integers(1, lo + 20).flatmap(
        lambda n: _f3_codes(st, n, n)).map(lambda c: c + (1,))

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(modulus, st.integers(0, 3), _f3_codes(st, max_size=40))
    def check(m, times, tail):
        a = tail + (2,) * (times * (len(m) - 1))
        reduce = _gf3.Reducer(_gf3.pack(m))
        assert (reduce.mu is None) == (len(m) - 1 < lo)
        expected = divrem(Poly(field, a), Poly(field, m))[1]
        assert _gf3.unpack(reduce(_gf3.pack(a))) == expected.codes
        assert expected == Poly(field, _divrem_prime(a, m, 3)[1]
                                if len(_strip(a)) >= len(m) else a)

    check()


def test_gf3_reducer_frobenius_matches_spread_and_cube_property():
    # x^3 by the row table against spreading x(t^3) and dividing, and
    # against a product with the square; moduli cross the Barrett
    # cutover and include a constant
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    lo = _gf3._BARRETT_MIN_DEG
    modulus = st.integers(0, lo + 20).flatmap(
        lambda n: _f3_codes(st, n, n)).map(lambda c: c + (1,))

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(modulus, _f3_codes(st, max_size=lo + 24))
    def check(m, a):
        m = _gf3.pack(m)
        reduce = _gf3.Reducer(m)
        x = reduce(_gf3.pack(a))
        spread = tuple(int("00".join(format(plane, "b")), 2) for plane in x)
        cube = reduce.frobenius(x)
        assert cube == _gf3.mod_(spread, m)
        assert cube == reduce(_gf3.mul(x, _gf3.mul(x, x)))
        assert reduce.frobenius(cube) == reduce(_gf3.mul(cube, _gf3.mul(cube, cube)))

    check()


def _t_power(j):
    return 1 << j, 0


@pytest.mark.parametrize("fold_everywhere", (False, True),
                         ids=("as-built", "fold"))
@pytest.mark.parametrize("n", range(0, _gf3._BARRETT_MIN_DEG + 21))
def test_gf3_reducer_rows_fold_and_frobenius_match_mod(n, fold_everywhere,
                                                       monkeypatch):
    # every modulus degree 0.._BARRETT_MIN_DEG + 20, the reducer as built
    # (the fold below the cutover, Barrett from it) or forced onto the
    # fold: the rows are t^j mod m, n <= j <= 3n - 3; dividends up to
    # t^(3n-3) fold and longer ones fall back to mod_; x^3 by every
    # third row matches spreading x(t^3) and dividing, with the table
    # built first by a reduction or by frobenius itself
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    if fold_everywhere:
        monkeypatch.setattr(_gf3, "_BARRETT_MIN_DEG", n + 1)

    def sized(lo, hi):  # lengths spread evenly over [lo, hi]
        return st.integers(max(0, lo), max(0, hi)).flatmap(
            lambda k: _f3_codes(st, k, k))

    @hyp.settings(max_examples=15, deadline=None)
    @hyp.given(sized(n, n), sized(0, 3 * n - 2), sized(3 * n - 1, 5 * n + 3),
               sized(n, n), st.booleans())
    def check(low, a, longer, x, reduce_first):
        m = _gf3.pack(low + (1,))
        reduce = _gf3.Reducer(m)
        assert (reduce.mu is None) == (n < _gf3._BARRETT_MIN_DEG)
        x = _gf3.mod_(_gf3.pack(x), m)
        if reduce_first:
            for b in (a, longer, (0,) * max(0, 3 * n - 3) + (1,)):
                b = _gf3.pack(b)
                assert reduce(b) == _gf3.mod_(b, m)
        spread = _gf3._spread(x[0]), _gf3._spread(x[1])
        assert reduce.frobenius(x) == _gf3.mod_(spread, m)
        assert reduce.rows == [_gf3.mod_(_t_power(j), m)
                               for j in range(n, 3 * n - 2)]

    check()


def test_gf3_mul_shift_add_and_lanes_match_schoolbook_property():
    # balanced and unbalanced shapes whose shorter operand sits on
    # either side of _SHIFT_ADD_MAX_LEN; each product also by the lanes
    # alone (cutover 0) and by shift-add alone (cutover above both)
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    cut = _gf3._SHIFT_ADD_MAX_LEN
    length = st.sampled_from((1, 2, cut - 1, cut, cut + 1, cut + 2, 2 * cut))

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(st.data(), length, st.integers(0, 3 * cut))
    def check(data, short, extra):
        a = data.draw(_f3_codes(st, short - 1, short - 1)) + (data.draw(st.integers(1, 2)),)
        b = data.draw(_f3_codes(st, short + extra, short + extra))
        expected = _strip(_school_mul_prime(a, b, 3))
        pa, pb = _gf3.pack(a), _gf3.pack(b)
        for cutover in (cut, 0, 4 * cut):
            saved = _gf3._SHIFT_ADD_MAX_LEN
            _gf3._SHIFT_ADD_MAX_LEN = cutover
            try:
                assert _gf3.unpack(_gf3.mul(pa, pb)) == expected
                assert _gf3.unpack(_gf3.mul(pb, pa)) == expected
                assert _gf3.unpack(_gf3.mul(pa, pa)) == _strip(_school_mul_prime(a, a, 3))
            finally:
                _gf3._SHIFT_ADD_MAX_LEN = saved
        assert _gf3.mul(pa, _gf3.ZERO) == _gf3.mul(_gf3.ZERO, pb) == _gf3.ZERO

    check()


@pytest.mark.parametrize("lane8,lane16,width",
                         ((1 << 14, 1 << 15, 1), (8, 1 << 14, 2), (4, 8, 4)))
def test_gf3_barrett_lanes_match_mod_property(lane8, lane16, width,
                                              monkeypatch):
    # the Barrett reducer's lanes of mu and m - t^n at one-, two- and
    # four-byte lanes (the edges moved so that every modulus in range
    # takes the given width): dividends n + 1, n + 5 and 2n coefficients
    # long put 1, 5 and n coefficients above t^n; and a modulus m = t^n,
    # whose m - t^n has no lanes
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    monkeypatch.setattr(_gf3, "_LANE8_MAX_LEN", lane8)
    monkeypatch.setattr(_gf3, "_LANE16_MAX_LEN", lane16)
    lo = _gf3._BARRETT_MIN_DEG
    modulus = st.integers(lo, lo + 40).flatmap(
        lambda n: _f3_codes(st, n, n)).map(lambda c: c + (1,))
    dividend = st.integers(0, 4 * lo + 160).flatmap(lambda k: _f3_codes(st, k, k))

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(modulus, dividend)
    def check(m, a):
        n = len(m) - 1
        m = _gf3.pack(m)
        reduce = _gf3.Reducer(m)
        assert reduce.width == width
        for b in (a, (2,) * (n + 1), (1,) * (n + 5), (2, 1) * n):
            assert reduce(_gf3.pack(b)) == _gf3.mod_(_gf3.pack(b), m)
        plain = _gf3.Reducer((1 << n, 0))
        assert plain(_gf3.pack(a)) == _gf3.mod_(_gf3.pack(a), (1 << n, 0))

    check()


@pytest.mark.parametrize("p", (3, 5, 7, 251))
def test_poly_mul_unbalanced_shapes_match_schoolbook(p):
    # 1 x k and 4 x k products on both sides of the Kronecker cutover
    # (one-byte lanes at p <= 7 for these shapes, wider at 251)
    rng = random.Random(p)
    field = make_prime_field(p)
    for short in (1, 2, 4, 6):
        for long in (1, 2, 3, 4, 5, 7, 8, 15, 16, 33, 64):
            a, b = (rand_codes(p, k - 1, rng) + (rng.randrange(1, p),)
                    for k in (short, long))
            want = Poly(field, _school_mul_prime(a, b, p))
            assert Poly(field, a) * Poly(field, b) == want
            assert Poly(field, b) * Poly(field, a) == want
