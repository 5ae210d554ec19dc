import itertools
import random

import pytest

from fqwilson import factor
from fqwilson.errors import FqwilsonError
from fqwilson.factor import (
    distinct_degree_split,
    equal_degree_split,
    factorize,
    pth_root_poly,
    squarefree_decomposition,
    trial_division,
)
from fqwilson.gf import make_prime_field, parse_field
from fqwilson.irr import is_irreducible, iter_monic_irreducibles
from fqwilson.poly import Poly, divrem, gcd, parse_poly


def monics(field, degree):
    for codes in itertools.product(range(field.order), repeat=degree):
        yield Poly(field, list(codes) + [1])


def oracle_factor(f, primes_by_degree):
    """Greedy division by enumerated primes in canonical order:
    (sorted (prime text, mult) pairs, monic leftover)."""
    out = []
    cur = f.monic()
    for d in sorted(primes_by_degree):
        for prime in primes_by_degree[d]:
            mult = 0
            while True:
                q, r = divrem(cur, prime)
                if not r.is_zero:
                    break
                cur, mult = q, mult + 1
            if mult:
                out.append((str(prime), mult))
    return sorted(out), cur


@pytest.mark.parametrize("p,dmax", [(2, 5), (3, 4)])
def test_factorize_matches_enumeration_oracle(p, dmax):
    field = make_prime_field(p)
    primes = {d: [ctx.prime for ctx in iter_monic_irreducibles(field, d)]
              for d in range(1, dmax + 1)}
    for d in range(1, dmax + 1):
        for f in monics(field, d):
            fac = factorize(f)
            got = sorted((str(b), m) for b, m in fac.factors)
            want, left = oracle_factor(f, primes)
            assert got == want and left.degree == 0, str(f)
            assert fac.value() == f
            assert fac.cofactor is None


def test_factorize_nonmonic_unit():
    field = make_prime_field(5)
    f = parse_poly("3*t^4+2*t+1", field)
    fac = factorize(f)
    assert fac.unit.code == 3
    assert fac.value() == f


def test_factorize_constant_and_zero():
    field = make_prime_field(3)
    fac = factorize(Poly.constant(field, 2))
    assert fac.factors == () and fac.unit.code == 2
    with pytest.raises(FqwilsonError):
        factorize(Poly.zero(field))


def test_factorize_seed_independent():
    field = make_prime_field(3)
    # a split-heavy input: many equal-degree factors
    f = Poly.one(field)
    for ctx in iter_monic_irreducibles(field, 3):
        f = f * ctx.prime
    results = [factorize(f, seed=s).to_json() for s in (0, 1, 2, 99)]
    assert all(r == results[0] for r in results)


def test_degrees_multiset():
    field = make_prime_field(2)
    a = parse_poly("t^2+t+1", field)
    b = parse_poly("t^3+t+1", field)
    fac = factorize(a * a * b)
    assert fac.degrees() == (2, 2, 3)


def test_squarefree_decomposition():
    field = make_prime_field(3)
    polys = [parse_poly(s, field) for s in ("t+1", "t^2+1", "t^3+2*t+1")]
    f = (polys[0] ** 2 * polys[1] * polys[2] ** 3).scale(field(2))
    unit, parts = squarefree_decomposition(f)
    assert unit == field(2)
    recon = Poly.one(field)
    for base, mult in parts:
        recon = recon * base ** mult
        assert gcd(base, base.derivative()).degree == 0  # squarefree
    assert recon == f.monic()


def test_pth_root_poly():
    field = make_prime_field(3)
    b = parse_poly("t^4+2*t^2+t+2", field)
    assert pth_root_poly(b ** 3) == b


def test_distinct_degree_split_blocks():
    field = make_prime_field(2)
    a = parse_poly("t^2+t+1", field)      # degree 2
    b = parse_poly("t^3+t+1", field)      # degree 3
    c = parse_poly("t^3+t^2+1", field)    # degree 3
    buckets, cofactor = distinct_degree_split(a * b * c)
    assert cofactor is None
    blocks = dict(buckets)
    assert blocks[2] == a
    assert blocks[3] == b * c

    # capping the scan leaves the high-degree part as an unsplit cofactor
    buckets, cofactor = distinct_degree_split(a * b * c, max_degree=2)
    assert dict(buckets) == {2: a}
    assert cofactor == b * c


def test_equal_degree_split():
    field = make_prime_field(3)
    cubics = [ctx.prime for ctx in iter_monic_irreducibles(field, 3)][:4]
    prod = Poly.one(field)
    for f in cubics:
        prod = prod * f
    got = sorted(str(f) for f in equal_degree_split(prod, 3))
    assert got == sorted(str(f) for f in cubics)


def test_trial_division_partial_contract():
    field = make_prime_field(2)
    a = parse_poly("t^2+t+1", field)
    b = parse_poly("t^3+t+1", field)
    quint = parse_poly("t^5+t^2+1", field)
    assert is_irreducible(quint)
    f = a ** 2 * b * quint
    fac = trial_division(f, 2)
    assert [(str(base), m) for base, m in fac.factors] == [(str(a), 2)]
    assert fac.cofactor == b * quint
    assert fac.cofactor_irreducible is False  # cheap check ran and said no
    assert fac.value() == f

    # bound high enough to finish completely
    full = trial_division(f, 5)
    assert full.cofactor is None
    assert full.degrees() == (2, 2, 3, 5)


def test_trial_division_degree_bound_implies_irreducible_cofactor():
    field = make_prime_field(2)
    b = parse_poly("t^3+t+1", field)
    quint = parse_poly("t^5+t^2+1", field)
    fac = trial_division(b * quint, 3)
    # remaining degree 5 <= 2*3+1, so the cofactor must be irreducible
    assert fac.cofactor == quint
    assert fac.cofactor_irreducible is True


def test_trial_division_unchecked_cofactor(monkeypatch):
    monkeypatch.setattr(factor, "_COFACTOR_CHECK_MAX_DEG", 10)
    field = make_prime_field(2)
    rng = random.Random(0)

    def random_prime(degree):
        while True:
            codes = [rng.randrange(2) for _ in range(degree)]
            codes[0] = 1
            cand = Poly(field, codes + [1])
            if is_irreducible(cand):
                return cand

    big = random_prime(40) * random_prime(41)
    small = parse_poly("t^2+t+1", field)
    fac = trial_division(small * big, 2)
    assert [(str(b), m) for b, m in fac.factors] == [(str(small), 1)]
    assert fac.cofactor_irreducible == "unchecked"
    assert fac.value() == small * big


@pytest.mark.parametrize("descriptor,max_deg", [("2", 10), ("3", 7), ("4", 6), ("9", 4)])
def test_trial_division_matches_greedy_oracle(descriptor, max_deg):
    """Every bound k from 0 to deg f, on non-squarefree inputs with a
    p-th-power or square part: the factors and multiplicities are the greedy
    division by enumerated primes of degree <= k, the cofactor is its
    leftover, and a True/False flag agrees with Rabin's test."""
    field = parse_field(descriptor)
    q, p = field.order, field.char
    primes = {d: [ctx.prime for ctx in iter_monic_irreducibles(field, d)]
              for d in range(1, max_deg + 1)}
    rng = random.Random(descriptor)

    def random_poly(degree):
        return Poly(field, [rng.randrange(q) for _ in range(degree)]
                    + [rng.randrange(1, q)])

    flags = set()
    for i in range(8):
        e = p if i % 2 else 2  # a p-th power, or a square when p > 2
        f = random_poly(rng.randint(1, max_deg // e)) ** e
        if f.degree < max_deg:
            # a prime that outlasts small bounds: of the largest degree
            # left in the first four cases, of a random one after that
            room = max_deg - f.degree
            f = f * rng.choice(primes[room if i < 4 else rng.randint(1, room)])
        while True:
            g = random_poly(rng.randint(1, 2)) ** rng.randint(1, 2)
            if f.degree + g.degree > max_deg:
                break
            f = f * g
        for k in range(f.degree + 1):
            fac = trial_division(f, k)
            want, left = oracle_factor(
                f, {d: primes[d] for d in range(1, k + 1)})
            assert sorted((str(b), m) for b, m in fac.factors) == want, (str(f), k)
            assert fac.value() == f
            if left.degree == 0:
                assert fac.cofactor is None
                continue
            assert fac.cofactor == left
            assert fac.cofactor_irreducible == is_irreducible(left), (str(f), k)
            flags.add(fac.cofactor_irreducible)
    assert flags == {True, False}  # both flag routes were exercised



@pytest.mark.parametrize("descriptor", ("4", "9", "625", "4:t^2+t+1/t^2+t+2"))
def test_factorize_value_property_over_extensions(descriptor):
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    field = parse_field(descriptor)
    nonzero = st.tuples(st.lists(st.integers(0, field.order - 1), max_size=9),
                        st.integers(1, field.order - 1))

    @hyp.settings(max_examples=50, deadline=None)
    @hyp.given(nonzero)
    def check(pair):
        f = Poly(field, pair[0] + [pair[1]])
        fac = factorize(f)
        assert fac.value() == f
        assert all(b.is_monic and is_irreducible(b) for b, _ in fac.factors)

    check()


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_factorize_matches_sympy(p):
    # an independent oracle: sympy's factorization over GF(p), whose
    # symmetric coefficients are mapped to codes in [0, p) and made monic
    sympy = pytest.importorskip("sympy")
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    field = make_prime_field(p)
    t = sympy.symbols("t")
    nonzero = st.tuples(st.lists(st.integers(0, p - 1), max_size=12),
                        st.integers(1, p - 1)).map(
        lambda pair: Poly(field, pair[0] + [pair[1]]))

    def monic_codes(coeffs):
        codes = [c % p for c in reversed(coeffs)]
        inv = pow(codes[-1], -1, p)
        return tuple(c * inv % p for c in codes)

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(nonzero, nonzero)
    def check(a, b):
        f = a * b * b  # repeated factors whenever b is not constant
        fac = factorize(f)
        unit, factors = sympy.Poly(f.codes[::-1], t, modulus=p).factor_list()
        want = sorted((monic_codes(g.all_coeffs()), m) for g, m in factors)
        assert sorted((base.codes, m) for base, m in fac.factors) == want
        for g, m in factors:
            unit = unit * g.all_coeffs()[0] ** m
        assert fac.unit.code == f.lead_code == int(unit) % p

    check()
