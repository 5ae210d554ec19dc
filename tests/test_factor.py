import itertools
import random

import pytest

from fqwilson.errors import FqwilsonError
from fqwilson.factor import (
    distinct_degree_split,
    equal_degree_split,
    factorize,
    pth_root_poly,
    squarefree_decomposition,
    trial_division,
)
from fqwilson.gf import make_prime_field
from fqwilson.irr import is_irreducible, iter_monic_irreducibles
from fqwilson.poly import Poly, divrem, gcd, parse_poly


def monics(field, degree):
    for codes in itertools.product(range(field.order), repeat=degree):
        yield Poly(field, list(codes) + [1])


def oracle_factor(f, primes_by_degree):
    """Greedy division by enumerated primes in canonical order."""
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
    assert cur.degree == 0
    return sorted(out)


@pytest.mark.parametrize("p,dmax", [(2, 5), (3, 4)])
def test_factorize_matches_enumeration_oracle(p, dmax):
    field = make_prime_field(p)
    primes = {d: [ctx.prime for ctx in iter_monic_irreducibles(field, d)]
              for d in range(1, dmax + 1)}
    for d in range(1, dmax + 1):
        for f in monics(field, d):
            fac = factorize(f)
            got = sorted((str(b), m) for b, m in fac.factors)
            assert got == oracle_factor(f, primes), str(f)
            assert fac.value() == f
            assert fac.is_complete


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
    assert full.is_complete
    assert full.degrees() == (2, 2, 3, 5)


def test_trial_division_degree_bound_implies_irreducible_cofactor():
    field = make_prime_field(2)
    b = parse_poly("t^3+t+1", field)
    quint = parse_poly("t^5+t^2+1", field)
    fac = trial_division(b * quint, 3)
    # remaining degree 5 <= 2*3+1, so the cofactor must be irreducible
    assert fac.cofactor == quint
    assert fac.cofactor_irreducible is True


def test_trial_division_unchecked_cofactor():
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
    fac = trial_division(small * big, 2, cofactor_check_max_degree=10)
    assert [(str(b), m) for b, m in fac.factors] == [(str(small), 1)]
    assert fac.cofactor_irreducible == "unchecked"
    assert fac.value() == small * big


def test_factorize_verify_flag_output_identical():
    field = make_prime_field(3)
    f = parse_poly("t^7+2*t^4+t+1", field)
    assert factorize(f, verify_irreducible=True).to_json() == \
        factorize(f, verify_irreducible=False).to_json()
