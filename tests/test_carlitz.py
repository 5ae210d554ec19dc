import itertools

import pytest

from fqwilson import _gf3
from fqwilson.carlitz import CarlitzCache, CarlitzChain
from fqwilson.errors import BoundExceeded, ZeroC
from fqwilson.gf import make_prime_field
from fqwilson.irr import iter_monic_irreducibles, monic_polys
from fqwilson.poly import ModReducer, Poly, divrem, exact_div, parse_poly

# fields small enough that every identity below is checked exactly
GRID = [(2, 6), (3, 4), (4, 3), (5, 2)]


def field_of(q):
    from fqwilson.gf import parse_field
    return parse_field(str(q))


def test_bracket_literal():
    for q, dmax in GRID:
        field = field_of(q)
        cache = CarlitzCache(field)
        for n in range(1, dmax + 1):
            assert cache.bracket(n) == \
                Poly.monomial(field, q ** n) - Poly.t(field)


def test_recurrences_and_degrees():
    for q, dmax in GRID:
        field = field_of(q)
        cache = CarlitzCache(field)
        assert cache.L(0) == Poly.one(field)
        assert cache.D(0) == Poly.one(field)
        for n in range(1, dmax + 1):
            assert cache.L(n) == cache.bracket(n) * cache.L(n - 1)
            assert cache.D(n) == cache.bracket(n) * cache.D(n - 1) ** q
            assert cache.L(n).degree == sum(q ** i for i in range(1, n + 1))
            assert cache.D(n).degree == n * q ** n


def test_d_is_product_of_monics():
    # D_n literally multiplies out all monic polynomials of degree n
    for q, nmax in ((2, 3), (3, 2)):
        field = field_of(q)
        cache = CarlitzCache(field)
        for n in range(1, nmax + 1):
            prod = Poly.one(field)
            for f in monic_polys(field, n):
                prod = prod * f
            assert prod == cache.D(n)


def test_f_matches_brute_product_on_grid():
    for q, dmax in GRID:
        field = field_of(q)
        cache = CarlitzCache(field)
        for d in range(1, dmax + 1):
            assert cache.F(d) == cache.F_brute(d), (q, d)


def test_f_closed_form():
    for q, dmax in GRID:
        field = field_of(q)
        cache = CarlitzCache(field)
        for d in range(1, dmax + 1):
            expected = exact_div(cache.D(d), cache.L(d))
            if d % 2:
                expected = -expected
            assert cache.F(d) == expected


def test_f_mod_matches_exact_reduction():
    for q, dmax in GRID:
        field = field_of(q)
        cache = CarlitzCache(field)
        for d in range(1, dmax + 1):
            for mtext in ("t^3+t+1", "t^2+1", "t^4+t^2+t+1"):
                m = parse_poly(mtext, field)
                assert CarlitzChain(ModReducer(m)).F(d) == divrem(cache.F(d), m)[1]


def test_f_is_minus_one_mod_every_prime():
    # the Wilson-quotient analogue of Wilson's theorem itself
    for q, dmax in ((2, 4), (3, 4), (5, 2)):
        field = field_of(q)
        cache = CarlitzCache(field)
        for d in range(1, dmax + 1):
            minus_one = -Poly.one(field)
            for ctx in iter_monic_irreducibles(field, d):
                assert CarlitzChain(ModReducer(ctx.prime)).F(d) == minus_one, \
                    str(ctx.prime)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_chain_matches_exact_reductions(q):
    field = field_of(q)
    cache = CarlitzCache(field)
    one = Poly.one(field)
    alt = [one]  # T_m = 1 - [m] T_(m-1), formed exactly
    for m in range(1, 5):
        alt.append(one - cache.bracket(m) * alt[-1])
    # exact F_4 over F_9 divides a degree-26244 D_4 by L_4 through
    # extension-field calls, too slow for this test
    f_max = 3 if q == 9 else 4
    moduli = [modulus
              for degree in (2, 3)
              for ctx in itertools.islice(iter_monic_irreducibles(field, degree), 2)
              for modulus in (ctx.prime, ctx.prime * ctx.prime)]
    if q == 3:
        # P^5 of a degree-7 prime, degree 35: the F_3 residues reduce by
        # Barrett on the planes and step by the Frobenius row table
        moduli.append(next(iter_monic_irreducibles(field, 7)).prime ** 5)
        assert moduli[-1].degree >= _gf3._BARRETT_MIN_DEG
    for modulus in moduli:
        chain = CarlitzChain(ModReducer(modulus))
        # the first request runs the chain out of index order:
        # F pulls D and the brackets, and L and T continue them
        chain.F(f_max)
        for m in range(5):
            where = (q, str(modulus), m)
            if m:
                assert chain.bracket(m) == \
                    divrem(cache.bracket(m), modulus)[1], where
            assert chain.L(m) == divrem(cache.L(m), modulus)[1], where
            assert chain.D(m) == divrem(cache.D(m), modulus)[1], where
            assert chain.T(m) == divrem(alt[m], modulus)[1], where
            if m <= f_max:
                assert chain.F(m) == divrem(cache.F(m), modulus)[1], where


def test_context_chain_matches_fresh_chain_and_exact_values():
    # ctx.chain(m) shares its reducer with ctx.frobenius(m); neither
    # the sharing nor the order of first use may change a value
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    fields = [field_of(q) for q in (2, 3, 5, 4)]
    caches = {field: CarlitzCache(field) for field in fields}

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(st.sampled_from(fields), st.integers(1, 3), st.integers(0, 99),
               st.integers(1, 3), st.integers(1, 3), st.booleans())
    def check(field, degree, pick, m, n, frobenius_first):
        primes = list(iter_monic_irreducibles(field, degree))
        ctx = primes[pick % len(primes)]
        if frobenius_first:
            ctx.frobenius(m)
        chain = ctx.chain(m)
        assert ctx.chain(m) is chain and ctx.frobenius(m)[0] is chain.red
        modulus = ctx.prime ** m
        fresh = CarlitzChain(ModReducer(modulus))
        cache = caches[field]
        one = Poly.one(field)
        alt = one  # T_n = 1 - [n] T_(n-1), formed exactly
        for k in range(1, n + 1):
            alt = one - cache.bracket(k) * alt
        exact = {"bracket": cache.bracket(n), "L": cache.L(n),
                 "D": cache.D(n), "T": alt, "F": cache.F(n)}
        for name, value in exact.items():
            got = getattr(chain, name)(n)
            assert got == getattr(fresh, name)(n), name
            assert got == divrem(value, modulus)[1], name

    check()


def test_chain_rejects_bad_indices():
    chain = CarlitzChain(ModReducer(parse_poly("t^2+1", make_prime_field(3))))
    with pytest.raises(ValueError):
        chain.bracket(0)
    for quantity in (chain.L, chain.D, chain.T, chain.F):
        with pytest.raises(ValueError):
            quantity(-1)


def test_wilson_sum_routes_agree():
    for q, dmax in ((2, 6), (3, 5), (5, 3)):
        field = field_of(q)
        cache = CarlitzCache(field)
        for d in range(2, dmax + 1):
            assert cache.wilson_sum_poly(d) == cache.wilson_sum_via_quotients(d)


def test_wilson_sum_is_minus_l_derivative():
    field = make_prime_field(3)
    cache = CarlitzCache(field)
    for d in (2, 3, 4):
        assert cache.wilson_sum_poly(d) == -cache.L(d - 1).derivative()


def test_perturbation_forms():
    field = make_prime_field(3)
    cache = CarlitzCache(field)
    one = Poly.one(field)
    assert cache.perturbation("L_minus_c", 4, 1) == cache.L(3) - one
    assert cache.perturbation("L_minus_c", 4, 2) == cache.L(3) - one - one
    assert cache.perturbation("D_plus_sign_c", 4, 1) == cache.D(3) + one
    assert cache.perturbation("D_plus_sign_c", 5, 1) == cache.D(4) - one
    with pytest.raises(ZeroC):
        cache.perturbation("L_minus_c", 4, 0)
    with pytest.raises(ValueError):
        cache.perturbation("nonsense", 4, 1)


def test_exact_f_guard():
    field = make_prime_field(3)
    cache = CarlitzCache(field)
    with pytest.raises(BoundExceeded):
        cache.F(30)


def test_cache_memoizes():
    field = make_prime_field(2)
    cache = CarlitzCache(field)
    assert cache.L(5) is cache.L(5)
