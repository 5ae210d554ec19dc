"""Irreducibility testing and enumeration of monic primes of F_q[t].

Rabin's test (is_irreducible) decides a polynomial from outside: a
user's modulus, a factor to verify.  Enumeration tests no candidate
on its own: iter_monic_irreducibles sieves the window of candidate
indices that monic_polys walks (_sieve.py, compiled only by the
commands that enumerate), and the primes it yields are certified, so
their contexts run no second test.
"""

from .errors import NotMonic, Reducible
from .gf import (
    Field,
    FieldElement,
    _check_modulus,
    _extension,
    _prime_factors,
    make_extension,
)
from .poly import Composition, ModReducer, Poly, gcd


def is_irreducible(f: Poly) -> bool:
    """Rabin's criterion: t^(q^n) = t mod f and no proper q^(n/r) fix.

    Each checkpoint n/r, r a prime factor of n, is decided by the
    bracket gcd gcd(t^(q^(n/r)) - t, f), which is 1 exactly when f has
    no prime factor of degree dividing n/r; at n/r = 1 that says f has
    no root in F_q.  The Frobenius chain h -> h^q runs in the residue
    form of f's ModReducer, so over F_2 and F_3 it stays packed between
    the gcd checkpoints.
    """
    if f.is_zero:
        return False
    n = f.degree
    if n <= 0:
        return False
    if n == 1:
        return True
    if f.codes[0] == 0:
        return False  # divisible by t
    red = ModReducer(f)
    t = red.enter(Poly.t(f.field))
    h = t
    done = 0
    for cp in sorted({n // r for r in _prime_factors(n)}):
        h = red.frobenius(h, cp - done)
        done = cp
        if gcd(red.leave(red.sub(h, t)), f).degree != 0:
            return False
    return red.frobenius(h, n - done) == t


class PrimeContext:
    """A monic prime with its residue field and Teichmuller generator.

    theta is the class of t in F_q[t]/(prime); the prime is its minimal
    polynomial over F_q and norm = q^deg counts the residue field.  The
    residue field and theta are built on first read.

    PrimeContext(prime) takes the caller's word that prime is a monic
    prime, as the enumeration's sieve has shown, and runs no test;
    for_prime verifies a prime from anywhere else.  The context owns
    the arithmetic mod the prime's powers: reducer(m) is the one
    ModReducer mod prime^m that every residue mod prime^m of the
    prime's work goes through, and chain(m) the one CarlitzChain on
    it.  Two contexts are equal when their primes are.
    """

    __slots__ = ("prime", "degree", "norm", "_residue_field", "_theta",
                 "_reducers", "_chains", "_frobenius")

    def __init__(self, prime: Poly):
        d = prime.degree
        if d > 1:
            # a residue field past the tower cap is refused up front,
            # as make_extension refuses it
            _check_modulus(prime.field, prime)
        self.prime = prime
        self.degree = d
        self.norm = prime.field.order ** d
        self._residue_field = self._theta = None
        # memos, m -> ModReducer, CarlitzChain and frobenius(m) mod
        # prime^m; they take no part in equality, hashing or the repr
        self._reducers = {}
        self._chains = {}
        self._frobenius = {}

    @classmethod
    def for_prime(cls, prime: Poly) -> "PrimeContext":
        """The context of a prime that nothing has certified: raises
        NotMonic or Reducible unless prime is a monic prime."""
        if prime.is_zero or not prime.is_monic:
            raise NotMonic(f"{prime} is not a monic polynomial")
        if prime.degree < 1:
            raise Reducible("constants are not primes")
        ctx = cls(prime)
        if prime.degree > 1:
            try:
                ctx._residue_field = make_extension(prime.field, prime)
            except Reducible:
                raise Reducible(f"prime {prime} is reducible") from None
        return ctx

    @property
    def residue_field(self) -> Field:
        ext = self._residue_field
        if ext is None:
            base = self.prime.field
            ext = base if self.degree == 1 else _extension(base, self.prime)
            self._residue_field = ext
        return ext

    @property
    def theta(self) -> FieldElement:
        theta = self._theta
        if theta is None:
            ext = self.residue_field
            if self.degree == 1:
                theta = FieldElement(ext, ext.neg(self.prime.codes[0]))
            else:
                theta = FieldElement(ext, ext.gen_code)
            self._theta = theta
        return theta

    def reducer(self, m: int) -> ModReducer:
        """The ModReducer mod prime^m, memoized per m."""
        red = self._reducers.get(m)
        if red is None:
            red = self._reducers[m] = ModReducer(self.prime ** m)
        return red

    def chain(self, m: int):
        """The CarlitzChain on reducer(m), memoized per m."""
        hit = self._chains.get(m)
        if hit is None:
            from .carlitz import CarlitzChain  # carlitz imports this module

            hit = self._chains[m] = CarlitzChain(self.reducer(m))
        return hit

    def frobenius(self, m: int):
        """(reducer(m), T = t^norm mod prime^m, the Composition
        a -> a(T) mod prime^m), memoized per m.

        T costs d Frobenius steps of t, d the degree; when T is already
        held at a higher exponent, the one at m is its reduction instead.
        The Composition grows its rows T^j as compositions ask for them.
        """
        hit = self._frobenius.get(m)
        if hit is None:
            red = self.reducer(m)
            higher = [n for n in self._frobenius if n > m]
            if higher:
                frob = red.enter(self._frobenius[min(higher)][1])
            else:
                frob = red.frobenius(red.enter(Poly.t(self.prime.field)),
                                     self.degree)
            hit = self._frobenius[m] = (red, red.leave(frob),
                                        Composition(red, frob))
        return hit

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.prime == other.prime

    def __hash__(self):
        return hash(self.prime)

    def __repr__(self):
        return f"PrimeContext({self.prime})"


def _candidate(field: Field, d: int, index: int) -> Poly:
    """The monic candidate of degree d at index sum c_i q^i."""
    q = field.order
    codes = []
    for _ in range(d):
        index, r = divmod(index, q)
        codes.append(r)
    codes.append(1)
    return Poly(field, codes)


def monic_polys(field: Field, d: int, start: int = 0, stop=None):
    """The monic polynomials of degree d in candidate-index order.

    Index sum c_i q^i runs over the coefficients below the leading 1,
    the constant term as the least significant digit; [start, stop)
    restricts the index range, whose bounds may not be negative.
    """
    if start < 0 or (stop is not None and stop < 0):
        raise ValueError("candidate indices must be non-negative")
    q = field.order
    hi = q ** d if stop is None else min(stop, q ** d)
    for index in range(start, hi):
        yield _candidate(field, d, index)


def iter_monic_irreducibles(field: Field, d: int, start: int = 0, stop=None):
    """Yield PrimeContext for each monic prime of degree d, in
    candidate-index order; [start, stop) restricts the index range.

    Each window is sieved on its own (see _sieve.py), so its primes do
    not depend on how a run splits its windows, and the sieve certifies
    each prime it yields: its context runs no second test."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    from ._sieve import primes

    for prime in primes(field, d, start, stop, {}):
        yield PrimeContext(prime)


def _moebius(n: int) -> int:
    factors = _prime_factors(n)
    if any(n % (r * r) == 0 for r in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def count_irreducibles(field: Field, d: int) -> int:
    """Number of monic primes of degree d, by Moebius inversion."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    q = field.order
    total = 0
    e = 1
    while e <= d:
        if d % e == 0:
            total += _moebius(d // e) * q ** e
        e += 1
    return total // d
