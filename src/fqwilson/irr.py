"""Irreducibility testing and enumeration of monic primes of F_q[t]."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import NotMonic, Reducible
from .gf import Field, FieldElement, _prime_factors, make_extension
from .poly import Composition, ModReducer, Poly, gcd

_ROOT_SCAN_MAX_ORDER = 64


def is_irreducible(f: Poly) -> bool:
    """Rabin's criterion: t^(q^n) = t mod f and no proper q^(n/r) fix.

    Over fields of order at most _ROOT_SCAN_MAX_ORDER a scan for roots
    in F_q runs first.  gcd(t^q - t, f) = 1 says exactly that f has no
    root in F_q, so when the scan has run, the checkpoint n/r = 1 (r = n,
    n prime) makes no gcd; over larger fields it does.  The Frobenius
    chain h -> h^q runs in the residue form of f's ModReducer, so over
    F_2 and F_3 it stays packed between the gcd checkpoints.
    """
    field = f.field
    if f.is_zero:
        return False
    n = f.degree
    if n <= 0:
        return False
    if n == 1:
        return True
    if f.codes[0] == 0:
        return False  # divisible by t
    if not f.is_monic:
        f = f.monic()
    q = field.order
    scanned = q <= _ROOT_SCAN_MAX_ORDER
    if scanned:
        # cheap linear-factor filter before the Frobenius chain
        codes = f.codes
        if field.is_prime_field:
            # on plain ints: x^(p-1) = 1 for x != 0, so f(x) is Horner
            # mod p over the sums of the codes in each exponent class
            # mod p - 1 (at x = 1, the sum of all codes)
            sums = [sum(codes[r::q - 1]) for r in range(q - 1)]
            for x in range(1, q):
                acc = 0
                for s in reversed(sums):
                    acc = (acc * x + s) % q
                if acc == 0:
                    return False
        else:
            mul = field.mul
            add = field.add
            for x in range(1, q):
                acc = 0
                for c in reversed(codes):
                    acc = add(mul(acc, x), c)
                if acc == 0:
                    return False
    red = ModReducer(f)
    t = red.enter(Poly.t(field))
    h = t
    done = 0
    for cp in sorted({n // r for r in _prime_factors(n)}):
        h = red.frobenius(h, cp - done)
        done = cp
        if cp == 1 and scanned:
            continue  # gcd(t^q - t, f) = 1 is what the root scan showed
        if gcd(red.leave(red.sub(h, t)), f).degree != 0:
            return False
    return red.frobenius(h, n - done) == t


@dataclass(frozen=True)
class PrimeContext:
    """A monic prime with its residue field and Teichmuller generator.

    theta is the class of t in F_q[t]/(prime); the prime is its minimal
    polynomial over F_q and norm = q^deg counts the residue field.
    """

    prime: Poly
    degree: int
    residue_field: Field
    theta: FieldElement
    norm: int
    # m -> (ModReducer mod prime^m, t^norm mod prime^m, its Composition);
    # a memo, so it takes no part in equality, hashing or the repr
    _frobenius: dict = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def for_prime(cls, prime: Poly) -> "PrimeContext":
        if prime.is_zero or not prime.is_monic:
            raise NotMonic(f"{prime} is not a monic polynomial")
        d = prime.degree
        if d < 1:
            raise Reducible("constants are not primes")
        base = prime.field
        if d == 1:
            ext = base
            theta = FieldElement(base, base.neg(prime.codes[0]))
        else:
            ext = make_extension(base, prime)
            theta = FieldElement(ext, ext.gen_code)
        return cls(
            prime=prime,
            degree=d,
            residue_field=ext,
            theta=theta,
            norm=base.order ** d,
        )

    def frobenius(self, m: int):
        """(reducer mod prime^m, T = t^norm mod prime^m, the Composition
        a -> a(T) mod prime^m), memoized per m.

        T costs d Frobenius steps of t, d the degree; when T is already
        held at a higher exponent, the one at m is its reduction instead.
        The Composition grows its rows T^j as compositions ask for them.
        """
        hit = self._frobenius.get(m)
        if hit is None:
            red = ModReducer(self.prime ** m)
            higher = [n for n in self._frobenius if n > m]
            if higher:
                frob = red.enter(self._frobenius[min(higher)][1])
            else:
                frob = red.frobenius(red.enter(Poly.t(self.prime.field)),
                                     self.degree)
            hit = self._frobenius[m] = (red, red.leave(frob),
                                        Composition(red, frob))
        return hit

    def __repr__(self):
        return f"PrimeContext({self.prime})"


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
        codes = []
        m = index
        for _ in range(d):
            m, r = divmod(m, q)
            codes.append(r)
        codes.append(1)
        yield Poly(field, tuple(codes))


def iter_monic_irreducibles(field: Field, d: int, start: int = 0, stop=None):
    """Yield PrimeContext for each monic prime of degree d, in
    candidate-index order; [start, stop) restricts the index range."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    for cand in monic_polys(field, d, start, stop):
        if d > 1 and cand.codes[0] == 0:
            continue  # constant term zero, divisible by t
        if is_irreducible(cand):
            yield PrimeContext.for_prime(cand)


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
