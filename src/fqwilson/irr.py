"""Irreducibility testing and enumeration of monic primes of F_q[t]."""

from __future__ import annotations

from dataclasses import dataclass

from . import _gf2
from .errors import NotMonic, Reducible
from .gf import Field, FieldElement, _prime_factors, make_extension
from .poly import ModReducer, Poly, _pack2, gcd

_ROOT_SCAN_MAX_ORDER = 64


def is_irreducible(f: Poly) -> bool:
    """Rabin's criterion: t^(q^n) = t mod f and no proper q^(n/r) fix."""
    field = f.field
    if f.is_zero:
        return False
    n = f.degree
    if n <= 0:
        return False
    if n == 1:
        return True
    if field.is_prime_field and field.char == 2:
        return _gf2.is_irreducible(_pack2(f.codes))
    if f.codes[0] == 0:
        return False  # divisible by t
    if not f.is_monic:
        f = f.monic()
    q = field.order
    if q <= _ROOT_SCAN_MAX_ORDER:
        # cheap linear-factor filter before the Frobenius chain
        mul = field.mul
        add = field.add
        codes = f.codes
        for x in range(1, q):
            acc = 0
            for c in reversed(codes):
                acc = add(mul(acc, x), c)
            if acc == 0:
                return False
    checkpoints = sorted({n // r for r in _prime_factors(n)})
    red = ModReducer(f)
    t = Poly.t(field)
    h = t
    done = 0
    for cp in checkpoints:
        for _ in range(cp - done):
            h = red.powmod(h, q)
        done = cp
        if gcd(h - t, f).degree != 0:
            return False
    for _ in range(n - done):
        h = red.powmod(h, q)
    return h == t


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

    def __repr__(self):
        return f"PrimeContext({self.prime})"


def candidate_poly(field: Field, d: int, index: int) -> Poly:
    """The index-th monic degree-d polynomial, counted with the
    constant coefficient as the least significant digit."""
    q = field.order
    codes = []
    m = index
    for _ in range(d):
        m, r = divmod(m, q)
        codes.append(r)
    codes.append(1)
    return Poly(field, tuple(codes))


def iter_monic_irreducibles(field: Field, d: int, start: int = 0, stop=None):
    """Yield PrimeContext for each monic prime of degree d, in
    candidate-index order; [start, stop) restricts the index range."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    q = field.order
    hi = q ** d if stop is None else min(stop, q ** d)
    for index in range(start, hi):
        if d > 1 and index % q == 0:
            continue  # constant term zero, divisible by t
        cand = candidate_poly(field, d, index)
        if is_irreducible(cand):
            yield PrimeContext.for_prime(cand)


def _moebius(n: int) -> int:
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


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
