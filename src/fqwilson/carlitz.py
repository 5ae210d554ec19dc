"""The Carlitz quantities of F_q[t] and their perturbations.

[n] = t^(q^n) - t is the product of the monic primes whose degree
divides n; L_n = [n][n-1]...[1] is the least common multiple of the
monic polynomials of degree n; D_n = [n][n-1]^q...[1]^(q^(n-1)) is
their product.  F_d = (-1)^d D_d / L_d plays the role of (N-1)! for a
prime of degree d: the Wilson congruence asks whether F_d = -1 holds
modulo the square of the prime rather than just the prime.

CarlitzChain holds them as residues of one ModReducer (packed over F_2
and F_3): a single Frobenius chain x -> x^q, the reducer's frobenius,
yields the brackets, and L, D and the alternating sums
T_m = 1 - [m] T_(m-1) are folds over it, each extended lazily and at
most once per index and turned into a Poly only when read;
F_d = +-(D_0 ... D_(d-1))^(q-1) is one power of their product.
CarlitzCache is the same chain over F_q[t] itself, with no modulus, so
its values are exact.  Every residue check in the package (the
definition of Wilson primes, the multiplicities, the survey tables,
the gcd scans) goes through the chain that irr.PrimeContext.chain
keeps per power of the prime, so giant numerators are never formed
when only a residue is needed; `carlitz compute --mod` builds its own
chain.
"""

import operator

from .errors import BoundExceeded, ZeroC
from .gf import Field
from .irr import monic_polys
from .poly import ModReducer, Poly, exact_div, q_power_expand


class CarlitzChain:
    """The Carlitz quantities reduced by a fixed ModReducer.

    One Frobenius chain x_m = t^(q^m) mod the modulus gives the
    brackets [m] = x_m - x_0.  L_m = [m] L_(m-1), D_m = [m] D_(m-1)^q
    and the alternating sums T_m = 1 - [m] T_(m-1) are folds over the
    brackets; F_d raises the product D_0 ... D_(d-1) to q-1 once.
    Each sequence is extended on first demand and kept, so a caller
    pays only for the quantities and indices it asks for, and asking
    again for a larger index continues where the chain stopped.  The
    sequences are held as the reducer's residues (packed over F_2 and
    F_3), and x -> x^q is its frobenius, so a value is converted to a
    Poly only when it is read.
    """

    def __init__(self, red: ModReducer):
        self.red = red
        self.field = red.field
        one = red.enter(Poly.one(self.field))
        self._t = red.enter(Poly.t(self.field))
        self._x = self._t  # x_m for the largest m with [m] computed
        self._brackets = [None]  # [m] at index m; there is no [0]
        self._L = [one]
        self._D = [one]
        self._T = [one]

    @staticmethod
    def _extend(seq: list, m: int, step):
        """seq[m], appending step(n) for each missing index n first."""
        if m < 0:
            raise ValueError(f"chain index {m} is negative")
        while len(seq) <= m:
            seq.append(step(len(seq)))
        return seq[m]

    def _next_bracket(self, m: int):
        # brackets are appended in index order, so _x is x_(m-1) here
        self._x = self.red.frobenius(self._x)
        return self.red.sub(self._x, self._t)

    def _bracket(self, m: int):
        if m < 1:
            raise ValueError("[n] is defined for n >= 1")
        return self._extend(self._brackets, m, self._next_bracket)

    def _D_residue(self, m: int):
        seq, red = self._D, self.red
        return self._extend(
            seq, m, lambda n: red.mul(self._bracket(n), red.frobenius(seq[n - 1])))

    def bracket(self, m: int) -> Poly:
        return self.red.leave(self._bracket(m))

    def L(self, m: int) -> Poly:
        seq, red = self._L, self.red
        return red.leave(self._extend(
            seq, m, lambda n: red.mul(seq[n - 1], self._bracket(n))))

    def D(self, m: int) -> Poly:
        return self.red.leave(self._D_residue(m))

    def T(self, m: int) -> Poly:
        """1 - [m] + [m][m-1] - ... + (-1)^m L_m, by T_m = 1 - [m] T_(m-1)."""
        seq, red = self._T, self.red
        return red.leave(self._extend(
            seq, m, lambda n: red.sub(seq[0], red.mul(self._bracket(n), seq[n - 1]))))

    def F(self, d: int) -> Poly:
        """F_d = (-1)^d D_d / L_d = +-(D_0 ... D_(d-1))^(q-1), reduced."""
        if d < 0:
            raise ValueError(f"chain index {d} is negative")
        red = self.red
        prod = self._D_residue(0)
        for n in range(1, d):
            prod = red.mul(prod, self._D_residue(n))
        out = red.leave(red.pow(prod, self.field.order - 1))
        if d % 2 and self.field.char != 2:
            out = -out
        return out

    def wilson_sum_poly(self, d: int) -> Poly:
        """-L_{d-1}', which equals the sum of L_{d-1}/[i] over i < d.

        Each bracket has derivative -1, so the product rule collapses
        the sum of cofactors into a single derivative.  It is exact on
        CarlitzCache; on a chain mod m^2 it is the sum mod m once reduced
        mod m, since (L + m^2 k)' = L' + m (2 m' k + m k').
        """
        return -self.L(d - 1).derivative()

    def perturbation(self, kind: str, d: int, c) -> Poly:
        """L_(d-1) - c or D_(d-1) + (-1)^d c, reduced, for nonzero c."""
        field = self.field
        cc = field(c)
        if cc.code == 0:
            raise ZeroC("perturbations require a nonzero constant")
        if kind == "L_minus_c":
            out = self.L(d - 1) - Poly.constant(field, cc)
        elif kind == "D_plus_sign_c":
            out = self.D(d - 1) + Poly.constant(field, cc if d % 2 == 0 else -cc)
        else:
            raise ValueError(f"unknown perturbation kind {kind!r}")
        # reduce again: a constant modulus reduces c itself
        return self.red.reduce(out)


class _Exact:
    """F_q[t] in the ModReducer interface that CarlitzChain runs on:
    a residue is its Poly, nothing is reduced, and x -> x^q spreads
    the exponents (q_power_expand), so the chain's values are exact.
    The degree guard refuses what grows past it."""

    def __init__(self, field: Field):
        self.field = field

    def enter(self, f: Poly) -> Poly:
        return f

    leave = reduce = enter
    mul = staticmethod(operator.mul)
    sub = staticmethod(operator.sub)
    pow = staticmethod(operator.pow)

    def frobenius(self, r: Poly, k: int = 1) -> Poly:
        return q_power_expand(r, k)


class CarlitzCache(CarlitzChain):
    """The exact Carlitz quantities: the chain over F_q[t] itself, with
    the Wilson sum and the literal oracles beside it."""

    def __init__(self, field: Field):
        super().__init__(_Exact(field))

    def F_brute(self, d: int) -> Poly:
        """Literal product of all monic polynomials of degree < d,
        raised to the q-1 and signed; the independent route to F_d."""
        field = self.field
        q = field.order
        count = (q ** d - 1) // (q - 1)
        if count > 1 << 20:
            raise BoundExceeded(f"brute product over {count} polynomials refused")
        prod = Poly.one(field)
        for deg in range(d):
            for f in monic_polys(field, deg):
                prod = prod * f
        out = prod ** (q - 1)
        if count % 2 and field.char != 2:
            out = -out
        return out

    def wilson_sum_via_quotients(self, d: int) -> Poly:
        """The same sum formed literally, term by term."""
        field = self.field
        acc = Poly.zero(field)
        ld = self.L(d - 1)
        for i in range(1, d):
            acc = acc + exact_div(ld, self.bracket(i))
        return acc
