"""The three arithmetic derivatives at a monic prime of F_q[t].

For a prime context with prime P of degree d, residue field E and
Teichmuller root theta, the derivatives of a polynomial a are the
usual d/dt, the Fermat quotient Q(a) = (a^(q^d) - a)/P, and the
difference quotient a -> (a - a(theta))/(t - theta) over E.  Exact
Fermat quotients explode in degree (q^d per application), so every
predicate in this package routes through the modular variants; the
exact forms exist as oracles and for diagnostics.

Modular correctness notes used throughout, for monic P:
  - knowing a mod P^(k+1) determines Q(a) mod P^k;
  - knowing a mod P^(k+1) determines (da/dt) mod P^k;
  - knowing a mod P^2 determines the difference quotient at theta.
Each follows by expanding a + P^(k+1)*s under the operation.

The modular Fermat quotient raises nothing to the power q^d.  It rests
on two identities:
  (1) composition: every coefficient c in F_q or E has c^(q^d) = c, so
      a^(q^d) = a(T) mod P^(k+1) with T = t^(q^d) mod P^(k+1); T is d
      Frobenius steps of t per prime and precision, memoized on the
      context with the Composition a -> a(T), whose table of rows
      T^j mod P^(k+1) is memoized with it, so a(T) is one combination
      of rows;
  (2) digit planes: Q is E-linear, since c^(q^d) = c for c in E, so for
      a = sum_j x^j a_j over E = F_q[x]/P with each a_j in F_q[t],
      Q(a) = sum_j x^j Q(a_j), and no product in E is formed.
"""

from itertools import zip_longest

from .errors import FieldMismatch
from .gf import FieldElement
from .irr import PrimeContext
from .poly import (
    Poly,
    embed,
    eval_poly,
    exact_div,
    q_power_expand,
    synth_div,
)

MIXED_LABELS = (
    "i-ii", "i-ii'", "ii-i", "ii-i'", "i-iii", "iii-i", "ii-iii", "iii-ii",
)


def _prime_for(a: Poly, ctx: PrimeContext) -> Poly:
    """The context prime over the coefficient field of a, which must be
    the prime's own field or the residue field."""
    if a.field == ctx.prime.field:
        return ctx.prime
    if a.field == ctx.residue_field:
        return embed(ctx.prime, a.field)
    raise FieldMismatch(
        f"polynomial over {a.field!r} fits neither the prime's field "
        f"{ctx.prime.field!r} nor its residue field {ctx.residue_field!r}"
    )


def fermat_quotient(a: Poly, ctx: PrimeContext) -> Poly:
    """(a^(q^d) - a) / P exactly, for a over F_q or the residue field.

    The power is exponent spreading by the norm q^d: the order q of
    F_q raised to d, or the order of the residue field itself.
    """
    prime = _prime_for(a, ctx)
    k = ctx.degree if a.field == ctx.prime.field else 1
    return exact_div(q_power_expand(a, k) - a, prime)


def fermat_quotient_mod(a: Poly, ctx: PrimeContext, k: int) -> Poly:
    """Q(a) mod P^k without forming the exact quotient.

    Over F_q this is (a(T) - a)/P with T = t^(q^d) mod P^(k+1), by the
    composition identity (1); over the residue field E it is taken
    plane by plane over F_q, by the digit-plane identity (2).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    base = ctx.prime.field
    if a.field != base:
        _prime_for(a, ctx)  # rejects all but the residue field
        ext = a.field
        planes = zip(*(ext.digits(c) for c in a.codes))
        quots = [fermat_quotient_mod(Poly(base, plane), ctx, k).codes
                 for plane in planes]
        return Poly(ext, [ext.undigits(digs)
                          for digs in zip_longest(*quots, fillvalue=0)])
    red, _, compose = ctx.frobenius(k + 1)
    ra = red.enter(a)
    return exact_div(red.leave(compose(ra)) - red.leave(ra), ctx.prime)


def fermat_quotient_iter(a: Poly, ctx: PrimeContext, i: int, k=None) -> Poly:
    """Q applied i times: exact when k is None, else correct mod P^k.

    The modular ladder runs step s at modulus P^(k+i-s), so each
    output carries exactly the precision the next step consumes.
    """
    if k is None:
        out = a
        for _ in range(i):
            out = fermat_quotient(out, ctx)
        return out
    out = a
    for s in range(1, i + 1):
        out = fermat_quotient_mod(out, ctx, k + i - s)
    return out


def delta(a: Poly, ctx: PrimeContext, i: int) -> Poly:
    """The i-th Teichmuller difference quotient, over the residue field."""
    cur = embed(a, ctx.residue_field)
    for _ in range(i):
        cur, _ = synth_div(cur, ctx.theta)
    return cur


def delta_at_theta(a: Poly, ctx: PrimeContext, i: int) -> FieldElement:
    """a^[i](theta): the i-th Taylor coefficient of a at theta."""
    return eval_poly(delta(a, ctx, i), ctx.theta)


def derivative_mod(a: Poly, ctx: PrimeContext, k: int) -> Poly:
    """(da/dt) mod P^k computed from a mod P^(k+1), through the
    context's reducers mod P^(k+1) and P^k."""
    r = ctx.reducer(k + 1).reduce(a)
    return ctx.reducer(k).reduce(r.derivative())

