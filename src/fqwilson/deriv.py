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
"""

from __future__ import annotations

from .errors import FieldMismatch
from .gf import FieldElement
from .irr import PrimeContext
from .poly import (
    ModReducer,
    Poly,
    divrem,
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
    """The context prime, embedded into the coefficient field of a."""
    if a.field == ctx.prime.field:
        return ctx.prime
    if a.field.is_extension_of(ctx.prime.field):
        return embed(ctx.prime, a.field)
    raise FieldMismatch(
        f"polynomial over F{a.field.order} does not fit prime over "
        f"F{ctx.prime.field.order}"
    )


def fermat_quotient(a: Poly, ctx: PrimeContext) -> Poly:
    """(a^(q^d) - a) / P exactly, for a with coefficients in F_q."""
    up = q_power_expand(a, ctx.degree)
    return exact_div(up - a, ctx.prime)


def fermat_quotient_mod(a: Poly, ctx: PrimeContext, k: int) -> Poly:
    """Q(a) mod P^k without forming the exact quotient.

    Works verbatim when a has coefficients in the residue field E:
    every value of a at a root of P lies in E = F_(q^d), which is
    fixed by x -> x^(q^d), so P still divides a^(q^d) - a.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    prime = _prime_for(a, ctx)
    red = ModReducer(prime ** (k + 1))
    r = red.powmod(a, ctx.norm) - red.reduce(a)
    return exact_div(r, prime)


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


def derivative_mod(a: Poly, prime: Poly, k: int) -> Poly:
    """(da/dt) mod prime^k computed from a mod prime^(k+1)."""
    r = divrem(a, prime ** (k + 1))[1]
    return divrem(r.derivative(), prime ** k)[1]


def mixed(label: str, ctx: PrimeContext):
    """One of the eight mixed second-derivative quantities.

    Returns a Poly for the mod-P conditions and a FieldElement for
    the at-theta conditions; in every case the Wilson property of the
    prime is equivalent to the returned value being zero.
    """
    prime = ctx.prime
    t = Poly.t(prime.field)
    if label == "i-ii":
        q2 = fermat_quotient_mod(t, ctx, 2)
        return divrem(q2.derivative(), prime)[1]
    if label == "i-ii'":
        q2 = fermat_quotient_mod(t, ctx, 2)
        return eval_poly(embed(divrem(q2.derivative(), prime)[1], ctx.residue_field),
                         ctx.theta)
    if label == "ii-i":
        return fermat_quotient_mod(prime.derivative(), ctx, 1)
    if label == "ii-i'":
        qd = fermat_quotient_mod(prime.derivative(), ctx, 1)
        return eval_poly(embed(qd, ctx.residue_field), ctx.theta)
    if label == "i-iii":
        p1 = delta(prime, ctx, 1)
        return eval_poly(p1.derivative(), ctx.theta)
    if label == "iii-i":
        return delta_at_theta(prime.derivative(), ctx, 1)
    if label == "ii-iii":
        p1 = delta(prime, ctx, 1)
        q1 = fermat_quotient_mod(p1, ctx, 1)
        return eval_poly(q1, ctx.theta)
    if label == "iii-ii":
        q2 = fermat_quotient_mod(t, ctx, 2)
        return delta_at_theta(q2, ctx, 1)
    raise ValueError(f"unknown mixed label {label!r}")
