"""Factorization of polynomials over finite fields.

The full pipeline is squarefree decomposition (Yun's algorithm with
the characteristic-p p-th-root correction), distinct-degree splitting
with blocked gcds, then Cantor-Zassenhaus equal-degree splitting with
a deterministic random stream, so identical inputs and seeds always
produce identical transcripts.  trial_division is the same pipeline
with the distinct-degree scan capped at a degree bound: it stages out
the primes of small degree only, which is how the large perturbed
quantities are probed without paying for their complete
factorizations.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import FqwilsonError
from .gf import FieldElement
from .irr import is_irreducible
from .poly import ModReducer, Poly, exact_div, gcd

_DDF_BLOCK = 16
_COFACTOR_CHECK_MAX_DEG = 4096

_M64 = (1 << 64) - 1


def _rand_stream(seed: int, *tags: bytes):
    """splitmix64 sequence with its state seeded by hashing the tags."""
    h = hashlib.blake2b(digest_size=8)
    h.update(seed.to_bytes(16, "big", signed=True))
    for tag in tags:
        h.update(b"\x00")
        h.update(tag)
    state = int.from_bytes(h.digest(), "big")
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _M64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        yield z ^ (z >> 31)


def _poly_tag(f: Poly) -> bytes:
    return (f.field.descriptor() + "|" + ",".join(map(str, f.codes))).encode()


def _factor_key(f: Poly):
    return (f.degree, tuple(reversed(f.codes)))


@dataclass(frozen=True)
class Factorization:
    """A (possibly partial) factorization unit * prod(base^mult) * cofactor."""

    unit: FieldElement
    factors: tuple  # ((Poly, int), ...) monic bases, canonically sorted
    cofactor: Poly = None
    cofactor_irreducible: object = None  # True / False / "unchecked" / None

    def value(self) -> Poly:
        out = Poly.constant(self.unit.field, self.unit)
        for base, mult in self.factors:
            out = out * base ** mult
        if self.cofactor is not None:
            out = out * self.cofactor
        return out

    def degrees(self):
        """Multiset of factor degrees as a sorted tuple, with multiplicity."""
        out = []
        for base, mult in self.factors:
            out.extend([base.degree] * mult)
        return tuple(sorted(out))

    def to_json(self):
        data = {
            "unit": self.unit.code,
            "factors": [[str(base), mult] for base, mult in self.factors],
        }
        if self.cofactor is not None:
            data["cofactor"] = str(self.cofactor)
            data["cofactor_degree"] = self.cofactor.degree
            data["cofactor_irreducible"] = self.cofactor_irreducible
        return data


def pth_root_poly(f: Poly) -> Poly:
    """The g with g^p = f; requires f to be a p-th power."""
    field = f.field
    p = field.char
    root = field.pth_root
    out = []
    for i, c in enumerate(f.codes):
        if i % p == 0:
            out.append(root(c))
        elif c:
            raise FqwilsonError(f"{f} is not a p-th power")
    return Poly(field, out)


def squarefree_decomposition(f: Poly):
    """(unit, [(g, mult), ...]) with the g monic, squarefree, coprime."""
    if f.is_zero:
        raise FqwilsonError("cannot decompose the zero polynomial")
    field = f.field
    unit = FieldElement(field, f.lead_code)
    f = f.monic()
    parts = _sff_monic(f)
    parts.sort(key=lambda gm: (gm[1],) + _factor_key(gm[0]))
    return unit, parts


def _sff_monic(f: Poly):
    if f.degree == 0:
        return []
    p = f.field.char
    df = f.derivative()
    if df.is_zero:
        inner = _sff_monic(pth_root_poly(f))
        return [(g, m * p) for g, m in inner]
    c = gcd(f, df)
    w = exact_div(f, c)
    out = []
    i = 1
    while w.degree > 0:
        y = gcd(w, c)
        fac = exact_div(w, y)
        if fac.degree > 0:
            out.append((fac, i))
        w = y
        c = exact_div(c, y)
        i += 1
    if c.degree > 0:
        inner = _sff_monic(pth_root_poly(c))
        out.extend((g, m * p) for g, m in inner)
    return out


def distinct_degree_split(f: Poly, max_degree=None):
    """Split a monic squarefree f into (degree, product) buckets.

    Returns (buckets, cofactor): buckets is a list of (i, product of
    the primes of degree i dividing f) in ascending i, and cofactor is
    the unsplit remainder when max_degree cut the scan short (None
    when the split is complete).  The last bucket may be one prime of
    degree above max_degree, claimed once no smaller factor can remain.
    Blocks of Frobenius steps share one gcd; a hit replays the block
    one step at a time.
    """
    field = f.field
    q = field.order
    t = Poly.t(field)
    out = []

    def flush(block, f_cur, red):
        acc = Poly.one(field)
        for _, h in block:
            acc = red.mulmod(acc, h - t)
        if gcd(acc, f_cur).degree == 0:
            return f_cur, red, False
        shrunk = False
        for j, h in block:
            h = red.reduce(h)
            g = gcd(h - t, f_cur)
            if g.degree > 0:
                out.append((j, g))
                f_cur = exact_div(f_cur, g)
                red = ModReducer(f_cur) if f_cur.degree > 0 else red
                shrunk = True
        return f_cur, red, shrunk

    red = ModReducer(f)
    h = red.reduce(t)
    i = 0
    block = []
    while f.degree > 0:
        if not block and 2 * (i + 1) > f.degree:
            out.append((f.degree, f))
            f = Poly.one(field)
            break
        if max_degree is not None and i >= max_degree:
            break
        i += 1
        h = red.powmod(h, q)
        block.append((i, h))
        if len(block) >= _DDF_BLOCK or 2 * (i + 1) > f.degree or i == max_degree:
            f, red, shrunk = flush(block, f, red)
            block = []
            if shrunk and f.degree > 0:
                h = red.reduce(h)
    if block:
        f, red, _ = flush(block, f, red)
    cofactor = None if f.degree == 0 else f
    return out, cofactor


def equal_degree_split(f: Poly, d: int, seed: int = 0):
    """All monic prime factors of f, where f is a monic squarefree
    product of primes of one degree d.  Deterministic in (f, seed)."""
    field = f.field
    if f.degree == d:
        return [f]
    if f.degree % d:
        raise FqwilsonError(f"degree {f.degree} is not a multiple of {d}")
    stream = _rand_stream(seed, b"edf", _poly_tag(f), d.to_bytes(4, "big"))
    q = field.order
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        if g.degree == d:
            out.append(g)
            continue
        red = ModReducer(g)
        split = None
        while split is None:
            u = Poly(field, tuple(next(stream) % q for _ in range(g.degree)))
            if u.degree < 1:
                continue
            c = gcd(u, g)
            if 0 < c.degree < g.degree:
                split = c
                break
            if field.char == 2:
                # trace map of the residue ring down to F_2
                v = red.reduce(u)
                acc = v
                m = d * _log2_order(field)
                for _ in range(m - 1):
                    v = red.powmod(v, 2)
                    acc = acc + v
                cand = gcd(acc, g)
            else:
                e = (q ** d - 1) // 2
                w = red.powmod(u, e)
                cand = gcd(w - Poly.one(field), g)
            if 0 < cand.degree < g.degree:
                split = cand
        stack.append(split)
        stack.append(exact_div(g, split))
    out.sort(key=_factor_key)
    return out


def _log2_order(field) -> int:
    m = 0
    o = field.order
    while o > 1:
        o >>= 1
        m += 1
    return m


def _split(f: Poly, max_degree, seed: int):
    """(unit, sorted ((prime, mult), ...), monic cofactor or None).

    Squarefree parts go through distinct-degree splitting capped at
    max_degree (uncapped when None), then equal-degree splitting.  A
    part's unsplit remainder, and a bucket the distinct-degree early
    exit claims above max_degree, join the cofactor raised to the
    part's multiplicity.
    """
    if f.is_zero:
        raise FqwilsonError("cannot factor the zero polynomial")
    unit, parts = squarefree_decomposition(f)
    found = []
    rest = []
    for g, mult in parts:
        buckets, left = distinct_degree_split(g, max_degree)
        if left is not None:
            rest.append(left ** mult)
        for d, prod in buckets:
            if max_degree is not None and d > max_degree:
                rest.append(prod ** mult)
                continue
            for prime in equal_degree_split(prod, d, seed=seed):
                found.append((prime, mult))
    found.sort(key=lambda fm: _factor_key(fm[0]))
    cofactor = None
    for r in rest:
        cofactor = r if cofactor is None else cofactor * r
    return unit, tuple(found), cofactor


def factorize(f: Poly, seed: int = 0) -> Factorization:
    """Complete factorization into monic primes with multiplicities;
    every base is re-verified irreducible."""
    unit, factors, _ = _split(f, None, seed)
    result = Factorization(unit=unit, factors=factors)
    for base, _ in factors:
        if not is_irreducible(base):
            raise FqwilsonError(f"factor {base} failed the irreducibility check")
    if result.value() != f:
        raise FqwilsonError("factorization does not multiply back to the input")
    return result


def trial_division(f: Poly, max_degree: int, seed: int = 0) -> Factorization:
    """Extract every prime factor of degree <= max_degree.

    The same pipeline as factorize with the distinct-degree scan
    capped at max_degree.  The returned cofactor keeps whatever is
    left; it is marked irreducible when that is free (degree bound) or
    cheap enough to test, up to degree _COFACTOR_CHECK_MAX_DEG.
    """
    if max_degree < 0:
        raise ValueError(f"trial division bound must be non-negative, got {max_degree}")
    unit, factors, cofactor = _split(f, max_degree, seed)
    if cofactor is None:
        return Factorization(unit=unit, factors=factors)
    if cofactor.degree <= 2 * max_degree + 1:
        flag = True  # any factorization would need a part of degree <= max_degree
    elif cofactor.degree <= _COFACTOR_CHECK_MAX_DEG:
        flag = is_irreducible(cofactor)
    else:
        flag = "unchecked"
    return Factorization(
        unit=unit, factors=factors, cofactor=cofactor, cofactor_irreducible=flag
    )
