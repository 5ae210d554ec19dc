"""Factorization of polynomials over finite fields.

The full pipeline is squarefree decomposition (Yun's algorithm with
the characteristic-p p-th-root correction), distinct-degree splitting
with blocked gcds, then Cantor-Zassenhaus equal-degree splitting with
deterministic random draws, so identical inputs and seeds always
produce identical transcripts.  Each split attempt draws its random
residue u as one block: a SHAKE-256 state that has absorbed the seed,
the bucket and its degree is copied, absorbs the attempt number and is
read once, 8 bytes mod q per code.  The hash is CPython's built-in
_sha3, so a split does not load OpenSSL.  Over odd q a split
attempt raises u to (q^d - 1)/2 as the Frobenius norm
u * u^q * ... * u^(q^(d-1)) raised to (q - 1)/2 (von zur Gathen &
Shoup): Frobenius steps in the reducer's residue form in place of a
square-and-multiply power.  Over q = 2^k it takes the trace
u + u^2 + ... + u^(2^(dk-1)) down to F_2 instead.  No gcd(u, g)
pre-check runs: a prime dividing u lands in gcd(Tr u, g) and stays
out of gcd(N^((q-1)/2) - 1, g), so those draws split too.
trial_division is the same pipeline with the distinct-degree scan
capped at a degree bound: it stages out the primes of small degree
only, which is how the large perturbed quantities are probed without
paying for their complete factorizations.
"""

from .errors import FqwilsonError
from .gf import FieldElement
from .irr import is_irreducible
from .poly import ModReducer, Poly, exact_div, gcd, pth_root_poly

# Frobenius steps per distinct-degree gcd.  `benchmarks/mul_threshold.py
# --ddf`, four or five runs on a 2-core Xeon, ms at block sizes 1 / 4 / 16:
#   F_2 [11]+1              5.8-8.5 / 3.5-5.8 / 6.2-10.6
#   F_2 L_8+1               18-26 / 13-22 / 15-23
#   F_2 L_12+1 to degree 22 58 / 62 / 95 (one run)
#   F_3 D_4+1               18-33 / 16-19 / 18-22
#   F_3 L_5-1               31-51 / 23-40 / 25-38
#   F_4 L_3-1               2.4-3.9 / 2.3-3.9 / 3.1-5.3
#   F_5 L_3-1               67-122 / 58-96 / 58-84
# Block 4 is the best or within noise of it in every characteristic, so
# one size serves them all.
_DDF_BLOCK = 4
_COFACTOR_CHECK_MAX_DEG = 4096


def _draw_key(seed: int, *tags: bytes):
    """The shake_256 state that every draw of one split copies: the seed
    and the tags absorbed once."""
    try:
        # the built-in module hashlib wraps, which does not load OpenSSL
        from _sha3 import shake_256
    except ImportError:
        from hashlib import shake_256
    key = shake_256(seed.to_bytes(16, "big", signed=True))
    for tag in tags:
        key.update(b"\x00" + tag)
    return key


def _draw(key, attempt: int, count: int, q: int):
    """count codes in [0, q) for one split attempt: one block read from
    the key with the attempt number absorbed, each code 8 big-endian
    bytes mod q, with a bias of order 2^-64."""
    import struct

    h = key.copy()
    h.update(attempt.to_bytes(8, "big"))
    return tuple(x % q for x in struct.unpack(f">{count}Q", h.digest(8 * count)))


def _poly_tag(f: Poly) -> bytes:
    return (f.field.descriptor() + "|" + ",".join(map(str, f.codes))).encode()


def _factor_key(f: Poly):
    return (f.degree, tuple(reversed(f.codes)))


class Factorization:
    """A (possibly partial) factorization unit * prod(base^mult) * cofactor.

    factors holds ((Poly, int), ...), monic bases canonically sorted;
    cofactor_irreducible is True, False, "unchecked" or None.
    """

    __slots__ = ("unit", "factors", "cofactor", "cofactor_irreducible")

    def __init__(self, unit: FieldElement, factors: tuple,
                 cofactor: Poly = None, cofactor_irreducible=None):
        self.unit = unit
        self.factors = factors
        self.cofactor = cofactor
        self.cofactor_irreducible = cofactor_irreducible

    def value(self) -> Poly:
        out = Poly.constant(self.unit.field, self.unit)
        for base, mult in self.factors:
            out = out * base ** mult
        if self.cofactor is not None:
            out = out * self.cofactor
        return out

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
    one, t = Poly.one(field), Poly.t(field)
    out = []

    def flush(block, f_cur, red):
        # f_cur with the primes the block's residues reveal divided out
        tr = red.enter(t)
        acc = red.enter(one)
        for _, h in block:
            acc = red.mul(acc, red.sub(h, tr))
        if gcd(red.leave(acc), f_cur).degree == 0:
            return f_cur
        for j, h in block:
            g = gcd(red.leave(red.sub(h, tr)), f_cur)
            if g.degree > 0:
                out.append((j, g))
                f_cur = exact_div(f_cur, g)
        return f_cur

    red = ModReducer(f)
    h = red.enter(t)
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
        h = red.frobenius(h)
        block.append((i, h))
        if len(block) >= _DDF_BLOCK or 2 * (i + 1) > f.degree or i == max_degree:
            f_left = flush(block, f, red)
            block = []
            if f_left.degree < f.degree:
                f = f_left
                if f.degree > 0:
                    shrunk = ModReducer(f)
                    h = shrunk.enter(red.leave(h))
                    red = shrunk
    cofactor = None if f.degree == 0 else f
    return out, cofactor


def equal_degree_split(f: Poly, d: int, seed: int = 0):
    """All monic prime factors of f, where f is a monic squarefree
    product of primes of one degree d.  Deterministic in (f, seed).

    Each attempt draws a random residue u as one block (_draw) and
    splits g by gcd(Tr u, g) over q = 2^k or gcd(N^((q-1)/2) - 1, g)
    over odd q, with no gcd(u, g) pre-check."""
    field = f.field
    if f.degree == d:
        return [f]
    if f.degree % d:
        raise FqwilsonError(f"degree {f.degree} is not a multiple of {d}")
    key = _draw_key(seed, b"edf", _poly_tag(f), d.to_bytes(4, "big"))
    q = field.order
    attempt = 0
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        if g.degree == d:
            out.append(g)
            continue
        red = ModReducer(g)
        while True:
            u = Poly(field, _draw(key, attempt, g.degree, q))
            attempt += 1
            if u.degree < 1:
                continue
            if field.char == 2:
                split = gcd(_trace(red, u, d * (q.bit_length() - 1)), g)
            else:
                split = gcd(_half_norm_power(red, u, d) - Poly.one(field), g)
            if 0 < split.degree < g.degree:
                break
        stack.append(split)
        stack.append(exact_div(g, split))
    out.sort(key=_factor_key)
    return out


def _trace(red: ModReducer, u: Poly, m: int) -> Poly:
    """u + u^2 + u^4 + ... + u^(2^(m-1)) mod the reducer's modulus, the
    trace of the residue ring down to F_2 when m = d * log2 q."""
    v = red.enter(u)
    acc = v
    for _ in range(m - 1):
        v = red.pow(v, 2)
        acc = red.sub(acc, v)  # in characteristic 2, - is +
    return red.leave(acc)


# From `benchmarks/mul_threshold.py --edf` (2-core Xeon, best of 3, two
# runs), ms by powmod / the norm from a fresh reducer / the norm again
# on the same reducer, at bucket degree n:
#   F_3 n=270 d=90   15-16 / 5.2-5.4 / 4.7-5.0
#   F_3 n=300 d=5    1.0-1.7 / 0.9-1.5 / 0.5-0.9
#   F_5 n=270 d=90   28-29 / 15 / 8.3-8.4
#   F_5 n=300 d=5    1.9-2.0 / 2.1-2.2 / 1.6-1.8
#   F_5 n=300 d=10   3.6-3.9 / 4.0-5.1 / 1.5-1.9
#   F_7 n=270 d=90   34-40 / 16-19 / 8.6-8.9
#   F_9 n=90 d=30    484-491 / 98 / 74
# A fresh reducer over F_5 or F_7 at degree 300 loses with d <= 10, by
# 4-43%: its at most 9 Frobenius steps are within the frobenius_rent of
# 13, so they are pow(x, q) steps and cost about as much as powmod.
def _half_norm_power(red: ModReducer, u: Poly, d: int) -> Poly:
    """u^((q^d - 1)/2) mod the reducer's modulus, q odd.

    (q^d - 1)/2 = ((q - 1)/2) * (1 + q + ... + q^(d-1)), so the power is
    N^((q-1)/2) for the Frobenius norm N = prod_{i<d} u^(q^i) (von zur
    Gathen & Shoup 1992; von zur Gathen & Gerhard, Modern Computer
    Algebra, section 14.3).  With a_k = prod_{i<k} u^(q^i), N = a_d
    follows the bits of d: a_2k = a_k * a_k^(q^k) and
    a_(k+1) = u * a_k^q.  That is about d Frobenius steps and 2 log2 d
    products, against about 1.5 d log2 q products by square-and-multiply
    (ModReducer.powmod, the oracle the tests compare with); over F_3
    the last power is the identity."""
    r = red.enter(u)
    norm = r
    k = 1
    for bit in bin(d)[3:]:  # the bits of d below the leading one
        norm = red.mul(norm, red.frobenius(norm, k))
        k *= 2
        if bit == "1":
            norm = red.mul(r, red.frobenius(norm))
            k += 1
    return red.leave(red.pow(norm, (red.field.order - 1) // 2))


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
