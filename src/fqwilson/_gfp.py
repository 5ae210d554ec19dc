"""Polynomial kernels over F_p, p >= 5, on plain int lists.

poly loads this module at its first use, a product, division or
residue ring over F_p, p >= 5, so F_2 and F_3 runs never compile it
(F_3 has the planes of _gf3).  The kernels make no per-coefficient
Field call: Kronecker packing spreads the codes into lanes of 1, 2, 4
or 8 bytes, unpacking reduces one-byte lanes mod p in bulk by
bytes.translate, and long division (_divrem_prime) subtracts whole rows
and reduces a slot mod p only when it becomes the leading term.  The
kernels take any prime p < 256, so the tests use _school_mul_prime and
_divrem_prime at p = 2 and 3 as oracles for the packed kernels.
"""

import itertools
import math
import operator
import sys
from array import array

from .errors import BoundExceeded
from .poly import Poly

# From the reduction sweep of `benchmarks/mul_threshold.py` (2-core Xeon,
# three runs, product of two residues): over F_5 and F_7 _KronRing's
# Barrett overtakes its fold per reduction between modulus degrees 40
# and 72 (F_251, on four-byte lanes, at 80-150), and its set-up (mu)
# undercuts the fold's O(n^2) rows from about 32-40; both beat the
# school long division by 1.6-25x at degrees 8-160.
_BARRETT_MIN_DEG = 48  # modulus degree from which _KronRing uses Barrett

# (byte width, array typecode) for each unsigned lane width the platform
# offers, narrowest first; Kronecker packing picks the first that fits
_KRON_LANES = sorted({array(tc).itemsize: tc for tc in "QLIHB"}.items())
_BIG_ENDIAN = sys.byteorder == "big"

_MOD_TABLES = {}  # p -> the bytes.translate table of b -> b mod p


def _school_mul_prime(a, b, p):
    if len(a) > len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(c % p for c in out)


def _kron_lane(min_len: int, p: int):
    """(byte width, typecode) of the narrowest array lane that holds a
    convolution sum of min_len products of residues mod p."""
    maxsum = min_len * (p - 1) * (p - 1)
    for width, tc in _KRON_LANES:
        if maxsum < 1 << (8 * width):
            return width, tc
    raise BoundExceeded(f"no array lane holds {maxsum}")


def _kron_pack(codes, width: int) -> int:
    """The Kronecker int whose width-byte lane i holds codes[i], each
    code below 256."""
    if width == 1:
        return int.from_bytes(codes, "little")
    spread = bytearray(width * len(codes))
    spread[::width] = codes
    return int.from_bytes(spread, "little")


def _kron_unpack(wide: int, count: int, lane, p):
    """The first count lanes of a Kronecker int, each reduced mod p, as
    bytes: one-byte lanes in bulk by bytes.translate through the table
    of b mod p, wider lanes by one % each."""
    width, tc = lane
    raw = wide.to_bytes(width * count, "little")
    if width == 1:
        return raw.translate(_MOD_TABLES.get(p) or _mod_table(p))
    lanes = array(tc)
    lanes.frombytes(raw)
    if _BIG_ENDIAN:
        lanes.byteswap()
    return bytes([c % p for c in lanes])


def _mod_table(p: int) -> bytes:
    """The bytes.translate table of b -> b mod p, built once per p."""
    table = _MOD_TABLES[p] = bytes(b % p for b in range(256))
    return table


def _kron_mul(a, b, p):
    # pack coefficients into byte-aligned lanes wide enough that the
    # integer product's lanes carry the exact convolution sums
    lane = _kron_lane(min(len(a), len(b)), p)
    wide = _kron_pack(a, lane[0]) * _kron_pack(b, lane[0])
    return tuple(_kron_unpack(wide, len(a) + len(b) - 1, lane, p))


def _divrem_prime(a, b, p):
    """Long division of code sequences over F_p, deg a >= deg b.

    Slots accumulate unreduced ints; a slot is reduced mod p when it
    becomes the leading term, and the remainder once at the end.  The
    negated divisor row is kept in [0, p), so the slots stay
    non-negative and, for small p, mostly inside the interpreter's
    cache of small ints, which saves allocations.
    """
    db = len(b) - 1
    lead_inv = pow(b[-1], p - 2, p)
    neg_row = [-c % p for c in b[:db]]
    rem = list(a)
    quot = [0] * (len(a) - db)
    for off in range(len(a) - 1 - db, -1, -1):
        top = off + db
        q = rem[top] % p
        if q == 0:
            continue
        if lead_inv != 1:
            q = q * lead_inv % p
        quot[off] = q
        rem[off:top] = [x + q * y for x, y in zip(rem[off:top], neg_row)]
    return quot, [c % p for c in rem[:db]]


class _KronRing:
    """F_p[t]/(m), 5 <= p < 256, on Kronecker-packed ints.

    Coefficient i of a residue sits in lane i of an int and is kept in
    [0, p), so equal residues are equal ints.  A lane is as wide as
    _kron_lane gives for sums of max(n, p + 1) products of residues
    (n = deg m), so the product of two residues, one int multiply, holds
    the exact convolution sums in its 2n - 1 lanes, and a composition,
    a sum of at most n code times row products, holds them in n lanes.
    A call unpacks an int's lanes mod p once and folds the top n - 1
    back.  Below _BARRETT_MIN_DEG the fold is one sum of small-int times
    row products over the rows t^j mod m, n <= j <= 2n - 2, built on
    first use by powers_of_t: O(n^2) to build and to hold.  From
    _BARRETT_MIN_DEG on it is Barrett division on the lanes by
    mu = t^(2n-1) div m, read off the Newton-grown inverse of the
    reversed modulus: two more int products and no table (von zur
    Gathen & Gerhard, Modern Computer Algebra, section 9.1).  Either
    route ends in one unpack mod p and one re-pack.
    """

    __slots__ = ("m", "p", "n", "lane", "bits", "_neg", "_top_at", "_low",
                 "_mask", "_pn", "_barrett", "_rows", "_mu", "frobenius_rent")

    def __init__(self, modulus: Poly):
        self.m = modulus
        p = self.p = modulus.field.char
        n = self.n = modulus.degree
        self.lane = _kron_lane(max(n, p + 1), p)
        width = self.lane[0]
        self.bits = bits = 8 * width
        self._neg = _kron_pack([-c % p for c in modulus.codes[:n]], width)  # t^n mod m
        self._top_at = bits * max(n - 1, 0)
        self._low = (1 << self._top_at) - 1
        self._mask = (1 << bits * n) - 1
        self._pn = _kron_pack([p] * n, width)
        self._barrett = n >= _BARRETT_MIN_DEG
        self._rows = self._mu = None
        rent = math.isqrt(n // 2)
        self.frobenius_rent = rent + (2 * rent * rent < n)

    def enter(self, codes) -> int:
        return self(_kron_pack(codes, self.lane[0]))

    def leave(self, r):
        """The codes of a residue as bytes, without trailing zeros: its
        lanes are below p < 256, so each is its lowest byte."""
        width = self.lane[0]
        raw = r.to_bytes(width * -(-r.bit_length() // self.bits), "little")
        return raw if width == 1 else raw[::width]

    def _reduced(self, wide: int) -> int:
        """The residue of an int of n lanes, each reduced mod p."""
        lane = self.lane
        return _kron_pack(_kron_unpack(wide, self.n, lane, self.p), lane[0])

    def __call__(self, wide: int) -> int:
        """The residue of an int whose lanes hold any values that fit,
        such as the product of two residues."""
        n, lane, p = self.n, self.lane, self.p
        width = lane[0]
        count = -(-wide.bit_length() // self.bits)
        codes = _kron_unpack(wide, count, lane, p)
        if count <= n:
            return _kron_pack(codes, width)
        if count >= 2 * n:  # longer than a product: entering a long Poly
            return _kron_pack(_divrem_prime(codes, self.m.codes, p)[1], width)
        low = _kron_pack(codes[:n], width)
        if self._barrett:
            if self._mu is None:
                inv = _reversed_inverse(self.m, n).codes
                self._mu = _kron_pack((inv + (0,) * (n - len(inv)))[::-1], width)
            # q = ((a div t^n) * mu) div t^(n-1), exact for deg a < 2n
            q = _kron_pack(_kron_unpack(
                _kron_pack(codes[n:], width) * self._mu >> self._top_at,
                count - n, lane, p), width)
            return self._reduced((low + q * self._neg) & self._mask)
        rows = self._rows
        if rows is None:
            rows = self._rows = list(itertools.islice(
                self.powers_of_t(1 << self._top_at, 1), 1, n))
        return self._reduced(sum(map(operator.mul, codes[n:], rows), low))

    def mul(self, a: int, b: int) -> int:
        return self(a * b)

    def sqr(self, a: int) -> int:
        return self(a * a)

    def sub(self, a: int, b: int) -> int:
        # each lane of a + p - b lies in [1, 2p - 1]
        return self._reduced(a + self._pn - b)

    def compose(self, codes, rows) -> int:
        return self._reduced(sum(map(operator.mul, codes, rows)))

    def powers_of_t(self, r: int, k: int):
        """r, r t^k, r t^(2k), ... mod m for a residue r and k <= p,
        without end.  A step is k steps of t^(i+1) = t * t^i mod m on
        the int: a shift and, when the top coefficient c leaves, c times
        -m folded back.  The lanes grow by at most (p - 1)^2 a step and
        are reduced mod p once per power, so they stay below the
        (p + 1)(p - 1)^2 that a lane holds."""
        p, bits, top_at, low, neg = self.p, self.bits, self._top_at, \
            self._low, self._neg
        while True:
            yield r
            for _ in range(k):
                top = (r >> top_at) % p
                r = (r & low) << bits
                if top:
                    r += top * neg
            r = self._reduced(r)


def _reversed_inverse(m: Poly, k: int) -> Poly:
    """1 / rev(m) mod t^k for a monic m (rev(m)(0) = 1), by Newton
    iteration: each step doubles the precision with two products."""
    field = m.field
    one = Poly.one(field)
    rm = Poly(field, tuple(reversed(m.codes)))
    inv, prec = one, 1
    while prec < k:
        prec = min(2 * prec, k)
        err = _trunc(_trunc(rm, prec) * inv, prec) - one
        if not err.is_zero:
            inv = _trunc(inv - _trunc(inv * err, prec), prec)
    return inv


def _trunc(f: Poly, k: int) -> Poly:
    if len(f.codes) <= k:
        return f
    return Poly(f.field, f.codes[:k])
