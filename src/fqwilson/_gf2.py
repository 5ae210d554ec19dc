"""Polynomials over GF(2) packed into Python ints.

Bit i of the integer is the coefficient of t^i, so the zero polynomial
is 0 and deg(f) = f.bit_length() - 1.  All functions here are free
functions on ints; the Poly layer packs and unpacks at its boundary.

Multiplication uses carry-less shift-xor for small operands and a
Kronecker-style substitution into 16-bit lanes for large ones, riding
on CPython's subquadratic big-int multiply.  Reduction is shift-xor
long division (mod_): Barrett division, two lane products per call,
measured slower than it at every size from 16 to 65,536 bits.
"""

from __future__ import annotations

from .gf import _prime_factors

_MUL_LANE_CUTOVER = 2048  # bits; below this shift-xor wins

# byte -> its 16-byte spread (each bit moved to its own 16-bit lane)
_SPREAD = []
for _b in range(256):
    _acc = 0
    for _i in range(8):
        if _b >> _i & 1:
            _acc |= 1 << (16 * _i)
    _SPREAD.append(_acc.to_bytes(16, "little"))

# byte -> squared spread (bit i -> bit 2i), for cheap squaring
_SQR = []
for _b in range(256):
    _acc = 0
    for _i in range(8):
        if _b >> _i & 1:
            _acc |= 1 << (2 * _i)
    _SQR.append(_acc)
del _b, _acc, _i


def deg(f: int) -> int:
    return f.bit_length() - 1


def mul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials."""
    if not a or not b:
        return 0
    if a.bit_length() > b.bit_length():
        a, b = b, a
    if a.bit_length() <= _MUL_LANE_CUTOVER:
        acc = 0
        while a:
            low = a & -a
            acc ^= b * low  # low is a single bit, so this is b << shift
            a ^= low
        return acc
    return _lane_mul(a, b)


def _spread16(a: int) -> int:
    """Place each bit of a into its own 16-bit lane."""
    nbytes = (a.bit_length() + 7) // 8
    raw = a.to_bytes(nbytes, "little")
    return int.from_bytes(b"".join(_SPREAD[byte] for byte in raw), "little")


def _lane_mul(a: int, b: int) -> int:
    # A product lane accumulates at most min(deg a, deg b)+1 terms, so
    # 16-bit lanes cannot overflow below 2^16-bit operands; above that
    # the smaller operand is split.
    if not a or not b:
        return 0
    la, lb = a.bit_length(), b.bit_length()
    if min(la, lb) >= (1 << 16):
        if la > lb:
            a, b = b, a
            la, lb = lb, la
        half = la // 2
        lo = a & ((1 << half) - 1)
        return _lane_mul(lo, b) ^ (_lane_mul(a >> half, b) << half)
    wide = _spread16(a) * _spread16(b)
    nlanes = la + lb - 1
    raw = wide.to_bytes(2 * nlanes + 4, "little")
    out = 0
    for i in range(nlanes):
        if raw[2 * i] & 1:
            out |= 1 << i
    return out


def sqr(f: int) -> int:
    """f(t)^2 = f(t^2): interleave zero bits."""
    if not f:
        return 0
    nbytes = (f.bit_length() + 7) // 8
    raw = f.to_bytes(nbytes, "little")
    out = 0
    for i, byte in enumerate(raw):
        if byte:
            out |= _SQR[byte] << (16 * i)
    return out


def divmod_(a: int, b: int):
    if not b:
        raise ZeroDivisionError("gf2 division by zero")
    db = deg(b)
    q = 0
    while a.bit_length() - 1 >= db:
        shift = a.bit_length() - 1 - db
        q |= 1 << shift
        a ^= b << shift
    return q, a


def mod_(a: int, b: int) -> int:
    db = deg(b)
    while a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def gcd(a: int, b: int) -> int:
    while b:
        a, b = b, mod_(a, b)
    return a


def is_irreducible(f: int) -> bool:
    """Rabin's test, specialised to GF(2) with packed squarings."""
    n = deg(f)
    if n <= 0:
        return False
    if n == 1:
        return True
    if not f & 1:
        return False  # divisible by t
    if bin(f).count("1") % 2 == 0:
        return False  # divisible by t+1
    checkpoints = sorted({n // r for r in _prime_factors(n)})
    h = 2  # the polynomial t
    done = 0
    for cp in checkpoints:
        for _ in range(cp - done):
            h = mod_(sqr(h), f)
        done = cp
        if gcd(h ^ 2, f) != 1:
            return False
    for _ in range(n - done):
        h = mod_(sqr(h), f)
    return h == 2
