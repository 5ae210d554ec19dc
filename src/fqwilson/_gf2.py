"""Polynomials over GF(2) packed into Python ints.

Bit i of the integer is the coefficient of t^i, so the zero polynomial
is 0 and deg(f) = f.bit_length() - 1.  Everything here works on ints;
the Poly layer packs and unpacks at its boundary (pack, unpack).  Bits
are spread and gathered in bulk through the int's base-2 text or its
bytes, with translate and slicing, so no Python loop runs per bit
(base 2 is exempt from the int/str digit limit).

Multiplication uses carry-less shift-xor for small operands and a
Kronecker-style substitution into 16-bit lanes for large ones, riding
on CPython's subquadratic big-int multiply; the lanes are spread and
read back with bytes slicing and translate.  Squaring interleaves zero
bits by reading the base-2 text as base 4.

One-shot divisions are shift-xor long division (mod_, divmod_); gcd
runs the same remainder loop inline, and mod_ stays as its oracle.
Residues mod a fixed modulus are TableReducer's.
"""

import functools
import itertools
import operator

# Both constants come from `benchmarks/mul_threshold.py --gf2`: over
# four runs the lane product overtook shift-xor between 48 and 256 bits
# per operand, and a table build plus n reductions overtook n mod_
# calls between modulus degrees 32 and 48 (dense and trinomial moduli).
_MUL_LANE_CUTOVER = 128  # bits; up to this shift-xor wins
_TABLE_MIN_DEG = 40  # modulus degree from which TableReducer builds a table

# ASCII binary digit <-> byte 0 or 1 (an F_2 code)
_DIGIT_TO_BIT = bytes.maketrans(b"01", b"\x00\x01")
_BIT_TO_DIGIT = bytes.maketrans(b"\x00\x01", b"01")
# a 16-bit product lane's low byte -> ASCII digit of its parity
_LANE_PARITY = bytes(b"01"[b & 1] for b in range(256))


def pack(codes) -> int:
    """The packed int of a sequence of F_2 codes: bit i is codes[i]."""
    if not codes:
        return 0
    return int(bytes(codes[::-1]).translate(_BIT_TO_DIGIT), 2)


def unpack(a: int):
    """The F_2 codes of a packed int, without trailing zeros."""
    if not a:
        return ()
    return tuple(format(a, "b")[::-1].encode().translate(_DIGIT_TO_BIT))


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
    bits = format(a, "b")[::-1].encode().translate(_DIGIT_TO_BIT)
    lanes = bytearray(2 * len(bits))
    lanes[::2] = bits
    return int.from_bytes(lanes, "little")


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
    low_bytes = wide.to_bytes(2 * (la + lb - 1), "little")[::2]
    return int(low_bytes.translate(_LANE_PARITY)[::-1], 2)


def sqr(f: int) -> int:
    """f(t)^2 = f(t^2): interleave zero bits, as base-2 digit i read in
    base 4 is bit 2i (base 4 is exempt from the int/str digit limit)."""
    return int(format(f, "b"), 4)


def sub(a: int, b: int) -> int:
    """a - b, which over GF(2) is a + b: one XOR."""
    return a ^ b


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


def _byte_table(m: int) -> list:
    """table[k] is the multiple of m (deg m = n) whose bits n..n+7 read
    k and whose higher bits are 0, that is k*t^n + (k*t^n mod m).  It
    is linear in k, so 8 mod_ calls and 248 XORs build it."""
    n = deg(m)
    table = [0] * 256
    for j in range(8):
        top = 1 << (n + j)
        table[1 << j] = top ^ mod_(top, m)
    for k in range(3, 256):
        low = k & -k
        if k != low:
            table[k] = table[low] ^ table[k ^ low]
    return table


class TableReducer:
    """F_2[t]/(m) for a fixed nonzero m of degree n, on packed ints.

    A call reduces any packed int.  From degree _TABLE_MIN_DEG it works
    like table-driven CRC: a 256-entry table holds, for each byte k,
    the multiple of m whose 8 bits above t^n read k, so one lookup,
    shift and XOR clears the top 8 bits of a dividend.  Below that
    degree it is mod_.  Barrett division, two lane products per call,
    was measured slower than mod_ at every size from 16 to 65,536 bits.
    frobenius is the squaring (over GF(2), x -> x^2 is the Frobenius
    map), and a composition XORs the rows of the coefficients 1.
    """

    __slots__ = ("m", "n", "table")

    def __init__(self, m: int):
        self.m = m
        self.n = deg(m)
        self.table = _byte_table(m) if self.n >= _TABLE_MIN_DEG else None

    def __call__(self, a: int) -> int:
        table = self.table
        if table is None:
            return mod_(a, self.m)
        n = self.n
        # invariant: the bits from n + s + 8 up are 0, so the byte
        # above n + s indexes the table
        s = a.bit_length() - n - 8
        while s > 0:
            a ^= table[a >> (n + s)] << s
            s -= 8
        return a ^ table[a >> n]

    def enter(self, codes) -> int:
        return self(pack(codes))

    def leave(self, a: int):
        return unpack(a)

    def mul(self, a: int, b: int) -> int:
        return self(mul(a, b))

    def sqr(self, a: int) -> int:
        return self(sqr(a))

    frobenius = sqr
    sub = staticmethod(sub)

    def compose(self, codes, rows) -> int:
        return functools.reduce(operator.xor, itertools.compress(rows, codes), 0)


def gcd(a: int, b: int) -> int:
    """The greatest common divisor (zero when both are zero): Euclid
    with mod_'s shift-xor loop inline."""
    while b:
        db = b.bit_length()
        la = a.bit_length()
        while la >= db:
            a ^= b << (la - db)
            la = a.bit_length()
        a, b = b, a
    return a
