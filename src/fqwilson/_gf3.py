"""Polynomials over F_3 as two bit planes packed into Python ints.

A polynomial is a pair (ones, twos) of ints with disjoint bits: bit i of
ones is set when the coefficient of t^i is 1, bit i of twos when it is
2.  The zero polynomial is (0, 0) and deg(a) is the longer plane's bit
length less one.  This is the bit-sliced form of Boothby & Bradshaw
("Bitslicing and the Method of Four Russians over larger finite
fields", 2009): one big-int operation acts on every coefficient at once,
so addition is the seven operations of Kawahara, Aoki & Takagi and
negation swaps the planes.  Everything here works on pairs; the Poly
layer packs and unpacks at its boundary.

Packing and unpacking go through bytes.translate and the planes' text
forms, with no Python loop per coefficient: a plane's base-2 text read
as base 16 puts each of its bits in its own hex digit, so ones + 2*twos
in that form prints the coefficients as hex digits.

A product spreads ones + 2*twos of each operand into 16-bit lanes of one
int (8-bit lanes while the shorter operand is below _LANE8_MAX_LEN
coefficients) and multiplies once, riding on CPython's subquadratic
big-int multiply.  Each product lane holds an exact convolution sum;
it is reduced mod 3 by translating its bytes, since 256 = 1 mod 3.  A
sum has at most 4 terms per coefficient of the shorter operand, so
operands of 2^14 coefficients or more are split.

Division is shift-subtract long division: each step adds the divisor or
its negation, shifted under the dividend's leading term.  Reduction by
a fixed monic modulus of degree n goes through Reducer(m): from degree
_BARRETT_MIN_DEG it is Barrett division on the planes (von zur Gathen
& Gerhard, Modern Computer Algebra, section 9.1) with
mu = t^(n+K) div m and no reversal, two products per call; below that
it is long division (mod_), which stays the one-shot route for gcd and
divmod_ and the oracle.
"""

from __future__ import annotations

# From `benchmarks/mul_threshold.py --gf3`: over three runs Barrett
# plus its set-up overtook n long divisions between modulus degrees 32
# and 40 (at 324, the degree of D_4 + 1, it took 0.65-0.85 of the time).
_BARRETT_MIN_DEG = 32  # modulus degree from which Reducer uses Barrett

# Lane widths by the shorter operand's length: a lane sums at most 4
# per coefficient of it, so 4 * 63 < 2^8 and 4 * (2^14 - 1) < 2^16.
_LANE8_MAX_LEN = 64
_LANE16_MAX_LEN = 1 << 14

# F_3 code -> ASCII digit of its ones plane, and of its twos plane
_CODE_TO_ONE = bytes.maketrans(b"\x00\x01\x02", b"010")
_CODE_TO_TWO = bytes.maketrans(b"\x00\x01\x02", b"001")
# ASCII hex digit of ones + 2*twos -> F_3 code
_HEX_TO_CODE = bytes.maketrans(b"012", b"\x00\x01\x02")
# a lane byte b -> b mod 3; and a byte holding 0..4 or a whole 8-bit
# product lane -> ASCII digit of its ones plane, and of its twos plane
_MOD3 = bytes(b % 3 for b in range(256))
_LANE_TO_ONE = bytes(b"010"[b % 3] for b in range(256))
_LANE_TO_TWO = bytes(b"001"[b % 3] for b in range(256))

ZERO = (0, 0)


def pack(codes):
    """The planes of a sequence of F_3 codes, codes[i] the coefficient
    of t^i."""
    if not codes:
        return ZERO
    digits = bytes(codes[::-1])
    return (int(digits.translate(_CODE_TO_ONE), 2),
            int(digits.translate(_CODE_TO_TWO), 2))


def _codes(a) -> bytes:
    """The codes of a nonzero a, one byte each, highest degree first.

    Each plane's base-2 text read as base 16 puts bit i in hex digit i,
    so ones + 2*twos in that form prints coefficient i as hex digit i.
    """
    digits = int(format(a[0], "b"), 16) + (int(format(a[1], "b"), 16) << 1)
    return format(digits, "x").encode().translate(_HEX_TO_CODE)


def unpack(a):
    """The F_3 codes of a, without trailing zeros."""
    if not (a[0] or a[1]):
        return ()
    return tuple(_codes(a)[::-1])


def deg(a) -> int:
    return max(a[0].bit_length(), a[1].bit_length()) - 1


def add(a, b):
    a1, a2 = a
    b1, b2 = b
    t = (a1 | b2) ^ (a2 | b1)
    return (a2 | b2) ^ t, (a1 | b1) ^ t


def sub(a, b):
    a1, a2 = a
    b1, b2 = b
    t = (a1 | b1) ^ (a2 | b2)
    return (a2 | b1) ^ t, (a1 | b2) ^ t


def neg(a):
    return a[1], a[0]


def _mul(a, b):
    """The product of two F_3 polynomials."""
    if not (a[0] or a[1]) or not (b[0] or b[1]):
        return ZERO
    ca, cb = _codes(a), _codes(b)
    if len(ca) > len(cb):
        a, b, ca, cb = b, a, cb, ca
    la = len(ca)
    if la >= _LANE16_MAX_LEN:
        half = la // 2
        mask = (1 << half) - 1
        low = _mul((a[0] & mask, a[1] & mask), b)
        high = _mul((a[0] >> half, a[1] >> half), b)
        return add(low, (high[0] << half, high[1] << half))
    width = 1 if la < _LANE8_MAX_LEN else 2
    return _unlane(_lanes(ca, width) * _lanes(cb, width),
                   la + len(cb) - 1, width)


mul = _mul  # the callers' name; sqr and Reducer's own products use _mul


def sqr(a):
    """a^2, with one spread and an int square."""
    if not (a[0] or a[1]):
        return ZERO
    codes = _codes(a)
    la = len(codes)
    if la >= _LANE16_MAX_LEN:
        return _mul(a, a)
    width = 1 if la < _LANE8_MAX_LEN else 2
    lanes = _lanes(codes, width)
    return _unlane(lanes * lanes, 2 * la - 1, width)


def _lanes(codes: bytes, width: int) -> int:
    """The int whose width-byte lane i holds codes[-1 - i]."""
    if width == 1:
        return int.from_bytes(codes, "big")
    spread = bytearray(2 * len(codes))
    spread[1::2] = codes
    return int.from_bytes(spread, "big")


def _unlane(wide: int, n: int, width: int):
    """The planes of the n lowest width-byte lanes of wide, mod 3."""
    raw = wide.to_bytes(width * n, "big")
    if width == 2:
        # lane = 256*high + low = high + low mod 3; their residues add
        # to at most 4, so the byte sum does not carry
        folded = (int.from_bytes(raw[::2].translate(_MOD3), "big")
                  + int.from_bytes(raw[1::2].translate(_MOD3), "big"))
        raw = folded.to_bytes(n, "big")
    return (int(raw.translate(_LANE_TO_ONE), 2),
            int(raw.translate(_LANE_TO_TWO), 2))


def divmod_(a, b):
    """(quotient, remainder) of a by a nonzero b."""
    db = deg(b)
    if db < 0:
        raise ZeroDivisionError("gf3 division by zero")
    b1, b2 = b
    lead_one = b1.bit_length() > b2.bit_length()
    a1, a2 = a
    q1 = q2 = 0
    while True:
        l1, l2 = a1.bit_length(), a2.bit_length()
        s = max(l1, l2) - 1 - db
        if s < 0:
            return (q1, q2), (a1, a2)
        # add -c*b*t^s, c = lead(a)/lead(b): c = 1 when the leads agree
        if (l1 > l2) == lead_one:
            q1 |= 1 << s
            y1, y2 = b2 << s, b1 << s
        else:
            q2 |= 1 << s
            y1, y2 = b1 << s, b2 << s
        t = (a1 | y2) ^ (a2 | y1)
        a1, a2 = (a2 | y2) ^ t, (a1 | y1) ^ t


def mod_(a, b):
    """The remainder of a by a nonzero b."""
    db = deg(b)
    b1, b2 = b
    lead_one = b1.bit_length() > b2.bit_length()
    a1, a2 = a
    while True:
        l1, l2 = a1.bit_length(), a2.bit_length()
        s = max(l1, l2) - 1 - db
        if s < 0:
            return a1, a2
        if (l1 > l2) == lead_one:
            y1, y2 = b2 << s, b1 << s
        else:
            y1, y2 = b1 << s, b2 << s
        t = (a1 | y2) ^ (a2 | y1)
        a1, a2 = (a2 | y2) ^ t, (a1 | y1) ^ t


def gcd(a, b):
    """The monic greatest common divisor (zero when both are zero)."""
    while b[0] or b[1]:
        a, b = b, mod_(a, b)
    if a[1].bit_length() > a[0].bit_length():
        return neg(a)  # leading coefficient 2
    return a


class Reducer:
    """Callable a -> a mod m for a fixed monic m: Barrett division on
    the planes from degree _BARRETT_MIN_DEG, mod_ below it.

    Barrett takes mu = t^(n+K) div m with K = n - 1.  For deg a <= n + K
    the quotient is ((a div t^n) * mu) div t^K exactly, and only the low
    n coefficients of a - q*m are formed; a longer dividend is reduced
    K + 1 coefficients at a time from the top.
    """

    __slots__ = ("m", "n", "k", "mu", "low", "mask")

    def __init__(self, m):
        self.m = m
        self.n = n = deg(m)
        self.mu = None
        if n >= _BARRETT_MIN_DEG:
            self.k = n - 1
            self.mu = divmod_((1 << (n + self.k), 0), m)[0]
            self.mask = (1 << n) - 1
            self.low = (m[0] & self.mask, m[1] & self.mask)

    def __call__(self, a):
        if self.mu is None:
            return mod_(a, self.m)
        n, k = self.n, self.k
        a1, a2 = a
        s = max(a1.bit_length(), a2.bit_length()) - 1 - n - k
        while s > 0:  # fold the top n + k + 1 coefficients into n
            keep = (1 << s) - 1
            r1, r2 = self._barrett((a1 >> s, a2 >> s))
            a1, a2 = r1 << s | a1 & keep, r2 << s | a2 & keep
            s = max(a1.bit_length(), a2.bit_length()) - 1 - n - k
        return self._barrett((a1, a2))

    def _barrett(self, a):
        n, mask = self.n, self.mask
        a1, a2 = a
        if max(a1.bit_length(), a2.bit_length()) <= n:
            return a
        q1, q2 = _mul((a1 >> n, a2 >> n), self.mu)
        q = q1 >> self.k, q2 >> self.k
        p1, p2 = _mul(q, self.low)
        return sub((a1 & mask, a2 & mask), (p1 & mask, p2 & mask))
