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

A product whose shorter operand has at most _SHIFT_ADD_MAX_LEN
coefficients is shift-add: the longer operand, shifted, is added for
each coefficient 1 of the shorter and subtracted for each 2.  A longer
product spreads ones + 2*twos of each operand into lanes of one int (1
byte while the shorter operand is below _LANE8_MAX_LEN coefficients, 2
below _LANE16_MAX_LEN, 4 above) and multiplies once, riding on
CPython's subquadratic big-int multiply.  Each product lane holds an
exact convolution sum, at most 4 per coefficient of the shorter
operand; it is reduced mod 3 by translating its bytes, since
256 = 1 mod 3.

Division is shift-subtract long division (mod_, divmod_): each step
adds the divisor or its negation, shifted under the dividend's leading
term; it serves one-shot divisions, gcd runs the same loop inline, and
mod_ stays as its oracle.  Residues mod a fixed modulus are Reducer's.
`benchmarks/mul_threshold.py --gf3` sets _SHIFT_ADD_MAX_LEN and
_BARRETT_MIN_DEG and times the Frobenius step against spreading then
reducing, and against a squaring and a product.
"""

from __future__ import annotations

# From `benchmarks/mul_threshold.py --gf3` (three runs, 2-core Xeon):
# n Barrett reductions with their set-up overtook n row-table folds with
# the table's build between modulus degrees 28 and 32 (0.84-0.92 of
# Barrett's time by the fold at 28, 0.85-0.88 of the fold's by Barrett
# at 32, where a row outgrows one 30-bit int digit); the fold took
# 0.53-1.0 of the time of n long divisions at degrees 7 to 512.
_BARRETT_MIN_DEG = 32  # modulus degree from which Reducer uses Barrett

# Lane widths by the shorter operand's length: a lane sums at most 4
# per coefficient of it, so 4 * 63 < 2^8 and 4 * (2^14 - 1) < 2^16;
# from 2^14 on, lanes are 4 bytes.
_LANE8_MAX_LEN = 64
_LANE16_MAX_LEN = 1 << 14

# From the same sweep: on n x n operands shift-add took 0.57-0.69 of
# the lane product's time at n = 20 and lost from 24-28; on n x 8n
# operands it held up to 28.
_SHIFT_ADD_MAX_LEN = 20  # shorter operand length up to which mul shifts and adds

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


def mul(a, b):
    """The product of two F_3 polynomials: shifts and adds of the longer
    operand while the shorter has at most _SHIFT_ADD_MAX_LEN
    coefficients, one lane product above that."""
    la = max(a[0].bit_length(), a[1].bit_length())
    lb = max(b[0].bit_length(), b[1].bit_length())
    if la > lb:
        a, b, la, lb = b, a, lb, la
    if la <= _SHIFT_ADD_MAX_LEN:
        return _shift_add(a, b)
    width = _lane_width(la)
    return _unlane(_lanes(_codes(a), width) * _lanes(_codes(b), width),
                   la + lb - 1, width)


def _shift_add(a, b):
    """a * b as b * t^i added for each coefficient 1 of a and subtracted
    for each 2."""
    b1, b2 = b
    r1 = r2 = 0
    x = a[0]
    while x:
        bit = x & -x  # a power of two, so b * bit is a shift
        x ^= bit
        y1, y2 = b1 * bit, b2 * bit
        t = (r1 | y2) ^ (r2 | y1)
        r1, r2 = (r2 | y2) ^ t, (r1 | y1) ^ t
    x = a[1]
    while x:
        bit = x & -x
        x ^= bit
        y1, y2 = b1 * bit, b2 * bit
        t = (r1 | y1) ^ (r2 | y2)
        r1, r2 = (r2 | y1) ^ t, (r1 | y2) ^ t
    return r1, r2


def _lane_width(length: int) -> int:
    """Bytes per lane for products whose shorter operand has length
    coefficients: a lane sums at most 4 per coefficient of it."""
    if length < _LANE8_MAX_LEN:
        return 1
    return 2 if length < _LANE16_MAX_LEN else 4


def _lanes(codes: bytes, width: int) -> int:
    """The int whose width-byte lane i holds codes[-1 - i]."""
    if width == 1:
        return int.from_bytes(codes, "big")
    spread = bytearray(width * len(codes))
    spread[width - 1::width] = codes
    return int.from_bytes(spread, "big")


def _unlane(wide: int, n: int, width: int):
    """The planes of the n lowest width-byte lanes of wide, mod 3."""
    raw = wide.to_bytes(width * n, "big")
    if width > 1:
        # a lane is the sum of its bytes mod 3 (256 = 1 mod 3); their
        # residues add to at most 2 * width, so the byte sum does not
        # carry
        folded = 0
        for j in range(width):
            folded += int.from_bytes(raw[j::width].translate(_MOD3), "big")
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
    """The monic greatest common divisor (zero when both are zero):
    Euclid with mod_'s loop inline, each divisor made monic first so
    the leading coefficient of the dividend alone picks the step."""
    a1, a2 = a
    b1, b2 = b
    while b1 or b2:
        l1, l2 = b1.bit_length(), b2.bit_length()
        if l2 > l1:  # leading coefficient 2: divide by -b instead
            b1, b2, l1 = b2, b1, l2
        db = l1
        while True:
            l1, l2 = a1.bit_length(), a2.bit_length()
            if l1 > l2:  # lead(a) = 1: add -b t^s
                s = l1 - db
                if s < 0:
                    break
                y1, y2 = b2 << s, b1 << s
            else:  # lead(a) = 2, or a = 0: add b t^s
                s = l2 - db
                if s < 0:
                    break
                y1, y2 = b1 << s, b2 << s
            t = (a1 | y2) ^ (a2 | y1)
            a1, a2 = (a2 | y2) ^ t, (a1 | y1) ^ t
        a1, a2, b1, b2 = b1, b2, a1, a2
    if a2.bit_length() > a1.bit_length():
        return a2, a1  # leading coefficient 2
    return a1, a2


def _spread(x: int) -> int:
    """x(t^3) for one plane x: bit i moves to bit 3i."""
    if x < 256:
        return _SPREAD[x]
    return int("00".join(format(x, "b")), 2)


# x -> x(t^3) for the planes below 2^8: a Frobenius step on a reduced
# value takes 0.37-0.66 of the text route's time at n = 5-24
_SPREAD = [0] * 256
for _x in range(1, 256):
    _SPREAD[_x] = _SPREAD[_x >> 1] << 3 | _x & 1
del _x


def _fold_rows(r1, r2, x1, x2, rows, start, step):
    """(r1, r2) plus rows[start + step*i] for each bit i of x1, and minus
    it for each bit i of x2."""
    while x1:
        bit = x1 & -x1
        x1 ^= bit
        y1, y2 = rows[start + step * (bit.bit_length() - 1)]
        t = (r1 | y2) ^ (r2 | y1)
        r1, r2 = (r2 | y2) ^ t, (r1 | y1) ^ t
    while x2:
        bit = x2 & -x2
        x2 ^= bit
        y1, y2 = rows[start + step * (bit.bit_length() - 1)]
        t = (r1 | y1) ^ (r2 | y2)
        r1, r2 = (r2 | y1) ^ t, (r1 | y2) ^ t
    return r1, r2


class Reducer:
    """F_3[t]/(m) for a fixed monic m of degree n, on plane pairs.

    A call reduces any pair.  Reduction and frobenius read one row
    table, the rows t^j mod m for n <= j <= 3n - 3, built on first use:
    each row is the last shifted by one, with a coefficient that
    reaches t^n folded back as that multiple of t^n mod m = -(m - t^n),
    so a row costs one shift and at most one addition.

    Below _BARRETT_MIN_DEG a call folds: the low n coefficients of a,
    plus the row t^j for each coefficient 1 at t^j, j >= n, and minus it
    for each 2.  That covers a product of two residues (up to t^(2n-2))
    and a spread cube (up to t^(3n-3)); a longer dividend goes through
    mod_.  From _BARRETT_MIN_DEG a call is Barrett division on the
    planes (von zur Gathen & Gerhard, Modern Computer Algebra, section
    9.1) with mu = t^(n+K) div m, K = n - 1, and no reversal.  For
    deg a <= n + K the quotient is ((a div t^n) * mu) div t^K exactly,
    and only the low n coefficients of a - q*m are formed; a longer
    dividend is reduced K + 1 coefficients at a time from the top.  Both
    products are lane products against the lanes of mu and of m - t^n,
    spread once here at the width of n coefficients, which holds every
    factor.

    frobenius(a) is a^3 for a reduced a, with no product and no
    division: a^3 = a(t^3) over F_3, so the coefficients of a below n/3
    spread in place, and each higher coefficient i adds (or, when it is
    2, subtracts) row t^(3i), every third row of the table.  A
    composition likewise adds the rows of the coefficients 1 and
    subtracts those of the coefficients 2.
    """

    __slots__ = ("m", "n", "mask", "rows", "k", "width", "mu", "low",
                 "lane_mask")

    def __init__(self, m):
        self.m = m
        self.n = n = deg(m)
        self.mask = mask = (1 << n) - 1
        self.rows = self.mu = None
        if n >= _BARRETT_MIN_DEG:
            self.k = n - 1
            # a div t^n, q, mu and m - t^n have at most n coefficients
            self.width = width = _lane_width(n)
            self.mu = _lanes(_codes(divmod_((1 << (n + self.k), 0), m)[0]),
                             width)
            low = m[0] & mask, m[1] & mask
            self.low = _lanes(_codes(low), width) if low[0] or low[1] else 0
            self.lane_mask = (1 << 8 * width * n) - 1

    def _table(self):
        """The rows t^j mod m, n <= j <= 3n - 3, stored on the reducer."""
        n = self.n
        top = 1 << n
        m1, m2 = self.m
        row = f = m2 & self.mask, m1 & self.mask  # t^n mod m = -(m - t^n)
        rows = [row] if n > 1 else []
        for _ in range(2 * n - 3):
            r1, r2 = row[0] << 1, row[1] << 1
            if r1 & top:  # 1 * t^n: add t^n mod m
                row = add((r1 ^ top, r2), f)
            elif r2 & top:  # 2 * t^n: subtract it
                row = sub((r1, r2 ^ top), f)
            else:
                row = r1, r2
            rows.append(row)
        self.rows = rows
        return rows

    def __call__(self, a):
        n = self.n
        a1, a2 = a
        if self.mu is None:
            x1, x2 = a1 >> n, a2 >> n
            if not (x1 or x2):
                return a
            if max(x1.bit_length(), x2.bit_length()) > 2 * n - 2:
                return mod_(a, self.m)
            rows = self.rows if self.rows is not None else self._table()
            mask = self.mask
            return _fold_rows(a1 & mask, a2 & mask, x1, x2, rows, 0, 1)
        k = self.k
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
        top = _codes((a1 >> n, a2 >> n))
        width = self.width
        # q = (top * mu) div t^k: the product's lanes from k on
        q = _unlane(_lanes(top, width) * self.mu >> 8 * width * self.k,
                    len(top), width)
        p1, p2 = _unlane(_lanes(_codes(q), width) * self.low & self.lane_mask,
                         n, width)
        return sub((a1 & mask, a2 & mask), (p1, p2))

    def enter(self, codes):
        return self(pack(codes))

    def leave(self, a):
        return unpack(a)

    def mul(self, a, b):
        return self(mul(a, b))

    def sqr(self, a):
        return self(mul(a, a))

    sub = staticmethod(sub)

    def compose(self, codes, rows):
        x1, x2 = pack(codes)
        return _fold_rows(0, 0, x1, x2, rows, 0, 1)

    def frobenius(self, a):
        rows = self.rows if self.rows is not None else self._table()
        n = self.n
        first = -(-n // 3)  # t^(3i) < t^n for i below it
        low = (1 << first) - 1
        a1, a2 = a
        return _fold_rows(_spread(a1 & low), _spread(a2 & low),
                          a1 >> first, a2 >> first, rows, 3 * first - n, 3)
