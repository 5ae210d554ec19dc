"""Univariate polynomials over the fields of gf.py.

Coefficients are stored as a little-endian tuple of element codes with
no trailing zeros, so (codes, field) is a canonical form and equality
is structural.  The zero polynomial has an empty tuple and degree
NEG_INF.

Multiplication dispatches on the coefficient field: packed-int
carry-less arithmetic over F_2, Kronecker substitution into machine
integers for other small prime fields once the operands have enough
coefficient products to beat schoolbook, and generic schoolbook over
extension fields (whose polynomials stay short in this package).

ModReducer is the residue ring F_q[t]/(m).  Its residues are packed
over F_2 (an int), F_3 (a _gf3 plane pair) and F_p, 5 <= p < 256 (a
Kronecker-packed int, _KronRing), and reduced Polys over extension
fields and for p >= 256; a Frobenius or product chain (Rabin's test,
the Carlitz chain, the Fermat quotients, distinct-degree splitting)
enters the ring once, stays in residue form for every step and leaves
once, so a chain converts once rather than once per step.  Over F_2 it
reduces by a per-modulus byte table (_gf2.TableReducer) once the
modulus degree reaches _gf2._TABLE_MIN_DEG and by shift-xor division
below that, and x -> x^2 is a squaring; over F_3 it reduces by Barrett
division on the planes (_gf3.Reducer) from _gf3._BARRETT_MIN_DEG and
below that by folding each coefficient above t^n back by its row
t^j mod m, and x -> x^3 spreads the coefficients and adds every third
row of that same table.  Over F_p, 5 <= p < 256, a product is one int
multiply and one unpack of its lanes mod p, folded back by the rows
t^j mod m (n <= j <= 2n - 2) below _BARRETT_MIN_DEG
and by Barrett division on the lanes from it, and x -> x^q is a
modular composition x -> x(t^q) by a Composition, a table of rows
t^(qj) mod m, once a chain's pow(x, q) steps have paid for its build;
so it is over extension fields, whose residues reduce by long
division.

Over F_2 a Poly keeps its tuple form and crosses into the packed
kernels through _pack2/_unpack2, which convert via the int's base-2
text, one byte per coefficient translated in bulk, with no Python loop
per coefficient; addition is one XOR of packed ints and negation is the
identity.  Over F_3 it likewise keeps its tuple form, and divrem and
gcd cross into _gf3's planes (the positions of the 1s and of the 2s)
through _gf3.pack/_gf3.unpack.

Over odd prime fields addition and negation reduce each coefficient
inline, and the other hot kernels also work on plain int lists and
make no per-coefficient Field call: Kronecker packing spreads the codes
into lanes of 1, 2, 4 or 8 bytes, unpacking reduces one-byte lanes mod
p in bulk by bytes.translate, and long division (_divrem_prime)
subtracts whole rows and reduces a slot mod p only when it becomes the
leading term.  Over F_3, _divrem_prime stays
only as the oracle the tests compare the planes against, while Poly
products keep _kron_mul: with packing and unpacking paid, the plane
product wins only from about 1,024 coefficients per operand
(`benchmarks/mul_threshold.py --gf3`).  The generic field-call
division (_divrem_field) serves extension fields and stays as the slow
oracle the tests compare against.
"""

from __future__ import annotations

import itertools
import operator
import sys
import time
from array import array

from . import _gf2, _gf3
from .errors import (
    BoundExceeded,
    CoefficientsNotInFixedField,
    DivisionByZero,
    FieldMismatch,
    NotDivisible,
)
from .gf import Field, FieldElement

NEG_INF = float("-inf")

# refuse single objects beyond this degree; keeps runaway exponent
# arithmetic from allocating gigabyte coefficient vectors
DEGREE_GUARD = 1 << 18

# Schoolbook costs a step per coefficient product, Kronecker a fixed
# cost (larger on lanes wider than a byte, which unpack by % per lane)
# plus a little per coefficient, so the cutover is a count of
# coefficient products, len(a) * len(b), not a length (1 x 512 over F_3:
# 91 us by schoolbook, 18 by Kronecker).  The product sweep of
# `benchmarks/mul_threshold.py` (three runs, 2-core Xeon; balanced,
# 1 x k and 4 x k shapes) put it at 3-16 products on one-byte lanes over
# F_3, F_5 and F_7 (4 in five of nine), and over F_251 at 16-32 on
# four-byte lanes and 48-168 on two-byte lanes (1 x k only).  One
# cutover serves every lane width: the workloads multiply over F_3 and
# F_5, where lanes widen only from 4,096 and 256 products.
_KRON_MIN_AREA = 4  # coefficient products from which Kronecker wins
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

# F_2 code (byte 0 or 1) <-> ASCII binary digit, for _pack2/_unpack2
_CODE_TO_DIGIT = bytes.maketrans(b"\x00\x01", b"01")
_DIGIT_TO_CODE = bytes.maketrans(b"01", b"\x00\x01")

_MOD_TABLES = {}  # p -> the bytes.translate table of b -> b mod p


class Poly:
    """A polynomial over a fixed finite field."""

    __slots__ = ("field", "codes")

    def __init__(self, field: Field, codes=()):
        n = len(codes)
        while n and codes[n - 1] == 0:
            n -= 1
        self.field = field
        self.codes = tuple(codes[:n])

    @classmethod
    def from_codes(cls, field: Field, codes) -> "Poly":
        checked = tuple(field(c).code for c in codes)
        return cls(field, checked)

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def t(cls, field: Field) -> "Poly":
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, field: Field, c) -> "Poly":
        return cls(field, (field(c).code,))

    @classmethod
    def monomial(cls, field: Field, e: int, c=1) -> "Poly":
        if e > DEGREE_GUARD:
            raise BoundExceeded(f"monomial degree {e} exceeds guard {DEGREE_GUARD}")
        code = field(c).code
        if code == 0:
            return cls(field, ())
        return cls(field, (0,) * e + (code,))

    # -- structure ----------------------------------------------------

    @property
    def degree(self):
        return len(self.codes) - 1 if self.codes else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.codes

    @property
    def lead_code(self) -> int:
        if not self.codes:
            raise DivisionByZero("zero polynomial has no leading coefficient")
        return self.codes[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.codes) and self.codes[-1] == 1

    def coeff(self, i: int) -> FieldElement:
        code = self.codes[i] if 0 <= i < len(self.codes) else 0
        return FieldElement(self.field, code)

    def monic(self) -> "Poly":
        lc = self.lead_code
        if lc == 1:
            return self
        return self._scale_code(self.field.inv(lc))

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.field == other.field and self.codes == other.codes
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.codes))

    def __bool__(self):
        return bool(self.codes)

    def __repr__(self):
        return f"Poly(F{self.field.order}, {format_poly(self)})"

    def __str__(self):
        return format_poly(self)

    # -- ring operations ----------------------------------------------

    def _check_field(self, other: "Poly"):
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch(
                f"polynomials over F{self.field.order} and F{other.field.order}"
            )

    def __add__(self, other):
        if isinstance(other, (FieldElement, int)):
            other = Poly.constant(self.field, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_field(other)
        a, b = self.codes, other.codes
        if len(a) < len(b):
            a, b = b, a
        field = self.field
        if field.order == 2:
            return Poly(field, _unpack2(_pack2(a) ^ _pack2(b)))
        if field.is_prime_field:
            p = field.char
            out = [(x + y) % p for x, y in zip(a, b)]
            out += a[len(b):]
            return Poly(field, out)
        add = field.add
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return Poly(field, out)

    __radd__ = __add__

    def __neg__(self):
        field = self.field
        if field.order == 2:
            return self
        if field.is_prime_field:
            p = field.char
            return Poly(field, [-c % p for c in self.codes])
        neg = field.neg
        return Poly(field, tuple(neg(c) for c in self.codes))

    def __sub__(self, other):
        if isinstance(other, (FieldElement, int)):
            other = Poly.constant(self.field, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "Poly":
        code = self.field(c).code
        if code == 0:
            return Poly(self.field, ())
        if code == 1:
            return self
        return self._scale_code(code)

    def _scale_code(self, code: int) -> "Poly":
        field = self.field
        if field.is_prime_field:
            p = field.char
            return Poly(field, [x * code % p for x in self.codes])
        mul = field.mul
        return Poly(field, tuple(mul(x, code) for x in self.codes))

    def __mul__(self, other):
        if isinstance(other, (FieldElement, int)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_field(other)
        a, b = self.codes, other.codes
        if not a or not b:
            return Poly(self.field, ())
        if len(a) + len(b) - 2 > DEGREE_GUARD:
            raise BoundExceeded(
                f"product degree {len(a) + len(b) - 2} exceeds guard {DEGREE_GUARD}"
            )
        field = self.field
        if field.is_prime_field:
            if field.char == 2:
                return Poly(field, _unpack2(_gf2.mul(_pack2(a), _pack2(b))))
            p = field.char
            if p < 256 and len(a) * len(b) >= _KRON_MIN_AREA:
                return Poly(field, _kron_mul(a, b, p))
            return Poly(field, _school_mul_prime(a, b, p))
        return Poly(field, _school_mul_generic(a, b, field))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial powers are not defined")
        if e == 0:
            return Poly.one(self.field)
        if self.codes and (len(self.codes) - 1) * e > DEGREE_GUARD:
            raise BoundExceeded(
                f"power degree {(len(self.codes) - 1) * e} exceeds guard {DEGREE_GUARD}"
            )
        result = Poly.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __divmod__(self, other):
        if isinstance(other, (FieldElement, int)):
            other = Poly.constant(self.field, other)
        return divrem(self, other)

    def __floordiv__(self, other):
        return self.__divmod__(other)[0]

    def __mod__(self, other):
        return self.__divmod__(other)[1]

    def __call__(self, x):
        return eval_poly(self, x)

    def derivative(self) -> "Poly":
        field = self.field
        p = field.char
        if field.is_prime_field:
            return Poly(field, [c * j % p for j, c in enumerate(self.codes)][1:])
        mul = field.mul
        out = []
        for j in range(1, len(self.codes)):
            k = j % p
            out.append(mul(self.codes[j], k) if k else 0)
        return Poly(field, out)


# -- multiplication kernels -------------------------------------------


def _pack2(codes) -> int:
    """The packed GF(2) int of F_2 codes: bit i is codes[i]."""
    if not codes:
        return 0
    return int(bytes(codes[::-1]).translate(_CODE_TO_DIGIT), 2)


def _unpack2(packed: int):
    """The F_2 codes of a packed GF(2) int, without trailing zeros."""
    if not packed:
        return ()
    return tuple(format(packed, "b")[::-1].encode().translate(_DIGIT_TO_CODE))


def _school_mul_prime(a, b, p):
    if len(a) > len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(c % p for c in out)


def _school_mul_generic(a, b, field):
    if len(a) > len(b):
        a, b = b, a
    mul = field.mul
    add = field.add
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = add(out[i + j], mul(ai, bj))
    return tuple(out)


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


# -- division ---------------------------------------------------------


def divrem(a: Poly, b: Poly):
    """Quotient and remainder with deg r < deg b."""
    a._check_field(b)
    if b.is_zero:
        raise DivisionByZero("polynomial division by zero")
    field = a.field
    db = len(b.codes) - 1
    if len(a.codes) - 1 < db:
        return Poly.zero(field), a
    if field.is_prime_field:
        if field.char == 2:
            q, r = _gf2.divmod_(_pack2(a.codes), _pack2(b.codes))
            return Poly(field, _unpack2(q)), Poly(field, _unpack2(r))
        if field.char == 3:
            q, r = _gf3.divmod_(_gf3.pack(a.codes), _gf3.pack(b.codes))
            return Poly(field, _gf3.unpack(q)), Poly(field, _gf3.unpack(r))
        q, r = _divrem_prime(a.codes, b.codes, field.char)
    else:
        q, r = _divrem_field(a.codes, b.codes, field)
    return Poly(field, q), Poly(field, r)


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


def _divrem_field(a, b, field):
    """Long division of code sequences through Field calls, deg a >= deg b."""
    mul = field.mul
    sub = field.sub
    db = len(b) - 1
    lead_inv = field.inv(b[-1])
    rem = list(a)
    quot = [0] * (len(a) - db)
    for top in range(len(rem) - 1, db - 1, -1):
        c = rem[top]
        if c == 0:
            continue
        q = mul(c, lead_inv) if lead_inv != 1 else c
        quot[top - db] = q
        off = top - db
        for j in range(db + 1):
            if b[j]:
                rem[off + j] = sub(rem[off + j], mul(q, b[j]))
    return quot, rem[:db]


def exact_div(a: Poly, b: Poly) -> Poly:
    q, r = divrem(a, b)
    if not r.is_zero:
        raise NotDivisible(f"{b} does not divide {a}")
    return q


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor."""
    a._check_field(b)
    field = a.field
    if field.is_prime_field and field.char == 2:
        g = _gf2.gcd(_pack2(a.codes), _pack2(b.codes))
        return Poly(field, _unpack2(g))
    if field.is_prime_field and field.char == 3:
        g = _gf3.gcd(_gf3.pack(a.codes), _gf3.pack(b.codes))
        return Poly(field, _gf3.unpack(g))
    while not b.is_zero:
        a, b = b, divrem(a, b)[1]
    if a.is_zero:
        return a
    return a.monic()


# -- evaluation and composition ---------------------------------------


def _eval_field(f: Poly, x: FieldElement) -> Field:
    ef = x.field
    if ef == f.field or ef.is_extension_of(f.field):
        return ef
    raise FieldMismatch(
        f"cannot evaluate a polynomial over F{f.field.order} at a point of F{ef.order}"
    )


def eval_poly(f: Poly, x) -> FieldElement:
    if isinstance(x, int):
        x = f.field(x)
    ef = _eval_field(f, x)
    times = ef.multiplier(x.code)
    add = ef.add
    acc = 0
    for c in reversed(f.codes):
        acc = add(times(acc), c)
    return FieldElement(ef, acc)


def synth_div(f: Poly, x):
    """Divide by (t - x) synthetically: returns (quotient, f(x)).

    The point may live in an extension of the coefficient field, in
    which case the quotient is a polynomial over that extension.
    """
    if isinstance(x, int):
        x = f.field(x)
    ef = _eval_field(f, x)
    if f.is_zero:
        return Poly.zero(ef), ef.zero
    times = ef.multiplier(x.code)
    add = ef.add
    out = [0] * (len(f.codes) - 1)
    acc = f.codes[-1]
    for i in range(len(f.codes) - 2, -1, -1):
        out[i] = acc
        acc = add(times(acc), f.codes[i])
    return Poly(ef, out), FieldElement(ef, acc)


def q_power_expand(f: Poly, d: int, base_order=None) -> Poly:
    """f raised to the Q = base_order**d power, Q a power of the
    characteristic, for f with coefficients fixed by x -> x^base_order.

    In characteristic p, (sum c_i t^i)^Q = sum c_i^Q t^(iQ); when every
    coefficient satisfies c^base_order = c this is pure exponent
    spreading, which is how Frobenius twists stay cheap.
    """
    field = f.field
    q = field.order if base_order is None else base_order
    if base_order is not None and base_order != field.order:
        for c in f.codes:
            if field.pow(c, q) != c:
                raise CoefficientsNotInFixedField(
                    f"coefficient code {c} is not fixed by x -> x^{q}"
                )
    if f.is_zero or d == 0:
        return f
    big_q = q ** d
    n = len(f.codes) - 1
    if n * big_q > DEGREE_GUARD:
        raise BoundExceeded(
            f"expanded degree {n * big_q} exceeds guard {DEGREE_GUARD}"
        )
    out = [0] * (n * big_q + 1)
    for i, c in enumerate(f.codes):
        out[i * big_q] = c
    return Poly(field, out)


def embed(f: Poly, ext: Field) -> Poly:
    """View f in an extension field; element codes carry over as-is."""
    if ext == f.field:
        return f
    if not ext.is_extension_of(f.field):
        raise FieldMismatch(f"F{ext.order} does not extend F{f.field.order}")
    return Poly(ext, f.codes)


# -- modular contexts -------------------------------------------------


# Prime fields with a packed kernel: char -> (kernel module, pack,
# unpack, reducer class).  Each module has sqr, mul and sub on its
# packed form, and reducer(packed monic modulus) is a callable reduction
# with a frobenius method (x -> x^p of a reduced value).
_PACKED = {
    2: (_gf2, _pack2, _unpack2, _gf2.TableReducer),
    3: (_gf3, _gf3.pack, _gf3.unpack, _gf3.Reducer),
}


class _KronRing:
    """F_p[t]/(m), p < 256, on Kronecker-packed ints.

    Coefficient i of a residue sits in lane i of an int and is kept in
    [0, p), so equal residues are equal ints.  A lane is as wide as
    _kron_lane gives for sums of max(n, p + 1) products of residues
    (n = deg m), so the product of two residues, one int multiply, holds
    the exact convolution sums in its 2n - 1 lanes.  __call__ unpacks
    them mod p once and folds the top n - 1 back.  Below
    _BARRETT_MIN_DEG the fold is one sum of small-int times row products
    over the rows t^j mod m, n <= j <= 2n - 2, built on first use by
    steps of the recurrence t^(i+1) = t * t^i mod m (powers_of_t): O(n^2)
    to build and to hold.  From _BARRETT_MIN_DEG on it is Barrett
    division on the lanes by mu = t^(2n-1) div m, read off the
    Newton-grown inverse of the reversed modulus: two more int products
    and no table (von zur Gathen & Gerhard, Modern Computer Algebra,
    section 9.1).  Either route ends in one unpack mod p and one
    re-pack.
    """

    __slots__ = ("m", "p", "n", "lane", "bits", "_neg", "_top_at", "_low",
                 "_mask", "_pn", "_barrett", "_rows", "_mu")

    def __init__(self, modulus: Poly):
        self.m = modulus
        p = self.p = modulus.field.char
        n = self.n = modulus.degree
        self.lane = _kron_lane(max(n, p + 1), p)
        self.bits = bits = 8 * self.lane[0]
        self._neg = self.pack([-c % p for c in modulus.codes[:n]])  # t^n mod m
        self._top_at = bits * max(n - 1, 0)
        self._low = (1 << self._top_at) - 1
        self._mask = (1 << bits * n) - 1
        self._pn = self.pack([p] * n)
        self._barrett = n >= _BARRETT_MIN_DEG
        self._rows = self._mu = None

    def pack(self, codes) -> int:
        """The residue of codes in [0, p) with at most n of them."""
        return _kron_pack(codes, self.lane[0])

    def unpack(self, r):
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

    def sqr(self, a: int) -> int:
        return a * a

    def mul(self, a: int, b: int) -> int:
        return a * b

    def sub(self, a: int, b: int) -> int:
        # each lane of a + p - b lies in [1, 2p - 1]
        return self._reduced(a + self._pn - b)

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


class ModReducer:
    """Arithmetic in F_q[t]/(m) for a fixed nonzero modulus m.

    Its values are residues: reduced mod m and held in the form the
    modulus's kernel works on, a packed int over F_2, a _gf3 plane pair
    over F_3, a Kronecker-packed int (_KronRing) over F_p for
    5 <= p < 256, and a reduced Poly over extension fields and for
    p >= 256.  enter and leave convert a Poly to its residue and back;
    mul, sub, pow and frobenius stay in residue form, so a chain of them
    converts once at each end rather than once per step.  reduce, mulmod
    and powmod are the Poly-level wrappers.

    Over F_2 the residues reduce by _gf2.TableReducer (a 256-entry byte
    table from degree _gf2._TABLE_MIN_DEG, shift-xor long division
    below it), and frobenius squares.  Over F_3 they reduce by
    _gf3.Reducer, which holds one table of rows t^j mod m,
    n <= j <= 3n - 3: below _gf3._BARRETT_MIN_DEG each coefficient
    above t^n folds back by its row, from it Barrett division runs on
    the two bit planes; frobenius spreads and adds every third row,
    with no product or division.  Over F_p, 5 <= p < 256, a product is
    one int multiply, folded by rows t^j mod m below _BARRETT_MIN_DEG
    and Barrett-reduced on the lanes from it.  Elsewhere residues reduce by
    long division: products there are schoolbook, so Barrett's two
    multiplies cost more than one division (2-4x at modulus degrees
    16-128 over F_4, F_9 and F_625, 2-3x at 8-160 over F_257 and
    F_1009).

    Outside F_2 and F_3, frobenius is a modular composition: every
    coefficient c has c^q = c, so r^q = r(t^q) mod m, which a
    Composition holding the rows t^(qj) mod m (j < deg m) applies with
    no product and no division.  The rows come from the recurrence
    t^(i+1) = t * t^i mod m, a shift and one multiple of m per step
    (see _frobenius_rows for the fields where q steps per row would
    cost more than a product).  The n rows of n lanes cost O(q n^2)
    to build and hold O(n^2), against O(log q) products per pow(r, q)
    step, so a chain much shorter than the build must not pay for it:
    frobenius runs pow steps until they have cost what the rest of the
    table would, then builds it.
    `benchmarks/mul_threshold.py --frob` times a step against
    pow(r, q), the build, and chains of both lengths.
    """

    __slots__ = ("modulus", "field", "_mode", "_kernel", "_pack", "_unpack",
                 "_red", "_ring", "_frob", "_pow_s", "_rows_s")

    def __init__(self, modulus: Poly):
        if modulus.is_zero:
            raise DivisionByZero("zero modulus")
        if not modulus.is_monic:
            modulus = modulus.monic()
        self.modulus = modulus
        self.field = field = modulus.field
        self._ring = self._frob = None
        # time frobenius has spent on pow steps, and on the rows after
        # the monomial ones
        self._pow_s = self._rows_s = 0.0
        if field.is_prime_field and field.char in _PACKED:
            self._mode = "packed"
            self._kernel, self._pack, self._unpack, reducer = _PACKED[field.char]
            self._red = reducer(self._pack(modulus.codes))
        elif field.is_prime_field and field.char < 256:
            self._mode = "kron"
            ring = self._ring = self._kernel = self._red = _KronRing(modulus)
            self._pack, self._unpack = ring.pack, ring.unpack
        else:
            self._mode = "school"

    # -- residue form -------------------------------------------------

    def enter(self, f: Poly):
        """The residue of f."""
        if self._mode == "school":
            return self._reduce_poly(f)
        return self._red(self._pack(f.codes))

    def leave(self, r) -> Poly:
        """The reduced Poly of a residue."""
        if self._mode == "school":
            return r
        return Poly(self.field, self._unpack(r))

    def mul(self, a, b):
        if self._mode == "school":
            return self._reduce_poly(a * b)
        return self._red(self._kernel.mul(a, b))

    def sub(self, a, b):
        if self._mode == "school":
            return a - b
        return self._kernel.sub(a, b)

    def pow(self, r, e: int):
        """r^e, by left-to-right square-and-multiply: one squaring per
        exponent bit below the top one and one product per set bit
        among them (e = 3 costs two products)."""
        if e < 0:
            raise ValueError("negative exponents are not supported mod a polynomial")
        if e == 0:
            return self.enter(Poly.one(self.field))
        packed = self._mode != "school"
        kernel = self._kernel if packed else None
        reduce = self._red if packed else self._reduce_poly
        result = r
        for bit in bin(e)[3:]:  # the exponent bits below the leading one
            result = reduce(kernel.sqr(result) if packed else result * result)
            if bit == "1":
                result = reduce(kernel.mul(result, r) if packed else result * r)
        return result

    # From `benchmarks/mul_threshold.py --frob` (2-core Xeon, best of
    # 5): at modulus degrees 4-64 a table step took 3-28 us over F_5 and
    # F_7 against 13-180 us for pow(x, q) on the Kronecker residues, and
    # 12-1,736 us against 41-13,857 us over F_4 and F_9; a build cost
    # 1-6 pow steps over F_5 and F_7 and 1-2 over F_4 and F_9.  Chains
    # from a fresh reducer over F_5, this route against pow alone and
    # the table built first: degree 8, 4 steps, 0.10 against 0.09 and
    # 0.06 ms; degree 64, 32 steps, 2.2 against 4.3 and 1.5 ms; degree
    # 512, 16 steps, 24 against 23 and 32 ms; degree 2048, 4 steps, 42
    # against 40 and 330 ms, and 64 steps, 490 against 385 and 473 ms.
    def frobenius(self, r, k: int = 1):
        """r^(q^k), q the order of the coefficient field, as k steps
        x -> x^q.  Over F_2 and F_3 each is one call of the packed
        reducer's frobenius.  Elsewhere a step is the composition
        x -> x(t^q) by the row table of t^q once its rows cover x's
        coefficients, and pow(x, q) until then.  Each pow step also
        builds the next row (the first also the monomial rows t^(qj),
        qj < deg m, which cost no step and are not counted), and once
        the pow steps of this reducer have taken as long as the missing
        rows would at the mean cost of those built, the rest are built
        at once: rent, then buy.  A
        chain shorter than the build (a bounded distinct-degree split
        on a large modulus) so stays on pow, and no chain pays much
        more than twice the cheaper route."""
        if self._mode == "packed":
            for _ in range(k):
                r = self._red.frobenius(r)
            return r
        frob = self._frob
        if frob is None:
            frob = self._frob = Composition(self, rows=self._frobenius_rows())
        q = self.field.order
        n = self.modulus.degree
        first = self._monomial_rows()
        clock = time.perf_counter
        for _ in range(k):
            if len(self._codes(r)) <= len(frob.rows):
                r = frob(r)
                continue
            start = clock()
            r = self.pow(r, q)
            self._pow_s += clock() - start
            if not frob.rows:
                frob.grow(first)  # the free rows, with the set-up of the rows
            start = clock()
            frob.grow(1)
            self._rows_s += clock() - start
            built = len(frob.rows) - first
            if self._pow_s * built >= self._rows_s * (n - len(frob.rows)):
                frob.grow(n)
        return r

    # -- rows of a composition table ----------------------------------

    def _codes(self, r):
        """The codes of a residue, without trailing zeros."""
        return r.codes if self._mode == "school" else self._unpack(r)

    def _rows_ring(self):
        """The _KronRing that holds the rows of a composition table: the
        residue ring itself over F_p, 5 <= p < 256, one built on first
        use over F_2 and F_3, and None elsewhere."""
        if self._ring is None and self._mode == "packed":
            self._ring = _KronRing(self.modulus)
        return self._ring

    def _row(self, r):
        """The row form of a residue: the residue itself over F_p,
        5 <= p < 256, its Kronecker-packed int over F_2 and F_3, and
        its codes padded to deg m elsewhere."""
        if self._mode == "kron":
            return r
        codes = self._codes(r)
        ring = self._rows_ring()
        if ring:
            return ring.pack(codes)
        return tuple(codes) + (0,) * (self.modulus.degree - len(codes))

    def _combine(self, codes, rows):
        """The residue sum_j codes[j] * rows[j], rows in row form.  Over
        F_p, p < 256, that is a sum of at most deg m lane products of at
        most (p - 1)^2 each, unpacked mod p once."""
        ring = self._rows_ring()
        if ring:
            codes = _kron_unpack(sum(map(operator.mul, codes, rows)),
                                 ring.n, ring.lane, ring.p)
            return ring.pack(codes) if self._mode == "kron" else self._pack(codes)
        add = self.field.add
        mul = self.field.mul
        out = [0] * self.modulus.degree
        for c, row in zip(codes, rows):
            if c:
                out = [add(o, mul(c, x)) for o, x in zip(out, row)]
        return Poly(self.field, out)

    def _frobenius_rows(self):
        """The rows t^(qj) mod m for j < n = deg m, yielded in order.

        The first _monomial_rows() are the monomials t^(qj), qj < n,
        and cost no step.  Over F_p, 5 <= p < 256, and over extension
        fields with q <= n, each later row is the last times t^q: q
        steps of the recurrence t^(i+1) = t * t^i mod m, a shift and,
        when the top coefficient c leaves, c times -m folded back.  Over
        F_p a step is a few operations on one Kronecker int, whose lanes
        are reduced mod p once per row (_KronRing.powers_of_t).  Over an
        extension field a step is n Field calls, so for q > n the rows
        are the powers of T = t^q mod m instead, one residue product
        each (_power_rows), with T itself about log2(q) products."""
        field = self.field
        n = self.modulus.degree
        q = field.order
        first = self._monomial_rows()
        for j in range(first):
            if self._mode == "kron":
                r = 1 << self._ring.bits * q * j
            else:
                r = (0,) * (q * j) + (1,) + (0,) * (n - 1 - q * j)
            yield r
        if first == n:
            return
        if self._mode == "kron":
            yield from itertools.islice(self._ring.powers_of_t(r, q), 1,
                                        n - first + 1)
            return
        if q > n:
            T = self.pow(self.enter(Poly.t(field)), q)
            yield from itertools.islice(self._power_rows(T), 1, n)
            return
        neg = [field.neg(c) for c in self.modulus.codes[:n]]
        add = field.add
        mul = field.mul
        for _ in range(n - first):
            for _ in range(q):
                top = r[-1]
                r = (0, *r[:-1])
                if top:
                    r = tuple([add(c, mul(top, x)) for c, x in zip(r, neg)])
            yield r

    def _monomial_rows(self) -> int:
        """The count of rows t^(qj) mod m that are monomials, qj < deg m."""
        return -(-self.modulus.degree // self.field.order)

    def _power_rows(self, T):
        """The rows T^0, T^1, ... mod m of a residue T, without end;
        from T^2 on, one residue product each."""
        yield self._row(self.enter(Poly.one(self.field)))
        power = T
        while True:
            yield self._row(power)
            power = self.mul(power, T)

    # -- Poly-level wrappers ------------------------------------------

    def reduce(self, f: Poly) -> Poly:
        if f.degree < self.modulus.degree:
            return f
        return self.leave(self.enter(f))

    def mulmod(self, a: Poly, b: Poly) -> Poly:
        return self.leave(self.mul(self.enter(a), self.enter(b)))

    def powmod(self, a: Poly, e: int) -> Poly:
        return self.leave(self.pow(self.enter(a), e))

    def _reduce_poly(self, f: Poly) -> Poly:
        """f mod m by long division: the residues over extension fields
        and for p >= 256."""
        if f.degree < self.modulus.degree:
            return f
        return divrem(f, self.modulus)[1]


def _trunc(f: Poly, k: int) -> Poly:
    if len(f.codes) <= k:
        return f
    return Poly(f.field, f.codes[:k])


class Composition:
    """r -> r(T) mod m for a fixed residue T of a ModReducer.

    Modular composition is F_q-linear: r = sum r_j t^j maps to
    sum r_j T^j, so with the rows T^j mod m at hand an application is
    one combination of rows.  Over F_p, p < 256, the rows are
    Kronecker-packed ints (over F_p, 5 <= p < 256, the residues
    themselves), and a combination is one small-int times big-int
    product per coefficient and one unpack of the lanes mod p.  The rows
    are drawn from an iterator as they are needed: by default
    ModReducer._power_rows, one residue product each, so a caller that
    composes only short residues pays only for the rows they use; grow
    draws rows ahead of need.
    """

    __slots__ = ("red", "rows", "_more")

    def __init__(self, red: ModReducer, T=None, rows=None):
        """rows, when given, is an iterator over the row forms of T^0,
        T^1, ..., and T is not read."""
        self.red = red
        self.rows = []
        self._more = red._power_rows(T) if rows is None else rows

    def grow(self, count: int) -> None:
        """Draw count more rows, or as many as are left."""
        self.rows.extend(itertools.islice(self._more, count))

    def __call__(self, r):
        red = self.red
        codes = red._codes(r)
        if len(self.rows) < len(codes):
            self.grow(len(codes) - len(self.rows))
        return red._combine(codes, self.rows)


# -- text form --------------------------------------------------------


def format_poly(f: Poly, var: str = "t") -> str:
    """Descending-power text; coefficients print as element codes."""
    if f.is_zero:
        return "0"
    terms = []
    for e in range(len(f.codes) - 1, -1, -1):
        c = f.codes[e]
        if not c:
            continue
        if e == 0:
            terms.append(str(c))
        else:
            v = var if e == 1 else f"{var}^{e}"
            terms.append(v if c == 1 else f"{c}*{v}")
    return "+".join(terms)


def parse_poly(text: str, field: Field, var: str = "t") -> Poly:
    """Parse '2*t^3+t+1' or a '[c0,c1,...]' code list.

    Malformed input raises ValueError naming the bad term or list item.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    if s.startswith("["):
        if not s.endswith("]"):
            raise ValueError(f"unterminated code list: {text!r}")
        inner = s[1:-1].strip()
        if not inner:
            return Poly.zero(field)
        codes = []
        for i, tok in enumerate(inner.split(",")):
            try:
                codes.append(int(tok))
            except ValueError:
                raise ValueError(f"bad item {tok.strip()!r} at position {i} "
                                 f"of code list {text!r}") from None
        return Poly.from_codes(field, codes)
    s = s.replace(" ", "")
    # split into signed terms; a sign right after '^' or '*' stays in its
    # term, which then fails as a whole
    terms = []
    buf = ""
    sign = 1
    for ch in s:
        if ch in "+-" and buf and buf[-1] not in "^*":
            terms.append((sign, buf))
            sign = 1 if ch == "+" else -1
            buf = ""
        elif ch in "+-" and not buf:
            if ch == "-":
                sign = -sign
        else:
            buf += ch
    if not buf:
        raise ValueError(f"dangling sign in {text!r}")
    terms.append((sign, buf))
    acc = Poly.zero(field)
    for sign, term in terms:
        cs, star, vs = term.partition("*")
        if not star:
            i = term.find(var)
            cs, vs = (term, "") if i < 0 else (term[:i], term[i:])
        if vs == var:
            e = 1
        elif vs.startswith(var + "^"):
            e = _term_digits(vs[len(var) + 1:], term)
        elif vs or star:
            raise ValueError(f"bad term {term!r}")
        else:
            e = 0
        coeff = field(_term_digits(cs, term)) if cs or star else field.one
        if sign < 0:
            coeff = -coeff
        acc = acc + Poly.monomial(field, e, coeff)
    return acc


def _term_digits(digits: str, term: str) -> int:
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"bad term {term!r}")
    return int(digits)
