"""Univariate polynomials over the fields of gf.py.

Coefficients are stored as a little-endian tuple of element codes with
no trailing zeros, so (codes, field) is a canonical form and equality
is structural.  The zero polynomial has an empty tuple and degree
NEG_INF.

Multiplication dispatches on the coefficient field: packed-int
carry-less arithmetic over F_2, Kronecker substitution into machine
integers for other small prime fields once operands are long enough to
beat schoolbook, and generic schoolbook over extension fields (whose
polynomials stay short in this package).  Over F_2 and F_3 ModReducer
keeps its modulus packed and reduces in the packed kernel (_gf2,
_gf3), where powmod also squares and multiplies, converting once per
call: over F_2 by a per-modulus byte table (_gf2.TableReducer) once
the modulus degree reaches _gf2._TABLE_MIN_DEG and by shift-xor
division below that, over F_3 by Barrett division on two bit planes
(_gf3.Reducer) from _gf3._BARRETT_MIN_DEG and by plane long division
below that.  Over
prime fields of characteristic 5 or more it precomputes a Barrett
inverse of the reversed modulus from _BARRETT_MIN_DEG, so repeated
reductions cost two multiplies instead of a quadratic division.

Over F_2 a Poly keeps its tuple form and crosses into the packed
kernels through _pack2/_unpack2, which convert via the int's base-2
text, one byte per coefficient translated in bulk, with no Python loop
per coefficient; addition is one XOR of packed ints and negation is the
identity.  Over F_3 it likewise keeps its tuple form, and divrem and
gcd cross into _gf3's planes (the positions of the 1s and of the 2s)
through _gf3.pack/_gf3.unpack.

Over odd prime fields addition and negation reduce each coefficient
inline, and the other hot kernels also work on plain int lists and
make no per-coefficient Field call: Kronecker packing goes through
array lanes of 1, 2, 4 or 8 bytes, and long division (_divrem_prime)
subtracts whole rows and reduces a slot mod p only when it becomes the
leading term.  Over F_3, _divrem_prime stays only as the oracle the
tests compare the planes against, while Poly
products keep _kron_mul: with packing and unpacking paid, the plane
product wins only from about 1,024 coefficients per operand
(`benchmarks/mul_threshold.py --gf3`).  The generic
field-call division (_divrem_field) serves extension fields and stays
as the slow oracle the tests compare against.
"""

from __future__ import annotations

import sys
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

_KRON_MIN_LEN = 16     # combined length where Kronecker beats schoolbook
_BARRETT_MIN_DEG = 24  # modulus degree where Barrett beats schoolbook, p >= 5

# (byte width, array typecode) for each unsigned lane width the platform
# offers, narrowest first; Kronecker packing picks the first that fits
_KRON_LANES = sorted({array(tc).itemsize: tc for tc in "QLIHB"}.items())
_BIG_ENDIAN = sys.byteorder == "big"

# F_2 code (byte 0 or 1) <-> ASCII binary digit, for _pack2/_unpack2
_CODE_TO_DIGIT = bytes.maketrans(b"\x00\x01", b"01")
_DIGIT_TO_CODE = bytes.maketrans(b"01", b"\x00\x01")


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
            if len(a) + len(b) >= _KRON_MIN_LEN and field.char < 256:
                return Poly(field, _kron_mul(a, b, field.char))
            return Poly(field, _school_mul_prime(a, b, field.char))
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


def _kron_pack(codes, tc) -> int:
    lanes = array(tc, codes)
    if _BIG_ENDIAN:
        lanes.byteswap()
    return int.from_bytes(lanes.tobytes(), "little")


def _kron_mul(a, b, p):
    # pack coefficients into byte-aligned lanes wide enough that the
    # integer product's lanes carry the exact convolution sums
    width, tc = _kron_lane(min(len(a), len(b)), p)
    wide = _kron_pack(a, tc) * _kron_pack(b, tc)
    lanes = array(tc)
    lanes.frombytes(wide.to_bytes(width * (len(a) + len(b) - 1), "little"))
    if _BIG_ENDIAN:
        lanes.byteswap()
    return tuple(c % p for c in lanes)


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
    mul = ef.mul
    add = ef.add
    xc = x.code
    acc = 0
    for c in reversed(f.codes):
        acc = add(mul(acc, xc), c)
    return FieldElement(ef, acc)


def synth_div(f: Poly, x):
    """Divide by (t - x) synthetically: returns (quotient, f(x)).

    The point may live in an extension of the coefficient field, in
    which case the quotient is a polynomial over that extension.
    """
    if isinstance(x, int):
        x = f.field(x)
    ef = _eval_field(f, x)
    mul = ef.mul
    add = ef.add
    xc = x.code
    if f.is_zero:
        return Poly.zero(ef), ef.zero
    out = [0] * (len(f.codes) - 1)
    acc = f.codes[-1]
    for i in range(len(f.codes) - 2, -1, -1):
        out[i] = acc
        acc = add(mul(acc, xc), f.codes[i])
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
# unpack, reducer class).  Each module has sqr and mul on its packed
# form, and reducer(packed monic modulus) is a callable reduction.
_PACKED = {
    2: (_gf2, _pack2, _unpack2, _gf2.TableReducer),
    3: (_gf3, _gf3.pack, _gf3.unpack, _gf3.Reducer),
}


class ModReducer:
    """Reduction context for a fixed nonzero modulus.

    Over F_2 and F_3 it keeps the modulus packed and reduces in the
    packed kernel, where powmod also squares and multiplies, converting
    once per call: over F_2 by _gf2.TableReducer (a 256-entry byte
    table from degree _gf2._TABLE_MIN_DEG, shift-xor long division
    below it), over F_3 by _gf3.Reducer (Barrett division on the two
    bit planes from degree _gf3._BARRETT_MIN_DEG, plane long division
    below it).  Over larger
    prime fields it keeps a Newton-grown power series inverse of the
    reversed modulus (Barrett) once the degree reaches _BARRETT_MIN_DEG,
    and falls back to plain long division for small moduli.  Extension
    fields always use long division: their products are schoolbook, so
    Barrett's two multiplies cost more than one division (2-4x at
    modulus degrees 16-128 over F_4, F_9 and F_625).
    """

    __slots__ = ("modulus", "field", "_mode", "_kernel", "_pack", "_unpack",
                 "_red", "_rm", "_rinv", "_prec")

    def __init__(self, modulus: Poly):
        if modulus.is_zero:
            raise DivisionByZero("zero modulus")
        if not modulus.is_monic:
            modulus = modulus.monic()
        self.modulus = modulus
        self.field = modulus.field
        field = modulus.field
        if field.is_prime_field and field.char in _PACKED:
            self._mode = "packed"
            self._kernel, self._pack, self._unpack, reducer = _PACKED[field.char]
            self._red = reducer(self._pack(modulus.codes))
            return
        if field.is_prime_field and modulus.degree >= _BARRETT_MIN_DEG:
            self._mode = "barrett"
            self._rm = Poly(field, tuple(reversed(modulus.codes)))
            self._rinv = Poly.one(field)  # rm(0) = 1 since modulus is monic
            self._prec = 1
        else:
            self._mode = "school"

    def _ensure(self, prec: int) -> None:
        k = self._prec
        if k >= prec:
            return
        inv = self._rinv
        rm = self._rm
        field = self.field
        while k < prec:
            k = min(2 * k, prec)
            prod = _trunc(_trunc(rm, k) * inv, k)
            err = prod - Poly.one(field)
            if not err.is_zero:
                inv = _trunc(inv - _trunc(inv * err, k), k)
        self._rinv, self._prec = inv, k

    def reduce(self, f: Poly) -> Poly:
        m = self.modulus
        n = m.degree
        if f.degree < n:
            return f
        if self._mode == "packed":
            return Poly(self.field, self._unpack(self._red(self._pack(f.codes))))
        if self._mode == "school":
            return divrem(f, m)[1]
        k = f.degree - n
        self._ensure(k + 1)
        ra = Poly(self.field, tuple(reversed(f.codes)))
        rq = _trunc(ra * self._rinv, k + 1)
        q_codes = list(rq.codes) + [0] * (k + 1 - len(rq.codes))
        q = Poly(self.field, tuple(reversed(q_codes)))
        r = f - q * m
        if r.degree >= n:  # pragma: no cover - algebra guarantees deg r < n
            return divrem(r, m)[1]
        return r

    def mulmod(self, a: Poly, b: Poly) -> Poly:
        return self.reduce(a * b)

    def powmod(self, a: Poly, e: int) -> Poly:
        """a^e reduced, by left-to-right square-and-multiply: one
        squaring per exponent bit below the top one and one product per
        set bit among them (e = 3 costs two products)."""
        if e < 0:
            raise ValueError("negative exponents are not supported mod a polynomial")
        if e == 0:
            return Poly.one(self.field)
        bits = bin(e)[3:]  # the exponent bits below the leading one
        if self._mode == "packed":
            kernel, red = self._kernel, self._red
            pa = red(self._pack(a.codes))
            result = pa
            for bit in bits:
                result = red(kernel.sqr(result))
                if bit == "1":
                    result = red(kernel.mul(result, pa))
            return Poly(self.field, self._unpack(result))
        a = self.reduce(a)
        result = a
        for bit in bits:
            result = self.reduce(result * result)
            if bit == "1":
                result = self.reduce(result * a)
        return result


def _trunc(f: Poly, k: int) -> Poly:
    if len(f.codes) <= k:
        return f
    return Poly(f.field, f.codes[:k])


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
