"""Univariate polynomials over the fields of gf.py.

Coefficients are stored as a little-endian tuple of element codes with
no trailing zeros, so (codes, field) is a canonical form and equality
is structural.  The zero polynomial has an empty tuple and degree
NEG_INF.

Multiplication dispatches on the coefficient field: packed-int
carry-less arithmetic over F_2, the bit planes of _gf3 over F_3,
Kronecker substitution into machine integers for other small prime
fields once the operands have enough coefficient products to beat
schoolbook, and generic schoolbook over extension fields (whose
polynomials stay short in this package).

ModReducer is the residue ring F_q[t]/(m), on one residue-ring kernel
per field behind one interface (see its docstring).  A Frobenius or
product chain (Rabin's test, the Carlitz chain, the Fermat quotients,
distinct-degree splitting) enters the ring once, stays in residue form
for every step and leaves once.

Over F_2 a Poly keeps its tuple form and crosses into the packed
kernels through _gf2.pack/_gf2.unpack; addition is one XOR of packed
ints and negation is the identity.  Over F_3 it likewise keeps its
tuple form, and products, divrem and gcd cross into _gf3's planes (the
positions of the 1s and of the 2s) through _gf3.pack/_gf3.unpack; _gf3
is imported at the first F_3 product, division, gcd or residue ring,
so other fields never compile it.

Over odd prime fields addition and negation reduce each coefficient
inline.  The other kernels over F_p, p >= 5, on plain int lists, live
in _gfp.py (Kronecker products, long division and _KronRing), and the
schoolbook kernels over extension fields in _ext.py (with
_SchoolRing).  Like _gf3, each is imported at its first use, so an F_2
or F_3 run compiles neither.
"""

import itertools

from . import _gf2
from .errors import (BoundExceeded, DivisionByZero, FieldMismatch, FqwilsonError,
                     NotDivisible)
from .gf import Field, FieldElement

NEG_INF = float("-inf")

# refuse single objects beyond this degree; keeps runaway exponent
# arithmetic from allocating gigabyte coefficient vectors
DEGREE_GUARD = 1 << 18

# Schoolbook costs a step per coefficient product, Kronecker a fixed
# cost (larger on lanes wider than a byte, which unpack by % per lane)
# plus a little per coefficient, so the cutover is a count of
# coefficient products, len(a) * len(b), not a length.  The product
# sweep of `benchmarks/mul_threshold.py` (three runs, 2-core Xeon;
# balanced, 1 x k and 4 x k shapes) put it at 3-16 products on one-byte
# lanes over F_5 and F_7, and over F_251 at 16-32 on four-byte lanes and
# 48-168 on two-byte lanes (1 x k only).  One cutover serves every lane
# width: the workloads multiply over F_5, where lanes widen only from
# 256 products.  No F_3 product comes here; they run on _gf3's planes.
_KRON_MIN_AREA = 4  # coefficient products from which Kronecker wins
# the kernel modules, each set by its _load_* at its first use: the F_3
# planes, the int-list kernels over F_p, p >= 5, and the extension fields'
_gf3 = _gfp = _ext = None


def _load_gf3():
    global _gf3
    from . import _gf3
    return _gf3


def _load_gfp():
    global _gfp
    from . import _gfp
    return _gfp


def _load_ext():
    global _ext
    from . import _ext
    return _ext


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
            return Poly(field, _gf2.unpack(_gf2.pack(a) ^ _gf2.pack(b)))
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
                return Poly(field, _gf2.unpack(_gf2.mul(_gf2.pack(a), _gf2.pack(b))))
            if field.char == 3:
                planes = _gf3 or _load_gf3()
                return Poly(field, planes.unpack(planes.mul(planes.pack(a), planes.pack(b))))
            p = field.char
            kernels = _gfp or _load_gfp()
            if p < 256 and len(a) * len(b) >= _KRON_MIN_AREA:
                return Poly(field, kernels._kron_mul(a, b, p))
            return Poly(field, kernels._school_mul_prime(a, b, p))
        return Poly(field, (_ext or _load_ext())._school_mul_field(a, b, field))

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
            q, r = _gf2.divmod_(_gf2.pack(a.codes), _gf2.pack(b.codes))
            return Poly(field, _gf2.unpack(q)), Poly(field, _gf2.unpack(r))
        if field.char == 3:
            planes = _gf3 or _load_gf3()
            q, r = planes.divmod_(planes.pack(a.codes), planes.pack(b.codes))
            return Poly(field, planes.unpack(q)), Poly(field, planes.unpack(r))
        q, r = (_gfp or _load_gfp())._divrem_prime(a.codes, b.codes, field.char)
    else:
        q, r = (_ext or _load_ext())._divrem_field(a.codes, b.codes, field)
    return Poly(field, q), Poly(field, r)


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
        g = _gf2.gcd(_gf2.pack(a.codes), _gf2.pack(b.codes))
        return Poly(field, _gf2.unpack(g))
    if field.is_prime_field and field.char == 3:
        planes = _gf3 or _load_gf3()
        g = planes.gcd(planes.pack(a.codes), planes.pack(b.codes))
        return Poly(field, planes.unpack(g))
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
    mul, add, x = ef.mul, ef.add, x.code
    acc = 0
    for c in reversed(f.codes):
        acc = add(mul(acc, x), c)
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
    mul, add, x = ef.mul, ef.add, x.code
    out = [0] * (len(f.codes) - 1)
    acc = f.codes[-1]
    for i in range(len(f.codes) - 2, -1, -1):
        out[i] = acc
        acc = add(mul(acc, x), f.codes[i])
    return Poly(ef, out), FieldElement(ef, acc)


def q_power_expand(f: Poly, d: int) -> Poly:
    """f^(q^d), q the order of f's coefficient field.

    In characteristic p, (sum c_i t^i)^Q = sum c_i^Q t^(iQ) for Q a
    power of p, and every coefficient has c^q = c, so this is pure
    exponent spreading, which is how Frobenius twists stay cheap.
    """
    if f.is_zero or d == 0:
        return f
    field = f.field
    big_q = field.order ** d
    n = len(f.codes) - 1
    if n * big_q > DEGREE_GUARD:
        raise BoundExceeded(
            f"expanded degree {n * big_q} exceeds guard {DEGREE_GUARD}"
        )
    out = [0] * (n * big_q + 1)
    for i, c in enumerate(f.codes):
        out[i * big_q] = c
    return Poly(field, out)


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


def embed(f: Poly, ext: Field) -> Poly:
    """View f in an extension field; element codes carry over as-is."""
    if ext == f.field:
        return f
    if not ext.is_extension_of(f.field):
        raise FieldMismatch(f"F{ext.order} does not extend F{f.field.order}")
    return Poly(ext, f.codes)


# -- residue rings ----------------------------------------------------


def _residue_ring(modulus: Poly):
    """The residue ring of a monic modulus: the packed kernels over F_2
    and F_3, Kronecker-packed ints over F_p, 5 <= p < 256, and reduced
    Polys elsewhere."""
    field = modulus.field
    if field.order == 2:
        return _gf2.TableReducer(_gf2.pack(modulus.codes))
    if field.order == 3:
        planes = _gf3 or _load_gf3()
        return planes.Reducer(planes.pack(modulus.codes))
    if field.is_prime_field and field.order < 256:
        return (_gfp or _load_gfp())._KronRing(modulus)
    return (_ext or _load_ext())._SchoolRing(modulus)


def _power(ring, r, e: int):
    """r^e in a residue ring, e >= 0, by left-to-right square-and-
    multiply: one squaring per exponent bit below the top one and one
    product per set bit among them (e = 3 costs two products)."""
    if e == 0:
        return ring.enter((1,))
    result = r
    for bit in bin(e)[3:]:  # the exponent bits below the leading one
        result = ring.sqr(result)
        if bit == "1":
            result = ring.mul(result, r)
    return result


def _powers(ring, T):
    """T^0, T^1, ... in a residue ring, without end; from T^2 on, one
    product each."""
    yield ring.enter((1,))
    power = T
    while True:
        yield power
        power = ring.mul(power, T)


class ModReducer:
    """Arithmetic in F_q[t]/(m) for a fixed nonzero modulus m.

    Its values are residues, held in the form of the residue ring that
    _residue_ring picks for the field: a packed int over F_2
    (_gf2.TableReducer), a plane pair over F_3 (_gf3.Reducer), a
    Kronecker-packed int over F_p, 5 <= p < 256 (_gfp._KronRing), and a
    reduced Poly elsewhere (_ext._SchoolRing).  Each ring's docstring says
    how it reduces; all of them have one interface: enter(codes) is the
    residue of a code sequence and leave(r) the codes of a residue; mul,
    sqr and sub are residue arithmetic; compose(codes, rows) is the
    residue sum_j codes[j] * rows[j], for rows that are residues of the
    same ring.  A ring with an x -> x^q cheaper than a power has
    frobenius (F_2 and F_3); the others have powers_of_t(r, k), the
    residues r t^(kj), j = 0, 1, ....

    enter and leave convert a Poly to its residue and back; mul, sub,
    pow and frobenius stay in residue form, so a chain of them converts
    once at each end rather than once per step.  reduce and powmod are
    the Poly-level wrappers.

    Over a ring without frobenius, x -> x^q is a modular composition:
    every coefficient c has c^q = c, so r^q = r(t^q) mod m, which a
    Composition holding the rows t^(qj) mod m (j < deg m) applies with
    no product and no division.  The rows come from powers_of_t(r, q).
    The n rows cost O(q n^2) to build and hold O(n^2), against
    O(log q) products per pow(r, q) step, so a chain much shorter than
    the build must not pay for it.  Such a ring has frobenius_rent, the
    build's cost counted in pow steps and worked out from the modulus
    alone: ceil(sqrt(n/2)) on _KronRing, 1 on _SchoolRing.  frobenius
    takes that many pow steps on a reducer before it composes, so which
    route a step takes depends only on the input.
    `benchmarks/mul_threshold.py --frob` prints the rent beside the
    measured build / pow-step ratio, and times chains of both routes.
    """

    __slots__ = ("modulus", "field", "_ring", "_frob", "_rent")

    def __init__(self, modulus: Poly):
        if modulus.is_zero:
            raise DivisionByZero("zero modulus")
        if not modulus.is_monic:
            modulus = modulus.monic()
        self.modulus = modulus
        self.field = modulus.field
        self._ring = _residue_ring(modulus)
        self._frob = None
        self._rent = getattr(self._ring, "frobenius_rent", 0)  # pow steps left

    # -- residue form -------------------------------------------------

    def enter(self, f: Poly):
        """The residue of f."""
        return self._ring.enter(f.codes)

    def leave(self, r) -> Poly:
        """The reduced Poly of a residue."""
        return Poly(self.field, self._ring.leave(r))

    def mul(self, a, b):
        return self._ring.mul(a, b)

    def sub(self, a, b):
        return self._ring.sub(a, b)

    def pow(self, r, e: int):
        """r^e by square-and-multiply (_power)."""
        if e < 0:
            raise ValueError("negative exponents are not supported mod a polynomial")
        return _power(self._ring, r, e)

    # From `benchmarks/mul_threshold.py --frob` (2-core Xeon, best of 5,
    # two runs): a table build cost 0.8-1.3 times frobenius_rent in
    # pow(x, q) steps over F_5 at modulus degrees 16-2048, 0.7-1.0 times
    # over F_7 at 16-1024 (0.4-0.5 at 2048, on four-byte lanes), 0.9-1.7
    # steps over F_4 and F_9 at 4-128 and 1.9-2.4 over F_25 at 32-128;
    # where the rows are products by t^q, 0.7-3.8 over F_25 at 4-24 and
    # 1.2-14 over F_257 at 4-128.  Chains of k steps from a fresh reducer
    # over F_5, ms by this route / pow alone / the table built first
    # (medians of five runs):
    #   n=8     k=4 0.05/0.04/0.03   k=8 0.05/0.06/0.03
    #   n=64    k=4 0.36/0.36/0.39   k=32 1.1/2.0/0.70
    #   n=512   k=4 3.0/3.1/13       k=16 11/11/16     k=256 85/162/79
    #   n=2048  k=4 19/19/179        k=16 69/69/218    k=64 403/271/365
    def frobenius(self, r, k: int = 1):
        """r^(q^k), q the order of the coefficient field, as k steps
        x -> x^q.  Where the ring has a frobenius, each is one call of
        it.  Elsewhere the first frobenius_rent steps on this reducer
        are pow(x, q), and every later step is the composition
        x -> x(t^q) through one Composition, which draws the rows
        t^(qj) mod m as the residues need them: rent, then buy (Karlin,
        Manasse, Rudolph & Sleator 1988).  With the rent at the build's
        cost in steps, a chain shorter than the build (a bounded
        distinct-degree split on a large modulus) stays on pow, and no
        chain pays much more than twice the cheaper route."""
        step = getattr(self._ring, "frobenius", None)
        if step is not None:
            for _ in range(k):
                r = step(r)
            return r
        rent = min(k, self._rent)
        self._rent -= rent
        q = self.field.order
        for _ in range(rent):
            r = self.pow(r, q)
        if rent < k:
            frob = self._frob
            if frob is None:
                frob = self._frob = Composition(self, rows=self._frobenius_rows())
            for _ in range(k - rent):
                r = frob(r)
        return r

    def _frobenius_rows(self):
        """The rows t^(qj) mod m for j < deg m, as residues, yielded in
        order: the monomials t^(qj), qj < deg m, cost no step; each
        later row is the last times t^q, by the ring's powers_of_t."""
        ring, q, n = self._ring, self.field.order, self.modulus.degree
        first = -(-n // q)  # the monomial rows
        for j in range(first):
            r = ring.enter((0,) * (q * j) + (1,))
            yield r
        if first < n:
            yield from itertools.islice(ring.powers_of_t(r, q), 1, n - first + 1)

    # -- Poly-level wrappers ------------------------------------------

    def reduce(self, f: Poly) -> Poly:
        if f.degree < self.modulus.degree:
            return f
        return self.leave(self.enter(f))

    def powmod(self, a: Poly, e: int) -> Poly:
        return self.leave(self.pow(self.enter(a), e))


class Composition:
    """r -> r(T) mod m for a fixed residue T of a ModReducer.

    Modular composition is F_q-linear: r = sum r_j t^j maps to
    sum r_j T^j, so with the rows T^j mod m at hand an application is
    one compose of the reducer's ring.  The rows are residues, drawn
    from an iterator as they are needed: by default the powers of T,
    one residue product each, so a caller that composes only short
    residues pays only for the rows they use; grow draws rows ahead of
    need.
    """

    __slots__ = ("ring", "rows", "_more")

    def __init__(self, red: ModReducer, T=None, rows=None):
        """rows, when given, is an iterator over the residues T^0,
        T^1, ..., and T is not read."""
        self.ring = red._ring
        self.rows = []
        self._more = _powers(self.ring, T) if rows is None else rows

    def grow(self, count: int) -> None:
        """Draw count more rows, or as many as are left."""
        self.rows.extend(itertools.islice(self._more, count))

    def __call__(self, r):
        ring = self.ring
        codes = ring.leave(r)
        if len(self.rows) < len(codes):
            self.grow(len(codes) - len(self.rows))
        return ring.compose(codes, self.rows)


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
