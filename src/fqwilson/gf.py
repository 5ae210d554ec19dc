"""Finite fields F_p and tower extensions F_q = F_p[x]/(m).

A Field is an immutable value object: a prime field, or an extension of
another field by a monic irreducible modulus.  make_extension verifies
the modulus by Rabin's test; the residue field of a prime that the
enumeration's sieve certified is built without it.  Towers take any
number of levels, so the residue fields F_{q^d} of primes over a
tower F_q are towers one level higher.

Elements are identified by integer codes in [0, order): the base-p
positional encoding of the recursive coefficient vector, least
significant level first.  Prime-field codes are plain residues, and a
subfield element keeps the same code in every extension above it, so
embeddings along the tower are the identity on codes.

Extension-field products start on the slow route: _ext_mul splits both
codes into digits, multiplies them as polynomials over the base and
folds the top half back with the modulus.  A field of order at most
2^16 counts those slow multiplications, and once the count reaches
order // _TABLE_TRIGGER it builds log/antilog (Zech) tables (Huber,
"Some comments on Zech's logarithms", IEEE Trans. IT 1990): exp, the
powers of a primitive element alpha, stored twice over so a sum of two
logs needs no reduction; log, its inverse; and, in odd characteristic,
zech[i] = log(1 + alpha^i), or -1 where 1 + alpha^i = 0.  From then on
mul, inv and pow are lookups, add is exp[la + zech[lb - la]], and neg
adds log(-1) = (q-1)/2; characteristic 2 keeps XOR for add.  The
trigger keeps fields that do little arithmetic (most residue fields of
a survey) from paying for tables, and by then the slow products spent
are within a factor of two of the build cost: benchmarks/mul_threshold.py
measures one _ext_mul at 2-6 times the build cost per element over
F_625 and F_2187.  The build, run once per field, lives in _ext.py,
which is imported at the first build.  _ext_mul and the digit-wise
_digit_add/_digit_neg stay as the slow oracle the tests compare the
tables against.  Before the tables exist, mul takes a product by the
generator x of an extension of a prime field (evaluation and synthetic
division at theta) as one shift and fold of the digits, counted toward
the trigger like any other slow product.
"""

from .errors import DivisionByZero, FieldMismatch, NotMonic, NotPrime, Reducible

_TABLE_MAX_ORDER = 1 << 16  # larger fields stay on _ext_mul
_TABLE_TRIGGER = 4  # build tables after order // 4 slow multiplications

_prime_field_cache: dict[int, "Field"] = {}
_ext = None  # the table build, set by _load_ext at the first build


def _load_ext():
    global _ext
    from . import _ext
    return _ext


class Field:
    """A prime field or a tower extension with a fixed modulus."""

    __slots__ = (
        "char", "order", "base", "degree", "modulus_codes",
        "_fold_rows", "_countdown", "_exp", "_log", "_zech", "_half",
        "_x",
    )

    def __init__(self, char, order, base, degree, modulus_codes):
        self.char = char
        self.order = order
        self.base = base
        # degree is the extension degree over base; 1 for prime fields
        self.degree = degree
        self.modulus_codes = modulus_codes
        self._fold_rows = None
        # slow multiplications left before the tables pay for themselves;
        # fields without tables start below zero and never reach it
        if base is not None and order <= _TABLE_MAX_ORDER:
            self._countdown = max(1, order // _TABLE_TRIGGER)
        else:
            self._countdown = -1
        self._exp = self._log = self._zech = None
        self._half = 0
        # the code of x where mul shifts and folds for a product by it;
        # -1, which is no code, elsewhere
        prime_base = base is not None and base.base is None
        self._x = base.order if prime_base and degree > 1 else -1

    # -- identity -----------------------------------------------------

    def _key(self):
        if self.base is None:
            return (self.char,)
        return self.base._key() + (self.modulus_codes,)

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Field) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Field({self.descriptor()!r})"

    @property
    def is_prime_field(self) -> bool:
        return self.base is None

    def descriptor(self) -> str:
        if self.base is None:
            return str(self.char)
        from .poly import Poly, format_poly  # poly imports this module

        mod = format_poly(Poly(self.base, self.modulus_codes))
        if self.base.is_prime_field:
            return f"{self.order}:{mod}"
        return f"{self.base.descriptor()}/{mod}"

    def is_extension_of(self, other: "Field") -> bool:
        f = self
        while f is not None:
            if f == other:
                return True
            f = f.base
        return False

    # -- element codecs -----------------------------------------------

    def digits(self, code: int) -> list[int]:
        """Little-endian coefficient codes of an element over the base."""
        b = self.base.order
        out = []
        for _ in range(self.degree):
            code, r = divmod(code, b)
            out.append(r)
        return out

    def undigits(self, digs) -> int:
        b = self.base.order
        out = 0
        for d in reversed(digs):
            out = out * b + d
        return out

    def __call__(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.field == self:
                return value
            if self.is_extension_of(value.field):
                return FieldElement(self, value.code)
            raise FieldMismatch(f"cannot view {value!r} in {self!r}")
        code = int(value)
        if self.base is None:
            return FieldElement(self, code % self.char)
        if not 0 <= code < self.order:
            raise ValueError(f"code {code} out of range for {self!r}")
        return FieldElement(self, code)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    @property
    def gen_code(self) -> int:
        """Code of the image of the modulus indeterminate."""
        if self.base is None:
            raise FieldMismatch("prime fields have no extension generator")
        if self.degree == 1:
            return self.base.neg(self.modulus_codes[0])
        return self.base.order

    # -- code-level arithmetic ----------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.base is None:
            return (a + b) % self.char
        if self.char == 2:
            return a ^ b
        log = self._log
        if log is None:
            return self._digit_add(a, b)
        if not a:
            return b
        if not b:
            return a
        la = log[a]
        z = self._zech[log[b] - la]
        return self._exp[la + z] if z >= 0 else 0

    def neg(self, a: int) -> int:
        if self.base is None:
            return -a % self.char
        if self.char == 2 or not a:
            return a
        log = self._log
        if log is None:
            return self._digit_neg(a)
        return self._exp[log[a] + self._half]

    def sub(self, a: int, b: int) -> int:
        if self.base is None:
            return (a - b) % self.char
        if self.char == 2:
            return a ^ b
        log = self._log
        if log is None:
            return self._digit_add(a, self._digit_neg(b))
        if not b:
            return a
        lb = log[b] + self._half
        if not a:
            return self._exp[lb]
        la = log[a]
        z = self._zech[lb - la]
        return self._exp[la + z] if z >= 0 else 0

    def mul(self, a: int, b: int) -> int:
        if self.base is None:
            return a * b % self.char
        if a == 0 or b == 0:
            return 0
        log = self._log
        if log is not None:
            return self._exp[log[a] + log[b]]
        if a == 1:
            return b
        if b == 1:
            return a
        self._countdown -= 1
        if self._countdown == 0:
            (_ext or _load_ext())._build_tables(self)
            return self._exp[self._log[a] + self._log[b]]
        if b != self._x:
            return self._ext_mul(a, b)
        # a * x: the digits shift up by one, and the top digit c, which
        # leaves as c * x^k, folds back as c times x^k mod the modulus
        p = self.char
        shifted = a * p
        if shifted < self.order:
            return shifted
        top, shifted = divmod(shifted, self.order)
        out = 0
        weight = 1
        for f in self._fold()[0]:
            shifted, s = divmod(shifted, p)
            out += (s + top * f) % p * weight
            weight *= p
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self.base is None:
            return pow(a, self.char - 2, self.char)
        if self._log is not None:
            return self._exp[-self._log[a]]
        return self.pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        if a == 0:
            return 1 if e == 0 else 0
        if self._log is not None:
            return self._exp[self._log[a] * e % (self.order - 1)]
        e %= self.order - 1
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def pth_root(self, a: int) -> int:
        """Unique p-th root; the inverse of the Frobenius x -> x^p."""
        return self.pow(a, self.order // self.char)

    # -- internals ----------------------------------------------------

    def _digit_add(self, a: int, b: int) -> int:
        """a + b digit by digit over the base field; once the shorter
        operand's digits run out, the rest of the longer carries over."""
        base = self.base
        bo = base.order
        out = 0
        pos = 1
        while a and b:
            a, da = divmod(a, bo)
            b, db = divmod(b, bo)
            out += base.add(da, db) * pos
            pos *= bo
        return out + (a or b) * pos

    def _digit_neg(self, a: int) -> int:
        base = self.base
        bo = base.order
        out = 0
        pos = 1
        while a:
            a, da = divmod(a, bo)
            out += base.neg(da) * pos
            pos *= bo
        return out

    def _fold(self):
        # rows[j] holds the coefficients of x^(k+j) reduced mod the modulus
        if self._fold_rows is None:
            base = self.base
            k = self.degree
            row = [base.neg(c) for c in self.modulus_codes[:k]]
            rows = [tuple(row)]
            for _ in range(k - 2):
                prev = rows[-1]
                shifted = [0] + list(prev[: k - 1])
                top = prev[k - 1]
                if top:
                    first = rows[0]
                    shifted = [
                        base.add(s, base.mul(top, f)) for s, f in zip(shifted, first)
                    ]
                rows.append(tuple(shifted))
            self._fold_rows = rows
        return self._fold_rows

    def _ext_mul(self, a: int, b: int) -> int:
        base = self.base
        k = self.degree
        if k == 1:
            return base.mul(a, b)
        da = self.digits(a)
        db = self.digits(b)
        bmul = base.mul
        badd = base.add
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    if bj:
                        prod[i + j] = badd(prod[i + j], bmul(ai, bj))
        rows = self._fold()
        out = prod[:k]
        for j in range(k, 2 * k - 1):
            c = prod[j]
            if c:
                row = rows[j - k]
                out = [badd(o, bmul(c, r)) if r else o for o, r in zip(out, row)]
        return self.undigits(out)


class FieldElement:
    """An element of a Field, identified by its integer code."""

    __slots__ = ("field", "code")

    def __init__(self, field: Field, code: int):
        self.field = field
        self.code = code

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.field is self.field or other.field == self.field:
                return other.code
            if self.field.is_extension_of(other.field):
                return other.code
            raise FieldMismatch(f"{self!r} and {other!r} live in different fields")
        if isinstance(other, int):
            return self.field(other).code
        return NotImplemented

    def __add__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.add(self.code, c))

    __radd__ = __add__

    def __sub__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(self.code, c))

    def __rsub__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(c, self.code))

    def __mul__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul(self.code, c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul(self.code, self.field.inv(c)))

    def __rtruediv__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul(c, self.field.inv(self.code)))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.code))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow(self.code, e))

    def inverse(self):
        return FieldElement(self.field, self.field.inv(self.code))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            if other.field == self.field or self.field.is_extension_of(other.field) \
                    or other.field.is_extension_of(self.field):
                return self.code == other.code
            return False
        if isinstance(other, int):
            try:
                return self.code == self.field(other).code
            except ValueError:
                return False
        return NotImplemented

    def __hash__(self):
        return hash(("elem", self.field, self.code))

    def __bool__(self):
        return self.code != 0

    def __repr__(self):
        return f"F{self.field.order}({self.code})"


def make_prime_field(p: int) -> Field:
    """The prime field F_p; p is checked by trial division."""
    if p in _prime_field_cache:
        return _prime_field_cache[p]
    if _prime_factors(p) != [p]:
        raise NotPrime(f"{p} is not prime")
    field = Field(char=p, order=p, base=None, degree=1, modulus_codes=None)
    _prime_field_cache[p] = field
    return field


def make_extension(base: Field, modulus) -> Field:
    """Extend base by a monic irreducible modulus, verified by Rabin's
    test.  This is the route for a modulus from outside; a prime that
    the enumeration's sieve has certified gets its residue field from
    _extension, with no second test (irr.PrimeContext)."""
    if modulus.field != base:
        raise FieldMismatch("modulus must have coefficients in the base field")
    k = modulus.degree
    if not isinstance(k, int) or k < 1:
        raise NotMonic("modulus must have degree at least 1")
    if modulus.lead_code != 1:
        raise NotMonic(f"modulus {modulus} is not monic")
    if k > 1:
        from .irr import is_irreducible

        if not is_irreducible(modulus):
            raise Reducible(f"modulus {modulus} is reducible")
    return _extension(base, modulus)


def _extension(base: Field, modulus) -> Field:
    """base extended by a modulus known to be a monic prime."""
    return Field(
        char=base.char,
        order=base.order ** modulus.degree,
        base=base,
        degree=modulus.degree,
        modulus_codes=tuple(modulus.codes),
    )


def default_modulus(p: int, k: int):
    """Lex-smallest monic irreducible of degree k over F_p.

    Candidates t^k + c_{k-1} t^{k-1} + ... + c_0 are ordered by the
    tuple (c_{k-1}, ..., c_0), i.e. by the integer sum c_i p^i.
    """
    from .irr import is_irreducible, monic_polys

    return next(f for f in monic_polys(make_prime_field(p), k) if is_irreducible(f))


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _prime_power(n: int):
    """(p, k) with n = p^k for a prime p and k >= 1."""
    factors = _prime_factors(n)
    if len(factors) != 1:
        raise ValueError(f"{n} is not a prime power")
    p = factors[0]
    k = 1
    while p ** k != n:
        k += 1
    return p, k


def parse_field(descriptor: str) -> Field:
    """Build a field from 'p', 'q', 'p^k', or 'q:modulus' text, or a
    tower 'base/modulus' with the modulus over the base, as written by
    Field.descriptor."""
    from .poly import parse_poly

    text = descriptor.strip()
    if "/" in text:
        base_text, mod_text = text.rsplit("/", 1)
        base = parse_field(base_text)
        modulus = parse_poly(mod_text, base)
        if modulus.degree < 2:
            raise ValueError(f"tower modulus {modulus} must have degree at least 2")
        return make_extension(base, modulus)
    mod_text = None
    if ":" in text:
        text, mod_text = text.split(":", 1)
    if "^" in text:
        ps, ks = text.split("^", 1)
        p, k = int(ps), int(ks)
        if _prime_factors(p) != [p]:
            raise NotPrime(f"{p} is not prime")
        if k < 1:
            raise ValueError(f"extension degree {k} must be at least 1")
    else:
        p, k = _prime_power(int(text))
    base = make_prime_field(p)
    if k == 1:
        if mod_text is not None:
            raise ValueError("prime fields take no modulus")
        return base
    if mod_text is None:
        modulus = default_modulus(p, k)
    else:
        modulus = parse_poly(mod_text, base)
        if modulus.degree != k:
            raise ValueError(
                f"modulus degree {modulus.degree} does not match extension degree {k}"
            )
    return make_extension(base, modulus)
