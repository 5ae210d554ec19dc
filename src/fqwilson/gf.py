"""Finite fields F_p and tower extensions F_q = F_p[x]/(m).

A Field is an immutable value object: a prime field, or an extension of
another field by a monic irreducible modulus that is verified at
construction.  Towers are capped at two extension levels above the
prime field, which covers F_p <= F_q <= F_{q^d}.

Elements are identified by integer codes in [0, order): the base-p
positional encoding of the recursive coefficient vector, least
significant level first.  Prime-field codes are plain residues, and a
subfield element keeps the same code in every extension above it, so
embeddings along the tower are the identity on codes.
"""

from __future__ import annotations

from .errors import DivisionByZero, FieldMismatch, NotMonic, NotPrime, Reducible

_MUL_TABLE_MAX_ORDER = 256
_MAX_TOWER_HEIGHT = 2

_prime_field_cache: dict[int, "Field"] = {}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Field:
    """A prime field or a tower extension with a fixed modulus."""

    __slots__ = (
        "char", "order", "base", "degree", "modulus_codes",
        "_mul_table", "_fold_rows", "height",
    )

    def __init__(self, char, order, base, degree, modulus_codes):
        self.char = char
        self.order = order
        self.base = base
        # degree is the extension degree over base; 1 for prime fields
        self.degree = degree
        self.modulus_codes = modulus_codes
        self._mul_table = None
        self._fold_rows = None
        self.height = 0 if base is None else base.height + 1

    # -- identity -----------------------------------------------------

    def _key(self):
        if self.base is None:
            return (self.char,)
        return self.base._key() + (self.modulus_codes,)

    def __eq__(self, other):
        return isinstance(other, Field) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Field({self.descriptor()!r})"

    @property
    def is_prime_field(self) -> bool:
        return self.base is None

    @property
    def tower(self):
        """(degree, modulus codes) pairs from the prime field upward."""
        if self.base is None:
            return []
        return self.base.tower + [(self.degree, self.modulus_codes)]

    def descriptor(self) -> str:
        if self.base is None:
            return str(self.char)
        mod = _format_codes(self.modulus_codes)
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

    def elements(self):
        for code in range(self.order):
            yield FieldElement(self, code)

    # -- code-level arithmetic ----------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.base is None:
            return (a + b) % self.char
        if self.char == 2:
            return a ^ b
        base = self.base
        bo = base.order
        out = 0
        pos = 1
        while a or b:
            a, da = divmod(a, bo)
            b, db = divmod(b, bo)
            out += base.add(da, db) * pos
            pos *= bo
        return out

    def neg(self, a: int) -> int:
        if self.base is None:
            return -a % self.char
        if self.char == 2:
            return a
        base = self.base
        bo = base.order
        out = 0
        pos = 1
        while a:
            a, da = divmod(a, bo)
            out += base.neg(da) * pos
            pos *= bo
        return out

    def sub(self, a: int, b: int) -> int:
        if self.base is None:
            return (a - b) % self.char
        if self.char == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.base is None:
            return a * b % self.char
        if a == 0 or b == 0:
            return 0
        if a == 1:
            return b
        if b == 1:
            return a
        table = self._table()
        if table is not None:
            return table[a][b]
        return self._ext_mul(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self.base is None:
            return pow(a, self.char - 2, self.char)
        return self.pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        if a == 0:
            return 1 if e == 0 else 0
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

    def _table(self):
        if self.order > _MUL_TABLE_MAX_ORDER:
            return None
        if self._mul_table is None:
            self._mul_table = [
                [self._ext_mul(i, j) if i and j else 0 for j in range(self.order)]
                for i in range(self.order)
            ]
        return self._mul_table

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
            if other.field == self.field:
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
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    field = Field(char=p, order=p, base=None, degree=1, modulus_codes=None)
    _prime_field_cache[p] = field
    return field


def make_extension(base: Field, modulus) -> Field:
    """Extend base by a monic irreducible modulus (always verified)."""
    if modulus.field != base:
        raise FieldMismatch("modulus must have coefficients in the base field")
    k = modulus.degree
    if not isinstance(k, int) or k < 1:
        raise NotMonic("modulus must have degree at least 1")
    if modulus.lead_code != 1:
        raise NotMonic(f"modulus {modulus} is not monic")
    if base.height + 1 > _MAX_TOWER_HEIGHT:
        raise FieldMismatch("towers are capped at two extensions above the prime field")
    if k > 1:
        from .irr import is_irreducible

        if not is_irreducible(modulus):
            raise Reducible(f"modulus {modulus} is reducible")
    return Field(
        char=base.char,
        order=base.order ** k,
        base=base,
        degree=k,
        modulus_codes=tuple(modulus.codes),
    )


def default_modulus(p: int, k: int):
    """Lex-smallest monic irreducible of degree k over F_p.

    Candidates t^k + c_{k-1} t^{k-1} + ... + c_0 are ordered by the
    tuple (c_{k-1}, ..., c_0), i.e. by the integer sum c_i p^i.
    """
    field = make_prime_field(p)
    from .irr import is_irreducible
    from .poly import Poly

    for n in range(p ** k):
        codes = []
        m = n
        for _ in range(k):
            m, r = divmod(m, p)
            codes.append(r)
        codes.append(1)
        cand = Poly(field, tuple(codes))
        if is_irreducible(cand):
            return cand
    raise Reducible(f"no irreducible of degree {k} over F_{p}")  # pragma: no cover


def _format_codes(codes) -> str:
    # minimal polynomial printer used by descriptors; poly.format_poly
    # is the general one but would create an import cycle here
    terms = []
    for e in range(len(codes) - 1, -1, -1):
        c = codes[e]
        if not c:
            continue
        if e == 0:
            terms.append(str(c))
        else:
            var = "t" if e == 1 else f"t^{e}"
            terms.append(var if c == 1 else f"{c}*{var}")
    return "+".join(terms) if terms else "0"


def _prime_power(n: int):
    if n < 2:
        raise ValueError(f"{n} is not a prime power")
    p = n
    for f in range(2, n + 1):
        if f * f > n:
            break
        if n % f == 0:
            p = f
            break
    k = 0
    m = n
    while m % p == 0 and m > 1:
        m //= p
        k += 1
    if m != 1:
        raise ValueError(f"{n} is not a prime power")
    return p, k


def parse_field(descriptor: str) -> Field:
    """Build a field from 'p', 'q', 'p^k', or 'q:modulus' text."""
    from .poly import parse_poly

    text = descriptor.strip()
    mod_text = None
    if ":" in text:
        text, mod_text = text.split(":", 1)
    if "^" in text:
        ps, ks = text.split("^", 1)
        p, k = int(ps), int(ks)
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
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


def field_descriptor(field: Field) -> str:
    return field.descriptor()
