"""Finite fields F_p and tower extensions F_q = F_p[x]/(m).

A Field is an immutable value object: a prime field, or an extension of
another field by a monic irreducible modulus.  make_extension verifies
the modulus by Rabin's test; the residue field of a prime that the
enumeration's sieve certified is built without it.  Towers are capped
at two extension levels above the prime field, which covers
F_p <= F_q <= F_{q^d}.

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
F_625 and F_2187.  The primitive element is the first of x + c, then
x^2 + bx + c, ... that passes the test g^((q-1)/r) != 1 for each prime
r | q-1 (powers by _ext_mul).  Over a prime base the exp walk then
multiplies by it in plain-int digits (for x + c, one shift and fold
per step); towers walk by _ext_mul.  _ext_mul and the digit-wise
_digit_add/_digit_neg stay as the slow oracle the tests compare the
tables against.  Before the tables exist, a product by the generator
of an extension of a prime field (evaluation and synthetic division
at theta) is mul_gen, the same shift and fold, through multiplier; it
counts toward the trigger as mul does.
"""

from __future__ import annotations

import functools
import operator

from .errors import DivisionByZero, FieldMismatch, NotMonic, NotPrime, Reducible

_TABLE_MAX_ORDER = 1 << 16  # larger fields stay on _ext_mul
_TABLE_TRIGGER = 4  # build tables after order // 4 slow multiplications
_MAX_TOWER_HEIGHT = 2

_prime_field_cache: dict[int, "Field"] = {}


class Field:
    """A prime field or a tower extension with a fixed modulus."""

    __slots__ = (
        "char", "order", "base", "degree", "modulus_codes",
        "_fold_rows", "height", "_countdown", "_exp", "_log", "_zech", "_half",
    )

    def __init__(self, char, order, base, degree, modulus_codes):
        self.char = char
        self.order = order
        self.base = base
        # degree is the extension degree over base; 1 for prime fields
        self.degree = degree
        self.modulus_codes = modulus_codes
        self._fold_rows = None
        self.height = 0 if base is None else base.height + 1
        # slow multiplications left before the tables pay for themselves;
        # fields without tables start below zero and never reach it
        if base is not None and order <= _TABLE_MAX_ORDER:
            self._countdown = max(1, order // _TABLE_TRIGGER)
        else:
            self._countdown = -1
        self._exp = self._log = self._zech = None
        self._half = 0

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

    def elements(self):
        for code in range(self.order):
            yield FieldElement(self, code)

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
            self._build_tables()
            return self._exp[self._log[a] + self._log[b]]
        return self._ext_mul(a, b)

    def mul_gen(self, a: int) -> int:
        """a * gen_code, for an extension of a prime field.  It counts
        toward the log tables exactly as mul(a, gen_code) does, so they
        are built after the same products.  Where mul would run
        _ext_mul (the oracle), the digits shift up by one and the top
        digit c, which leaves as c * x^k, folds back as c times x^k mod
        the modulus."""
        g = self.gen_code
        if a < 2 or g < 2 or self._log is not None or self._countdown == 1:
            return self.mul(a, g)
        self._countdown -= 1
        p = self.char
        if self.degree == 1:
            return a * g % p
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

    def multiplier(self, c: int):
        """The map a -> a * c: mul_gen when c is the generator of an
        extension of a prime field that has no log tables yet, else
        mul with c bound (a lookup once the tables exist).  Both count
        toward the tables alike."""
        base = self.base
        if (base is not None and base.is_prime_field and self._log is None
                and c == self.gen_code):
            return self.mul_gen
        return functools.partial(self.mul, c)

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

    def _ext_pow(self, a: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = self._ext_mul(result, a)
            e >>= 1
            if e:
                a = self._ext_mul(a, a)
        return result

    def _is_primitive(self, g: int) -> bool:
        n = self.order - 1
        return all(self._ext_pow(g, n // r) != 1 for r in _prime_factors(n))

    def _build_tables(self):
        n = self.order - 1
        g = next(g for g in self._generator_candidates() if self._is_primitive(g))
        if self.base.is_prime_field:
            exp = self._walk_digits(g)
        else:
            exp = [1]
            for _ in range(n - 1):
                exp.append(self._ext_mul(exp[-1], g))
        log = [-1] * self.order  # log[0] is never read as a logarithm
        for i, v in enumerate(exp):
            log[v] = i
        if self.char != 2:
            # 1 + alpha^i: add one to the lowest base-p digit of the code
            p = self.char
            zech = [log[v - p + 1 if v % p == p - 1 else v + 1] for v in exp]
            # doubled, so any index in (-2n, 2n) lands on its residue mod n
            self._zech = zech + zech
            self._half = n // 2
        self._exp = exp + exp
        self._log = log

    def _generator_candidates(self):
        # x + c, x^2 + b*x + c, ... first: a scalar multiple a*h gets the
        # same verdict as h whenever base.order - 1 divides every
        # (q - 1)/r, so trying it mostly repeats a test; then every code
        b = self.base.order
        for j in range(1, self.degree):
            yield from range(b ** j, 2 * b ** j)
        yield from range(1, self.order)

    def _walk_digits(self, g: int) -> list[int]:
        # [g^0, ..., g^(q-2)] over a prime base in plain-int digits:
        # v*g by Horner over the digits of g, each step a shift of the
        # digits plus top times x^k (one of the precomputed folds); for
        # g = x + c that is one shift-fold plus c times the old digits
        p = self.char
        row = self._fold()[0] if self.degree > 1 else ()
        folds = [[t * r for r in row] for t in range(p)]
        weights = [p ** i for i in range(self.degree)]
        gd = self.digits(g)
        while not gd[-1]:
            gd.pop()
        high = gd.pop()
        v = [1] + [0] * (self.degree - 1)
        exp = []
        for _ in range(self.order - 1):
            exp.append(sum(map(operator.mul, v, weights)))
            acc = v if high == 1 else [high * d % p for d in v]
            for c in reversed(gd):
                # zip stops at k: the top digit leaves the shift
                acc = [(s + f + c * d) % p
                       for s, f, d in zip([0, *acc], folds[acc[-1]], v)]
            v = acc
        return exp

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
    _check_modulus(base, modulus)
    if modulus.degree > 1:
        from .irr import is_irreducible

        if not is_irreducible(modulus):
            raise Reducible(f"modulus {modulus} is reducible")
    return _extension(base, modulus)


def _check_modulus(base: Field, modulus) -> None:
    """Raise unless modulus is a monic polynomial of positive degree over
    base and the extension stays within the tower cap."""
    if modulus.field != base:
        raise FieldMismatch("modulus must have coefficients in the base field")
    k = modulus.degree
    if not isinstance(k, int) or k < 1:
        raise NotMonic("modulus must have degree at least 1")
    if modulus.lead_code != 1:
        raise NotMonic(f"modulus {modulus} is not monic")
    if base.height + 1 > _MAX_TOWER_HEIGHT:
        raise FieldMismatch("towers are capped at two extensions above the prime field")


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
