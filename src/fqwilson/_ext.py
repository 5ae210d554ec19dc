"""What only extension fields run: gf.Field's log/antilog table build,
loaded at the first build, and poly's kernels over extension fields,
loaded at their first product, division or residue ring (_SchoolRing
also serves prime fields of order 256 or more).

The primitive element of the tables is the first of x + c, then
x^2 + bx + c, ... that passes the test g^((q-1)/r) != 1 for each prime
r | q-1.  Over a prime base the exp walk then multiplies by it in
plain-int digits (for x + c, one shift and fold per step); towers walk
by _ext_mul.  The field-call division (_divrem_field) stays as the
slow oracle the tests compare against.
"""

import operator

from .gf import _prime_factors
from .poly import Poly, _power, divrem


def _is_primitive(field, g: int) -> bool:
    n = field.order - 1
    return all(field.pow(g, n // r) != 1 for r in _prime_factors(n))


def _build_tables(field):
    # the countdown is spent, so the products of the primitive-element
    # search count nothing and cannot start a second build
    field._countdown = -1
    n = field.order - 1
    g = next(g for g in _generator_candidates(field) if _is_primitive(field, g))
    if field.base.is_prime_field:
        exp = _walk_digits(field, g)
    else:
        exp = [1]
        for _ in range(n - 1):
            exp.append(field._ext_mul(exp[-1], g))
    log = [-1] * field.order  # log[0] is never read as a logarithm
    for i, v in enumerate(exp):
        log[v] = i
    if field.char != 2:
        # 1 + alpha^i: add one to the lowest base-p digit of the code
        p = field.char
        zech = [log[v - p + 1 if v % p == p - 1 else v + 1] for v in exp]
        # doubled, so any index in (-2n, 2n) lands on its residue mod n
        field._zech = zech + zech
        field._half = n // 2
    field._exp = exp + exp
    field._log = log


def _generator_candidates(field):
    # x + c, x^2 + b*x + c, ... first: a scalar multiple a*h gets the
    # same verdict as h whenever base.order - 1 divides every
    # (q - 1)/r, so trying it mostly repeats a test; then every code
    b = field.base.order
    for j in range(1, field.degree):
        yield from range(b ** j, 2 * b ** j)
    yield from range(1, field.order)


def _walk_digits(field, g: int) -> list[int]:
    # [g^0, ..., g^(q-2)] over a prime base in plain-int digits:
    # v*g by Horner over the digits of g, each step a shift of the
    # digits plus top times x^k (one of the precomputed folds); for
    # g = x + c that is one shift-fold plus c times the old digits
    p = field.char
    row = field._fold()[0] if field.degree > 1 else ()
    folds = [[t * r for r in row] for t in range(p)]
    weights = [p ** i for i in range(field.degree)]
    gd = field.digits(g)
    while not gd[-1]:
        gd.pop()
    high = gd.pop()
    v = [1] + [0] * (field.degree - 1)
    exp = []
    for _ in range(field.order - 1):
        exp.append(sum(map(operator.mul, v, weights)))
        acc = v if high == 1 else [high * d % p for d in v]
        for c in reversed(gd):
            # zip stops at k: the top digit leaves the shift
            acc = [(s + f + c * d) % p
                   for s, f, d in zip([0, *acc], folds[acc[-1]], v)]
        v = acc
    return exp


def _school_mul_field(a, b, field):
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


class _SchoolRing:
    """F_q[t]/(m) on reduced Polys, for extension fields and p >= 256.

    A call reduces a Poly by long division (divrem).  Products here are
    schoolbook, so Barrett's two multiplies would cost more than one
    division (2-4x at modulus degrees 16-128 over F_4, F_9 and F_625,
    2-3x at 8-160 over F_257 and F_1009).  A composition sums the rows
    by Field calls.
    """

    __slots__ = ("m", "n", "field")
    frobenius_rent = 1

    def __init__(self, modulus: Poly):
        self.m = modulus
        self.n = modulus.degree
        self.field = modulus.field

    def __call__(self, f: Poly) -> Poly:
        if len(f.codes) <= self.n:
            return f
        return divrem(f, self.m)[1]

    def enter(self, codes) -> Poly:
        return self(Poly(self.field, codes))

    def leave(self, r: Poly):
        return r.codes

    def mul(self, a: Poly, b: Poly) -> Poly:
        return self(a * b)

    def sqr(self, a: Poly) -> Poly:
        return self(a * a)

    def sub(self, a: Poly, b: Poly) -> Poly:
        return a - b

    def compose(self, codes, rows) -> Poly:
        add, mul = self.field.add, self.field.mul
        out = [0] * self.n
        for c, row in zip(codes, rows):
            if c:
                row = row.codes
                out[:len(row)] = [add(o, mul(c, x)) for o, x in zip(out, row)]
        return Poly(self.field, out)

    def powers_of_t(self, r: Poly, k: int):
        """r, r t^k, r t^(2k), ... mod m for a residue r, without end.
        For k <= n = deg m a step is k steps of t^(i+1) = t * t^i mod m
        on n codes: a shift and, when the top coefficient c leaves, c
        times -m folded back, n Field calls.  For k > n, where that
        costs more than a product, a step is one product by
        T = t^k mod m, itself about log2(k) products."""
        field, n = self.field, self.n
        if k > n:
            T = _power(self, self.enter((0, 1)), k)
            while True:
                yield r
                r = self.mul(r, T)
        neg = [field.neg(c) for c in self.m.codes[:n]]
        add, mul = field.add, field.mul
        codes = r.codes + (0,) * (n - len(r.codes))
        while True:
            yield r
            for _ in range(k):
                top = codes[-1]
                codes = (0, *codes[:-1])
                if top:
                    codes = tuple([add(c, mul(top, x)) for c, x in zip(codes, neg)])
            r = Poly(field, codes)
