"""The sieve behind irr.iter_monic_irreducibles.

Enumeration sieves the window of candidate indices that
irr.monic_polys walks: write a candidate of degree d as
f = t^d + T t^e + L with deg L < e, so its index is
index(T) q^e + index(L).  A monic prime P of degree e divides exactly
one candidate per top part T, the one with L = -(t^d + T t^e) mod P,
and as T steps through the window in index order that residue moves
by a fixed vector per step: a code is F_p-linear in its base-p
digits, so a step that turns base-p digits 0..v of T adds minus the
sum of the rows b_l t^(e+j) mod P of those digits (digit l of
coefficient j, b_l the element with code p^l).  Every composite of
degree d has a prime factor of degree at most d/2, so sieving by all
of them leaves exactly the primes.  The primes of degree e come from
the same sieve, and they sieve only when their count N_e is at most
the window's length, which bounds their cost by about e times the
window's; when that leaves a degree out, the survivors are
Rabin-tested.  The rule reads q, d and the window alone.
"""

from . import irr
from .errors import EquivalenceViolation
from .gf import Field
from .poly import Poly, divrem

# a window longer than this is sieved in segments of it, so the marks
# take at most this many bytes however long the window is
_SIEVE_SEGMENT = 1 << 16


def primes(field: Field, d: int, start: int, stop, known: dict):
    """The monic primes of degree d with candidate index in
    [start, stop), in index order.  known maps a degree e <= d/2 to
    its primes, and gains each degree this sieve needs first."""
    if start < 0 or (stop is not None and stop < 0):
        raise ValueError("candidate indices must be non-negative")
    q = field.order
    hi = q ** d if stop is None else min(stop, q ** d)
    width = hi - start
    degrees = [e for e in range(1, d // 2 + 1)
               if irr.count_irreducibles(field, e) <= width]
    for e in degrees:
        if e not in known:
            found = known[e] = list(primes(field, e, 0, None, known))
            if len(found) != irr.count_irreducibles(field, e):
                raise EquivalenceViolation(
                    f"sieved {len(found)} primes of degree {e}, the "
                    f"counting formula gives {irr.count_irreducibles(field, e)}")
    full = len(degrees) == d // 2
    lanes = _Lanes(field) if degrees else None
    plans = [(prime, _steps(prime, (hi - 1) // q ** e, lanes))
             for e in degrees for prime in known[e]]
    for lo in range(start, hi, _SIEVE_SEGMENT):
        marks = bytearray(min(_SIEVE_SEGMENT, hi - lo))
        for prime, steps in plans:
            _mark(marks, lo, d, prime, steps, lanes)
        i = marks.find(0)
        while i >= 0:
            cand = irr._candidate(field, d, lo + i)
            if full or irr.is_irreducible(cand):
                yield cand
            i = marks.find(0, i + 1)


class _Lanes:
    """Residues mod a prime of degree e as ints with one lane of w bits
    per base-p digit of their e codes, lane i*k + l holding digit l of
    coefficient i (q = p^k).  A lane holds the sum of two digits,
    2p - 2 < 2^w, so residues add by one integer add; then adding
    2^(w-1) - p to every lane, which is at least 0 and carries out of
    no lane, sets the top bit of exactly the lanes that reached p, and
    those lose p.  index() reads the lanes back as the base-p integer
    sum c_i q^i, by a table over chunks of lanes."""

    __slots__ = ("p", "k", "w", "chunk", "table")

    def __init__(self, field: Field):
        p = self.p = field.char
        k = 1
        while p ** k < field.order:
            k += 1
        self.k = k
        self.w = w = (2 * p - 2).bit_length()
        # lanes per table lookup, for a table of at most 4,096 entries
        self.chunk = c = max(1, 12 // w)
        table = self.table = [0] * (1 << c * w)
        for n in range(p ** c):
            table[self._spread(n, c)] = n

    def _spread(self, n: int, count: int) -> int:
        """The lanes of the first count base-p digits of n."""
        out = 0
        for j in range(count):
            n, r = divmod(n, self.p)
            out |= r << self.w * j
        return out

    def pack(self, codes) -> int:
        """The lanes of a residue given by its codes."""
        k = self.k
        out = 0
        for i, c in enumerate(codes):
            out |= self._spread(c, k) << self.w * k * i
        return out

    def index(self, x: int) -> int:
        """sum c_i q^i of the residue held in x."""
        table, c, w = self.table, self.chunk, self.w
        mask = (1 << c * w) - 1
        scale = self.p ** c
        out = 0
        weight = 1
        while x:
            out += table[x & mask] * weight
            x >>= c * w
            weight *= scale
        return out

    def ones(self, count: int) -> int:
        """A 1 in the bottom bit of each of count lanes."""
        return sum(1 << self.w * j for j in range(count))


def _steps(prime: Poly, top: int, lanes: _Lanes) -> list:
    """steps[v] is what L = -(t^d + T t^e) mod prime, in lanes, gains
    when T steps up to a value whose base-p digits 0..v turned, that
    is minus the sum of the rows b_l t^(e+j) mod prime of those digits,
    for every step of T up to top + 1; e is the prime's degree."""
    field = prime.field
    add, mul, neg = field.add, field.mul, field.neg
    e = prime.degree
    count = 0  # base-p digits of top + 1, past the last one any step turns
    rest = top + 1
    while rest:
        rest //= lanes.p
        count += 1
    row = first = [neg(c) for c in prime.codes[:e]]  # t^e = t^e - prime
    acc = [0] * e
    steps = []
    for digit in range(count):
        j, l = divmod(digit, lanes.k)
        if l == 0 and j:
            # t^(e+j) = t * t^(e+j-1): shift up, fold the top code by t^e
            c = row[-1]
            row = [0] + row[:-1]
            if c:
                row = [add(a, mul(c, f)) for a, f in zip(row, first)]
        b = lanes.p ** l
        acc = [add(a, mul(b, r)) for a, r in zip(acc, row)]
        steps.append(lanes.pack([neg(a) for a in acc]))
    return steps


def _mark(marks: bytearray, lo: int, d: int, prime: Poly, steps: list,
          lanes: _Lanes):
    """Set marks[f - lo] for each candidate index f in
    [lo, lo + len(marks)) whose candidate the prime divides; steps are
    _steps(prime, top, lanes) for a top part at or past this segment's
    last."""
    field = prime.field
    q = field.order
    e = prime.degree
    qe = q ** e
    n = len(marks)
    if not any(prime.codes[:e]):
        # the prime t: every candidate with constant term 0
        off = -lo % q
        marks[off::q] = b"\x01" * len(range(off, n, q))
        return
    first = lo // qe
    # L for the first top part: -(t^d + T t^e) mod prime
    low = divrem(irr._candidate(field, d, first * qe), prime)[1].codes
    x = lanes.pack([field.neg(c) for c in low])
    pos = first * qe - lo
    stop = (lo + n - 1) // qe + 2
    p = lanes.p
    count = e * lanes.k
    ones = lanes.ones(count)
    bias = ones * ((1 << lanes.w - 1) - p)
    shift = lanes.w - 1
    index = lanes.table.__getitem__ if count <= lanes.chunk else lanes.index
    step0 = steps[0]
    # each pass marks the candidate of top part T - 1, then steps to T
    for T in range(first + 1, stop):
        i = pos + index(x)
        if 0 <= i < n:
            marks[i] = 1
        pos += qe
        if T % p:
            x += step0
        else:
            v = 1
            rest = T // p
            while not rest % p:
                rest //= p
                v += 1
            x += steps[v]
        x -= ((x + bias) >> shift & ones) * p
