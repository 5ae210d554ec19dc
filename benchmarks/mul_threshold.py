"""Locate the schoolbook/Kronecker and fold/Barrett crossovers, and
the slow-multiplication count after which extension fields build
their log/antilog tables.

Poly.__mul__ switches from schoolbook to Kronecker substitution once
the operands' coefficient products, len(a) * len(b), reach
_KRON_MIN_AREA, and ModReducer over F_p, 5 <= p < 256, whose residues
are Kronecker-packed ints (_gfp._KronRing), switches from folding a
product by the rows t^j mod m to Barrett division on the lanes once the
modulus degree reaches _BARRETT_MIN_DEG.  This script times each pair of
kernels head to head on random dense operands over a few prime fields
F_p, p >= 5, and reports the first size from which the faster kernel
keeps winning, so the constants in poly.py and _gfp.py can be
re-checked after interpreter, hardware or kernel changes.  The product
sweep times balanced halves of each combined length and 1 x k and
4 x k shapes, and reports the crossover in coefficient products per
lane width.
The reduction sweep reduces the packed product of two random residues
mod a monic modulus of degree n by the fold and by Barrett, after
checking both against long division, and prints next to them the
school long division (divrem) of the same product as a Poly, the route
these residues replaced, and the set-up of each packed route (its rows
or mu, with one reduction).  F_3 has neither sweep: its products and
residues run on the _gf3 planes, which --gf3 sweeps.

The extension-field sweep times one slow product (Field._ext_mul) and
one full table build (primitive-element search, exp walk, log and Zech
fill) per residue field, averaged over the first few moduli of each
order.  A field that builds after order // N slow products has spent
about as much on them as the build costs when N = ext_mul time / build
time per element; gf._TABLE_TRIGGER is that N, rounded.

The GF(2) sweeps (--gf2, in place of the others) time the carry-less
shift-xor product against the 16-bit-lane product (_gf2._lane_mul) on
two packed operands of equal bit length; _gf2.mul switches to the lanes
once the shorter operand passes _gf2._MUL_LANE_CUTOVER bits.  Then, for
each modulus degree n, on a dense and on a trinomial modulus, they time
n reductions by shift-xor division (_gf2.mod_) against one byte-table
build plus n table reductions (what a Rabin test or a Frobenius chain
of n squarings pays); each dividend is the square of a random residue.
_gf2.TableReducer uses the table from modulus degree _gf2._TABLE_MIN_DEG.

The F_3 sweeps (--gf3, in place of the others) time the two products
on the bit planes against each other, shift-add (_gf3._shift_add) and
the lane product, on
operands of n and n or 8n coefficients: _gf3.mul shifts and adds while
the shorter operand has at most _gf3._SHIFT_ADD_MAX_LEN coefficients.
Then, for each modulus degree n, they time n reductions by the row-table
fold (the table's build included) against one Barrett set-up
(mu = t^(2n-1) div m and its lanes) plus n Barrett reductions on the
planes, with n plane long divisions (_gf3.mod_) beside them; each
dividend is the square of a random residue.  _gf3.Reducer folds below
modulus degree _gf3._BARRETT_MIN_DEG and uses Barrett from it.

The F_3 Frobenius sweep (part of --gf3) times three routes to x^3 of a
residue x mod m: the row table (_gf3.Reducer.frobenius, set-up
included, spread over n steps as a Rabin test or a Carlitz chain of n
steps pays), spreading x into x(t^3) and reducing once, and a squaring
and a product with a reduction after each (what ModReducer.pow(x, 3)
pays).

The Frobenius sweep (--frob, in place of the others) times x -> x^q
of a residue mod m over F_5, F_7, F_4, F_9, F_25 and F_257, the fields
whose residue ring has no frobenius of its own: one step by the whole
row table of t^q (a Composition), one build of that table
(ModReducer._frobenius_rows, through the ring's powers_of_t: q steps
of t^(i+1) = t * t^i mod m per row, or where q > deg m, as over F_25
at low degrees and F_257, the powers of t^q, one product each), and
one step by square-and-multiply (ModReducer.pow(x, q)), after checking
that the table, pow and spreading x into x(t^q) then dividing give the
same residue.  Beside them it prints the build in pow steps (build /
pow step), the ring's frobenius_rent (the pow steps a chain takes
before it composes), and the steps after which the table, build
included, has cost less than pow.  Fields on reduced Polys
(_ext._SchoolRing) stop at degree FROB_SCHOOL_MAX_DEG.  It then times
chains of k steps from a fresh reducer over F_5 at degrees up to 2048
three ways: ModReducer.frobenius (frobenius_rent pow steps, then the
table), pow alone, and the table built first.

The distinct-degree sweep (--ddf, in place of the others) times
factor.distinct_degree_split on the squarefree parts of Carlitz
quantities the workloads factor, once per block size: a block of b
Frobenius steps multiplies b residues together and shares one gcd.
factor._DDF_BLOCK is the block size that is best, or within noise of
the best, on every characteristic swept.

The equal-degree sweep (--edf, in place of the others) times the
power u^((q^d - 1)/2) mod m that each equal-degree split attempt over
odd q takes, on a random residue u mod a random monic m of bucket
degree n (a multiple of d) over F_3, F_5, F_7 and F_9, two ways:
square-and-multiply (ModReducer.powmod) and the Frobenius norm
u * u^q * ... * u^(q^(d-1)) raised to (q - 1)/2
(factor._half_norm_power), the latter once from a fresh reducer, as a
bucket's first attempt pays, and once more on the same reducer, as a
retry pays, after checking that the routes agree.  It then times one
trace attempt of the F_2 split on the bucket that [11]+1 leaves: m of
degree 2046, the product of the first 93 monic primes of degree 22
(u + u^2 + ... + u^(2^21) mod m, then its gcd with m) on a warm
reducer, after checking that the trace lies in F_2 (it equals its own
square): the draw of u alone (factor._draw, one block), the attempt on
a fixed u and the attempt with its draw.

Usage:
    python3 benchmarks/mul_threshold.py
    python3 benchmarks/mul_threshold.py --chars 5 101 --max-len 256
    python3 benchmarks/mul_threshold.py --chars   # extension fields only
    python3 benchmarks/mul_threshold.py --gf2
    python3 benchmarks/mul_threshold.py --gf3
    python3 benchmarks/mul_threshold.py --ddf
    python3 benchmarks/mul_threshold.py --frob
    python3 benchmarks/mul_threshold.py --edf
"""

import argparse
import itertools
import random
import time
import timeit

from fqwilson import _ext, _gf2, _gf3, _gfp, factor, gf, poly
from fqwilson.carlitz import CarlitzCache
from fqwilson.gf import make_extension, make_prime_field, parse_field
from fqwilson.irr import iter_monic_irreducibles
from fqwilson._gfp import _kron_mul, _school_mul_prime
from fqwilson.poly import Composition, ModReducer, Poly, divrem, gcd

REDUCE_DEGREES = range(8, 161, 8)  # modulus degrees of the reduction sweep
TABLE_FIELDS = ((3, 2), (5, 4), (3, 7))  # F_9, F_625, F_2187
TABLE_MODULI = 8  # moduli averaged per field order
GF2_BITS = (16, 24, 32, 48, 64, 96, 128, 256, 512, 768, 1024, 1536, 2048, 3072,
            4096, 6144, 8192, 12288, 16384)
GF2_REDUCE_DEGREES = (8, 12, 16, 24, 32, 40, 48, 64, 96, 128, 192, 256, 512,
                      1024, 2048)
GF3_SHIFT_ADD_LENGTHS = (2, 4, 7, 8, 10, 12, 14, 16, 18, 20, 24, 28, 32, 40,
                         48, 64)
GF3_REDUCE_DEGREES = (4, 7, 14, 16, 20, 24, 28, 32, 40, 48, 64, 96, 128, 160,
                      192, 256, 324, 512)
GF3_FROBENIUS_DEGREES = (7, 14, 21, 28, 35, 48, 64, 96, 128, 192, 256, 324)
FROB_FIELDS = ("5", "7", "4", "9", "25", "257")
FROB_DEGREES = (4, 8, 12, 16, 24, 32, 48, 64, 128, 256, 512, 1024, 2048)
# a pow step on reduced Polys (_ext._SchoolRing) is schoolbook on Field
# calls over F_4, F_9 and F_25 (14 ms at degree 64 over F_9), so the
# fields on that ring stop at this degree
FROB_SCHOOL_MAX_DEG = 128
FROB_RESIDUES = 8  # residues stepped per timing sample
# (modulus degree, chain lengths) of the F_5 chain part of --frob
FROB_CHAINS = ((8, (4, 8)), (64, (4, 32)), (512, (4, 16, 256)),
               (2048, (4, 16, 64)))
DDF_BLOCKS = (1, 2, 4, 8, 16, 32)
# (field, label, polynomial, degree cap) inputs of the distinct-degree
# sweep; a capped split stops after that many Frobenius steps, as trial
# division does (L_12+1 to 22 stands in for the trial division of the
# degree-16382 L_13+1 in `verify paper --case q2d14 --extended`)
DDF_INPUTS = (
    ("2", "[11]+1", lambda c: c.bracket(11) + 1, None),
    ("2", "L_8+1", lambda c: c.L(8) + 1, None),
    ("2", "L_12+1", lambda c: c.L(12) + 1, 22),
    ("3", "D_4+1", lambda c: c.D(4) + 1, None),
    ("3", "L_4-1", lambda c: c.L(4) - 1, None),
    ("3", "L_5-1", lambda c: c.L(5) - 1, None),
    ("4", "L_3-1", lambda c: c.L(3) - 1, None),
    ("5", "L_3-1", lambda c: c.L(3) - 1, None),
)

# (bucket degree n, split degree d) of the equal-degree sweep: d | n,
# n >= 2d; t7-q3d5 splits D_4+1's bucket of degree 270 at d = 90
EDF_CASES = ((30, 5), (60, 5), (300, 5), (30, 10), (60, 10), (300, 10),
             (60, 30), (90, 30), (300, 30), (180, 90), (270, 90))
EDF_FIELDS = ("3", "5", "7", "9")
# over F_9 a product is schoolbook on Field calls: one powmod at
# n = 270, d = 90 takes about 17 s, so the sweep stops at this degree
EDF_EXTENSION_MAX_DEG = 90
# (field, bucket degree n, split degree d) of the trace row of --edf
EDF_TRACE_CASE = ("2", 2046, 22)


def time_once(fn, args, repeat, number):
    best = min(timeit.repeat(lambda: fn(*args), repeat=repeat, number=number))
    return best / number


def mul_sweep(p, shapes, rng, repeat, number):
    """(shorter length, longer length, school s, Kronecker s) per shape;
    the leading coefficients are nonzero, so each shape is exact."""
    rows = []
    for short, long in shapes:
        a, b = (tuple(rng.randrange(p) for _ in range(n - 1))
                + (rng.randrange(1, p),) for n in (short, long))
        school = time_once(_school_mul_prime, (a, b, p), repeat, number)
        kron = time_once(_kron_mul, (a, b, p), repeat, number)
        rows.append((short, long, school, kron))
    return rows


def mul_shapes(lengths):
    """The product shapes of the sweep: balanced halves of each combined
    length, and 1 x k and 4 x k for each length k."""
    return {"balanced": [(n // 2, n - n // 2) for n in lengths if n >= 2],
            "1 x k": [(1, k) for k in lengths],
            "4 x k": [(4, k) for k in lengths if k >= 4]}


def report_mul(p, families):
    """The school and Kronecker times per shape, and the products
    (shorter x longer length) from which Kronecker keeps winning, split
    by lane width: Poly.__mul__ takes Kronecker from _KRON_MIN_AREA
    coefficient products at every width."""
    by_width = {}
    for family, rows in families.items():
        print(f"mul, char {p}, {family}  (shorter x longer length, lane "
              f"bytes, schoolbook us, kronecker us)")
        for short, long, school, kron in rows:
            width = _gfp._kron_lane(short, p)[0]
            by_width.setdefault(width, []).append((short * long, school, kron))
            mark = "  <-- kronecker wins" if kron < school else ""
            print(f"  {short:4d} x {long:<4d} {width:2d}  {school * 1e6:9.2f}  "
                  f"{kron * 1e6:9.2f}{mark}")
        print()
    for width, rows in sorted(by_width.items()):
        cross = first_crossover(sorted(rows))
        where = "no stable crossover in range" if cross is None else \
            f"stable crossover at ~{cross} coefficient products"
        print(f"  char {p}, {width}-byte lanes: {where}")
    print()


def kron_ring(modulus, barrett):
    """The _KronRing of a ModReducer forced onto Barrett or the fold."""
    saved = _gfp._BARRETT_MIN_DEG
    _gfp._BARRETT_MIN_DEG = 0 if barrett else modulus.degree + 1
    try:
        return ModReducer(modulus)._ring
    finally:
        _gfp._BARRETT_MIN_DEG = saved


def reduce_sweep(p, degrees, rng, repeat, number):
    """(n, school s, fold s, Barrett s, fold set-up s, Barrett set-up s)
    per modulus degree n: one reduction of the product of two random
    residues, and one build of the fold rows or of mu."""
    field = make_prime_field(p)
    rows = []
    for n in degrees:
        m = Poly(field, [rng.randrange(p) for _ in range(n)] + [1])
        a, b = (Poly(field, [rng.randrange(p) for _ in range(n)]) for _ in "ab")
        f = a * b
        fold, barrett = kron_ring(m, False), kron_ring(m, True)
        # a and b are residues, and both rings share the lanes
        wide = fold.enter(a.codes) * fold.enter(b.codes)
        want = divrem(f, m)[1]
        for ring in (fold, barrett):  # the first call builds rows or mu
            if Poly(field, ring.leave(ring(wide))) != want:
                raise AssertionError(f"reductions disagree at char {p}, degree {n}")

        def set_up(barrett):
            ring = kron_ring(m, barrett)
            ring(wide)

        rows.append((n, time_once(divrem, (f, m), repeat, number),
                     time_once(fold, (wide,), repeat, number),
                     time_once(barrett, (wide,), repeat, number),
                     time_once(set_up, (False,), repeat, 1),
                     time_once(set_up, (True,), repeat, 1)))
    return rows


def report_reduce(p, rows):
    print(f"reduce, char {p}  (modulus degree, school divrem us, packed fold "
          f"us, packed Barrett us, fold rows + one reduction us, mu + one "
          f"reduction us)")
    for n, school, fold, barrett, fold_set, barrett_set in rows:
        mark = "  <-- barrett wins" if barrett < fold else ""
        print(f"  {n:5d}  {school * 1e6:9.2f}  {fold * 1e6:9.2f}  "
              f"{barrett * 1e6:9.2f}  {fold_set * 1e6:9.2f}  "
              f"{barrett_set * 1e6:9.2f}{mark}")
    cross = first_crossover([(n, fold, barrett)
                             for n, _, fold, barrett, _, _ in rows])
    if cross is None:
        print("  no stable crossover in range")
    else:
        print(f"  stable crossover at modulus degree ~{cross}")
    print()


def shift_xor_mul(a, b):
    """_gf2.mul with the lane product switched off."""
    saved = _gf2._MUL_LANE_CUTOVER
    _gf2._MUL_LANE_CUTOVER = max(a.bit_length(), b.bit_length())
    try:
        return _gf2.mul(a, b)
    finally:
        _gf2._MUL_LANE_CUTOVER = saved


def gf2_sweep(rng, repeat, number):
    rows = []
    for bits in GF2_BITS:
        a, b = (rng.getrandbits(bits) | 1 << (bits - 1) for _ in range(2))
        if shift_xor_mul(a, b) != _gf2._lane_mul(a, b):
            raise AssertionError(f"GF(2) products disagree at {bits} bits")
        rows.append((bits, time_once(shift_xor_mul, (a, b), repeat, number),
                     time_once(_gf2._lane_mul, (a, b), repeat, number)))
    return rows


def gf2_reducer(m, table):
    """_gf2.TableReducer(m) forced onto the byte table or onto mod_."""
    saved = _gf2._TABLE_MIN_DEG
    _gf2._TABLE_MIN_DEG = 0 if table else m.bit_length()
    try:
        return _gf2.TableReducer(m)
    finally:
        _gf2._TABLE_MIN_DEG = saved


def gf2_reduce_sweep(rng, repeat, trinomial):
    rows = []
    for n in GF2_REDUCE_DEGREES:
        if trinomial:
            m = 1 << n | 1 << rng.randrange(1, n) | 1
        else:
            m = 1 << n | rng.getrandbits(n) | 1
        squares = [_gf2.sqr(rng.getrandbits(n)) for _ in range(n)]
        if ([gf2_reducer(m, True)(x) for x in squares]
                != [_gf2.mod_(x, m) for x in squares]):
            raise AssertionError(f"GF(2) reducers disagree at degree {n}")

        def run(table):
            reduce = gf2_reducer(m, table)
            for x in squares:
                reduce(x)

        # per reduction, the table's build spread over its n uses
        rows.append((n, time_once(run, (False,), repeat, 1) / n,
                     time_once(run, (True,), repeat, 1) / n))
    return rows


def lane_mul(a, b):
    """_gf3.mul with the shift-add product switched off."""
    saved = _gf3._SHIFT_ADD_MAX_LEN
    _gf3._SHIFT_ADD_MAX_LEN = 0
    try:
        return _gf3.mul(a, b)
    finally:
        _gf3._SHIFT_ADD_MAX_LEN = saved


def gf3_shift_add_sweep(rng, repeat, number, times):
    """(shorter length, shift-add s, lane product s) for packed operands
    of lengths n and times * n."""
    rows = []
    for n in GF3_SHIFT_ADD_LENGTHS:
        a, b = (_gf3.pack([rng.randrange(3) for _ in range(k - 1)] + [1])
                for k in (n, times * n))
        if _gf3._shift_add(a, b) != lane_mul(a, b):
            raise AssertionError(f"F_3 products disagree at length {n}")
        rows.append((n, time_once(_gf3._shift_add, (a, b), repeat, number),
                     time_once(lane_mul, (a, b), repeat, number)))
    return rows


def gf3_reducer(m, barrett):
    """_gf3.Reducer(m) forced onto Barrett or onto the row-table fold."""
    saved = _gf3._BARRETT_MIN_DEG
    _gf3._BARRETT_MIN_DEG = 0 if barrett else _gf3.deg(m) + 1
    try:
        return _gf3.Reducer(m)
    finally:
        _gf3._BARRETT_MIN_DEG = saved


def gf3_reduce_sweep(rng, repeat):
    """(n, long division s, fold s, Barrett s) per reduction of n
    squares mod a modulus of degree n, the fold's table and Barrett's
    set-up spread over the n reductions."""
    rows = []
    for n in GF3_REDUCE_DEGREES:
        m = _gf3.pack([rng.randrange(3) for _ in range(n)] + [1])
        operands = [_gf3.pack([rng.randrange(3) for _ in range(n)])
                    for _ in range(n)]
        squares = [_gf3.mul(a, a) for a in operands]
        want = [_gf3.mod_(x, m) for x in squares]
        for barrett in (False, True):
            reduce = gf3_reducer(m, barrett)
            if [reduce(x) for x in squares] != want:
                raise AssertionError(f"F_3 reducers disagree at degree {n}")

        def divide():
            for x in squares:
                _gf3.mod_(x, m)

        def run(use_barrett):
            reduce = gf3_reducer(m, use_barrett)
            for x in squares:
                reduce(x)

        rows.append((n, time_once(divide, (), repeat, 1) / n,
                     time_once(run, (False,), repeat, 1) / n,
                     time_once(run, (True,), repeat, 1) / n))
    return rows


def report_gf3_reduce(rows):
    print("reduce n squares, F_3  (modulus degree, long division us, row-table "
          "fold incl. table us, Barrett incl. set-up us)")
    for n, divide, fold, barrett in rows:
        mark = "  <-- barrett wins" if barrett < fold else ""
        print(f"  {n:5d}  {divide * 1e6:9.2f}  {fold * 1e6:9.2f}  "
              f"{barrett * 1e6:9.2f}{mark}")
    cross = first_crossover([(n, fold, barrett) for n, _, fold, barrett in rows])
    print("  no stable crossover in range" if cross is None else
          f"  stable crossover at modulus degree ~{cross}")
    print(f"_gf3._BARRETT_MIN_DEG = {_gf3._BARRETT_MIN_DEG}")
    print()


def gf3_frobenius_sweep(rng, repeat):
    rows = []
    for n in GF3_FROBENIUS_DEGREES:
        m = _gf3.pack([rng.randrange(3) for _ in range(n)] + [1])
        reduce = _gf3.Reducer(m)
        xs = [reduce(_gf3.pack([rng.randrange(3) for _ in range(n)]))
              for _ in range(n)]

        def rows_route():
            fresh = _gf3.Reducer(m)  # the row table is built on first use
            for x in xs:
                fresh.frobenius(x)

        def spread_route():
            for x in xs:
                reduce((_gf3._spread(x[0]), _gf3._spread(x[1])))

        def sqr_mul_route():
            for x in xs:
                reduce(_gf3.mul(reduce(_gf3.mul(x, x)), x))

        if any(reduce.frobenius(x) != reduce(_gf3.mul(_gf3.mul(x, x), x))
               or reduce.frobenius(x) != _gf3.mod_(
                   (_gf3._spread(x[0]), _gf3._spread(x[1])), m)
               for x in xs):
            raise AssertionError(f"F_3 Frobenius routes disagree at degree {n}")
        rows.append((n, *(time_once(route, (), repeat, 1) / n for route in
                          (rows_route, spread_route, sqr_mul_route))))
    return rows


def report_gf3_frobenius(rows):
    print("x^3 mod m, F_3  (modulus degree, row table incl. build us, "
          "spread + reduce us, sqr + mul + 2 reductions us)")
    for n, table, spread, sqr_mul in rows:
        best = min((table, "rows"), (spread, "spread"), (sqr_mul, "sqr+mul"))
        print(f"  {n:5d}  {table * 1e6:9.2f}  {spread * 1e6:9.2f}  "
              f"{sqr_mul * 1e6:9.2f}  <-- {best[1]}")
    print()


def frob_sweep(rng, repeat):
    rows = []
    for descriptor in FROB_FIELDS:
        field = parse_field(descriptor)
        q = field.order
        for n in FROB_DEGREES:
            m = Poly(field, [rng.randrange(q) for _ in range(n)] + [1])
            red = ModReducer(m)
            if isinstance(red._ring, _ext._SchoolRing) and \
                    n > FROB_SCHOOL_MAX_DEG:
                continue
            rent = red._ring.frobenius_rent
            table = Composition(red, rows=red._frobenius_rows())
            table.grow(n)
            xs = [red.enter(Poly(field, [rng.randrange(q) for _ in range(n)]))
                  for _ in range(FROB_RESIDUES)]
            for x in xs:
                got = table(x)
                if got != red.pow(x, q) or got != red.frobenius(x) or \
                        red.leave(got) != poly.q_power_expand(red.leave(x), 1) % m:
                    raise AssertionError(f"x^q routes disagree over F_{q} "
                                         f"at degree {n}")

            def table_route():
                for x in xs:
                    table(x)

            def pow_route():
                for x in xs:
                    red.pow(x, q)

            step = time_once(table_route, (), repeat, 1) / len(xs)
            build = time_once(lambda: list(ModReducer(m)._frobenius_rows()),
                              (), repeat, 1)
            rows.append((q, n, step, build,
                         time_once(pow_route, (), repeat, 1) / len(xs), rent))
    return rows


def frob_chain_sweep(rng, repeat):
    """(n, k, frobenius s, pow s, table-first s) for chains of k steps
    from a fresh reducer mod a random F_5 modulus of degree n."""
    field = parse_field("5")
    rows = []
    for n, ks in FROB_CHAINS:
        m = Poly(field, [rng.randrange(5) for _ in range(n)] + [1])
        a = Poly(field, [rng.randrange(5) for _ in range(n)])
        for k in ks:
            def frobenius_route():
                red = ModReducer(m)
                return red.leave(red.frobenius(red.enter(a), k))

            def pow_route():
                red = ModReducer(m)
                x = red.enter(a)
                for _ in range(k):
                    x = red.pow(x, 5)
                return red.leave(x)

            def table_route():
                red = ModReducer(m)
                table = Composition(red, rows=red._frobenius_rows())
                table.grow(n)
                x = red.enter(a)
                for _ in range(k):
                    x = table(x)
                return red.leave(x)

            if not frobenius_route() == pow_route() == table_route():
                raise AssertionError(f"chains disagree at degree {n}, {k} steps")
            rows.append((n, k) + tuple(
                time_once(route, (), repeat, 1)
                for route in (frobenius_route, pow_route, table_route)))
    return rows


def report_frob(rows, chains):
    print("x^q mod m  (field, modulus degree, row-table step us, table "
          "build us, pow(x, q) step us, build / pow step, frobenius_rent, "
          "steps until the table has paid)")
    for q, n, step, build, pw, rent in rows:
        paid = build / (pw - step) if pw > step else float("inf")
        print(f"  F_{q:<3d} {n:5d}  {step * 1e6:9.2f}  {build * 1e6:11.2f}  "
              f"{pw * 1e6:9.2f}  {build / pw:6.2f}  {rent:4d}  {paid:6.2f}")
    print()
    print("chains of k steps x -> x^5 mod m over F_5 from a fresh reducer  "
          "(modulus degree, k, ms by frobenius, by pow alone, by the table "
          "built first)")
    for n, k, frob, pw, table in chains:
        print(f"  {n:5d} {k:5d}  {frob * 1e3:9.2f}  {pw * 1e3:9.2f}  "
              f"{table * 1e3:9.2f}")
    print()


def ddf_sweep(repeat):
    rows = []
    for descriptor, label, build, cap in DDF_INPUTS:
        field = parse_field(descriptor)
        target = build(CarlitzCache(field))
        parts = [g for g, _ in factor.squarefree_decomposition(target)[1]]
        saved = factor._DDF_BLOCK
        times = []
        expected = None
        try:
            for b in DDF_BLOCKS:
                factor._DDF_BLOCK = b
                result = [factor.distinct_degree_split(g, cap) for g in parts]
                if expected is None:
                    expected = result
                elif result != expected:
                    raise AssertionError(f"block {b} changes the split of {label}")
                times.append(time_once(
                    lambda: [factor.distinct_degree_split(g, cap) for g in parts],
                    (), repeat, 1))
        finally:
            factor._DDF_BLOCK = saved
        if cap is not None:
            label += f" to {cap}"
        rows.append((f"F_{field.order} {label}", target.degree, times))
    return rows


def report_ddf(rows):
    print("distinct-degree split  (input, degree, ms per block size "
          + " ".join(map(str, DDF_BLOCKS)) + ")")
    for label, degree, times in rows:
        best = DDF_BLOCKS[times.index(min(times))]
        print(f"  {label:18s} {degree:5d}  "
              + "  ".join(f"{t * 1e3:8.2f}" for t in times) + f"  <-- {best}")
    print(f"factor._DDF_BLOCK = {factor._DDF_BLOCK}")
    print()


def edf_sweep(rng, repeat):
    """(q, n, d, powmod s, fresh norm s, warm norm s) per case."""
    rows = []
    for descriptor in EDF_FIELDS:
        field = parse_field(descriptor)
        q = field.order
        for n, d in EDF_CASES:
            if not field.is_prime_field and n > EDF_EXTENSION_MAX_DEG:
                continue
            m = Poly(field, [rng.randrange(q) for _ in range(n)] + [1])
            u = Poly(field, [rng.randrange(q) for _ in range(n)])
            e = (q ** d - 1) // 2
            warm = ModReducer(m)
            if not ModReducer(m).powmod(u, e) == \
                    factor._half_norm_power(warm, u, d) == \
                    factor._half_norm_power(ModReducer(m), u, d):
                raise AssertionError(f"u^((q^d-1)/2) routes disagree over "
                                     f"F_{q} at degree {n}, d = {d}")
            routes = (lambda: ModReducer(m).powmod(u, e),
                      lambda: factor._half_norm_power(ModReducer(m), u, d),
                      lambda: factor._half_norm_power(warm, u, d))
            rows.append((q, n, d) + tuple(time_once(route, (), repeat, 1)
                                          for route in routes))
    return rows


def edf_trace_row(rng, repeat):
    """(q, n, d, draw s, attempt s without the draw, with it)."""
    descriptor, n, d = EDF_TRACE_CASE
    field = parse_field(descriptor)
    q = field.order
    m = Poly.one(field)
    for ctx in itertools.islice(iter_monic_irreducibles(field, d), n // d):
        m = m * ctx.prime
    red = ModReducer(m)
    key = factor._draw_key(rng.randrange(1 << 32), b"edf")
    steps = d * (q.bit_length() - 1)

    def draw():
        return Poly(field, factor._draw(key, 0, n, q))

    def attempt(u):
        return gcd(factor._trace(red, u, steps), m)

    u = draw()  # the same u both attempts trace
    tr = factor._trace(red, u, steps)
    if red.powmod(tr, 2) != tr:
        raise AssertionError(f"trace over F_{q} at degree {n} is not in F_2")
    routes = (draw, lambda: attempt(u), lambda: attempt(draw()))
    return (q, n, d) + tuple(time_once(route, (), repeat, 1) for route in routes)


def report_edf_trace(row):
    q, n, d, draw, fixed, drawn = row
    print("trace attempt gcd(Tr u, m)  (field, bucket degree, d, ms by the "
          "draw of u alone, the attempt on a fixed u, the attempt with its "
          "draw)")
    print(f"  F_{q:<3d} {n:5d} {d:4d}  {draw * 1e3:9.3f}  {fixed * 1e3:9.2f}  "
          f"{drawn * 1e3:9.2f}")
    print()


def report_edf(rows):
    print("u^((q^d-1)/2) mod m  (field, bucket degree, d, ms by powmod, "
          "by the Frobenius norm from a fresh reducer, by the norm again "
          "on the same reducer)")
    for q, n, d, pw, fresh, warm in rows:
        print(f"  F_{q:<3d} {n:5d} {d:4d}  {pw * 1e3:9.2f}  {fresh * 1e3:9.2f}  "
              f"{warm * 1e3:9.2f}")
    print()


def table_sweep(p, k, rng, repeat, pairs=2000):
    """(mean _ext_mul seconds, mean build seconds per element) over the
    first TABLE_MODULI residue fields of order p^k."""
    base = make_prime_field(p)
    primes = []
    for ctx in iter_monic_irreducibles(base, k):
        primes.append(ctx.prime)
        if len(primes) == TABLE_MODULI:
            break
    mul_s = build_s = 0.0
    for prime in primes:
        field = make_extension(base, prime)
        # operands >= 2 take the slow route whether tables exist or not
        ops = [(rng.randrange(2, field.order), rng.randrange(2, field.order))
               for _ in range(pairs)]
        mul_s += time_once(lambda: [field._ext_mul(a, b) for a, b in ops],
                           (), repeat, 1) / pairs
        builds = []
        for _ in range(repeat):
            fresh = make_extension(base, prime)
            t0 = time.perf_counter()
            _ext._build_tables(fresh)
            builds.append(time.perf_counter() - t0)
        build_s += min(builds) / (field.order - 1)
    return mul_s / len(primes), build_s / len(primes)


def report_tables(rows):
    print("table build, extension fields  (ext_mul us, build us/element, "
          "ext_mul / build-step)")
    for order, mul_s, step_s in rows:
        print(f"  F_{order:<5d}  {mul_s * 1e6:9.2f}  {step_s * 1e6:9.2f}  "
              f"{mul_s / step_s:6.2f}")
    print(f"  gf._TABLE_TRIGGER = {gf._TABLE_TRIGGER}: tables after "
          f"order // {gf._TABLE_TRIGGER} slow products")
    print()


def first_crossover(rows):
    # first size from which the second kernel never loses again
    for i, (n, old, new) in enumerate(rows):
        if all(k <= s for _, s, k in rows[i:]):
            return n if new <= old else None
    return None


def report(title, size, rows, winner, loser="schoolbook"):
    print(f"{title}  ({size}, {loser} us, {winner} us)")
    for n, old, new in rows:
        mark = f"  <-- {winner} wins" if new < old else ""
        print(f"  {n:5d}  {old * 1e6:9.2f}  {new * 1e6:9.2f}{mark}")
    cross = first_crossover(rows)
    if cross is None:
        print("  no stable crossover in range")
    else:
        print(f"  stable crossover at {size} ~{cross}")
    print()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--chars", type=int, nargs="*", default=[5, 7, 251],
                    help="prime characteristics to sweep, each in [5, 255] "
                         "(default: 5 7 251)")
    ap.add_argument("--max-len", type=int, default=192,
                    help="largest combined length of the balanced shapes, "
                         "and longer length of the 1 x k and 4 x k ones "
                         "(default: 192)")
    ap.add_argument("--step", type=int, default=8,
                    help="length step (default: 8)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeat", type=int, default=5,
                    help="timeit repeats, best is kept (default: 5)")
    ap.add_argument("--number", type=int, default=200,
                    help="operations per timing sample (default: 200)")
    ap.add_argument("--gf2", action="store_true",
                    help="sweep GF(2) products from 16 to 16384 bits and "
                         "reductions by moduli of degree 8 to 2048 instead; "
                         "product samples hold --number / 20 products")
    ap.add_argument("--gf3", action="store_true",
                    help="sweep F_3 shift-add against lane products at "
                         "shorter lengths 2 to 64, row-table and Barrett "
                         "reductions by moduli of degree 4 to 512 and "
                         "Frobenius steps x^3 mod m at degree 7 to 324 "
                         "instead")
    ap.add_argument("--ddf", action="store_true",
                    help="sweep the distinct-degree block size on Carlitz "
                         "quantities over F_2, F_3, F_4 and F_5 instead")
    ap.add_argument("--frob", action="store_true",
                    help="sweep x -> x^q mod m over F_5, F_7, F_4, F_9, "
                         "F_25 and F_257 at modulus degrees 4 to 2048 "
                         "instead: a row-table step, its build, a pow(x, q) "
                         "step and the ring's frobenius_rent; then F_5 "
                         "chains of k steps at degrees 8 to 2048")
    ap.add_argument("--edf", action="store_true",
                    help="time the equal-degree split power u^((q^d-1)/2) "
                         "by powmod and by the Frobenius norm over F_3, F_5, "
                         "F_7 and F_9 at bucket degrees 30 to 300, then one "
                         "F_2 trace attempt with and without its draw, "
                         "instead")
    args = ap.parse_args(argv)

    if args.edf:
        report_edf(edf_sweep(random.Random(args.seed), args.repeat))
        report_edf_trace(edf_trace_row(random.Random(args.seed), args.repeat))
        return

    if args.frob:
        report_frob(frob_sweep(random.Random(args.seed), args.repeat),
                    frob_chain_sweep(random.Random(args.seed), args.repeat))
        return

    if args.ddf:
        report_ddf(ddf_sweep(args.repeat))
        return

    if args.gf3:
        for times in (1, 8):
            report(f"mul, F_3 planes, n x {times}n", "shorter length",
                   gf3_shift_add_sweep(random.Random(args.seed), args.repeat,
                                       args.number, times),
                   "lanes", "shift-add")
        print(f"_gf3._SHIFT_ADD_MAX_LEN = {_gf3._SHIFT_ADD_MAX_LEN} "
              f"(shift-add up to it, lanes above)")
        print()
        report_gf3_reduce(gf3_reduce_sweep(random.Random(args.seed),
                                           args.repeat))
        report_gf3_frobenius(gf3_frobenius_sweep(random.Random(args.seed),
                                                 args.repeat))
        return

    if args.gf2:
        report("mul, GF(2)", "bits per operand",
               gf2_sweep(random.Random(args.seed), args.repeat,
                         max(1, args.number // 20)), "lane", "shift-xor")
        print(f"_gf2._MUL_LANE_CUTOVER = {_gf2._MUL_LANE_CUTOVER} bits")
        print()
        for kind in ("dense", "trinomial"):
            report(f"reduce n squares + build, GF(2), {kind} moduli",
                   "modulus degree",
                   gf2_reduce_sweep(random.Random(args.seed), args.repeat,
                                    kind == "trinomial"),
                   "table", "shift-xor")
        print(f"_gf2._TABLE_MIN_DEG = {_gf2._TABLE_MIN_DEG}")
        return

    lengths = sorted({1, 2, 3, 4, 6, 8, 12}
                     | set(range(args.step, args.max_len + 1, args.step)))
    for p in args.chars:
        if p < 5 or p >= 256:
            ap.error(f"char {p} outside the Kronecker dispatch range [5, 255]")
        rng = random.Random(args.seed)
        report_mul(p, {family: mul_sweep(p, shapes, rng, args.repeat,
                                         args.number)
                       for family, shapes in mul_shapes(lengths).items()})
        report_reduce(p, reduce_sweep(p, REDUCE_DEGREES, rng, args.repeat,
                                      args.number))
    print(f"poly._KRON_MIN_AREA = {poly._KRON_MIN_AREA}")
    print(f"_gfp._BARRETT_MIN_DEG = {_gfp._BARRETT_MIN_DEG}")
    print()
    rng = random.Random(args.seed)
    report_tables([(p ** k, *table_sweep(p, k, rng, args.repeat))
                   for p, k in TABLE_FIELDS])


if __name__ == "__main__":
    main()
