"""Locate the schoolbook/Kronecker and schoolbook/Barrett crossovers,
and the slow-multiplication count after which extension fields build
their log/antilog tables.

Poly.__mul__ switches from schoolbook to Kronecker substitution once
the combined operand length reaches _KRON_MIN_LEN, and ModReducer
switches from long division to Barrett reduction once the modulus
degree reaches _BARRETT_MIN_DEG.  This script times each pair of
kernels head to head on random dense operands over a few odd prime
fields and reports the first size from which the faster kernel keeps
winning, so the constants in poly.py can be re-checked after
interpreter, hardware or kernel changes.  The reduction sweep reduces
a dividend of degree 2n-2, the product of two residues, by a monic
modulus of degree n.

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

Usage:
    python3 benchmarks/mul_threshold.py
    python3 benchmarks/mul_threshold.py --chars 3 101 --max-len 256
    python3 benchmarks/mul_threshold.py --chars   # extension fields only
    python3 benchmarks/mul_threshold.py --gf2
"""

import argparse
import random
import time
import timeit

from fqwilson import _gf2, gf, poly
from fqwilson.gf import make_extension, make_prime_field
from fqwilson.irr import iter_monic_irreducibles
from fqwilson.poly import ModReducer, Poly, _kron_mul, _school_mul_prime

REDUCE_DEGREES = range(8, 161, 8)  # modulus degrees of the reduction sweep
TABLE_FIELDS = ((3, 2), (5, 4), (3, 7))  # F_9, F_625, F_2187
TABLE_MODULI = 8  # moduli averaged per field order
GF2_BITS = (16, 24, 32, 48, 64, 96, 128, 256, 512, 768, 1024, 1536, 2048, 3072,
            4096, 6144, 8192, 12288, 16384)
GF2_REDUCE_DEGREES = (8, 12, 16, 24, 32, 40, 48, 64, 96, 128, 192, 256, 512,
                      1024, 2048)


def time_once(fn, args, repeat, number):
    best = min(timeit.repeat(lambda: fn(*args), repeat=repeat, number=number))
    return best / number


def mul_sweep(p, lengths, rng, repeat, number):
    rows = []
    for n in lengths:
        half = n // 2
        a = tuple(rng.randrange(p) for _ in range(half))
        b = tuple(rng.randrange(p) for _ in range(n - half))
        school = time_once(_school_mul_prime, (a, b, p), repeat, number)
        kron = time_once(_kron_mul, (a, b, p), repeat, number)
        rows.append((n, school, kron))
    return rows


def reducer(modulus, barrett):
    """A ModReducer forced into Barrett or school mode."""
    saved = poly._BARRETT_MIN_DEG
    poly._BARRETT_MIN_DEG = 0 if barrett else modulus.degree + 1
    try:
        return ModReducer(modulus)
    finally:
        poly._BARRETT_MIN_DEG = saved


def reduce_sweep(p, degrees, rng, repeat, number):
    field = make_prime_field(p)
    rows = []
    for n in degrees:
        m = Poly(field, [rng.randrange(p) for _ in range(n)] + [1])
        f = Poly(field, [rng.randrange(p) for _ in range(2 * n - 2)] + [1])
        school, barrett = reducer(m, False), reducer(m, True)
        if school.reduce(f) != barrett.reduce(f):  # also grows the inverse
            raise AssertionError(f"reducers disagree at char {p}, degree {n}")
        rows.append((n, time_once(school.reduce, (f,), repeat, number),
                     time_once(barrett.reduce, (f,), repeat, number)))
    return rows


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
            fresh._build_tables()
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
    ap.add_argument("--chars", type=int, nargs="*", default=[3, 5, 101],
                    help="prime characteristics to sweep (default: 3 5 101)")
    ap.add_argument("--max-len", type=int, default=192,
                    help="largest combined operand length (default: 192)")
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
    args = ap.parse_args(argv)

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

    lengths = range(args.step, args.max_len + 1, args.step)
    for p in args.chars:
        if p < 3 or p >= 256:
            ap.error(f"char {p} outside the Kronecker dispatch range [3, 255]")
        rng = random.Random(args.seed)
        report(f"mul, char {p}", "combined length",
               mul_sweep(p, lengths, rng, args.repeat, args.number), "kronecker")
        report(f"reduce, char {p}", "modulus degree",
               reduce_sweep(p, REDUCE_DEGREES, rng, args.repeat, args.number),
               "barrett")
    rng = random.Random(args.seed)
    report_tables([(p ** k, *table_sweep(p, k, rng, args.repeat))
                   for p, k in TABLE_FIELDS])


if __name__ == "__main__":
    main()
