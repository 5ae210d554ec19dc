"""Locate the schoolbook/Kronecker and schoolbook/Barrett crossovers.

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

Usage:
    python3 benchmarks/mul_threshold.py
    python3 benchmarks/mul_threshold.py --chars 3 101 --max-len 256
"""

import argparse
import random
import timeit

from fqwilson import poly
from fqwilson.gf import make_prime_field
from fqwilson.poly import ModReducer, Poly, _kron_mul, _school_mul_prime

REDUCE_DEGREES = range(8, 161, 8)  # modulus degrees of the reduction sweep


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


def first_crossover(rows):
    # first size from which the second kernel never loses again
    for i, (n, old, new) in enumerate(rows):
        if all(k <= s for _, s, k in rows[i:]):
            return n if new <= old else None
    return None


def report(title, size, rows, winner):
    print(f"{title}  ({size}, schoolbook us, {winner} us)")
    for n, old, new in rows:
        mark = f"  <-- {winner} wins" if new < old else ""
        print(f"  {n:4d}  {old * 1e6:9.2f}  {new * 1e6:9.2f}{mark}")
    cross = first_crossover(rows)
    if cross is None:
        print("  no stable crossover in range")
    else:
        print(f"  stable crossover at {size} ~{cross}")
    print()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--chars", type=int, nargs="+", default=[3, 5, 101],
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
    args = ap.parse_args(argv)

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


if __name__ == "__main__":
    main()
