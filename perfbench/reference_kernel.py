"""Reference kernel: fixed pure-Python polynomial arithmetic over F_7.

It does the kind of work fqwilson does (small-integer list arithmetic
mod p, divmod digit splitting) but never changes with the program, so
its run time measures only how fast the shared machine is running at
that moment.  The benchmark runs it before each timed run and reports
times at the speed where it takes REFERENCE_S.

    python3 perfbench/reference_kernel.py
"""

P = 7
N = 48
ROUNDS = 1000


def mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % P
    return out


def rem(a, m):
    a = list(a)
    inv = pow(m[-1], P - 2, P)
    for k in range(len(a) - len(m), -1, -1):
        q = a[k + len(m) - 1] * inv % P
        if q:
            for j, y in enumerate(m):
                a[k + j] = (a[k + j] - q * y) % P
    return a[:len(m) - 1]


def digits(code, n):
    out = []
    for _ in range(n):
        code, r = divmod(code, P)
        out.append(r)
    return out


def main():
    m = [(3 * i + 1) % P for i in range(N)] + [1]
    x = [(5 * i + 2) % P for i in range(N)]
    for r in range(ROUNDS):
        x = rem(mul(x, x), m)
        x[0] = (x[0] + sum(digits(r * 7919 + 1, 6))) % P
    return x


if __name__ == "__main__":
    main()
