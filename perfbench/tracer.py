"""Per-layer tracing of the fqwilson package, from outside the package.

A Tracer replaces every public function and method of each fqwilson
module with a wrapper, in every namespace that holds a copy, and keeps
aggregate counters and timers per layer and per named boundary.  No
span objects are kept: the per-coefficient field operations are called
millions of times, so each call only updates a few totals.

Definitions, all from one clock:

- L.calls   calls into a public function of layer L from another layer
            (or from outside the package); each next() of a public
            generator counts as a call, because it re-enters the layer;
- L.busy_s  the union of L's outermost spans;
- L.self_s  busy time minus the time spent in other layers' spans
            nested inside it;
- B.calls / B.busy_s for a named boundary B: the outermost entries into
            B's functions and the union of their spans, whichever layer
            the caller is in.

Run as a script, it traces one fqwilson command line:

    PYTHONPATH=src python3 perfbench/tracer.py survey --field 3 --degree 3

The command's stdout is unchanged; the metrics are written as one JSON
object to file descriptor 3 if it is open, else to stderr.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

# module name inside the package -> layer name used in metric names
LAYERS = {
    "cli": "cli",
    "survey": "survey",
    "carlitz": "carlitz",
    "congruence": "congruence",
    "deriv": "deriv",
    "factor": "factor",
    "irr": "irr",
    "poly": "poly",
    "_gf2": "gf2",
    "gf": "gf",
}

# Arithmetic entry points of Poly, Field and FieldElement.  Other dunders
# (__eq__, __hash__, __init__, ...) and properties are not boundaries.
ARITH_DUNDERS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__mod__",
    "__divmod__", "__pow__", "__neg__", "__call__",
})

# "<layer>.<qualname>" of a wrapped function -> the boundaries it opens
BOUNDARIES = {
    "poly.Poly.__mul__": ("poly.mul",),
    "poly.divrem": ("poly.divrem",),
    "poly.gcd": ("poly.gcd",),
    "poly.ModReducer.reduce": ("poly.reduce",),
    "poly.ModReducer.powmod": ("poly.powmod",),
    "poly.powmod": ("poly.powmod",),
    "gf.Field.mul": ("gf.mul",),
    "gf.FieldElement.__mul__": ("gf.mul",),
    "gf.Field.add": ("gf.addsub",),
    "gf.Field.sub": ("gf.addsub",),
    "gf.FieldElement.__add__": ("gf.addsub",),
    "gf.FieldElement.__sub__": ("gf.addsub",),
    "gf.FieldElement.__rsub__": ("gf.addsub",),
    "gf.Field.inv": ("gf.inv",),
    "gf.FieldElement.inverse": ("gf.inv",),
    "gf2.mul": ("gf2.mul",),
    "irr.is_irreducible": ("irr.is_irreducible", "factor.verify"),
    "irr.PrimeContext.for_prime": ("irr.for_prime",),
    "factor.factorize": ("factor.factorize",),
    "factor.squarefree_decomposition": ("factor.sff",),
    "factor.distinct_degree_split": ("factor.ddf",),
    "factor.equal_degree_split": ("factor.edf",),
    "congruence.wilson_suite": ("congruence.wilson_suite",),
}

# a boundary that opens only while another one is open: factor.verify is
# is_irreducible time under factorize (factor.factorize is not reported)
GUARDS = {"factor.verify": "factor.factorize"}


def _poly_mul_len(args):
    a, b = args[0], args[1]
    return max(len(a.codes), len(getattr(b, "codes", ())))


def _gf2_mul_bits(args):
    return max(args[0].bit_length(), args[1].bit_length())


# boundary -> size of one call's operands; its max_* metric keeps the largest
PROBES = {"poly.mul": _poly_mul_len, "gf2.mul": _gf2_mul_bits}

# the generator whose yields count useful outcomes of the Rabin tests
PRIMES_GENERATOR = "irr.iter_monic_irreducibles"

# boundary metrics reported, in order; the rest of the table is per layer
BOUNDARY_METRICS = (
    "poly.mul.calls", "poly.mul.busy_s", "poly.mul.max_len",
    "poly.divrem.calls", "poly.divrem.busy_s",
    "poly.gcd.calls", "poly.gcd.busy_s",
    "poly.reduce.calls", "poly.reduce.busy_s",
    "poly.powmod.calls", "poly.powmod.busy_s",
    "gf.mul.calls", "gf.addsub.calls", "gf.inv.calls",
    "gf2.mul.calls", "gf2.mul.busy_s", "gf2.mul.max_bits",
    "irr.is_irreducible.calls", "irr.is_irreducible.busy_s",
    "irr.primes", "irr.yield_ratio",
    "irr.for_prime.calls", "irr.for_prime.busy_s",
    "factor.sff.busy_s", "factor.ddf.busy_s",
    "factor.edf.calls", "factor.edf.busy_s", "factor.verify.busy_s",
    "congruence.wilson_suite.calls", "congruence.wilson_suite.busy_s",
)


def metric_names():
    """Every metric Tracer.metrics() returns, in order."""
    names = []
    for layer in LAYERS.values():
        names += [f"{layer}.calls", f"{layer}.busy_s", f"{layer}.self_s"]
    return names + list(BOUNDARY_METRICS)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fqwilson" or name.startswith("fqwilson."))]


class _Acc:
    """Running totals of one layer or boundary."""

    __slots__ = ("calls", "depth", "start", "busy", "self_s", "maximum")

    def __init__(self):
        self.calls = 0
        self.depth = 0  # open spans
        self.start = 0.0  # clock when the outermost span opened
        self.busy = 0.0
        self.self_s = 0.0
        self.maximum = 0  # largest operand size seen by a probe


class Tracer:
    """Aggregate per-layer and per-boundary timing of fqwilson calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # accumulators of the active layers, innermost last
        self.mark = 0.0  # clock at the last layer transition
        self.layers = {name: _Acc() for name in LAYERS.values()}
        self.bounds = {}
        self.primes = 0
        self._replaced = []  # (namespace, name, original) for uninstall

    def _bound(self, name):
        return self.bounds.setdefault(name, _Acc())

    def _bound_specs(self, key):
        """(accumulator, guard accumulator or None, probe or None) for
        each boundary the function registered under key opens."""
        specs = []
        for b in BOUNDARIES.get(key, ()):
            guard = GUARDS.get(b)
            specs.append((self._bound(b),
                          None if guard is None else self._bound(guard),
                          PROBES.get(b)))
        return tuple(specs)

    # -- accounting ---------------------------------------------------

    def enter(self, acc, specs=(), args=()):
        """Open a span of the layer acc, unless it is already the
        innermost, and of each boundary in specs; returns the token
        exit() needs."""
        now = self.clock()
        stack = self.stack
        cross = not stack or stack[-1] is not acc
        if cross:
            if stack:
                stack[-1].self_s += now - self.mark
            acc.calls += 1
            if not acc.depth:
                acc.start = now
            acc.depth += 1
            stack.append(acc)
            self.mark = now
        opened = []
        for b, guard, probe in specs:
            if guard is not None and not guard.depth:
                continue
            if not b.depth:
                b.start = now
                b.calls += 1
            b.depth += 1
            opened.append(b)
            if probe is not None:
                n = probe(args)
                if n > b.maximum:
                    b.maximum = n
        return cross, opened

    def exit(self, acc, token):
        now = self.clock()
        cross, opened = token
        for b in opened:
            b.depth -= 1
            if not b.depth:
                b.busy += now - b.start
        if cross:
            acc.self_s += now - self.mark
            self.stack.pop()
            acc.depth -= 1
            if not acc.depth:
                acc.busy += now - acc.start
            self.mark = now

    # -- wrappers -----------------------------------------------------

    def wrap(self, fn, layer, key):
        """A wrapper of fn that accounts its calls to layer and to the
        boundaries registered under key ("<layer>.<qualname>")."""
        acc = self.layers[layer]
        specs = self._bound_specs(key)
        stack, enter, exit_ = self.stack, self.enter, self.exit
        if inspect.isgeneratorfunction(fn):
            counts_primes = key == PRIMES_GENERATOR

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)  # runs no body code yet
                while True:
                    token = enter(acc, specs)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        exit_(acc, token)
                    if counts_primes:
                        self.primes += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not specs and stack and stack[-1] is acc:
                return fn(*args, **kwargs)
            token = enter(acc, specs, args)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(acc, token)

        return wrapper

    def install(self):
        """Wrap every public function of the fqwilson layers and rebind
        every copy of it, in all package modules and classes."""
        import fqwilson.cli  # noqa: F401  (imports every layer)

        wrapped = {}  # original function -> wrapper
        for module in _package_modules():
            layer = LAYERS.get(module.__name__.rpartition(".")[2])
            if layer is None:
                continue
            for name, obj in vars(module).items():
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                members = vars(obj).items() if inspect.isclass(obj) else [(name, obj)]
                for attr, val in members:
                    fn = getattr(val, "__func__", val)  # unwrap classmethods
                    public = not attr.startswith("_") or attr in ARITH_DUNDERS
                    if public and inspect.isfunction(fn) and fn not in wrapped:
                        wrapped[fn] = self.wrap(fn, layer, f"{layer}.{fn.__qualname__}")

        for module in _package_modules():
            self._rebind(module, wrapped)
            for obj in list(vars(module).values()):
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._rebind(obj, wrapped)

    def _rebind(self, namespace, wrapped):
        for name, val in list(vars(namespace).items()):
            if isinstance(val, (classmethod, staticmethod)):
                new = wrapped.get(val.__func__)
                new = None if new is None else type(val)(new)
            else:
                new = wrapped.get(val) if inspect.isfunction(val) else None
            if new is not None:
                self._replaced.append((namespace, name, val))
                setattr(namespace, name, new)

    def uninstall(self):
        """Put every original function back."""
        while self._replaced:
            namespace, name, val = self._replaced.pop()
            setattr(namespace, name, val)

    # -- results ------------------------------------------------------

    def metrics(self):
        """{name: value} for every name in metric_names()."""
        out = {}
        for layer, acc in self.layers.items():
            out[f"{layer}.calls"] = acc.calls
            out[f"{layer}.busy_s"] = acc.busy
            out[f"{layer}.self_s"] = acc.self_s
        for name in BOUNDARY_METRICS:
            bound, _, what = name.rpartition(".")
            acc = self.bounds.get(bound, _Acc())
            out[name] = {"calls": acc.calls, "busy_s": acc.busy}.get(what, acc.maximum)
        tests = out["irr.is_irreducible.calls"]
        out["irr.primes"] = self.primes
        out["irr.yield_ratio"] = self.primes / tests if tests else 0.0
        return out


def main(argv):
    tracer = Tracer()
    tracer.install()
    from fqwilson import cli

    code = cli.main(argv)
    payload = json.dumps(tracer.metrics(), sort_keys=True)
    try:
        sink = os.fdopen(3, "w")
    except OSError:
        sink = os.fdopen(os.dup(2), "w")
    with sink:
        sink.write(payload + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
