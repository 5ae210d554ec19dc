"""Smoke test of benchmarks/mul_threshold.py.

The sweeps behind _KRON_MIN_AREA, _BARRETT_MIN_DEG and the rings'
frobenius_rent (the pow steps ModReducer.frobenius takes before it
composes) reach into private names of poly, so a refactor that renames
them must fail here, not in the next sweep.
"""

import importlib.util
import pathlib
import random

from fqwilson import poly
from fqwilson.gf import make_prime_field
from fqwilson.poly import Poly

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "mul_threshold.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("mul_threshold", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mul_threshold_kron_rings_and_frob_table(monkeypatch):
    bench = _load_script()
    field = make_prime_field(5)
    m = Poly(field, (2, 0, 1, 4, 0, 3, 1, 1, 0, 2, 0, 0, 1))
    saved = poly._BARRETT_MIN_DEG
    fold, barrett = bench.kron_ring(m, False), bench.kron_ring(m, True)
    assert poly._BARRETT_MIN_DEG == saved
    assert type(fold) is type(barrett) is poly._KronRing
    assert (fold._barrett, barrett._barrett) == (False, True)
    # both routes on one product, checked against long division
    rows = bench.reduce_sweep(5, (m.degree,), random.Random(1), 1, 1)
    assert [row[0] for row in rows] == [m.degree]
    # one --frob table over a Kronecker field, one over an extension
    # field and one with q > deg m (rows by products of t^q), checked
    # against pow, frobenius and spreading then dividing; the last
    # column is the ring's frobenius_rent, ceil(sqrt(6/2)) on Kronecker
    # residues and 1 on reduced Polys
    monkeypatch.setattr(bench, "FROB_FIELDS", ("5", "4", "257"))
    monkeypatch.setattr(bench, "FROB_DEGREES", (6,))
    monkeypatch.setattr(bench, "FROB_RESIDUES", 2)
    rows = bench.frob_sweep(random.Random(2), 1)
    assert [row[:2] + row[-1:] for row in rows] == \
        [(5, 6, 2), (4, 6, 1), (257, 6, 1)]


def test_mul_threshold_edf_trace_row(monkeypatch):
    # the --edf trace row reaches into factor._draw_key, factor._draw and
    # factor._trace, and check the trace of a real bucket lies in F_2
    bench = _load_script()
    monkeypatch.setattr(bench, "EDF_TRACE_CASE", ("2", 12, 3))
    row = bench.edf_trace_row(random.Random(3), 1)
    assert row[:3] == (2, 12, 3) and len(row) == 6 and min(row[3:]) > 0
