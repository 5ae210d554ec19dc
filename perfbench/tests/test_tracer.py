"""Tests of the benchmark's tracer and child-process accounting.

    python3 -m pytest perfbench/tests
"""

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from fqwilson import cli, factor, irr, survey  # noqa: E402
from fqwilson.gf import parse_field  # noqa: E402


class StepClock:
    """A clock that advances by one tick per reading, or by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.fixture
def installed():
    clock = StepClock()
    tr = tracer.Tracer(clock=clock)
    tr.install()
    try:
        yield tr, clock
    finally:
        tr.uninstall()


def traced(args):
    return run.spawn(run.traced_argv(args), run.TRACED_LIMIT_S, extra_fd=True)


def test_rebinds_every_copy(installed):
    wrapped = irr.is_irreducible
    assert wrapped.__wrapped__ is not None
    for module in (cli, factor, survey):
        assert module.is_irreducible is wrapped
    # no public function of a layer is reachable unwrapped from any
    # module or class of the package
    for module in tracer._package_modules():
        for space in [module] + [c for c in vars(module).values()
                                 if inspect.isclass(c) and c.__module__ == module.__name__]:
            for name, val in vars(space).items():
                fn = getattr(val, "__func__", val)
                home = getattr(fn, "__module__", "").rpartition(".")[2]
                if (inspect.isfunction(fn) and home in tracer.LAYERS
                        and (not name.startswith("_") or name in tracer.ARITH_DUNDERS)):
                    assert hasattr(fn, "__wrapped__"), f"{module.__name__}.{name}"


def test_uninstall_restores_originals():
    original = irr.is_irreducible
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    for module in (cli, factor, irr, survey):
        assert module.is_irreducible is original
    assert not hasattr(original, "__wrapped__")


def test_generator_is_timed_per_next(installed):
    tr, clock = installed
    acc = tr.layers["irr"]
    gen = irr.iter_monic_irreducibles(parse_field("3"), 2)
    assert (acc.calls, acc.busy) == (0, 0.0)
    next(gen)
    first = acc.busy
    assert acc.calls >= 1 and first > 0
    clock.now += 1000.0  # time spent by the consumer between next() calls
    rest = list(gen)
    assert len(rest) == 2 and tr.primes == 3
    assert acc.busy - first < 1000.0


def test_busy_and_self_time_definitions():
    clock = StepClock()
    tr = tracer.Tracer(clock=clock)
    outer, inner = tr.layers["survey"], tr.layers["poly"]
    a = tr.enter(outer)            # t=1
    b = tr.enter(inner)            # t=2
    c = tr.enter(inner)            # t=3, same layer: not a new call
    tr.exit(inner, c)              # t=4
    tr.exit(inner, b)              # t=5
    d = tr.enter(outer)            # t=6, same layer again
    tr.exit(outer, d)              # t=7
    tr.exit(outer, a)              # t=8
    assert (outer.calls, outer.busy, outer.self_s) == (1, 7.0, 4.0)
    assert (inner.calls, inner.busy, inner.self_s) == (1, 3.0, 3.0)


def test_exact_counts_on_tiny_input():
    args = ["primes", "list", "--field", "3", "--degree", "2"]
    first, second = traced(args), traced(args)
    a, b = json.loads(first.extra), json.loads(second.extra)
    # 6 enumeration tests (candidates with zero constant term are
    # skipped) plus 3 re-tests in make_extension, one per prime
    assert a["irr.is_irreducible.calls"] == 9
    assert a["irr.primes"] == 3
    assert a["irr.yield_ratio"] == pytest.approx(1 / 3)
    counts = [k for k in a if k.endswith((".calls", "max_len", "max_bits")) or k == "irr.primes"]
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert sorted(a) == sorted(tracer.metric_names())


@pytest.mark.parametrize("args", [
    ["survey", "--field", "3", "--degree", "3", "--full-suites", "--json", "--seed", "5"],
    ["factor", "--field", "2", "--poly", "t^64+t+1", "--json", "--seed", "2"],
    ["theorem7", "--field", "3", "--degree", "3", "--c", "1", "--json"],
])
def test_traced_stdout_equals_untraced(args):
    plain = run.spawn(run.cli_argv(args), run.RUN_LIMIT_S)
    with_trace = traced(args)
    assert plain.code == with_trace.code == 0
    assert plain.stdout and with_trace.stdout == plain.stdout


def test_rusage_is_per_child():
    big = run.spawn([sys.executable, "-c", "x = bytearray(100 << 20)"], run.RUN_LIMIT_S)
    small = run.spawn([sys.executable, "-c", "pass"], run.RUN_LIMIT_S)
    # RUSAGE_CHILDREN would report the first child's peak for both
    assert big.peak_rss_mib > small.peak_rss_mib + 50


def test_time_limit_kills_and_fails():
    slow = run.spawn([sys.executable, "-c", "import time; time.sleep(60)"], 0.5)
    assert slow.timed_out and slow.wall_s < 30
    assert slow.check(b"").error == "time limit exceeded"


def test_output_check_is_byte_exact():
    expected = run.expected_stdout("survey-q3d7", 7)
    assert expected.startswith(b'{"schema":"fqwilson.survey/1","seed":7,')
    ok = run.spawn([sys.executable, "-c", "print('a')"], run.RUN_LIMIT_S)
    assert ok.check(b"a\n").error is None
    assert ok.check(b"a \n").error.startswith("stdout differs")


def test_child_env_drops_carlitz_seed(monkeypatch):
    monkeypatch.setenv("CARLITZ_SEED", "7")
    env = run.child_env()
    assert "CARLITZ_SEED" not in env
    assert env["PYTHONPATH"] == str(run.SRC)


def test_benchmark_json_names_every_workload():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in doc["per_layer"]] == \
        tracer.metric_names() + ["trace.overhead_ratio"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "t7-q3d5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == b""


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_reports_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "factor-q2-b11",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-500:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    wanted = doc["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
