"""End-to-end benchmark of the fqwilson command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Each workload is one fqwilson command, run unmodified as a child
process with --jobs 1 semantics (no workload forks workers), one child
at a time: a closed loop with a single client, since a user of this
tool runs one command and waits for the verified answer.  Run i of
benchmark seed n passes --seed 1000*n + i to the command; every
workload's stdout is independent of it apart from the seed echoed in a
JSONL header.

A benchmark run does one discarded warm-up run, then timed runs until
--seconds have passed (at least MIN_RUNS).  Each timed run follows a run
of reference_kernel.py and, with --trace 0, of the set-up probe
probe_setup.py; the times are reported as medians at a nominal machine
speed (see REFERENCE_S).  With --trace 1 one more run goes under
tracer.py, and the per-layer metrics are reported instead.  Every run
of the command is checked: exit code 0, within its time limit, stdout
byte-identical to the reference captured in perfbench/reference/.  The last stdout line is the result object;
the line before it records the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"

MIN_RUNS = 3
# Nominal duration of reference_kernel.py.  Times are reported at the
# machine speed where the kernel takes this long: a timed run's time is
# scaled by REFERENCE_S / (the kernel's time measured just before it).
REFERENCE_S = 0.5
# per-run time limits; the slowest workload takes about 4 s, traced 20 s
RUN_LIMIT_S = 30.0
TRACED_LIMIT_S = 90.0
SETUP_LIMIT_S = 10.0


def _bracket_plus_one(n: int) -> str:
    """[n] + 1 = t^(2^n) + t + 1 over F_2, built by the program itself.

    A child builds it, so that this process never imports fqwilson: a
    child's ru_maxrss starts from the spawning process's resident size,
    which must stay below every workload's own peak."""
    code = ("from fqwilson.carlitz import CarlitzCache\n"
            "from fqwilson.gf import parse_field\n"
            "from fqwilson.poly import Poly\n"
            "f = parse_field('2')\n"
            f"print(CarlitzCache(f).bracket({n}) + Poly.one(f))\n")
    child = spawn([sys.executable, "-c", code], RUN_LIMIT_S)
    if child.code != 0:
        raise RuntimeError("cannot build the factor input: "
                           + child.stderr.decode(errors="replace")[-300:])
    return child.stdout.decode().strip()


# name -> function returning the command line, without --seed.
# The sizes keep each run at 1-4 s so that a 25 s run holds enough
# samples for a steady median; see perfbench/README.md for the layers
# each workload exercises and the larger commands they stand in for.
WORKLOADS = {
    "t7-q3d5": lambda: ["theorem7", "--field", "3", "--degree", "5",
                        "--c", "1", "--mode", "full", "--json"],
    "survey-q5d4-full": lambda: ["survey", "--field", "5", "--degree", "4",
                                 "--full-suites", "--json"],
    "survey-q3d7": lambda: ["survey", "--field", "3", "--degree", "7",
                            "--json"],
    "factor-q2-b11": lambda: ["factor", "--field", "2", "--poly",
                              _bracket_plus_one(11), "--json"],
}

REFERENCE_SEED = 0
SEEDS_PER_BENCH_SEED = 1000


def child_env() -> dict:
    """The environment of every child: the checkout's src on the path,
    and no CARLITZ_SEED, which would silently replace a missing --seed."""
    env = {k: v for k, v in os.environ.items() if k != "CARLITZ_SEED"}
    env["PYTHONPATH"] = str(SRC)
    return env


def expected_stdout(name: str, seed: int) -> bytes:
    """The reference stdout of a workload, rendered for seed."""
    ref = (REFERENCE / f"{name}.out").read_bytes()
    return ref.replace(b'"seed":%d,' % REFERENCE_SEED, b'"seed":%d,' % seed, 1)


class Run:
    """One finished child: its exit code, stdout, time and resources."""

    def __init__(self, code, stdout, stderr, wall_s, rusage, timed_out):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.wall_s = wall_s
        # this child's own rusage, from wait4; RUSAGE_CHILDREN would
        # give a running maximum over every child for ru_maxrss.  The
        # kernel carries the spawning process's peak across exec, so
        # this process keeps its own resident size small.
        self.cpu_s = rusage.ru_utime + rusage.ru_stime
        self.peak_rss_mib = rusage.ru_maxrss / 1024.0  # ru_maxrss is KiB
        self.timed_out = timed_out
        self.error = None
        self.extra = b""  # what the child wrote to file descriptor 3

    def check(self, expected: bytes) -> "Run":
        if self.timed_out:
            self.error = "time limit exceeded"
        elif self.code != 0:
            tail = self.stderr.decode(errors="replace").strip()[-300:]
            self.error = f"exit code {self.code}: {tail}"
        elif self.stdout != expected:
            self.error = (f"stdout differs from the reference "
                          f"({len(self.stdout)} bytes, expected {len(expected)})")
        return self


def spawn(argv: list, limit_s: float, extra_fd: bool = False) -> Run:
    """Run argv to completion with stdout, stderr (and, if asked, fd 3)
    captured in unnamed files inside the checkout."""
    files = [tempfile.TemporaryFile(dir=BENCH) for _ in range(3 if extra_fd else 2)]
    try:
        actions = [(os.POSIX_SPAWN_DUP2, f.fileno(), fd)
                   for fd, f in enumerate(files, start=1)]
        lock = threading.Lock()
        state = {"done": False, "killed": False}

        def kill():
            with lock:
                if not state["done"]:
                    os.kill(pid, signal.SIGKILL)
                    state["killed"] = True

        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, child_env(), file_actions=actions)
        timer = threading.Timer(limit_s, kill)
        timer.start()
        try:
            _, status, rusage = os.wait4(pid, 0)
        finally:
            with lock:
                state["done"] = True
            timer.cancel()
        wall_s = time.perf_counter() - t0
        out = []
        for f in files:
            f.seek(0)
            out.append(f.read())
    finally:
        for f in files:
            f.close()
    run = Run(os.waitstatus_to_exitcode(status), out[0], out[1], wall_s,
              rusage, state["killed"])
    if extra_fd:
        run.extra = out[2]
    return run


def cli_argv(args: list) -> list:
    return [sys.executable, "-m", "fqwilson.cli", *args]


def traced_argv(args: list) -> list:
    return [sys.executable, str(BENCH / "tracer.py"), *args]


def _spawn_checked(script: str, args: list, limit_s: float) -> Run:
    """Run one of the benchmark's own scripts; it must succeed."""
    run = spawn([sys.executable, str(BENCH / script), *args], limit_s)
    if run.code != 0 or run.timed_out:
        raise RuntimeError(f"{script} failed: "
                           + run.stderr.decode(errors="replace")[-300:])
    return run


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _record(runs: list, run: Run, label: str) -> bool:
    runs.append(run)
    _log(f"  {label}: {run.wall_s:.3f} s wall, {run.cpu_s:.3f} s cpu, "
         f"{run.peak_rss_mib:.1f} MiB" + (f"  FAILED: {run.error}" if run.error else ""))
    return run.error is None


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return the result object."""
    base = WORKLOADS[name]()
    attempted = []  # every run of the command, each checked
    _log(f"{name} seed {seed}")

    def cli_run(i: int, argv_of=cli_argv, limit_s=RUN_LIMIT_S, **kw) -> Run:
        # Run i passes its own --seed, so that one benchmark run averages
        # over several randomized factorizations instead of measuring one.
        s = seed * SEEDS_PER_BENCH_SEED + i
        return spawn(argv_of([*base, "--seed", str(s)]), limit_s, **kw).check(
            expected_stdout(name, s))

    ok = _record(attempted, cli_run(0), "warm-up")

    # Each timed run follows a run of the reference kernel (and, without
    # tracing, a set-up probe); the pair's ratio cancels the drift of the
    # shared machine's speed, which is the same for both.  The loop stops
    # at the first failed run.
    timed, refs, probes = [], [], []
    t0 = time.perf_counter()
    while True:
        refs.append(_spawn_checked("reference_kernel.py", [], RUN_LIMIT_S))
        if not trace:
            probes.append(_spawn_checked("probe_setup.py", base, SETUP_LIMIT_S))
        timed.append(cli_run(len(timed) + 1))
        ok = _record(attempted, timed[-1], f"run {len(timed)} "
                     f"(reference {refs[-1].wall_s:.3f} s)") and ok
        if not ok or (len(timed) >= MIN_RUNS and time.perf_counter() - t0 >= seconds):
            break

    def nominal(runs, attr):
        """Median of runs' attr, in seconds at the nominal machine speed."""
        return REFERENCE_S * statistics.median(
            getattr(r, attr) / getattr(ref, attr) for r, ref in zip(runs, refs))

    if trace:
        traced = cli_run(0, traced_argv, TRACED_LIMIT_S, extra_fd=True)
        try:
            layer = json.loads(traced.extra)
        except ValueError:
            layer = {}
            traced.error = traced.error or "the tracer wrote no metrics"
        _record(attempted, traced, "traced")
        untraced = statistics.median(r.wall_s for r in timed)
        layer["trace.overhead_ratio"] = traced.wall_s / untraced
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(layer.items())}
    else:
        metrics = {
            "wall_s": {"value": nominal(timed, "wall_s"), "unit": "s"},
            "cpu_s": {"value": nominal(timed, "cpu_s"), "unit": "s"},
            "setup_s": {"value": nominal(probes, "wall_s"), "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(r.peak_rss_mib for r in timed),
                             "unit": "MiB"},
        }
    failed = sum(r.error is not None for r in attempted)
    if not trace:
        metrics["ok_frac"] = {"value": (len(attempted) - failed) / len(attempted),
                              "unit": "ratio"}
    env = environment(seed, len(timed), name, seconds, trace,
                      statistics.median(r.wall_s for r in refs))
    return {"environment": env,
            "result": {"correct": failed == 0, "attempted": len(attempted),
                       "failed": failed, "metrics": metrics}}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_frac")):
        return "ratio"
    if metric.endswith("max_bits"):
        return "bits"
    if metric.endswith("max_len"):
        return "coeffs"
    return "count"


def _git_commit():
    """HEAD of the checkout's git repository, read from .git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed, runs, workload, seconds, trace, reference_s) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "runs": runs,
        "seconds": seconds,
        "trace": trace,
        "reference_kernel_s": reference_s,  # median measured; REFERENCE_S is nominal
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fqwilson" / "cli.py").is_file():
        _log(f"error: no fqwilson sources under {SRC}")
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        out = bench(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"environment": out["environment"]}), flush=True)
        print(json.dumps(out["result"]), flush=True)
        correct = correct and out["result"]["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
