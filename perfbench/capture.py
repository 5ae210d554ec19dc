"""Capture the reference stdout of every workload at the current commit.

    python3 perfbench/capture.py

Writes perfbench/reference/<workload>.out from one run at seed
REFERENCE_SEED.  Run it only to re-baseline: the benchmark fails every
run whose stdout differs from these files by one byte.
"""

import sys

import run


def main() -> int:
    run.REFERENCE.mkdir(exist_ok=True)
    for name, make_args in run.WORKLOADS.items():
        args = [*make_args(), "--seed", str(run.REFERENCE_SEED)]
        result = run.spawn(run.cli_argv(args), run.RUN_LIMIT_S)
        if result.code != 0 or result.timed_out:
            print(f"{name}: exit code {result.code}", file=sys.stderr)
            return 1
        (run.REFERENCE / f"{name}.out").write_bytes(result.stdout)
        print(f"{name}: {len(result.stdout)} bytes, {result.wall_s:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
