"""Golden check of the benchmark's outputs.

Each workload of perfbench/run.py runs in process through cli.main at
two seeds, and its stdout must equal the reference the benchmark checks
every timed run against, byte for byte.  The seed changes which splits
the factorizations take, not what they print, so both seeds share one
reference (up to the seed echoed in a survey's JSONL header).
"""

import importlib.util
import pathlib

import pytest

from fqwilson import cli

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("perfbench_run", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = _load_script()


@pytest.mark.parametrize("seed", (0, 7))
@pytest.mark.parametrize("name", list(BENCH.WORKLOADS))
def test_workload_stdout_matches_reference(name, seed, capsys):
    argv = [*BENCH.WORKLOADS[name](), "--seed", str(seed)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.encode() == BENCH.expected_stdout(name, seed)
