"""The benchmark's workloads against the benchmark's reference record.

Each workload of ``benchmarks/run.py`` is run as ``lab run`` with the
arguments the benchmark gives it, and its exit status, per-suite verdicts
and experiment rows are checked against ``benchmarks/reference.json`` at
its ``rtol`` by the benchmark's own gate (``benchmarks/verdicts.py``), so
a change that would fail the benchmark's correctness gate fails here
first.  The benchmark's files are only read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from heislab.cli import main

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name: str, filename: str):
    """The benchmark module ``filename`` under the name ``name``; its own
    imports of the modules beside it resolve from the benchmark directory."""
    if str(BENCHMARKS) not in sys.path:
        sys.path.append(str(BENCHMARKS))
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


VERDICTS = _load("benchmark_verdicts", "verdicts.py")
WORKLOADS = _load("benchmark_run", "run.py").WORKLOADS
REFERENCE = VERDICTS.load_reference()


def test_every_workload_has_a_reference():
    assert sorted(REFERENCE["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_matches_the_reference(tmp_path, workload):
    suite, count = WORKLOADS[workload]
    out = tmp_path / "out"
    code = main(
        ["run", "--suite", suite, "--grid", str(count), "--seed", "7", "--out", str(out)]
    )
    expected = REFERENCE["workloads"][workload]
    failures = VERDICTS.op_failures(
        expected, code, VERDICTS.read_artifacts(out), REFERENCE["rtol"]
    )
    assert not failures, "; ".join(failures)
