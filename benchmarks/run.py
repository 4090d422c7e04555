"""heislab benchmark: time ``lab run`` as a user runs it, one fresh process per op.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload bound-13 --seed 1 --seconds 40 --trace 0

Workloads (serial ops, never ``--parallel``; why each exists is in README.md):

* ``bound-13``: ``lab run --suite bound --grid 13``, commutator SVDs,
* ``grid-13``: ``lab run --suite grid --grid 13``, spectral calculus, no SVD,
* ``all-9``: ``lab run --suite all --grid 9``, every suite sharing one model.

With ``--trace 0`` the run first times ``SETUP_REPEATS`` fresh interpreters
importing ``heislab.cli``, then repeats the op, each in a fresh process with
an empty ``--out`` directory, while another op of the median length still fits
in ``--seconds`` (at least one op).  It reports the end-to-end metrics.

With ``--trace 1`` it runs one plain op and then the same op under
``tracer.py``, and reports the per-layer metrics of the traced op and the
tracing overhead, the difference of the two ops' wall times.

Every op is checked against ``reference.json`` (see ``verdicts.py``) and
against the first op of the run for byte-identical artifacts.  Results,
per-op records and a provenance sidecar go to ``.bench_out/<run>/``; the last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import verdicts

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = {"bound-13": ("bound", 13), "grid-13": ("grid", 13), "all-9": ("all", 9)}
SETUP_REPEATS = 3
# every op is killed past this many seconds from the start of the run, so a
# hung op cannot keep the run past its 180 s limit
RUN_BUDGET_S = 170.0
# two OpenBLAS threads are faster than one on a 2-core machine and as steady
# (27.6 s against 46.7 s per bound-13 op on a 2-vCPU x86-64 VM)
BLAS_THREADS = max(1, min(2, len(os.sched_getaffinity(0))))
NOISE_NOTE = (
    "Run-to-run noise is handled only by repetition: ops are repeated in a run "
    "and runs are repeated across seeds. The page cache is not dropped and no "
    "system-wide tracing is used: both act on the whole machine, which is shared."
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    return env


def spawn(argv: list[str], log_path: Path, deadline: float) -> tuple[float, int, float]:
    """Run one child to completion; wall seconds, exit code, peak RSS in MB."""
    with log_path.open("wb") as log:
        started = time.perf_counter()
        child = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(deadline - started, 0.0), child.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    return wall, child.returncode, usage.ru_maxrss / 1024.0


class Run:
    """One benchmark run: its ops, their checks and where their files go."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.suite, self.grid = WORKLOADS[workload]
        self.workload, self.seed = workload, seed
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.dir = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        reference = verdicts.load_reference()
        self.expected = reference["workloads"][workload]
        self.rtol = reference["rtol"]
        self.ops: list[dict] = []

    def lab_args(self, out: Path) -> list[str]:
        return ["run", "--suite", self.suite, "--grid", str(self.grid), "--seed", str(self.seed), "--out", str(out)]

    def setup_samples(self) -> list[float]:
        samples = []
        for k in range(SETUP_REPEATS):
            wall, code, _ = spawn(
                [sys.executable, "-c", "import heislab.cli"], self.dir / f"setup{k}.log", self.deadline
            )
            if code != 0:
                raise RuntimeError(f"importing heislab.cli failed with exit {code}; see {self.dir}/setup{k}.log")
            samples.append(wall)
        return samples

    def op(self, traced: bool = False) -> dict:
        k = len(self.ops)
        out = self.dir / f"op{k}"
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(self.dir / f"spans{k}.json"), "--"]
        else:
            argv = [sys.executable, "-m", "heislab.cli"]
        wall, code, rss = spawn(argv + self.lab_args(out), self.dir / f"op{k}.log", self.deadline)
        try:
            reasons = verdicts.op_failures(self.expected, code, verdicts.read_artifacts(out), self.rtol)
            files = verdicts.digests(out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            reasons, files = [f"artifacts unreadable: {exc!r}"], {}
        if self.ops:
            reasons += verdicts.identity_failures(self.ops[0]["files"], files)
        record = {"op": k, "traced": traced, "wall_s": wall, "exit": code, "peak_rss_mb": rss,
                  "failures": reasons, "files": files}
        for reason in reasons:
            print(f"op{k} FAILED: {reason}", file=sys.stderr)
        self.ops.append(record)
        return record

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op["failures"])


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def provenance(run: Run) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": run.workload,
        "lab_args": run.lab_args(Path("<fresh dir>")),
        "seed": run.seed,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "git_revision": git_revision(),
        "source_sha256": source.hexdigest(),
        "noise": NOISE_NOTE,
    }


def timing_line(name: str, unit: str, values: list[float]) -> str:
    s = spans.summarize(values)
    upper = (
        f"p{s['p_high']:g} {s['p_high_value']:.4f} {unit}"
        if s["p_high"] is not None
        else "no upper percentile (needs more than 10 samples)"
    )
    return f"{name}: median {s['median']:.4f} {unit} over n={s['n']} samples; {upper}"


def measure(run: Run, seconds: float) -> tuple[dict, list[str]]:
    setup = run.setup_samples()
    begun = time.perf_counter()
    while True:
        run.op()
        walls = [op["wall_s"] for op in run.ops]
        next_end = time.perf_counter() + statistics.median(walls)
        if next_end - begun > seconds or next_end > run.deadline:
            break
    rss = [op["peak_rss_mb"] for op in run.ops]
    attempted = len(run.ops)
    metrics = {
        "op_wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": max(rss), "unit": "MB"},
        "ok_ops_ratio": {"value": (attempted - run.failed) / attempted, "unit": "ratio"},
    }
    lines = [
        timing_line("op_wall_s", "s", walls),
        timing_line("setup_s", "s", setup),
        f"peak_rss_mb: max {max(rss):.1f} MB over n={attempted} ops",
        f"failed_ops_ratio: {run.failed / attempted:g} ({run.failed} of {attempted} ops failed)",
    ]
    return metrics, lines


def measure_traced(run: Run) -> tuple[dict, list[str]]:
    plain = run.op()
    traced = run.op(traced=True)
    values = {name: 0.0 for name in spans.per_layer_names()}
    absent: dict = {}
    spans_path = run.dir / f"spans{traced['op']}.json"
    if spans_path.exists():
        recorded = json.loads(spans_path.read_text(encoding="utf-8"))
        values.update(spans.layer_metrics(recorded["spans"], n_ops=1))
        values["startup.import_s"] = recorded["import_s"]
        absent = {k: v for k, v in recorded["absent"].items() if v}
    values["trace.op_wall_s"] = traced["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics = {name: {"value": value, "unit": spans.unit_of(name)} for name, value in values.items()}
    lines = [
        f"untraced op {plain['wall_s']:.4f} s, traced op {traced['wall_s']:.4f} s (n=1 each)",
        "absent layers: " + (json.dumps(absent) if absent else "none"),
    ]
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "heislab" / "cli.py").is_file():
        print(f"no heislab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    run = Run(args.workload, args.seed, bool(args.trace))
    metrics, lines = measure_traced(run) if args.trace else measure(run, args.seconds)
    result = {
        "correct": run.failed == 0,
        "attempted": len(run.ops),
        "failed": run.failed,
        "metrics": metrics,
    }
    (run.dir / "provenance.json").write_text(json.dumps(provenance(run), indent=2) + "\n", encoding="utf-8")
    (run.dir / "result.json").write_text(
        json.dumps({**result, "ops": run.ops, "report": lines}, indent=2) + "\n", encoding="utf-8"
    )
    print(f"{args.workload} seed {args.seed} trace {args.trace}: files in {run.dir.relative_to(ROOT)}")
    for line in lines:
        print("  " + line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
