"""Correctness gate: compare one ``lab run`` op with the stored reference.

An op fails when any of these holds:

* its exit status differs from the reference (a crash is exit 1 or a signal),
* the set of suites it wrote, or any suite's PASS/FAIL verdict, differs,
* an experiment-row number (``lhs``, ``rhs``, ``ratio``, ``slope`` of the
  bound, trace and product artifacts) leaves the reference by more than the
  relative tolerance ``rtol`` stored in ``reference.json``.

These row numbers do not depend on ``--seed``.  Residual-type fields sit at
rounding level (about 1e-14) and are checked only through the verdicts.
Byte identity of two ops with the same seed is checked by
:func:`identity_failures`.

``python3 benchmarks/verdicts.py WORKLOAD EXIT DIR`` prints the reference
entry for an artifact directory written by a trusted build.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections.abc import Mapping
from pathlib import Path

ROW_FIELDS = ("lhs", "rhs", "ratio", "slope")
REFERENCE = Path(__file__).with_name("reference.json")


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def read_artifacts(directory: Path) -> dict[str, dict]:
    """Run payloads in an output directory, keyed by suite."""
    out = {}
    for path in sorted(Path(directory).glob("*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(payload, dict) and payload.get("kind") == "run":
            out[payload["suite"]] = payload
    return out


def experiment_rows(payload: Mapping) -> dict[str, list[dict]]:
    """The experiment tables of one suite payload, reduced to the checked fields."""
    tables = {}
    for key, value in sorted(payload.get("extra", {}).items()):
        if isinstance(value, Mapping) and isinstance(value.get("rows"), list):
            tables[key] = [
                {"label": row["label"], **{f: row[f] for f in ROW_FIELDS if f in row}}
                for row in value["rows"]
            ]
    return tables


def reference_entry(exit_code: int, artifacts: Mapping[str, Mapping]) -> dict:
    return {
        "exit": exit_code,
        "verdicts": {s: "PASS" if p["passed"] else "FAIL" for s, p in sorted(artifacts.items())},
        "rows": {s: rows for s, p in sorted(artifacts.items()) if (rows := experiment_rows(p))},
    }


def _close(actual: float, expected: float, rtol: float) -> bool:
    return abs(actual - expected) <= rtol * max(abs(actual), abs(expected))


def op_failures(
    expected: Mapping, exit_code: int, artifacts: Mapping[str, Mapping], rtol: float
) -> list[str]:
    """Reasons this op differs from its reference entry; empty when it matches."""
    reasons = []
    if exit_code != expected["exit"]:
        reasons.append(f"exit status {exit_code}, expected {expected['exit']}")
    got = {s: "PASS" if p["passed"] else "FAIL" for s, p in artifacts.items()}
    for suite in sorted(set(expected["verdicts"]) | set(got)):
        want, have = expected["verdicts"].get(suite), got.get(suite)
        if want != have:
            reasons.append(f"{suite}: verdict {have}, expected {want}")
    for suite, tables in expected["rows"].items():
        if suite not in artifacts:
            continue
        have_tables = experiment_rows(artifacts[suite])
        for table, want_rows in tables.items():
            have_rows = have_tables.get(table, [])
            if [r["label"] for r in have_rows] != [r["label"] for r in want_rows]:
                reasons.append(f"{suite}.{table}: row labels differ")
                continue
            for want, have in zip(want_rows, have_rows):
                for field in ROW_FIELDS:
                    if (field in want) != (field in have):
                        reasons.append(f"{suite}.{table}.{want['label']}.{field}: presence differs")
                    elif field in want and not _close(have[field], want[field], rtol):
                        reasons.append(
                            f"{suite}.{table}.{want['label']}.{field}: "
                            f"{have[field]!r}, expected {want[field]!r} (rtol {rtol:g})"
                        )
    return reasons


def digests(directory: Path) -> dict[str, str]:
    """SHA-256 of every file an op wrote, keyed by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(directory).iterdir())
        if path.is_file()
    }


def identity_failures(first: Mapping[str, str], other: Mapping[str, str]) -> list[str]:
    """Files that are not byte-identical between two ops with the same seed."""
    names = sorted(set(first) | set(other))
    return [f"{name}: not byte-identical to the first op" for name in names if first.get(name) != other.get(name)]


if __name__ == "__main__":
    workload, exit_code, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    print(json.dumps({workload: reference_entry(exit_code, read_artifacts(directory))}, indent=2))
