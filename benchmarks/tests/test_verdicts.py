"""The correctness gate against the stored reference."""

import copy
import json

import pytest

import verdicts

REFERENCE = verdicts.load_reference()
RTOL = REFERENCE["rtol"]


def artifacts_for(workload):
    """Suite payloads that reproduce a workload's reference exactly."""
    entry = REFERENCE["workloads"][workload]
    out = {}
    for suite, verdict in entry["verdicts"].items():
        extra = {table: {"rows": copy.deepcopy(rows)} for table, rows in entry["rows"].get(suite, {}).items()}
        out[suite] = {"kind": "run", "suite": suite, "passed": verdict == "PASS", "extra": extra}
    return out


@pytest.mark.parametrize("workload", sorted(REFERENCE["workloads"]))
def test_reference_reproduction_is_accepted(workload):
    entry = REFERENCE["workloads"][workload]
    assert verdicts.op_failures(entry, entry["exit"], artifacts_for(workload), RTOL) == []


def test_expected_bound_fail_at_nine_is_accepted():
    entry = REFERENCE["workloads"]["all-9"]
    assert entry["exit"] == 3 and entry["verdicts"]["bound"] == "FAIL"
    assert set(entry["verdicts"]) == {"hermite", "doi", "plancherel", "grid", "bound", "trace", "product"}
    assert verdicts.op_failures(entry, 3, artifacts_for("all-9"), RTOL) == []


def test_ratio_perturbed_by_one_part_per_million_is_rejected():
    entry = REFERENCE["workloads"]["bound-13"]
    arts = artifacts_for("bound-13")
    arts["bound"]["extra"]["ratio_experiment"]["rows"][1]["ratio"] *= 1 + 1e-6
    (reason,) = verdicts.op_failures(entry, 0, arts, RTOL)
    assert "ratio_experiment" in reason and ".ratio" in reason


def test_rounding_level_change_is_accepted():
    entry = REFERENCE["workloads"]["all-9"]
    arts = artifacts_for("all-9")
    arts["trace"]["extra"]["experiment"]["rows"][0]["lhs"] *= 1 + 1e-13
    assert verdicts.op_failures(entry, 3, arts, RTOL) == []


def test_flipped_verdict_is_rejected():
    entry = REFERENCE["workloads"]["all-9"]
    arts = artifacts_for("all-9")
    arts["bound"]["passed"] = True
    assert verdicts.op_failures(entry, 3, arts, RTOL) == ["bound: verdict PASS, expected FAIL"]
    arts = artifacts_for("all-9")
    arts["hermite"]["passed"] = False
    assert verdicts.op_failures(entry, 3, arts, RTOL) == ["hermite: verdict FAIL, expected PASS"]


def test_crash_and_missing_suite_are_rejected():
    entry = REFERENCE["workloads"]["all-9"]
    arts = artifacts_for("all-9")
    del arts["bound"]
    reasons = verdicts.op_failures(entry, 1, arts, RTOL)
    assert reasons == ["exit status 1, expected 3", "bound: verdict None, expected FAIL"]


def test_exit_status_is_checked_even_when_verdicts_match():
    entry = REFERENCE["workloads"]["all-9"]
    assert verdicts.op_failures(entry, 0, artifacts_for("all-9"), RTOL) == ["exit status 0, expected 3"]


def test_reference_entry_round_trips(tmp_path):
    for suite, payload in artifacts_for("all-9").items():
        (tmp_path / f"{suite}_abc.json").write_text(json.dumps(payload))
    (tmp_path / "report.json").write_text(json.dumps({"kind": "report"}))
    entry = verdicts.reference_entry(3, verdicts.read_artifacts(tmp_path))
    assert entry == REFERENCE["workloads"]["all-9"]


def test_byte_identity(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        (d / "bound_x.json").write_bytes(b'{"ratio": 0.25}\n')
    assert verdicts.identity_failures(verdicts.digests(a), verdicts.digests(b)) == []
    (b / "bound_x.json").write_bytes(b'{"ratio": 0.2500001}\n')
    (b / "bound_x_1.json").write_bytes(b"{}\n")
    assert len(verdicts.identity_failures(verdicts.digests(a), verdicts.digests(b))) == 2
