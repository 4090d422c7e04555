"""Span arithmetic, call-log counts and sample reporting of the benchmark."""

import pytest

import spans
from tracer import Tracer

MS = 1_000_000  # nanoseconds


def span(id, name, start, end, parent=None, attrs=None):
    return {"id": id, "name": name, "start": start * MS, "end": end * MS, "parent": parent, "op": 0, "attrs": attrs}


NESTED = [
    span(0, "cli.main", 0, 100),
    span(1, "cli.run_suite.bound", 10, 90, parent=0),
    span(2, "experiments.bound_experiment", 15, 85, parent=1),
    span(3, "experiments.dixmier_lhs", 20, 60, parent=2),
    span(4, "grid.build_riesz", 22, 30, parent=3, attrs={"key": "k13"}),
    span(5, "schatten.singular_values", 32, 58, parent=3, attrs={"m": 2197, "n": 2197}),
    span(6, "lapack.svd", 33, 57, parent=5, attrs={"m": 2197, "n": 2197, "uv": False}),
    span(7, "grid.build_riesz", 62, 70, parent=2, attrs={"key": "k13"}),
]


def test_self_time_subtracts_children():
    own = spans.self_times(NESTED)
    assert own[0] == pytest.approx(0.020)  # 100 - 80 covered by the suite
    assert own[1] == pytest.approx(0.010)
    assert own[2] == pytest.approx(0.070 - 0.040 - 0.008)
    assert own[3] == pytest.approx(0.040 - 0.008 - 0.026)
    assert own[4] == pytest.approx(0.008)


def test_lapack_child_does_not_reduce_its_caller():
    own = spans.self_times(NESTED)
    assert own[5] == pytest.approx(0.026)
    assert own[6] == pytest.approx(0.024)


def test_heislab_self_times_partition_the_root():
    own = spans.self_times(NESTED)
    assert sum(own[s["id"]] for s in NESTED if not s["name"].startswith("lapack.")) == pytest.approx(0.100)


def test_overlapping_children_are_counted_once():
    parent = span(0, "grid.riesz_decomposition_residual", 0, 10)
    children = [span(1, "grid.build_riesz", 1, 6, parent=0), span(2, "grid.commutator", 4, 8, parent=0)]
    assert spans.self_times([parent, *children])[0] == pytest.approx(0.003)


def test_layer_metrics_on_nested_spans():
    m = spans.layer_metrics(NESTED, n_ops=1)
    assert set(m) == set(spans.per_layer_names()) - {"startup.import_s", "trace.op_wall_s", "trace.overhead_s"}
    assert m["schatten.singular_values.s"] == pytest.approx(0.026)
    assert m["schatten.singular_values.calls"] == 1
    assert m["schatten.singular_values.n_max"] == 2197
    assert m["grid.build_riesz.calls"] == 2
    assert m["grid.build_riesz.redundant"] == 1
    assert m["cli.run_suite.bound.s"] == pytest.approx(0.080)
    assert m["cli.self.s"] == pytest.approx(0.020)
    assert m["lapack.svd.s"] == pytest.approx(0.024)
    assert m["lapack.svd.gflop_nominal"] == pytest.approx((4 - 4 / 3) * 2197**3 * 1e-9)
    assert m["lapack.eigh.calls"] == 0
    assert m["doi.s"] == 0


def test_layer_metrics_are_per_op():
    twice = NESTED + [dict(s, id=s["id"] + 10, parent=None if s["parent"] is None else s["parent"] + 10, op=1)
                      for s in NESTED]
    assert spans.layer_metrics(twice, n_ops=2) == pytest.approx(spans.layer_metrics(NESTED, n_ops=1))


@pytest.mark.parametrize(
    "keys, redundant",
    [
        ([], 0),
        (["g9|1"], 0),
        (["g9|1"] * 7, 6),
        (["g9|1", "g9|2", "g9|1", "g13|1", "g9|2"], 2),
    ],
)
def test_redundant_calls_on_call_log(keys, redundant):
    assert spans.redundant_calls(keys) == redundant


def test_tracer_records_nesting_and_keys():
    tracer = Tracer()
    inner = tracer.span("grid.build_riesz", lambda spec, ell: spec * ell, lambda a, k: {"key": repr(a)})
    outer = tracer.span("experiments.dixmier_lhs", lambda: inner(2, 3) + inner(2, 3))
    assert outer() == 12
    root, first, second = tracer.spans
    assert root["parent"] is None and first["parent"] == second["parent"] == root["id"]
    assert root["start"] <= first["start"] <= first["end"] <= second["start"] <= root["end"]
    m = spans.layer_metrics(tracer.spans, n_ops=1)
    assert m["grid.build_riesz.calls"] == 2 and m["grid.build_riesz.redundant"] == 1


def test_tracer_closes_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("degenerate family")

    with pytest.raises(ValueError):
        tracer.span("experiments.bound_experiment", boom)()
    (record,) = tracer.spans
    assert record["end"] >= record["start"] > 0
    assert tracer.span("grid.quarter_rotation", lambda: None)() is None
    assert tracer.spans[1]["parent"] is None


def test_summarize_reports_sample_count():
    few = spans.summarize([3.0, 1.0, 2.0])
    assert few == {"n": 3, "median": 2.0, "p_high": None, "p_high_value": None}
    assert spans.summarize([5.0] * 10)["p_high"] is None
    many = spans.summarize([float(v) for v in range(1, 41)])
    assert many["n"] == 40 and many["median"] == 20.5
    assert many["p_high"] == 75.0 and many["p_high_value"] == 30.0  # ten samples (31..40) beyond it


def test_every_per_layer_name_is_unique_and_has_a_unit():
    names = spans.per_layer_names()
    assert len(names) == len(set(names))
    assert {spans.unit_of(n) for n in names} <= {"s", "count", "GFLOP"}
