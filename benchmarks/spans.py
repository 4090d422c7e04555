"""Span arithmetic and per-layer metrics for the traced benchmark run.

A span is one call into a layer, recorded by ``tracer.py``::

    {"id": 3, "name": "grid.build_riesz", "start": ns, "end": ns,
     "parent": 1, "op": 0, "attrs": {...}}

``name`` is ``<layer>.<function>``; the layer is the defining module of the
function (``grid``, ``schatten``, ...), ``lapack`` for the wrapped
``numpy.linalg`` kernels and ``cli`` for the front end.

Self time is a span's duration minus the part of its interval covered by its
child spans.  ``lapack`` spans are kernel leaves observed *inside* a layer:
they are reported with their own inclusive time and do not reduce the self
time of the span that called them, so the self times of the ``heislab`` layers
partition the traced op and ``lapack.*`` says how much of it was LAPACK.
"""

from __future__ import annotations

import statistics
from collections.abc import Iterable, Mapping, Sequence

KERNEL_LAYER = "lapack"
KERNELS = ("svd", "eigh", "eigvals")

# per-function self-time metrics, as ``<layer>.<function>.s``
NAMED_FUNCTIONS = {
    "grid": (
        "build_sublaplacian",
        "sublaplacian_spectrum",
        "build_riesz",
        "riesz_decomposition_residual",
        "quarter_rotation",
        "sobolev_seminorm",
    ),
    "schatten": ("singular_values",),
    "experiments": (
        "bound_experiment",
        "trace_formula_experiment",
        "dixmier_lhs",
        "bochner_rhs",
        "gram_min_eigenvalue",
        "product_factor",
        "product_trace_check",
    ),
}
# call counts, as ``<layer>.<function>.calls``
COUNTED_FUNCTIONS = ("grid.build_riesz", "schatten.singular_values", "experiments.product_factor")
# the tail fits and trace approximants, reported together as ``schatten.fits.s``
SCHATTEN_FITS = ("weak_quasinorm", "shadow_fit_range", "fit_weak_decay", "dixmier_approximant")
# layers reported as module totals (self time and calls)
MODULE_TOTALS = ("grid", "schatten", "experiments", "oscillator", "doi", "plancherel")
SUITES = ("hermite", "doi", "plancherel", "grid", "bound", "trace", "product")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: Sequence[Mapping]) -> dict[int, float]:
    """Self time in seconds of every span, keyed by span id."""
    children: dict[int, list[Mapping]] = {}
    for span in spans:
        if span["parent"] is not None and layer_of(span["name"]) != KERNEL_LAYER:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0
        cursor = start
        for child in sorted(children.get(span["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(child["start"], cursor), min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span["id"]] = (end - start - covered) * 1e-9
    return out


def redundant_calls(keys: Iterable) -> int:
    """Calls beyond the first for each distinct argument key."""
    keys = list(keys)
    return len(keys) - len(set(keys))


def nominal_flops(kernel: str, attrs: Mapping) -> float:
    """Computed (not measured) flop count of one LAPACK call, from its shape.

    Golub & Van Loan, *Matrix Computations*, 4th ed., table 8.6.1 and
    section 8.6.3, for an ``m x n`` input (``m >= n`` after transposing):

    * ``svd`` values only ``4 m n^2 - 4 n^3 / 3``; with vectors
      ``4 m^2 n + 8 m n^2 + 9 n^3``,
    * ``eigh`` with vectors ``9 n^3``,
    * ``eigvals`` (Hessenberg QR, values only) ``10 n^3``.

    A complex input counts four real flops per complex flop.
    """
    m, n = max(attrs["m"], attrs["n"]), min(attrs["m"], attrs["n"])
    if kernel == "svd":
        flops = 4 * m * m * n + 8 * m * n * n + 9 * n**3 if attrs.get("uv") else 4 * m * n * n - 4 * n**3 / 3
    elif kernel == "eigh":
        flops = 9 * n**3
    elif kernel == "eigvals":
        flops = 10 * n**3
    else:
        raise ValueError(f"no flop formula for {kernel!r}")
    flops *= attrs.get("batch", 1)
    return float(flops * (4 if attrs.get("complex") else 1))


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = []
    for layer, functions in NAMED_FUNCTIONS.items():
        names += [f"{layer}.{fn}.s" for fn in functions]
        names += [f"{c}.calls" for c in COUNTED_FUNCTIONS if c.startswith(layer + ".")]
        if layer == "grid":
            names.append("grid.build_riesz.redundant")
        if layer == "schatten":
            names += ["schatten.singular_values.n_max", "schatten.fits.s"]
    for layer in MODULE_TOTALS:
        names += [f"{layer}.s", f"{layer}.calls"]
    names += [f"cli.run_suite.{suite}.s" for suite in SUITES] + ["cli.self.s"]
    for kernel in KERNELS:
        names += [f"lapack.{kernel}.{key}" for key in ("s", "calls", "n_max", "gflop_nominal")]
    names += ["startup.import_s", "trace.op_wall_s", "trace.overhead_s"]
    return names


def unit_of(name: str) -> str:
    if name.endswith((".calls", ".redundant", ".n_max")):
        return "count"
    return "GFLOP" if name.endswith(".gflop_nominal") else "s"


def layer_metrics(spans: Sequence[Mapping], n_ops: int) -> dict[str, float]:
    """Per-op layer metrics from the spans of ``n_ops`` traced ops.

    Returns every name of :func:`per_layer_names` except the three
    ``startup``/``trace`` entries, which come from outside the spans.
    Layers with no spans report 0.
    """
    own = self_times(spans)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    n_max: dict[str, int] = {}
    gflop: dict[str, float] = {}
    keys: dict[str, list] = {}
    for span in spans:
        name = span["name"]
        self_s[name] = self_s.get(name, 0.0) + own[span["id"]]
        calls[name] = calls.get(name, 0) + 1
        inclusive[name] = inclusive.get(name, 0.0) + (span["end"] - span["start"]) * 1e-9
        attrs = span.get("attrs") or {}
        if "m" in attrs:
            n_max[name] = max(n_max.get(name, 0), attrs["m"], attrs["n"])
        if layer_of(name) == KERNEL_LAYER:
            gflop[name] = gflop.get(name, 0.0) + nominal_flops(name.split(".", 1)[1], attrs) * 1e-9
        if "key" in attrs:
            # a repeat counts only within one op, that is one process
            keys.setdefault(name, []).append((span["op"], attrs["key"]))

    def per_op(value: float) -> float:
        return value / n_ops

    def layer_sum(table: Mapping[str, float], layer: str) -> float:
        return sum(v for k, v in table.items() if layer_of(k) == layer)

    out: dict[str, float] = {}
    for layer, functions in NAMED_FUNCTIONS.items():
        for fn in functions:
            out[f"{layer}.{fn}.s"] = per_op(self_s.get(f"{layer}.{fn}", 0.0))
    for name in COUNTED_FUNCTIONS:
        out[f"{name}.calls"] = per_op(calls.get(name, 0))
    out["grid.build_riesz.redundant"] = per_op(redundant_calls(keys.get("grid.build_riesz", ())))
    out["schatten.singular_values.n_max"] = float(n_max.get("schatten.singular_values", 0))
    out["schatten.fits.s"] = per_op(sum(self_s.get(f"schatten.{fn}", 0.0) for fn in SCHATTEN_FITS))
    for layer in MODULE_TOTALS:
        out[f"{layer}.s"] = per_op(layer_sum(self_s, layer))
        out[f"{layer}.calls"] = per_op(layer_sum(calls, layer))
    for suite in SUITES:
        out[f"cli.run_suite.{suite}.s"] = per_op(inclusive.get(f"cli.run_suite.{suite}", 0.0))
    out["cli.self.s"] = per_op(self_s.get("cli.main", 0.0))
    for kernel in KERNELS:
        name = f"{KERNEL_LAYER}.{kernel}"
        out[f"{name}.s"] = per_op(inclusive.get(name, 0.0))
        out[f"{name}.calls"] = per_op(calls.get(name, 0))
        out[f"{name}.n_max"] = float(n_max.get(name, 0))
        out[f"{name}.gflop_nominal"] = per_op(gflop.get(name, 0.0))
    return out


def summarize(values: Sequence[float]) -> dict:
    """Median, sample count and the highest percentile with ten samples beyond it.

    With ``n`` samples that percentile is the value with ten samples above
    it, at ``100 (n - 10) / n``; it does not exist for ``n <= 10``.
    """
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered), "p_high": None, "p_high_value": None}
    if n > 10:
        out["p_high"] = round(100.0 * (n - 10) / n, 2)
        out["p_high_value"] = ordered[n - 11]
    return out
