"""Run one ``lab`` invocation in this process with every layer call timed.

Usage::

    python3 benchmarks/tracer.py SPANS.json -- run --suite bound --grid 13 ...

The tracer imports the ``heislab`` modules, replaces each public function in
every ``heislab.*`` namespace that holds it with a timing wrapper (so
``experiments.singular_values`` and ``schatten.singular_values`` are the same
wrapped object), wraps ``numpy.linalg.svd``, ``eigh`` and ``eigvals`` the same
way, and then calls ``heislab.cli.main`` with the given arguments.  Before the
suite runs it calls ``build_sublaplacian`` and ``sublaplacian_spectrum`` for
the ``--grid`` size, so the cold model build and its ``eigh`` land in spans of
their own.

Spans are kept in memory and written to ``SPANS.json`` when the run ends,
together with the layers that were absent.  A public function that is missing
from the package is reported as absent, never as an error, so the benchmark
does not keep a function alive.  The process exits with ``lab``'s status.

Nothing under ``src/`` is changed; all wrapping happens from outside.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

MODULES = ("schatten", "oscillator", "doi", "plancherel", "grid", "experiments", "cli")
KERNELS = ("svd", "eigh", "eigvals")
PREBUILD = ("build_sublaplacian", "sublaplacian_spectrum")
# calls whose bound arguments are recorded, for the redundant-call count
KEYED = ("grid.build_riesz",)
# calls whose first argument's shape is recorded, for ``n_max``
SHAPED = ("schatten.singular_values",)


class Tracer:
    """In-memory span recorder for one op; single threaded, like ``lab run`` without ``--parallel``."""

    def __init__(self):
        self.op = 0  # one op per traced process
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, fn, attrs_of=None):
        """Return ``fn`` wrapped so each call records a span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            record = {
                "id": span_id,
                "name": name,
                "start": 0,
                "end": 0,
                "parent": self._stack[-1] if self._stack else None,
                "op": self.op,
                "attrs": attrs_of(args, kwargs) if attrs_of else None,
            }
            self.spans.append(record)
            self._stack.append(span_id)
            record["start"] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter_ns()
                self._stack.pop()

        return wrapper


def _shape_attrs(args, kwargs):
    a = args[0] if args else next(iter(kwargs.values()), None)
    shape = getattr(getattr(a, "matrix", a), "shape", ())
    return {"m": int(shape[-2]), "n": int(shape[-1])} if len(shape) >= 2 else {"m": 0, "n": 0}


def _kernel_attrs(kernel: str):
    def attrs(args, kwargs):
        a = args[0] if args else kwargs.get("a")
        shape = getattr(a, "shape", ())
        if len(shape) < 2:
            return {"m": 0, "n": 0}
        batch = 1
        for dim in shape[:-2]:
            batch *= int(dim)
        out = {
            "m": int(shape[-2]),
            "n": int(shape[-1]),
            "batch": batch,
            "complex": bool(getattr(getattr(a, "dtype", None), "kind", "") == "c"),
        }
        if kernel == "svd":
            out["uv"] = bool(kwargs.get("compute_uv", args[2] if len(args) > 2 else True))
        return out

    return attrs


def _keyed_attrs(fn):
    signature = inspect.signature(fn)

    def attrs(args, kwargs):
        try:
            bound = signature.bind(*args, **kwargs)
        except TypeError:
            return None
        return {"key": repr(sorted(bound.arguments.items()))}

    return attrs


def instrument(tracer: Tracer) -> dict:
    """Wrap every layer reachable from the ``heislab`` package; return what was absent."""
    import numpy.linalg

    modules = {}
    absent = {"modules": [], "kernels": [], "prebuild": [], "cli": []}
    for name in MODULES:
        try:
            modules[name] = importlib.import_module(f"heislab.{name}")
        except ImportError:
            absent["modules"].append(name)

    wrapped: dict[int, object] = {}
    for kernel in KERNELS:
        original = getattr(numpy.linalg, kernel, None)
        if original is None:
            absent["kernels"].append(kernel)
            continue
        wrapped[id(original)] = tracer.span(f"lapack.{kernel}", original, _kernel_attrs(kernel))
        setattr(numpy.linalg, kernel, wrapped[id(original)])

    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped:
                setattr(module, attr, wrapped[id(value)])
                continue
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            home = getattr(value, "__module__", "") or ""
            if not home.startswith("heislab.") or home == "heislab.cli":
                continue
            name = f"{home.rsplit('.', 1)[1]}.{value.__name__}"
            if id(value) not in wrapped:
                attrs = _keyed_attrs(value) if name in KEYED else None
                attrs = _shape_attrs if name in SHAPED else attrs
                wrapped[id(value)] = tracer.span(name, value, attrs)
            setattr(module, attr, wrapped[id(value)])

    cli = modules.get("cli")
    drivers = getattr(cli, "_DRIVERS", None)
    if isinstance(drivers, dict):
        for suite, driver in list(drivers.items()):
            drivers[suite] = tracer.span(f"cli.run_suite.{suite}", driver)
    else:
        absent["cli"].append("_DRIVERS")
    return absent


def _grid_size(argv: list[str]) -> int | None:
    for flag, value in zip(argv, argv[1:]):
        if flag == "--grid":
            return int(value)
    return None


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <lab arguments>", file=sys.stderr)
        return 2
    spans_path, lab_args = Path(argv[0]), argv[2:]
    tracer = Tracer()
    started = time.perf_counter_ns()
    absent = instrument(tracer)
    import_s = (time.perf_counter_ns() - started) * 1e-9
    import heislab.cli
    import heislab.grid

    grid = _grid_size(lab_args)
    if grid is not None:
        spec = heislab.grid.GridSpec.cube(grid)
        for name in PREBUILD:
            fn = getattr(heislab.grid, name, None)
            if fn is None:
                absent["prebuild"].append(name)
            else:
                fn(spec)
    status = tracer.span("cli.main", heislab.cli.main)(lab_args)
    spans_path.write_text(
        json.dumps({"import_s": import_s, "absent": absent, "spans": tracer.spans}),
        encoding="utf-8",
    )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
