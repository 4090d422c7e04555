"""Dense oracles shared by the test modules.

The package reads every grid operator through its t-blocks and sector
blocks; these build the t-block columns of any power from a fresh
eigensolve (``planar_power``), the dense N x N matrices the tests compare
against (the powers and the ``product`` factors assembled from the
t-blocks), the sector blocks of any power (``power_blocks``), the dense
sector blocks of the fields expanded from their stencil rows, the dense
eigenvalues of the ``product`` table and the grid ``L_p`` norm.
``fiber_schatten_norm`` and ``loop_coercivity`` are the SVD loop the fiber
side's trace kernel replaced; ``fiber_identity`` is an input of the fiber
algebra tests.
``recorded_svd_shapes`` and ``recorded_eigenvalues`` let a test see the SVDs
and the eigenvalue problems a computation solves.
"""

import math

import numpy as np

from heislab.doi import build_a_fiber
from heislab.experiments import SeededDraws
from heislab.grid import _ASYMMETRY_LIMIT, GridFunction, GridSpec, _by_column, _model
from heislab.oscillator import (
    FiberOperator,
    MultiIndexBasis,
    oscillator_matrix,
    riesz_symbol,
    tensor_scalar,
)


def assemble(model, blocks: np.ndarray) -> np.ndarray:
    """The real N x N grid matrix with t-block j equal to ``blocks[j]``.

    ``blocks`` holds the kept blocks (h x M x M); block n+1-j is taken
    as the conjugate of block j, which is what makes the result real.
    """
    n = model.spec.count
    parts = np.concatenate([blocks.real, blocks.imag])
    out = np.empty((n * n, n, n * n, n))
    for k in range(n):
        out[:, k] = np.tensordot(parts, model._t_outer[:, k], axes=(0, 0))
    return out.reshape(model.spec.size, model.spec.size)


def expanded_field_rows(model, ell: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The sector blocks of ``X_ell`` as dense arrays, in the layout of
    ``_GridModel.read_blocks``: the stencil rows of ``_GridModel.field_rows``
    scattered entry by entry."""
    classes = model.sectors().classes
    out = []
    for k in range(4):
        per_class = []
        for (rows, cols), (columns, values) in zip(classes, model.field_rows(ell)):
            block = np.zeros((rows.size, cols.size))
            np.add.at(block, (np.arange(rows.size)[:, None], columns), values[k])
            per_class.append(block)
        out.append(tuple(per_class))
    return tuple(out)


def planar_power(model, exponent: float, columns: np.ndarray) -> np.ndarray:
    """The columns ``columns`` of the kept t-blocks of ``(-Delta)^exponent``,
    zero on the kernel (h x M x k), from a fresh eigensolve of the model,
    which keeps nothing of it: the model keeps only the inverse root's
    columns at the planar representatives, formed the same way."""
    return model._power(model._eigensolve(), exponent, columns)


def assembled_power(model, exponent: float) -> np.ndarray:
    """Dense ``(-Delta)^exponent`` on the live modes, zero on the kernel."""
    every = np.arange(model.spec.count**2)
    return assemble(model, planar_power(model, exponent, every))


def power_blocks(model, exponent: float) -> tuple[tuple[np.ndarray, ...], ...]:
    """The sector blocks ``Q_sigma^T (-Delta)^exponent Q_sigma`` of both
    colour classes, read off the columns of the kept t-blocks at the planar
    representatives as the model reads its inverse root's blocks, one class
    at a time."""
    columns = planar_power(model, exponent, model.planar_representatives())
    return model.read_blocks(_by_column(columns), 0, False)


def assembled_symbol_realization(spec: GridSpec, k: int) -> np.ndarray:
    """Grid counterpart of the k-th commutator symbol via the entrywise kernel.

    ``X_k`` and ``-Delta`` share the t-block structure, so the double
    operator integral is taken block by block, each block with its own table.
    """
    model = _model(spec)
    w, v, live = model.eig()
    # kernel modes get a placeholder 1 so the table stays finite; their
    # rows and columns are zeroed below
    safe = np.where(live, w, 1.0)
    quarter = np.where(live, safe**-0.25, 0.0)
    fourth = safe**0.25
    root = np.sqrt(safe)
    table = 2.0 * fourth[:, :, None] * fourth[:, None, :]
    table /= root[:, :, None] + root[:, None, :]
    table *= live[:, :, None] & live[:, None, :]
    v_adj = v.conj().transpose(0, 2, 1)
    fields = np.stack([model.planar_field(k, mu) for mu in model.mu])
    core = quarter[:, :, None] * (v_adj @ fields @ v) * quarter[:, None, :]
    return assemble(model, v @ (table * core) @ v_adj)


def assembled_product_factor(spec, basis, name: str, inverse_root: np.ndarray):
    """Resolve a catalog name to its dense grid matrix and fiber counterpart.

    ``inverse_root`` is the grid's dense ``(-Delta)^{-1/2}``, which the flat
    factor and the Riesz factors are built on.
    """
    model = _model(spec)
    if name == "flat_factor":
        # the vertical root acts on the t-index, the fastest of (x, y, t)
        rows = inverse_root.reshape(-1, spec.count) @ model.vertical_quarter_root()
        grid = rows.reshape(spec.size, spec.size)
        energies = np.diag(oscillator_matrix(basis)).real
        return grid, tensor_scalar(basis, np.diag(energies**-0.5), "one")
    kind, _, index = name.partition(":")
    if kind == "riesz" and index.isdigit():
        k = int(index)
        return model.apply_field(k, inverse_root), riesz_symbol(basis, k)
    if kind == "a" and index.isdigit():
        k = int(index)
        if k not in (1, 2):
            raise ValueError(f"symbol index {k} outside 1..2")
        return assembled_symbol_realization(spec, k), build_a_fiber(basis, k)
    raise ValueError(f"no fiber counterpart for factor {name!r}")


def dense_sublaplacian(spec: GridSpec) -> np.ndarray:
    """Dense symmetrized ``X^T X + Y^T Y``, built on each call; raises when
    the asymmetry residual it removes is not tiny."""
    model = _model(spec)
    quad = np.zeros((spec.size, spec.size))
    for ell in (1, 2):
        # X^T X = -X X, since the fields are exactly skew-symmetric: each
        # two-step path a -> b -> c of the stencil adds X[a, b] X[b, c]
        a, b, first = model.field_nonzeros(ell, np.arange(spec.size))
        s, c, second = model.field_nonzeros(ell, b)
        np.subtract.at(quad, (a[s], c), first[s] * second)
    asym = float(np.linalg.norm(quad - quad.T) / max(np.linalg.norm(quad), 1.0))
    if asym > _ASYMMETRY_LIMIT:
        raise ValueError(f"sub-Laplacian asymmetry {asym:.2e} exceeds limit")
    return 0.5 * (quad + quad.T)


def dense_riesz(spec: GridSpec, ell: int) -> np.ndarray:
    """Dense ``X_ell (-Delta)^{-1/2}``, built anew on each call."""
    model = _model(spec)
    return model.apply_field(ell, assembled_power(model, -0.5))


def norm_lp(f: GridFunction, p: float) -> float:
    """The grid ``L_p`` norm of f."""
    if p < 1.0:
        raise ValueError("exponent must be >= 1")
    return float((np.sum(np.abs(f.values) ** p) * f.spec.cell_volume) ** (1.0 / p))


def fiber_identity(basis: MultiIndexBasis) -> FiberOperator:
    """The identity on both sign blocks."""
    return tensor_scalar(basis, np.eye(basis.dim))


def fiber_schatten_norm(x: FiberOperator, p: float) -> float:
    """Schatten p-norm pooled over both blocks: ``(sum mu^p)^{1/p}`` over
    the singular values of the minus block and of the plus block."""
    if p < 1.0:
        raise ValueError("Schatten exponent must be >= 1")
    vals = np.concatenate(
        [np.linalg.svd(x.minus, compute_uv=False), np.linalg.svd(x.plus, compute_uv=False)]
    )
    return float(np.sum(vals**p) ** (1.0 / p))


def loop_coercivity(family, samples: int = 200, seed: int = 42) -> float:
    """The coercivity of ``gram_min_eigenvalue`` one direction at a time:
    each draw mixed term by term and its pooled norm taken by SVD.  The
    draws are the package's, taken at once: Box-Muller pairs them, so
    drawing them row by row would give other numbers."""
    symbols = family.symbols
    m = len(symbols)
    power = 2.0 * family.basis.n + 2.0
    draws = SeededDraws(seed).standard_normal((samples, 2, m))
    worst = math.inf
    for real, imag in draws:
        c = real + 1j * imag
        c /= np.sum(np.abs(c))
        minus = sum(complex(ck) * s.minus for ck, s in zip(c, symbols))
        plus = sum(complex(ck) * s.plus for ck, s in zip(c, symbols))
        mixed = FiberOperator(family.basis, minus, plus)
        worst = min(worst, fiber_schatten_norm(mixed, power))
    return worst


def recorded_svd_shapes(monkeypatch):
    """The shapes of the arrays every later ``np.linalg.svd`` call sees."""
    svd = np.linalg.svd
    shapes = []

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    return shapes


def recorded_eigenvalues(monkeypatch):
    """The results of every later ``np.linalg.eigvals`` call, one array per
    call, as long as the side of its matrix."""
    eigvals = np.linalg.eigvals
    results = []

    def recording_eigvals(a):
        results.append(eigvals(a))
        return results[-1]

    monkeypatch.setattr(np.linalg, "eigvals", recording_eigvals)
    return results


def dense_product_eigenvalues(cases, spec, basis):
    """Eigenvalues of every case of ``product_trace_check``, from the dense
    N x N product of its factors and one ``np.linalg.eigvals`` of it."""
    inverse_root = assembled_power(_model(spec), -0.5)
    names = dict.fromkeys(name for case in cases for name in case.factors)
    factors = {
        name: assembled_product_factor(spec, basis, name, inverse_root)[0]
        for name in names
    }
    out = {}
    for case in cases:
        grid_product = None
        for slot, (name, f) in enumerate(zip(case.factors, case.functions)):
            term = factors[name] * f.flat[None, :]
            if slot % 2 == 0:
                term = term.conj().T
            grid_product = term if grid_product is None else grid_product @ term
        out[case.label] = np.linalg.eigvals(grid_product)
    return out
