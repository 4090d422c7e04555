"""Finite-difference model of the first Heisenberg group on a box.

The model is realized for the three-axis grid (x, y, t) of the group with
product ``[z,t][z',t'] = [z+z', t+t'+Im(z z'bar)]`` and gauge
``(|z|^4+|t|^2)^{1/4}``: centered differences with zero exterior values give
exactly skew-symmetric horizontal fields, so the sub-Laplacian is symmetric
positive semidefinite by construction and its dense eigendecomposition
(cached per grid) drives the fractional calculus, Riesz transforms, and the
commutator identities the experiments check.

Zero-exterior (Dirichlet) boundaries are deliberate: the coordinate
coefficients in the fields are globally defined, and a periodic wrap would
break skew-symmetry.  The exact identities are therefore checked on
interior-supported functions and via refinement sweeps.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import sparse

__all__ = [
    "KERNEL_THRESHOLD",
    "GridSpec",
    "GridFunction",
    "GridOperator",
    "koranyi_gauge",
    "build_sublaplacian",
    "sublaplacian_spectrum",
    "build_riesz",
    "sobolev_seminorm",
    "poincare_ratio",
    "approximation_sequence",
    "quarter_rotation",
    "RotationReport",
    "riesz_decomposition_residual",
    "RieszSplitReport",
    "save_operator",
    "load_operator",
]

# Relative eigenvalue threshold below which the spectral calculus treats a
# mode as kernel; the continuum kernel is trivial, the grid one a boundary
# artifact.
KERNEL_THRESHOLD = 1e-10

_SELF_ADJOINT_RTOL = 1e-10
_ASYMMETRY_LIMIT = 1e-8


# ---------------------------------------------------------------------------
# grid containers


@dataclass(frozen=True)
class GridSpec:
    """Symmetric box ``[-L, L]`` per axis; equal x and y counts.

    Only the three-axis realization (first group) is operational.
    """

    nx: int
    ny: int
    nt: int
    lx: float = 3.0
    ly: float = 3.0
    lt: float = 3.0
    n: int = 1
    cap: int = 8000

    def __post_init__(self):
        if self.n != 1:
            raise ValueError("only the first group is realized on the grid")
        for count in (self.nx, self.ny, self.nt):
            if count < 3:
                raise ValueError("need at least 3 points per axis")
        if self.nx != self.ny:
            raise ValueError("quarter rotation requires nx == ny")
        for width in (self.lx, self.ly, self.lt):
            if width <= 0.0:
                raise ValueError("half-widths must be positive")
        if self.size > self.cap:
            raise ValueError(f"grid dimension {self.size} exceeds the cap {self.cap}")

    @classmethod
    def cube(cls, count: int, half_width: float = 3.0, cap: int = 8000) -> "GridSpec":
        return cls(count, count, count, half_width, half_width, half_width, cap=cap)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nt)

    @property
    def size(self) -> int:
        return self.nx * self.ny * self.nt

    @property
    def axis_x(self) -> np.ndarray:
        return np.linspace(-self.lx, self.lx, self.nx)

    @property
    def axis_y(self) -> np.ndarray:
        return np.linspace(-self.ly, self.ly, self.ny)

    @property
    def axis_t(self) -> np.ndarray:
        return np.linspace(-self.lt, self.lt, self.nt)

    @property
    def spacing(self) -> tuple[float, float, float]:
        return (
            2.0 * self.lx / (self.nx - 1),
            2.0 * self.ly / (self.ny - 1),
            2.0 * self.lt / (self.nt - 1),
        )

    @property
    def cell_volume(self) -> float:
        hx, hy, ht = self.spacing
        return hx * hy * ht


@dataclass
class GridFunction:
    """Values over the grid, C-ordered as (x, y, t)."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.shape != self.spec.shape:
            raise ValueError(f"values must have shape {self.spec.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")
        self.values = vals

    @classmethod
    def from_callable(cls, spec: GridSpec, fn: Callable) -> "GridFunction":
        xs, ys, ts = np.meshgrid(spec.axis_x, spec.axis_y, spec.axis_t, indexing="ij")
        vals = np.asarray(fn(xs, ys, ts))
        if vals.shape != spec.shape:
            vals = np.vectorize(fn)(xs, ys, ts)
        return cls(spec, vals)

    @property
    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def interior_margin(self) -> int:
        """Cells between the support and the nearest face; full span if zero."""
        nonzero = np.argwhere(self.values != 0)
        if nonzero.size == 0:
            return min(self.spec.shape) // 2
        margins = []
        for axis, count in enumerate(self.spec.shape):
            lo = nonzero[:, axis].min()
            hi = count - 1 - nonzero[:, axis].max()
            margins.append(min(lo, hi))
        return int(min(margins))

    def norm_lp(self, p: float) -> float:
        if p < 1.0:
            raise ValueError("exponent must be >= 1")
        return float(
            (np.sum(np.abs(self.values) ** p) * self.spec.cell_volume) ** (1.0 / p)
        )

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __add__(self, other):
        return GridFunction(self.spec, self.values + self._coerce(other))

    def __sub__(self, other):
        return GridFunction(self.spec, self.values - self._coerce(other))

    def __mul__(self, other):
        return GridFunction(self.spec, self.values * self._coerce(other))

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, GridFunction):
            if other.spec != self.spec:
                raise ValueError("grid functions live on different grids")
            return other.values
        return other


@dataclass
class GridOperator:
    """Dense matrix over grid points with a verified self-adjointness claim."""

    spec: GridSpec
    matrix: np.ndarray
    kind: str = "generic"
    self_adjoint: bool = False
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix)
        size = self.spec.size
        if mat.shape != (size, size):
            raise ValueError(f"operator must be {size} x {size}")
        if self.self_adjoint:
            scale = max(float(np.linalg.norm(mat)), 1.0)
            gap = float(np.linalg.norm(mat - mat.conj().T))
            if gap > _SELF_ADJOINT_RTOL * scale:
                raise ValueError(
                    f"claimed self-adjoint but relative asymmetry {gap / scale:.2e}"
                )
        self.matrix = mat


# ---------------------------------------------------------------------------
# cached stencil model


def _centered_difference(count: int, h: float) -> sparse.csr_matrix:
    # zero exterior: rows at the faces keep only their inner neighbor,
    # which preserves exact skew-symmetry
    off = np.full(count - 1, 1.0 / (2.0 * h))
    return sparse.diags([off, -off], [1, -1]).tocsr()


class _GridModel:
    """Sparse stencils plus the one spectral calculus of the grid.

    Powers of the sub-Laplacian vanish on its numerical kernel (the
    pseudo-inverse policy).  The lazy eigendecomposition and Riesz matrices
    hold no lock: callers fanning out over threads build them first.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        hx, hy, ht = spec.spacing
        dx1 = _centered_difference(spec.nx, hx)
        dy1 = _centered_difference(spec.ny, hy)
        dt1 = _centered_difference(spec.nt, ht)
        ix = sparse.identity(spec.nx, format="csr")
        iy = sparse.identity(spec.ny, format="csr")
        it = sparse.identity(spec.nt, format="csr")
        d_x = sparse.kron(sparse.kron(dx1, iy), it, format="csr")
        d_y = sparse.kron(sparse.kron(ix, dy1), it, format="csr")
        self.d_t = sparse.kron(sparse.kron(ix, iy), dt1, format="csr")

        xs, ys, _ = np.meshgrid(spec.axis_x, spec.axis_y, spec.axis_t, indexing="ij")
        x_diag = sparse.diags(xs.reshape(-1))
        y_diag = sparse.diags(ys.reshape(-1))
        self.x_field = (d_x - y_diag @ self.d_t).tocsr()
        self.y_field = (d_y + x_diag @ self.d_t).tocsr()

        quad = (
            self.x_field.T @ self.x_field + self.y_field.T @ self.y_field
        ).toarray()
        asym = float(np.linalg.norm(quad - quad.T) / max(np.linalg.norm(quad), 1.0))
        if asym > _ASYMMETRY_LIMIT:
            raise ValueError(f"sub-Laplacian asymmetry {asym:.2e} exceeds limit")
        self.minus_delta = 0.5 * (quad + quad.T)
        self.minus_delta.flags.writeable = False
        self.asymmetry_residual = asym
        self._eig: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._riesz: dict[int, np.ndarray] = {}

    def horizontal(self, ell: int) -> sparse.csr_matrix:
        if ell == 1:
            return self.x_field
        if ell == 2:
            return self.y_field
        raise ValueError(f"horizontal index {ell} outside 1..2")

    def eig(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Eigenvalues, eigenvectors and the read-only mask of the modes
        above ``KERNEL_THRESHOLD`` times the largest."""
        if self._eig is None:
            w, v = np.linalg.eigh(self.minus_delta)
            live = np.abs(w) > KERNEL_THRESHOLD * float(np.max(np.abs(w)))
            for arr in (w, v, live):
                arr.flags.writeable = False
            self._eig = (w, v, live)
        return self._eig

    def power(self, exponent: float) -> np.ndarray:
        """Dense ``(-Delta)^exponent`` on the live modes, zero on the kernel."""
        w, v, live = self.eig()
        values = np.zeros_like(w)
        values[live] = w[live] ** exponent
        return (v * values) @ v.T

    def riesz(self, ell: int) -> np.ndarray:
        """``X_ell (-Delta)^{-1/2}``, built on first use and kept read-only."""
        if ell not in self._riesz:
            mat = self.horizontal(ell) @ self.power(-0.5)
            mat.flags.writeable = False
            self._riesz[ell] = mat
        return self._riesz[ell]

    def vertical_quarter_root(self) -> np.ndarray:
        """The fourth root of ``T*T``, exact through the vertical block structure."""
        nt = self.spec.nt
        block = self.d_t[:nt, :nt].toarray()
        w, v = np.linalg.eigh(block.T @ block)
        root = (v * np.clip(w, 0.0, None) ** 0.25) @ v.T
        return np.kron(np.eye(self.spec.nx * self.spec.ny), root)


@functools.lru_cache(maxsize=3)
def _model(spec: GridSpec) -> _GridModel:
    return _GridModel(spec)


# ---------------------------------------------------------------------------
# operator builders


def build_sublaplacian(spec: GridSpec) -> GridOperator:
    """Symmetrized ``X^T X + Y^T Y``; records the (tiny) asymmetry residual."""
    model = _model(spec)
    return GridOperator(
        spec,
        model.minus_delta,
        kind="sublaplacian",
        self_adjoint=True,
        meta={"symmetry_residual": model.asymmetry_residual},
    )


def sublaplacian_spectrum(spec: GridSpec) -> np.ndarray:
    return _model(spec).eig()[0]


def build_riesz(spec: GridSpec, ell: int) -> GridOperator:
    """Horizontal field times the inverse square root; one shared read-only matrix per grid."""
    return GridOperator(spec, _model(spec).riesz(ell), kind=f"riesz_{ell}")


def sobolev_seminorm(f: GridFunction, p: float = 4.0) -> float:
    """Sum over horizontal directions of the grid ``L_p`` norm of the derivative."""
    if p < 1.0:
        raise ValueError("exponent must be >= 1")
    model = _model(f.spec)
    total = 0.0
    for field_mat in (model.x_field, model.y_field):
        df = field_mat @ f.flat
        total += float(
            (np.sum(np.abs(df) ** p) * f.spec.cell_volume) ** (1.0 / p)
        )
    return total


def koranyi_gauge(spec: GridSpec) -> np.ndarray:
    """Gauge distance of every grid point from the origin, shaped like the grid."""
    xs, ys, ts = np.meshgrid(spec.axis_x, spec.axis_y, spec.axis_t, indexing="ij")
    zz = xs * xs + ys * ys
    return (zz * zz + ts * ts) ** 0.25


def _lp_over_mask(values: np.ndarray, mask: np.ndarray, p: float, volume: float) -> float:
    return float((np.sum(np.abs(values[mask]) ** p) * volume) ** (1.0 / p))


def poincare_ratio(f: GridFunction, radius: float, mode: str, p: float = 4.0) -> float:
    """Oscillation over gradient, scaled by the radius, on gauge regions.

    ``ball`` compares the oscillation on the ball of radius ``radius/2``
    against the horizontal gradient on the ball of radius ``2 radius``;
    ``annulus`` uses the shell between ``radius`` and ``2 radius`` on both
    sides.  The mean is removed over the gradient region.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if mode not in ("ball", "annulus"):
        raise ValueError(f"unknown mode {mode!r}")
    gauge = koranyi_gauge(f.spec)
    if mode == "ball":
        inner = gauge <= 0.5 * radius
        outer = gauge <= 2.0 * radius
    else:
        inner = (gauge > radius) & (gauge <= 2.0 * radius)
        outer = inner
    if not inner.any() or not outer.any():
        raise ValueError("region does not meet the grid")
    model = _model(f.spec)
    gx = (model.x_field @ f.flat).reshape(f.spec.shape)
    gy = (model.y_field @ f.flat).reshape(f.spec.shape)
    grad = np.sqrt(np.abs(gx) ** 2 + np.abs(gy) ** 2)
    average = complex(np.mean(f.values[outer]))
    volume = f.spec.cell_volume
    oscillation = _lp_over_mask(f.values - average, inner, p, volume)
    gradient = _lp_over_mask(grad, outer, p, volume)
    if gradient == 0.0:
        return 0.0 if oscillation <= 1e-14 else math.inf
    return oscillation / (radius * gradient)


def approximation_sequence(f: GridFunction, m: float) -> GridFunction:
    """Recenter by the shell average and taper to zero outside gauge radius ``m``.

    The cutoff is 1 inside radius ``m/2``, 0 outside ``m``, and a cubic ramp
    in between whose radial slope is at most ``3/m``.
    """
    if m <= 0.0:
        raise ValueError("scale must be positive")
    gauge = koranyi_gauge(f.spec)
    shell = (gauge > m) & (gauge <= 2.0 * m)
    if not shell.any():
        raise ValueError("recentering shell does not meet the grid")
    center = np.mean(f.values[shell])
    ramp = np.clip((gauge - 0.5 * m) / (0.5 * m), 0.0, 1.0)
    cutoff = 1.0 - (3.0 * ramp * ramp - 2.0 * ramp * ramp * ramp)
    return GridFunction(f.spec, (f.values - center) * cutoff)


@dataclass(frozen=True)
class RotationReport:
    target: str
    full_residual: float
    interior_residual: float
    margin: int


def _interior_projection(spec: GridSpec, margin: int) -> np.ndarray:
    keep = np.zeros(spec.shape, dtype=float)
    keep[margin:-margin or None, margin:-margin or None, margin:-margin or None] = 1.0
    return keep.reshape(-1)


def quarter_rotation(
    spec: GridSpec, k: int = 1
) -> tuple[sparse.csr_matrix, RotationReport]:
    """Sparse quarter-turn permutation ``(x, y) -> (-y, x)`` and its conjugation report.

    Conjugation sends the first horizontal field to the second and the
    second to minus the first; the report records the residual on the full
    grid and restricted to functions supported two cells inside.
    """
    if k not in (1, 2):
        raise ValueError("field index must be 1 or 2")
    nx, ny, nt = spec.shape
    dest = np.arange(spec.size).reshape(spec.shape)
    ix, iy, it = np.meshgrid(
        np.arange(nx), np.arange(ny), np.arange(nt), indexing="ij"
    )
    # (U f)[ix, iy, it] = f[nx-1-iy, ix, it]
    source = dest[nx - 1 - iy, ix, it]
    rows = dest.reshape(-1)
    cols = source.reshape(-1)
    u = sparse.csr_matrix(
        (np.ones(spec.size), (rows, cols)), shape=(spec.size, spec.size)
    )
    model = _model(spec)
    if k == 1:
        conjugated = u.T @ model.x_field @ u
        target = model.y_field
        name = "second_field"
    else:
        conjugated = u.T @ model.y_field @ u
        target = -model.x_field
        name = "minus_first_field"
    gap = conjugated - target
    full = float(np.linalg.norm(gap.data))
    margin = 2
    proj = sparse.diags(_interior_projection(spec, margin))
    interior = float(np.linalg.norm((gap @ proj).data))
    return u, RotationReport(name, full, interior, margin)


@dataclass(frozen=True)
class RieszSplitReport:
    relative_residual: float
    absolute_residual: float
    lhs_norm: float
    leibniz_defect: float
    kernel_dimension: int


def riesz_decomposition_residual(
    spec: GridSpec, f: GridFunction, ell: int = 1
) -> RieszSplitReport:
    """Residual of the two-term split of ``[R, M_f]`` on the kernel complement.

    Compares ``[R, M_f]`` against
    ``[X, M_f] (-Delta)^{-1/2} - R [(-Delta)^{1/2}, M_f] (-Delta)^{-1/2}``,
    all factors projected off the numerical kernel.  The derivative term is
    kept in commutator form; the gap between ``[X, M_f]`` and multiplication
    by the discrete derivative (the Leibniz defect of centered differences)
    is reported separately, normalized by the derivative's own size.
    """
    if f.spec != spec:
        raise ValueError("function lives on a different grid")
    model = _model(spec)
    inv_sqrt = model.power(-0.5)
    sqrt_mat = model.power(0.5)
    x_mat = model.horizontal(ell)
    riesz = x_mat @ inv_sqrt
    fv = f.flat

    lhs = riesz * fv[None, :] - fv[:, None] * riesz
    term1 = x_mat @ (fv[:, None] * inv_sqrt) - fv[:, None] * (x_mat @ inv_sqrt)
    comm_sqrt = sqrt_mat * fv[None, :] - fv[:, None] * sqrt_mat
    term2 = riesz @ (comm_sqrt @ inv_sqrt)
    gap = lhs - (term1 - term2)

    kernel_dim = int(np.count_nonzero(~model.eig()[2]))
    if kernel_dim:
        proj = model.power(0.0)
        gap = proj @ gap @ proj
        lhs = proj @ lhs @ proj

    lhs_norm = float(np.linalg.norm(lhs))
    absolute = float(np.linalg.norm(gap))
    derivative = x_mat @ fv
    x_dense = x_mat.toarray()
    defect = x_dense * fv[None, :] - fv[:, None] * x_dense - np.diag(derivative)
    defect_norm = float(
        np.linalg.norm(defect) / max(np.linalg.norm(derivative), 1e-30)
    )
    return RieszSplitReport(
        relative_residual=absolute / max(lhs_norm, 1e-30),
        absolute_residual=absolute,
        lhs_norm=lhs_norm,
        leibniz_defect=defect_norm,
        kernel_dimension=kernel_dim,
    )


# ---------------------------------------------------------------------------
# persistence


def save_operator(op: GridOperator, path) -> None:
    """Raw row-major complex128 payload plus a JSON sidecar with metadata."""
    path = Path(path)
    np.ascontiguousarray(op.matrix, dtype=np.complex128).tofile(path)
    sidecar = {
        "spec": {
            "nx": op.spec.nx,
            "ny": op.spec.ny,
            "nt": op.spec.nt,
            "lx": op.spec.lx,
            "ly": op.spec.ly,
            "lt": op.spec.lt,
        },
        "kind": op.kind,
        "self_adjoint": op.self_adjoint,
        "symmetry_residual": op.meta.get("symmetry_residual"),
    }
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(sidecar, sort_keys=True, indent=2)
    )


def load_operator(path) -> GridOperator:
    path = Path(path)
    sidecar = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    spec = GridSpec(**sidecar["spec"])
    mat = np.fromfile(path, dtype=np.complex128).reshape(spec.size, spec.size)
    meta = {}
    if sidecar.get("symmetry_residual") is not None:
        meta["symmetry_residual"] = sidecar["symmetry_residual"]
    return GridOperator(
        spec, mat, kind=sidecar["kind"], self_adjoint=sidecar["self_adjoint"], meta=meta
    )
