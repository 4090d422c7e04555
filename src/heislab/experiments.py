"""End-to-end experiments joining the grid commutators to the fiber model.

Every check here is a ratio check: the normalising constant of the continuum
statements is not explicit, so agreement means a consistent ratio across a
family of test functions, stable under refinement of the grid and of the
Hermite cutoff.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

try:
    # CPython's builtin SHA-256 (_sha2 from 3.12, _sha256 before) maps no
    # OpenSSL; the standard hashing module loads libcrypto on import
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

from .grid import (
    _COLUMN_BYTES,
    _FIELD_CHARACTER,
    KERNEL_THRESHOLD,
    SECTORS,
    GridFunction,
    GridSpec,
    _check_budget,
    _join,
    _model,
    _reflection_components,
    _symmetric_eigh,
    sobolev_seminorm,
)
from .schatten import (
    CLAMP_RATIO,
    SingularSpectrum,
    dixmier_approximant,
    fit_weak_decay,
    shadow_fit_range,
    weak_quasinorm,
)

# the fiber modules, doi and oscillator, are imported in the functions that
# call them, so a grid or bound run never compiles them
if TYPE_CHECKING:
    from .oscillator import FiberOperator, MultiIndexBasis

__all__ = [
    "DixmierEstimate",
    "ExperimentReport",
    "ExperimentRow",
    "ExperimentSummary",
    "GramReport",
    "ProductCase",
    "SeededDraws",
    "YSymbolSet",
    "bochner_norm",
    "bochner_rhs",
    "bound_experiment",
    "build_y_fibers",
    "config_digest",
    "dixmier_lhs",
    "eigenvalue_trace_approximant",
    "gram_min_eigenvalue",
    "named_family",
    "product_factor",
    "product_trace_check",
    "report_as_dict",
    "trace_formula_experiment",
]

# the usage error of a family of which no function gives a check
_DEGENERATE_FAMILY = "test family is degenerate: every function produced a zero row"

#: a trace window smaller than this cannot support the log-averaged estimate
MIN_TRACE_WINDOW = 50

#: homogeneous dimension 2n + 2 of the first group (n = 1), the only group
#: the grid realizes: the Schatten power of every grid-side check and the
#: number of slots of a product case
GRID_HOMOGENEOUS_DIMENSION = 4


# ---------------------------------------------------------------------------
# report plumbing


def config_digest(payload: Mapping) -> str:
    """Short stable digest of a JSON-serialisable configuration mapping."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return _sha256(text.encode()).hexdigest()[:12]


class SeededDraws:
    """Seeded random draws from CPython's Mersenne Twister (``random.Random``).

    It offers the three draws the checks take, with numpy's signatures, and
    maps no OpenSSL: importing ``numpy.random`` loads ``secrets`` and with it
    the standard hashing module.  Every draw is made from the uniforms
    ``random()`` returns for the seed, the stream CPython keeps stable
    across versions: each is ``(a 2^26 + b) / 2^53`` from two 32-bit words,
    read in one ``randbytes`` call, so no draw takes a Python loop.
    """

    def __init__(self, seed: int):
        self._random = random.Random(seed)

    def _unit(self, count: int) -> np.ndarray:
        # randbytes lays the 32-bit words out little-endian in draw order
        words = np.frombuffer(self._random.randbytes(8 * count), dtype="<u4")
        high = (words[0::2] >> 5).astype(np.float64)
        low = (words[1::2] >> 6).astype(np.float64)
        return (high * 67108864.0 + low) * 2.0**-53

    def integers(self, lo: int, hi: int) -> int:
        """One integer of [lo, hi), from one uniform u as ``lo + floor((hi -
        lo) u)``; for hi - lo below 2^53 the product stays below hi - lo."""
        return lo + int((hi - lo) * self._unit(1)[0])

    def uniform(self, lo: float, hi: float, size: int) -> np.ndarray:
        """``size`` uniforms of [lo, hi) as ``lo + (hi - lo) u``; as with
        numpy's, rounding can give hi itself, with odds of about 2^-53."""
        return lo + (hi - lo) * self._unit(size)

    def standard_normal(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Standard normals of the given shape, by Box-Muller: each pair of
        uniforms (u, v) gives ``sqrt(-2 log(1 - u))`` times ``cos 2 pi v``
        and ``sin 2 pi v``; 1 - u lies in (0, 1], so the log is finite."""
        count = int(np.prod(shape))
        u, v = self._unit(2 * ((count + 1) // 2)).reshape(2, -1)
        radius = np.sqrt(-2.0 * np.log1p(-u))
        angle = 2.0 * math.pi * v
        pairs = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
        return pairs[:count].reshape(shape)


@dataclass(frozen=True)
class ExperimentRow:
    """One function's (lhs, rhs, ratio); ``spectrum`` holds the numerical
    health of the commutator spectrum behind ``lhs`` where there is one."""

    label: str
    lhs: float
    rhs: float
    ratio: float
    slope: float | None = None
    spectrum: Mapping | None = None


@dataclass(frozen=True)
class ExperimentSummary:
    min_ratio: float
    max_ratio: float
    variation: float

    @classmethod
    def from_rows(cls, rows: Sequence[ExperimentRow]) -> "ExperimentSummary":
        ratios = np.array([row.ratio for row in rows], dtype=float)
        mean = float(np.mean(ratios))
        spread = float(np.std(ratios) / abs(mean)) if mean != 0.0 else math.inf
        return cls(float(ratios.min()), float(ratios.max()), spread)


@dataclass(frozen=True)
class ExperimentReport:
    """Rows of (lhs, rhs, ratio) with their spread summary.

    ``excluded`` lists the labels of degenerate inputs (both sides zero).
    """

    digest: str
    rows: tuple[ExperimentRow, ...]
    summary: ExperimentSummary
    excluded: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("a report needs at least one non-degenerate row")
        if any(row.ratio <= 0.0 for row in self.rows):
            raise ValueError("experiment ratios must be positive")


def _build_report(
    digest: str, results: Mapping[str, ExperimentRow | None]
) -> ExperimentReport:
    """The report of ``results`` in their order; a label mapped to None is
    a degenerate input and goes to ``excluded``."""
    rows = [row for row in results.values() if row is not None]
    excluded = [label for label, row in results.items() if row is None]
    if not rows:
        raise ValueError(_DEGENERATE_FAMILY)
    return ExperimentReport(
        digest, tuple(rows), ExperimentSummary.from_rows(rows), tuple(excluded)
    )


def report_as_dict(report: ExperimentReport) -> dict:
    return {
        "config": report.digest,
        "rows": [
            {
                "label": row.label,
                "lhs": row.lhs,
                "rhs": row.rhs,
                "ratio": row.ratio,
                **({"slope": row.slope} if row.slope is not None else {}),
            }
            for row in report.rows
        ],
        "summary": {
            "min_ratio": report.summary.min_ratio,
            "max_ratio": report.summary.max_ratio,
            "variation": report.summary.variation,
        },
        "excluded": list(report.excluded),
    }


# ---------------------------------------------------------------------------
# fiber symbol families


@dataclass(frozen=True)
class YSymbolSet:
    """The flat factor and its products with the adjoint Riesz-symbol chain.

    ``symbols[0]`` is the inverse square root of the oscillator tensored with
    the identity component; ``symbols[k]`` for k >= 1 multiplies it by the
    adjoint of (Riesz symbol times k-th commutator symbol), blockwise.
    """

    ell: int
    symbols: tuple[FiberOperator, ...]

    @property
    def flat(self) -> FiberOperator:
        return self.symbols[0]

    @property
    def basis(self) -> MultiIndexBasis:
        return self.symbols[0].basis


def build_y_fibers(basis: MultiIndexBasis, ell: int) -> YSymbolSet:
    """Assemble the 2n+1 fiber symbols entering the trace formula."""
    from .doi import build_a_fiber
    from .oscillator import (
        fiber_adjoint,
        fiber_mul,
        oscillator_matrix,
        riesz_symbol,
        tensor_scalar,
    )

    if basis.K < 4:
        raise ValueError(
            "degree cutoff must be at least 4 to resolve the symbol band structure"
        )
    energies = np.diag(oscillator_matrix(basis)).real
    flat = tensor_scalar(basis, np.diag(energies**-0.5), "one")
    riesz = riesz_symbol(basis, ell)
    symbols = [flat]
    for k in range(1, 2 * basis.n + 1):
        chain = fiber_adjoint(fiber_mul(riesz, build_a_fiber(basis, k)))
        symbols.append(fiber_mul(flat, chain))
    return YSymbolSet(ell, tuple(symbols))


# ---------------------------------------------------------------------------
# Bochner-norm evaluation


def bochner_norm(
    coefficients: np.ndarray,
    symbols: Sequence[FiberOperator],
    cell_volume: float,
    power: float = 4.0,
) -> float:
    """Sum over points of the pooled Schatten power of the coefficient mix.

    ``coefficients`` has one row per grid point and one column per symbol;
    the value is sum_g volume * ||sum_k c[g,k] * symbols[k]||_{S_power}^power
    with the norm pooled over both frequency-sign blocks; ``power`` must be
    an even integer.
    """
    from .oscillator import pooled_schatten_powers

    coeff = np.asarray(coefficients, dtype=complex)
    if coeff.ndim == 2:
        # a zero row adds nothing; the kernel checks the shape
        coeff = coeff[np.any(coeff != 0.0, axis=1)]
    mass = pooled_schatten_powers(coeff, symbols, power)
    return float(cell_volume * np.sum(mass))


def _derivative_coefficients(
    f: GridFunction, ell: int, spec: GridSpec
) -> np.ndarray:
    """Columns conj(X_ℓ f), conj(X_1 f), conj(X_2 f) as flat arrays."""
    model = _model(spec)
    grads = [model.apply_field(k, f.flat) for k in (1, 2)]
    columns = [np.conj(grads[ell - 1])] + [np.conj(g) for g in grads]
    return np.stack(columns, axis=1)


def bochner_rhs(f: GridFunction, family: YSymbolSet, spec: GridSpec) -> float:
    """Right side of the trace formula: derivative-weighted fiber-symbol mass."""
    coeff = _derivative_coefficients(f, family.ell, spec)
    return bochner_norm(
        coeff, family.symbols, spec.cell_volume, GRID_HOMOGENEOUS_DIMENSION
    )


# ---------------------------------------------------------------------------
# linear independence of the symbol family


@dataclass(frozen=True)
class GramReport:
    min_eigenvalue: float
    coercivity: float


def gram_min_eigenvalue(
    family: YSymbolSet, samples: int = 200, seed: int = 42
) -> GramReport:
    """Smallest Gram eigenvalue of the symbols plus a sampled coercivity floor.

    The Gram matrix pairs symbols through the two-component trace; the
    coercivity constant is the worst ratio of the mixed Schatten norm against
    the l1 mass of the coefficients over seeded random complex directions.
    """
    from .oscillator import fiber_adjoint, fiber_mul, pooled_schatten_powers, tr_sigma

    if samples < 1:
        raise ValueError(f"coercivity needs at least one sample; got {samples}")
    symbols = family.symbols
    m = len(symbols)
    gram = np.empty((m, m), dtype=complex)
    for j in range(m):
        for k in range(j, m):
            value = tr_sigma(fiber_mul(fiber_adjoint(symbols[j]), symbols[k]))
            gram[j, k] = value
            gram[k, j] = np.conj(value)
    smallest = float(np.linalg.eigvalsh(gram)[0])
    power = 2 * family.basis.n + 2
    # direction s has real parts draws[s, 0] and imaginary parts draws[s, 1]
    draws = SeededDraws(seed).standard_normal((samples, 2, m))
    directions = draws[:, 0] + 1j * draws[:, 1]
    directions /= np.sum(np.abs(directions), axis=1, keepdims=True)
    mass = pooled_schatten_powers(directions, symbols, power)
    worst = float(np.min(mass)) ** (1.0 / power)
    return GramReport(smallest, worst)


# ---------------------------------------------------------------------------
# grid-side trace estimates


@dataclass(frozen=True)
class DixmierEstimate:
    """Log-averaged partial-sum estimate over its window of usable values."""

    value: float
    window: int
    spectrum: Mapping | None = None


def dixmier_lhs(f: GridFunction, ell: int, spec: GridSpec) -> DixmierEstimate:
    """Trace estimate for the 2n+2 power of the Riesz-multiplier commutator."""
    spectrum, health = _model(spec).commutator_spectrum(ell, f)
    powered = spectrum.values ** GRID_HOMOGENEOUS_DIMENSION
    usable = int(np.count_nonzero(powered > CLAMP_RATIO * max(powered[0], 1e-300)))
    if f.max_abs() == 0.0 or powered[0] == 0.0:
        return DixmierEstimate(0.0, 0)
    if usable < MIN_TRACE_WINDOW:
        raise ValueError(
            f"window too small: {usable} singular values above the clamp, "
            f"need {MIN_TRACE_WINDOW}"
        )
    value = dixmier_approximant(SingularSpectrum(powered), usable)
    return DixmierEstimate(value, usable, health)


def bound_experiment(
    spec: GridSpec,
    family: Mapping[str, GridFunction],
    ell: int,
) -> ExperimentReport:
    """Weak-norm of the commutator against the horizontal Sobolev seminorm."""
    power = GRID_HOMOGENEOUS_DIMENSION
    _model(spec).commutator_spectra(ell, family)

    def row(label: str, f: GridFunction) -> ExperimentRow | None:
        spectrum, health = _model(spec).commutator_spectrum(ell, f)
        lhs = weak_quasinorm(spectrum, power)
        rhs = sobolev_seminorm(f, power)
        # constants hit this: the commutator vanishes as a matrix identity,
        # while the discrete seminorm keeps boundary-row artifacts
        if lhs == 0.0 or rhs == 0.0:
            return None
        fit = fit_weak_decay(spectrum, shadow_fit_range(spectrum, power))
        health = {**health, "fit_range": list(fit.fit_range)}
        return ExperimentRow(label, lhs, rhs, lhs / rhs, fit.slope, health)

    results = {label: row(label, f) for label, f in family.items()}
    digest = config_digest(
        {"experiment": "bound", "grid": spec.shape, "ell": ell,
         "family": sorted(family)}
    )
    return _build_report(digest, results)


def trace_formula_experiment(
    family: Mapping[str, GridFunction],
    ell: int,
    spec: GridSpec,
    basis: MultiIndexBasis,
) -> ExperimentReport:
    """Ratio constancy of the grid trace estimate against the fiber mass."""
    if len(family) < 3:
        raise ValueError("trace-formula families need at least 3 functions")
    fibers = build_y_fibers(basis, ell)
    _model(spec).commutator_spectra(ell, family)

    def row(label: str, f: GridFunction) -> ExperimentRow | None:
        estimate = dixmier_lhs(f, ell, spec)
        lhs = estimate.value
        rhs = bochner_rhs(f, fibers, spec)
        if rhs == 0.0 and lhs != 0.0:
            raise ValueError(
                f"inconsistent row {label!r}: fiber mass vanished but the "
                f"grid estimate is {lhs!r}"
            )
        if lhs == 0.0 or rhs == 0.0:
            return None
        health = {**estimate.spectrum, "window": estimate.window}
        return ExperimentRow(label, lhs, rhs, lhs / rhs, spectrum=health)

    results = {label: row(label, f) for label, f in family.items()}
    digest = config_digest(
        {"experiment": "trace", "grid": spec.shape, "ell": ell,
         "cutoff": basis.K, "family": sorted(family)}
    )
    return _build_report(digest, results)


# ---------------------------------------------------------------------------
# product trace check


def eigenvalue_trace_approximant(eigenvalues: np.ndarray) -> float:
    """Log-averaged partial eigenvalue sum, ordered by decreasing modulus.

    The product operators are not normal, so the estimate uses eigenvalues
    rather than singular values; the imaginary part of the partial sum is
    discarded (it cancels for the shipped factor catalog).
    """
    eigs = np.asarray(eigenvalues, dtype=complex).reshape(-1)
    order = np.argsort(-np.abs(eigs), kind="stable")
    eigs = eigs[order]
    mods = np.abs(eigs)
    if mods[0] == 0.0:
        return 0.0
    usable = int(np.count_nonzero(mods > CLAMP_RATIO * mods[0]))
    return float(np.sum(eigs[:usable]).real / math.log(usable + 2.0))


def product_factor(
    spec: GridSpec, basis: MultiIndexBasis, name: str
) -> tuple[tuple[tuple[np.ndarray, ...], ...], FiberOperator]:
    """Resolve a catalog name to the sector blocks of its grid operator and
    its fiber counterpart.

    Entry ``[k][c]`` is the block of column sector ``sigma = SECTORS[k]``
    in colour class c: columns the orbits ``classes[c][1]``
    (``_GridModel.sectors``), rows those orbits again for ``flat_factor``
    and the orbits ``classes[c][0]`` in sector ``sigma s_ell`` for
    ``riesz:ell`` and ``a:ell`` (``_factor_structure``).  No N x N array
    is formed.  ``riesz:ell`` is ``Rt_sigma = Xt_sigma St_sigma``, gathered
    from the stencil rows (``_GridModel.riesz_block``) one colour class of
    the inverse root's blocks at a time.  The vertical root V of the flat
    factor acts on the t-index alone, so it scales t-block j of
    ``(-Delta)^{-1/2}`` by ``u_j^H V u_j``: the flat factor is read
    (``_GridModel.read_class``) off the model's kept inverse root columns
    with the real and the imaginary slot of block j scaled by that weight.
    ``a:ell`` is the double operator integral of ``_symbol_blocks``.
    """
    from .doi import build_a_fiber
    from .oscillator import oscillator_matrix, riesz_symbol, tensor_scalar

    kind, _, index = name.partition(":")
    k = int(index) if kind in ("riesz", "a") and index.isdigit() else None
    if k is not None and k not in (1, 2):
        raise ValueError(f"{kind} index {k} outside 1..2")
    model = _model(spec)
    classes = model.sectors().classes
    if kind == "riesz" and k:
        per_class = []
        for c, (rows, _) in enumerate(classes):
            inverse = model.inverse_root_blocks(c)
            every = np.arange(rows.size)
            per_class.append(
                [model.riesz_block(k, j, c, inverse, every) for j in range(len(SECTORS))]
            )
            # dropped before the next class is read
            del inverse
        return tuple(zip(*per_class)), riesz_symbol(basis, k)
    if name == "flat_factor":
        u = model._t_vectors
        weights = np.einsum("kj,kl,lj->j", u.conj(), model.vertical_quarter_root(), u).real
        columns = model.inverse_root_columns() * np.concatenate([weights, weights])
        blocks = tuple(zip(*(model.read_class(columns, c) for c in range(len(classes)))))
        energies = np.diag(oscillator_matrix(basis)).real
        return blocks, tensor_scalar(basis, np.diag(energies**-0.5), "one")
    if kind == "a" and k:
        return _symbol_blocks(model, k), build_a_fiber(basis, k)
    raise ValueError(f"no fiber counterpart for factor {name!r}")


def _symbol_blocks(model, ell: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The sector blocks of ``a:ell``, the double operator integral
    ``A^{-1/4} T_psi(X_ell) A^{-1/4}`` with ``A = -Delta`` and ``psi(l, m)
    = 2 l^{1/4} m^{1/4} / (sqrt(l) + sqrt(m))``, laid out as in
    ``product_factor``.

    In an eigenbasis of A with eigenvalues l its entries are ``2 X_ab /
    (sqrt(l_a) + sqrt(l_b)) = 2 s_a s_b / (s_a + s_b) X_ab`` with ``s =
    l^{-1/2}`` the eigenvalues of ``(-Delta)^{-1/2}``.  That root keeps
    sector and colour, so one ``eigh`` of each of its eight blocks
    ``St_sigma = U_sigma diag(s_sigma) U_sigma^T`` (``_symmetric_eigh``,
    which checks the block's symmetry) gives such a basis, and the block
    of column sector sigma in class c is ``U_rho (table * U_rho^T Xt_sigma
    U_sigma) U_sigma^T`` with ``rho = sigma s_ell`` from class 1 - c,
    whose column orbits are the rows of class c.  The pseudo-inverse
    policy stays explicit: s at rounding level, ``KERNEL_THRESHOLD`` of
    the largest or below, on the kernel and on the coordinates of orbits
    where a sector vanishes, gets weight 0.
    """
    count = len(model.sectors().classes)
    # pairs[c][k]: the eigenvalues and eigenvectors of St_SECTORS[k] in class c
    pairs = [
        [_symmetric_eigh(block) for block in model.inverse_root_blocks(c)]
        for c in range(count)
    ]
    cut = KERNEL_THRESHOLD * max(float(np.max(s)) for per in pairs for s, _ in per)
    per_class = []
    for c in range(count):
        blocks = []
        for k in range(len(SECTORS)):
            (s_sigma, u_sigma), (s_rho, u_rho) = (
                pairs[c][k], pairs[1 - c][k ^ _FIELD_CHARACTER[ell]]
            )
            s_sigma, s_rho = (np.where(s > cut, s, 0.0) for s in (s_sigma, s_rho))
            core = u_rho.T @ model.field_times(ell, k, c, np.arange(u_rho.shape[0]), u_sigma)
            total = np.add.outer(s_rho, s_sigma)
            core *= np.divide(
                2.0 * np.multiply.outer(s_rho, s_sigma),
                total,
                out=np.zeros_like(total),
                where=total > 0.0,
            )
            blocks.append(u_rho @ core @ u_sigma.T)
        per_class.append(blocks)
    return tuple(zip(*per_class))


@dataclass(frozen=True)
class ProductCase:
    """One alternating product: 2n+2 functions against 2n+2 factor names."""

    label: str
    functions: tuple[GridFunction, ...]
    factors: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.functions) != len(self.factors):
            raise ValueError("need one factor name per function")


def _factor_structure(name: str) -> tuple[int, bool]:
    """Reflection character of a catalog factor, as its position in
    ``SECTORS``, and whether it flips colour: the Riesz and symbol factors
    carry those of their field, the flat factor keeps sector and colour."""
    kind, _, index = name.partition(":")
    if kind in ("riesz", "a"):
        return _FIELD_CHARACTER[int(index)], True
    return 0, False


def _product_peak_bytes(count: int) -> int:
    """Estimated peak bytes of a ``product`` run on the cube of ``count``
    points per axis, the counterpart of ``grid._peak_bytes``.

    A sector set, the eight blocks of one factor, takes at most ``(N + 3
    count + 4)^2`` bytes (see ``grid._peak_bytes``).  The run resolves its
    ``a:`` factors first (``_symbol_blocks``), whose eigenvectors, one set,
    are dropped before the other factors are read; it then keeps the
    blocks of its three factors, three sets, and peaks while it forms the
    eigenvalue problem of a piece: the terms cut from the factors' blocks
    and scaled, and their products, about one set more.  Four t-block
    arrays of ``ceil(count/2)`` x M x M float64 are the margin that holds
    the model's kept inverse root columns, its build's transients and the
    rest that grows with the grid; a class read's batch and 0.5 MB
    complete the estimate.  Against the ``tracemalloc`` peaks of runs in
    fresh interpreters, from ``heislab.cli`` loaded, it reads:

    ======  =========  ========  =====
    grid    peak (MB)  estimate  ratio
    ======  =========  ========  =====
    9^3          3.33      5.43  1.63x
    13^3        21.02     28.54  1.36x
    17^3       100.09    124.85  1.25x
    19^3       192.70    235.32  1.22x
    ======  =========  ========  =====

    26^3 estimates 1.44 GB and fits; 27^3 estimates 1.80 GB and does not.
    """
    sector_set = (count**3 + 3 * count + 4) ** 2
    t_blocks = 8 * ((count + 1) // 2) * count**4
    return 4 * sector_set + 4 * t_blocks + 3 * _COLUMN_BYTES + 500_000


def _check_product_budget(count: int) -> None:
    """Raise ``ValueError`` when a ``product`` run on the cube of ``count``
    points per axis is estimated over the byte budget."""
    _check_budget(f"product table on grid {count}^3", _product_peak_bytes(count))


def product_trace_check(
    cases: Sequence[ProductCase], spec: GridSpec, basis: MultiIndexBasis
) -> ExperimentReport:
    """Trace of alternating products against the factored integral formula.

    LHS: log-averaged eigenvalue sum of the product of (factor, multiplier)
    pairs, adjoint on every odd slot.  RHS: the product integral of the
    functions (conjugated on odd slots) times the two-component trace of the
    corresponding fiber product.

    The eigenvalues are read piece by piece in sector coordinates.  Each
    factor F has a reflection character chi and keeps or flips colour
    (``_factor_structure``); its sector blocks ``Ft_sigma`` are read once
    (``product_factor``).  A reflection component f_eps of a function gives
    ``F M_{f_eps} Q_sigma = Q_{sigma eps chi} Ft_{sigma eps} diag(f_eps)``
    (see ``_GridModel.commutator_blocks``).  Let H be the subgroup generated
    by the components of the case's functions and the product of its
    factor characters.  A piece is a coset sigma H within one colour class,
    or within both when an odd number of factors flips colour.  Each term
    maps a piece onto one piece and the product maps every piece onto
    itself, so its eigenvalues are the union of those of the pieces, each
    taken on the live sector coordinates of its piece.  No N x N product
    and no N x N eigenproblem is formed.  Each row's ``spectrum`` records
    the piece sizes, the eigenvalue count above ``CLAMP_RATIO`` times the
    largest modulus and the smallest kept modulus over the largest.
    """
    from .oscillator import fiber_adjoint, fiber_mul, tr_sigma

    if len({case.label for case in cases}) != len(cases):
        raise ValueError("product case labels must be distinct")
    for case in cases:
        if len(case.functions) != GRID_HOMOGENEOUS_DIMENSION:
            raise ValueError(
                f"case {case.label!r} needs {GRID_HOMOGENEOUS_DIMENSION} functions, "
                f"got {len(case.functions)}"
            )
    # checked before the model or any factor is built, as the model checks
    # its own estimate
    _check_product_budget(spec.count)
    model = _model(spec)
    orbits = model.sectors()
    # colours[c]: the orbits of colour class c; live[c][k]: the positions
    # among them of the orbits on which SECTORS[k] is live
    colours = [cols for _, cols in orbits.classes]
    live = [[np.flatnonzero(orbits.live[k, cols]) for k in range(len(SECTORS))]
            for cols in colours]
    # each distinct factor is realized once, straight as its sector blocks;
    # the a: factors first, so the eigenvectors they are formed from are
    # dropped before the other factors' blocks are read
    names = dict.fromkeys(name for case in cases for name in case.factors)
    structure = {name: _factor_structure(name) for name in names}
    fibers, blocks = {}, {}
    for name in sorted(names, key=lambda name: not name.startswith("a:")):
        blocks[name], fibers[name] = product_factor(spec, basis, name)

    def image(cell: tuple[int, int], name: str) -> tuple[int, int]:
        """The (colour class, sector) that factor ``name`` maps ``cell`` to."""
        c, k = cell
        character, flip = structure[name]
        if flip:
            c = 1 - c
        return c, k ^ character

    def term(name: str, components: Mapping[int, np.ndarray], cells) -> np.ndarray:
        """``F M_f`` from the live coordinates of ``cells`` onto its image."""
        out = {}
        for c, k in cells:
            cols = live[c][k]
            for eps, f_rep in components.items():
                shifted = k ^ eps
                target = image((c, shifted), name)
                rows = live[target[0]][target[1]]
                block = blocks[name][shifted][c][np.ix_(rows, cols)]
                out[target, (c, k)] = block * f_rep[colours[c][cols]]
        return _join(out)

    def eigenvalues(case: ProductCase) -> tuple[np.ndarray, list[int]]:
        """The eigenvalues of the case's product, the union over its
        pieces, and the piece sizes."""
        components = []
        for f in case.functions:
            at_orbits = f.flat[orbits.table]
            # the zero function has no component; one zero component gives
            # zero blocks
            components.append(_reflection_components(at_orbits) or {0: at_orbits[0]})
        steps = {eps for parts in components for eps in parts}
        character = 0
        for name in case.factors:
            character ^= structure[name][0]
        steps.add(character)
        subgroup = {0}
        for step in steps:
            subgroup |= {h ^ step for h in subgroup}
        cosets = sorted(
            {tuple(sorted(k ^ h for h in subgroup)) for k in range(len(SECTORS))}
        )
        flips = sum(structure[name][1] for name in case.factors)
        groups = [(0, 1)] if flips % 2 else [(0,), (1,)]
        values, sizes = [], []
        for group in groups:
            for coset in cosets:
                cells = sorted((c, k) for c in group for k in coset)
                # the last slot acts first; an adjoint slot is the adjoint of
                # its term from the image back onto the piece
                terms = []
                for slot in reversed(range(len(case.factors))):
                    name, parts = case.factors[slot], components[slot]
                    target = sorted(image(cell, name) for cell in cells)
                    if slot % 2 == 0:
                        terms.append(term(name, parts, target).conj().T)
                    else:
                        terms.append(term(name, parts, cells))
                    cells = target
                product = terms[-1]
                for factor in reversed(terms[:-1]):
                    product = product @ factor
                sizes.append(product.shape[0])
                values.append(np.linalg.eigvals(product))
        return np.concatenate(values), sizes

    results: dict[str, ExperimentRow | None] = {}
    for case in cases:
        eigs, sizes = eigenvalues(case)
        lhs = eigenvalue_trace_approximant(eigs)
        mods = np.sort(np.abs(eigs))[::-1]
        usable = int(np.count_nonzero(mods > CLAMP_RATIO * mods[0]))
        health = {
            "pieces": sizes,
            "usable": usable,
            "min_kept_ratio": float(mods[usable - 1] / mods[0]) if usable else 0.0,
        }
        fiber_product: FiberOperator | None = None
        integrand = np.ones(spec.size, dtype=complex)
        for slot, (name, f) in enumerate(zip(case.factors, case.functions)):
            fib = fibers[name]
            if slot % 2 == 0:
                fib = fiber_adjoint(fib)
                integrand = integrand * np.conj(f.flat)
            else:
                integrand = integrand * f.flat
            fiber_product = (
                fib if fiber_product is None else fiber_mul(fiber_product, fib)
            )
        trace_factor = tr_sigma(fiber_product).real
        total = np.sum(integrand)
        rhs = float(spec.cell_volume * total.real * trace_factor)
        # a side vanishes when it is rounding next to the scale of its
        # terms: the integral of a cancelling integrand, or the eigenvalue
        # sum against the approximant of the moduli
        cancelled = 16.0 * np.finfo(float).eps * np.sum(np.abs(integrand))
        rhs_vanishes = rhs == 0.0 or abs(total) <= cancelled
        lhs_vanishes = abs(lhs) <= 1e-12 * eigenvalue_trace_approximant(np.abs(eigs))
        if rhs_vanishes and not lhs_vanishes:
            raise ValueError(
                f"inconsistent row {case.label!r}: fiber mass vanished but the "
                f"grid estimate is {lhs!r}"
            )
        results[case.label] = (
            None
            if rhs_vanishes
            else ExperimentRow(case.label, lhs, rhs, lhs / rhs, spectrum=health)
        )
    digest = config_digest(
        {"experiment": "product", "grid": spec.shape,
         "cutoff": basis.K,
         "cases": [case.label for case in cases]}
    )
    return _build_report(digest, results)


# ---------------------------------------------------------------------------
# named test families


def _gaussian(scale):
    return lambda x, y, t: np.exp(-scale * (x * x + y * y + t * t))


_FAMILIES: dict[str, list[tuple[str, object]]] = {
    "bumps": [
        ("gauss_wide", _gaussian(0.5)),
        ("gauss_mid", _gaussian(1.0)),
        ("gauss_narrow", _gaussian(1.5)),
        ("odd_x", lambda x, y, t: x * np.exp(-(x * x + y * y + t * t))),
        ("vertical", lambda x, y, t: t * np.exp(-1.5 * (x * x + y * y + t * t))),
    ],
    # Centered radial bumps only: off-center and sign-changing profiles carry
    # a visibly different desk-scale constant and stall the ratio consistency
    # that refinement is supposed to exhibit.
    "trace": [
        ("gauss_wide", _gaussian(0.5)),
        ("gauss_mid", _gaussian(1.0)),
        ("gauss_narrow", _gaussian(1.5)),
    ],
    "decay": [
        ("gauss_wide", _gaussian(0.5)),
        ("odd_x", lambda x, y, t: x * np.exp(-(x * x + y * y + t * t))),
        ("odd_x_wide", lambda x, y, t: x * np.exp(-0.6 * (x * x + y * y + t * t))),
    ],
    "product": [
        ("gauss_wide", _gaussian(0.5)),
        ("gauss_mid", _gaussian(1.0)),
        ("gauss_narrow", _gaussian(1.5)),
        ("ring", lambda x, y, t: (x * x + y * y) * np.exp(-1.5 * (x * x + y * y + t * t))),
    ],
    # negative control: every commutator vanishes, so ratio experiments
    # must reject this family as degenerate
    "constants": [
        ("one", lambda x, y, t: np.ones_like(x)),
        ("two", lambda x, y, t: 2.0 * np.ones_like(x)),
        ("half", lambda x, y, t: 0.5 * np.ones_like(x)),
    ],
}


def family_names() -> tuple[str, ...]:
    """Names accepted by ``named_family``, in stable order."""
    return tuple(sorted(_FAMILIES))


def named_family(name: str, spec: GridSpec) -> dict[str, GridFunction]:
    """Materialise one of the shipped test-function sets on a grid."""
    if name not in _FAMILIES:
        raise ValueError(
            f"unknown family {name!r}; expected one of {sorted(_FAMILIES)}"
        )
    return {
        label: GridFunction.from_callable(spec, fn)
        for label, fn in _FAMILIES[name]
    }
