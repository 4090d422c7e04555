"""Finite-difference model of the first Heisenberg group on a box.

The model is realized for the three-axis grid (x, y, t) of the group with
product ``[z,t][z',t'] = [z+z', t+t'+Im(z z'bar)]``: centered differences
with zero exterior values give exactly skew-symmetric horizontal fields, so
the sub-Laplacian is symmetric positive semidefinite by construction.

The vertical difference ``D_t`` commutes with the coordinates and with
``D_x`` and ``D_y``, so in the closed-form (DST-I) eigenbasis of the 1-D
centered difference along t the fields and the sub-Laplacian are block
diagonal: one block of size n*n per vertical eigenvalue ``i mu_j`` of the
cube of n points per axis, the grid counterpart of the Schroedinger fibre
at ``lambda = mu_j``.  Blocks j and n+1-j are complex conjugates, and each
kept block splits into two real symmetric halves under the planar
reflections, so ``2 ceil(n/2)`` small real ``eigh`` calls, made once per
grid, drive the fractional calculus.
The grid reflections and the colour ``(ix+iy+it) mod 2`` grade the
operators exactly, so the powers, the Riesz transforms and the commutators
the experiments check are read block by block in sector coordinates; no
dense one is kept or formed.

The horizontal fields are nearest-neighbour stencils: short lists of
(neighbour offset, coefficient) terms, applied by slicing the (x, y, t)
view of a grid function and scattered into sector blocks by index
arithmetic.  No sparse matrix is formed.

Zero-exterior (Dirichlet) boundaries are deliberate: the coordinate
coefficients in the fields are globally defined, and a periodic wrap would
break skew-symmetry.  The exact identities are therefore checked on
interior-supported functions and via refinement sweeps.
"""

from __future__ import annotations

import math
import types
from collections import namedtuple
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .schatten import SingularSpectrum, _DirectSum

__all__ = [
    "KERNEL_THRESHOLD",
    "GridSpec",
    "GridFunction",
    "sublaplacian_spectrum",
    "sobolev_seminorm",
    "quarter_rotation",
    "RotationReport",
    "riesz_decomposition_residual",
    "RieszSplitReport",
]

# Relative eigenvalue threshold below which the spectral calculus treats a
# mode as kernel; the continuum kernel is trivial, the grid one a boundary
# artifact.
KERNEL_THRESHOLD = 1e-10

_ASYMMETRY_LIMIT = 1e-8

# bytes of the grid columns (N entries each) that one batched matmul of
# ``read_class`` forms; the batch's other arrays are about as large again
_COLUMN_BYTES = 524_288

# bytes of the right factor's rows that one einsum of ``field_times`` reads
# (four rows per row of the product), a few times L1 and well inside L2
_GATHER_BYTES = 262_144

# The most bytes one model may estimate for a run (``_peak_bytes``), checked
# before it allocates anything.  31^3 estimates 1.30 GB and fits; 32^3
# estimates 1.55 GB and does not.  ``_model`` keeps models while the sum of
# their estimates fits.
_BYTE_BUDGET = 1_500_000_000

# Characters (s1, s2) of the two grid reflections P1: (x, y, t) -> (x, -y, -t)
# and P2: (x, y, t) -> (-x, y, -t): u lies in sector (s1, s2) when
# P1 u = s1 u and P2 u = s2 u.  The package names a character by its
# position k = 2 [s1 < 0] + [s2 < 0] here, so the product of two characters
# is the XOR of their positions.
SECTORS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

# P_k X_ell P_k = s_k X_ell; -Delta commutes with both reflections, so the
# Riesz transform R_ell carries the character of its field: X_1 has (1, -1)
# and X_2 has (-1, 1)
_FIELD_CHARACTER = {1: 1, 2: 2}

# _SIGNS[k, g]: the value of the character SECTORS[k] on the group element
# g of (1, P1, P2, P1 P2)
_SIGNS = np.array([[1, s1, s2, s1 * s2] for s1, s2 in SECTORS], dtype=float)


def _character_label(k: int) -> str:
    """The character ``SECTORS[k]`` as its signs, e.g. ``"+-"`` for (1, -1)."""
    return "".join("+" if s > 0 else "-" for s in SECTORS[k])


# ---------------------------------------------------------------------------
# grid containers


def _symmetric_axis(half_width: float, count: int) -> np.ndarray:
    # exactly antisymmetric (axis[::-1] == -axis) at every count, so the grid
    # reflections map the coordinates onto their exact negatives; at the
    # default half-width 3 it equals np.linspace(-3, 3, count) bit for bit at
    # counts 3, 4, 5, 7, 9, 13, 17, 25 and 33
    return half_width * np.arange(1 - count, count, 2) / (count - 1)


@dataclass(frozen=True)
class GridSpec:
    """The cube ``[-L, L]^3`` with ``count`` points per axis, the box of the
    first group's (x, y, t); ``L`` is ``half_width``."""

    count: int
    half_width: float = 3.0

    def __post_init__(self):
        # bool is an int subclass: a count of True must not pass as 1
        count, width = self.count, self.half_width
        if isinstance(count, bool) or not isinstance(count, int) or count < 3:
            raise ValueError(f"count must be an integer of at least 3, got {count!r}")
        if (
            isinstance(width, bool)
            or not isinstance(width, (int, float))
            or not (math.isfinite(width) and width > 0.0)
        ):
            raise ValueError(f"half-width must be finite and positive, got {width!r}")

    @classmethod
    def cube(cls, count: int, half_width: float = 3.0) -> "GridSpec":
        return cls(count, half_width)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.count,) * 3

    @property
    def size(self) -> int:
        return self.count**3

    @property
    def axis(self) -> np.ndarray:
        """The coordinates along each of x, y and t."""
        return _symmetric_axis(self.half_width, self.count)

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.count - 1)

    @property
    def cell_volume(self) -> float:
        h = self.spacing
        return h * h * h


@dataclass
class GridFunction:
    """Real values over the grid, C-ordered as (x, y, t), held as float64."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.shape != self.spec.shape:
            raise ValueError(f"values must have shape {self.spec.shape}")
        # refused before the conversion, which would drop an imaginary part
        if np.iscomplexobj(vals):
            raise ValueError("grid functions are real; got complex values")
        # integer and boolean values become float64; float64 stays as given
        vals = np.asarray(vals, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")
        self.values = vals

    @classmethod
    def from_callable(cls, spec: GridSpec, fn: Callable) -> "GridFunction":
        axis = spec.axis
        xs, ys, ts = np.meshgrid(axis, axis, axis, indexing="ij")
        vals = np.asarray(fn(xs, ys, ts))
        if vals.shape != spec.shape:
            vals = np.vectorize(fn)(xs, ys, ts)
        return cls(spec, vals)

    @property
    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


# ---------------------------------------------------------------------------
# cached stencil model


def _centered_difference(count: int, h: float) -> np.ndarray:
    # zero exterior: rows at the faces keep only their inner neighbor,
    # which preserves exact skew-symmetry
    off = 1.0 / (2.0 * h)
    out = np.zeros((count, count))
    steps = np.arange(count - 1)
    out[steps, steps + 1] = off
    out[steps + 1, steps] = -off
    return out


# one term of a horizontal field: X[a, a + step e_axis] = coefficient[a] for
# the points a whose neighbour lies in the box (coefficient has the grid's
# shape)
_Term = namedtuple("_Term", "axis step coefficient")


def _field_stencil(spec: GridSpec, ell: int) -> tuple[_Term, ...]:
    """``X_1 = D_x - y D_t`` or ``X_2 = D_y + x D_t`` as its four terms.

    Opposite neighbours come in adjacent pairs, the vertical pair first, so
    a sum over the terms in this order cancels exactly on a constant away
    from the faces.
    """
    shape = spec.shape
    if ell == 1:
        planar, vertical = 0, -spec.axis[None, :, None]
    else:
        planar, vertical = 1, spec.axis[:, None, None]
    off = 1.0 / (2.0 * spec.spacing)
    terms = [
        _Term(2, -1, np.broadcast_to(vertical * -off, shape).copy()),
        _Term(2, 1, np.broadcast_to(vertical * off, shape).copy()),
        _Term(planar, 1, np.full(shape, off)),
        _Term(planar, -1, np.full(shape, -off)),
    ]
    for term in terms:
        term.coefficient.flags.writeable = False
    return tuple(terms)


def _planar_parts(spec: GridSpec, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """``X_ell`` on a t-block as ``base + i mu diag(coefficient)`` on the
    plane: the dense M x M ``base`` and the ``coefficient`` of ``D_t``,
    formed anew on each call."""
    n, axis = spec.count, spec.axis
    d1 = _centered_difference(n, spec.spacing)
    if ell == 1:
        return np.kron(d1, np.eye(n)), -np.tile(axis, n)
    return np.kron(np.eye(n), d1), np.repeat(axis, n)


def _vertical_basis(count: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenbasis of the centered difference along t.

    ``tridiag(-a, 0, a)`` with ``a = 1/(2h)`` has the unitary eigenvectors
    ``u_j[k] = i^k S[k, j]`` (k, j = 1..count; the DST-I matrix
    ``S[k, j] = sqrt(2/(count+1)) sin(pi j k/(count+1))`` is real orthogonal)
    and the eigenvalues ``i mu_j`` with ``mu_j = cos(pi j/(count+1))/h``.
    Since ``u_{count+1-j} = -conj(u_j)``, only ``mu_j`` for
    ``j <= ceil(count/2)`` is returned; the middle one of an odd count is
    exactly 0.

    ``S`` is read off one period of ``sin(pi r/(count+1))``, tabulated on
    ``r <= (count+1)/2`` and mirrored, so the t-reflection acts on it bit
    for bit: ``S[count+1-k, j] = (-1)^(j+1) S[k, j]``.
    """
    period = count + 1
    quarter = np.sin(np.pi * np.arange(period // 2 + 1) / period)
    half = np.empty(period + 1)
    half[: quarter.size] = quarter
    half[period - np.arange(quarter.size)] = quarter
    table = np.concatenate([half[:-1], 0.0 - half[:-1]])
    k = np.arange(1, count + 1)
    sine = math.sqrt(2.0 / period) * table[np.outer(k, k) % (2 * period)]
    mu = np.cos(np.pi * k[: (count + 1) // 2] / period) / h
    if count % 2:
        mu[-1] = 0.0
    return sine, mu


# one r_xy parity half of a t-block (see _parity_halves): the orbit vector a
# is ``o_a = sum_g coefficient[g, a] e_{points[g, a]}``.  A planar point m
# lies on at most one vector of phase 1 and one of phase i; there ``o[m]`` is
# ``real_value[m]`` on the vector ``real_column[m]`` and ``1j *
# imag_value[m]`` on ``imag_column[m]`` (value 0 where m lies on none)
_ParityHalf = namedtuple(
    "_ParityHalf", "points coefficient real_column real_value imag_column imag_value"
)


def _parity_halves(count: int) -> tuple[_ParityHalf, _ParityHalf]:
    """Real orthonormal bases of the two ``r_xy`` parities of a t-block.

    On the ``count x count`` plane, with ``m = ix*count + iy``, let ``r_xy``
    reverse both planar indices (``m -> M-1-m``), ``r_y`` the y index and
    ``r_x`` the x index.  A t-block ``A_j`` commutes with ``r_xy`` and with
    ``J = r_y`` composed with complex conjugation, since ``r_y A_j r_y =
    conj(A_j)``.  For an orbit representative m, a parity p and a phase c
    in {1, i}, ``o = c (e_m + p e_{r_xy m}) + conj(c) (e_{r_y m} +
    p e_{r_x m})`` has parity p and ``J o = o``, so ``o_a^H A_j o_b`` is
    real: each parity half of ``A_j`` is real symmetric in these vectors.
    Where an orbit visits a point twice the terms add up, and vectors that
    cancel are dropped; the halves have ``ceil(M/2)`` and ``floor(M/2)``
    vectors.
    """
    size = count * count
    index = np.arange(size).reshape(count, count)
    images = np.stack(
        [index, index[::-1, ::-1], index[:, ::-1], index[::-1, :]]
    ).reshape(4, size)
    reps = np.flatnonzero(images.min(axis=0) == np.arange(size))
    points = np.repeat(images[:, reps], 2, axis=1)
    phase = np.tile([1.0, 1j], reps.size)
    same = points[:, None, :] == points[None, :, :]
    halves = []
    for parity in (1, -1):
        coefficient = np.stack(
            [phase, parity * phase, phase.conj(), parity * phase.conj()]
        )
        # |o|^2 = sum over pairs (g, h) that meet at one point of
        # conj(c_g) c_h, an integer
        norm2 = np.einsum("ga,ha,gha->a", coefficient.conj(), coefficient, same).real
        keep = norm2 > 0.5
        coefficient = coefficient[:, keep] / np.sqrt(norm2[keep])
        basis = np.zeros((size, coefficient.shape[1]), dtype=complex)
        for g in range(4):
            basis[points[g, keep], np.arange(basis.shape[1])] += coefficient[g]
        real_column = np.argmax(np.abs(basis.real), axis=1)
        imag_column = np.argmax(np.abs(basis.imag), axis=1)
        rows = np.arange(size)
        halves.append(
            _ParityHalf(
                points[:, keep],
                coefficient,
                real_column,
                basis.real[rows, real_column],
                imag_column,
                basis.imag[rows, imag_column],
            )
        )
    return tuple(halves)


def _parity_block(block: np.ndarray, half: _ParityHalf) -> np.ndarray:
    """The real symmetric ``o_a^H A o_b`` of a t-block A on one parity half.

    A commutes with ``r_xy`` and with J, so ``o_b = (1 + p r_xy)(1 + J)
    (c_b e_m) / |o_b|`` gives ``o_a^H A o_b = 4 Re(o_a^H A e_m c_b) /
    |o_b|``: four row gathers of the columns of A at the representatives.
    """
    points, coefficient = half.points, half.coefficient
    columns = block[:, points[0]]
    out = sum(coefficient[g, :, None].conj() * columns[points[g]] for g in range(4))
    return 4.0 * (out * coefficient[0]).real


def _symmetric_eigh(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of a parity half; raises when the half is not symmetric to
    within ``_ASYMMETRY_LIMIT`` relative, since ``eigh`` reads one triangle
    only and would hide the asymmetry."""
    asym = float(np.linalg.norm(block - block.T) / max(np.linalg.norm(block), 1.0))
    if asym > _ASYMMETRY_LIMIT:
        raise ValueError(f"sub-Laplacian asymmetry {asym:.2e} exceeds limit")
    return np.linalg.eigh(block)


def _in_grid(half: _ParityHalf, u: np.ndarray) -> np.ndarray:
    """The vectors ``sum_a u[..., a, i] o_a`` of one parity half, over the
    plane: row m is read off the rows of u at m's two orbit vectors."""
    real = half.real_value[:, None] * u[..., half.real_column, :]
    return real + 1j * (half.imag_value[:, None] * u[..., half.imag_column, :])


def _by_column(blocks: np.ndarray) -> np.ndarray:
    """The t-block columns ``blocks`` (h x M x k) in the real layout that
    ``_GridModel.read_class`` reads: ``out[r, m, p] = parts[p][m, r]`` for
    the r-th column, with ``parts = [Re B; Im B]``, so the gather of one
    column is contiguous."""
    half = blocks.shape[0]
    out = np.empty(blocks.shape[2:0:-1] + (2 * half,))
    out[..., :half] = blocks.real.transpose(2, 1, 0)
    out[..., half:] = blocks.imag.transpose(2, 1, 0)
    return out


class _Orbits(NamedTuple):
    """The orbits of the reflection group ``{1, P1, P2, P1 P2}`` on the grid.

    Column o of the 4 x n ``table`` lists where the group elements, in that
    order, send the orbit's representative (its smallest point):
    ``(P_k u)[table[0, o]] = u[table[k, o]]`` for k = 1, 2.  The unit vector of
    sector ``SECTORS[k]`` on orbit o is
    ``q = sum_g _SIGNS[k, g] e_{table[g, o]} / norms[k, o]``; a point the
    orbit visits twice adds up, and where the sum cancels the sector is not
    ``live`` and its norm is 0.  The live sectors of an orbit share one
    norm, and the live counts of the four sectors sum to N.  ``inverse`` is
    ``1 / norms`` where a sector is live and 0 where it vanishes.

    ``colour`` is the representative's ``(ix + iy + it) mod 2``.  On the
    cube the reflections keep colours, so every orbit has one colour, and
    ``classes`` holds two (row orbits, column orbits) pairs: the orbits of
    colour 1 - c against those of colour c, between which the Riesz
    transforms act.
    """

    table: np.ndarray
    norms: np.ndarray
    live: np.ndarray
    inverse: np.ndarray
    colour: np.ndarray
    classes: tuple[tuple[np.ndarray, np.ndarray], ...]


# the stencil rows of the sector blocks of a field in one colour class (see
# ``_GridModel.field_rows``): entry (a, b) of the block of SECTORS[k] is the
# sum of ``values[k, a, j]`` over the slots j with ``columns[a, j] = b``;
# columns is rows x 4 and values 4 x rows x 4
_FieldRows = namedtuple("_FieldRows", "columns values")

# a block of [R_ell, M_f] from the component SECTORS[eps], of rows in
# SECTORS[rho] and columns in SECTORS[sigma]: ``rows`` and ``cols`` are the
# positions, in the row and column orbits of class ``colour``, of the live ones
_Block = namedtuple("_Block", "eps rho sigma colour rows cols matrix")


def _join(blocks: Mapping[tuple[int, int], np.ndarray]) -> np.ndarray:
    """The matrix of blocks keyed (row key, column key), in sorted key
    order, zero where a key is absent; a key is a sector, or a (colour
    class, sector) pair in the product table.  A single block is returned
    uncopied."""
    if len(blocks) == 1:
        return next(iter(blocks.values()))
    heights = {rho: block.shape[0] for (rho, _), block in blocks.items()}
    widths = {sigma: block.shape[1] for (_, sigma), block in blocks.items()}
    return np.block([
        [blocks.get((rho, sigma), np.zeros((h, w))) for sigma, w in sorted(widths.items())]
        for rho, h in sorted(heights.items())
    ])


def _peak_bytes(count: int) -> int:
    """Estimated peak bytes of a grid, bound or trace run on the cube of
    ``count`` points per axis, from the model's block shapes.

    A class of colour c holds at most ``(N + 3 count + 4) / 8`` orbits (the
    points of colour c, plus three times the points a reflection fixes, over
    the four group elements), so one sector block takes at most ``(N + 3
    count + 4)^2 / 8`` bytes and one colour class of four of them half of
    ``(N + 3 count + 4)^2``.  The model keeps the inverse root only as its
    t-block columns and reads its blocks one class at a time
    (``inverse_root_blocks``), and a run holds a few blocks besides: the
    split's two buffers, a root block, the gap and, while a Riesz block is
    gathered, the gather with its column cut or the commutator block with
    its term ``f Rt_sigma``, six in all, while a block SVD holds fewer.  So
    the sector term is 10/8 of ``(N + 3 count + 4)^2``.  The t-block arrays
    of ``ceil(count/2)`` x M x M float64 take one and a half: the kept
    inverse root's columns, about half of one, and, while the model is
    built, the eigensolve's eigenvectors (about half of one) and the
    transients of ``_power``.  A class read's batch takes about three
    times ``_COLUMN_BYTES``, and 0.5 MB cover the rest of the run (the
    fiber side, the families, the artifacts and the modules a run loads).
    Against the ``tracemalloc`` peaks of runs in fresh interpreters, from
    ``heislab.cli`` loaded, the estimate reads 1.21-1.75x at 9^3,
    1.34-1.64x at 13^3, 1.18-1.59x at 17^3, 1.13-1.55x at 21^3 and, for a
    grid run, 1.11x at 25^3.
    """
    size = count**3
    sector_set = (size + 3 * count + 4) ** 2
    t_blocks = 8 * ((count + 1) // 2) * count**4
    return 10 * sector_set // 8 + 3 * t_blocks // 2 + 3 * _COLUMN_BYTES + 500_000


def _check_budget(what: str, estimate: int) -> None:
    """Raise ``ValueError`` naming ``what`` when its byte ``estimate``
    exceeds ``_BYTE_BUDGET``."""
    if estimate > _BYTE_BUDGET:
        raise ValueError(
            f"{what} needs an estimated {estimate / 1e6:.0f} MB, "
            f"over the budget of {_BYTE_BUDGET / 1e6:.0f} MB"
        )


def _check_model_budget(count: int) -> None:
    """Raise ``ValueError`` when the model of the cube of ``count`` points
    per axis is estimated over the byte budget (``_peak_bytes``)."""
    _check_budget(f"grid {count}^3", _peak_bytes(count))


class _GridModel:
    """The field stencils plus the one spectral calculus of the grid.

    In the vertical eigenbasis ``u_j`` (see ``_vertical_basis``) every
    operator of the calculus is block diagonal, with one block of size
    ``M = n*n`` per vertical eigenvalue ``i mu_j``: ``X`` and ``Y`` become
    ``X_j = D_x - i mu_j y`` and ``Y_j = D_y + i mu_j x`` on the (x, y)
    plane, and ``-Delta`` becomes ``A_j = X_j^H X_j + Y_j^H Y_j``.  The model
    keeps the blocks j <= ceil(n/2) and takes block n+1-j as the complex
    conjugate of block j; each kept block is solved as its two real parity
    halves (``_parity_halves``), so its ``eigh`` calls are real and of size
    about M/2, never N.

    Powers of the sub-Laplacian vanish on its numerical kernel (the
    pseudo-inverse policy).  The model makes one block eigensolve and
    keeps of it only the eigenvalues with their live masks (``parity_eig``)
    and the inverse root as the columns of its t-blocks at the planar
    representatives (``inverse_root_columns``); the eigenvectors and the
    dense planar operators the solve is built from are dropped after it.
    Another power (which only the tests form) or the eigenvectors
    themselves (``eig``) are solved anew and not kept.  The
    reflection orbits and the fields' sector blocks as stencil rows of at
    most four entries (``field_rows``) are built on first use and kept;
    the model keeps no sector set, no M x M planar matrix and no N x N
    array.  The sector blocks of an operator that the t-blocks carry
    are read straight off its t-block columns, one colour class at a time
    (``read_class``): the inverse root's blocks of a class
    (``inverse_root_blocks``) whenever a caller reaches that class, and
    the ``product`` factors (``read_blocks``).  The Riesz blocks are
    gathered from the inverse root's rows where they are read
    (``riesz_block``) and never kept, and so are the blocks of
    ``(-Delta)^{1/2}``, two stencil passes per field over the inverse
    root's block (``root_block``).  The model also splits each
    commutator ``[R_ell, M_f]`` into its independent SVD pieces and keeps
    one spectrum per (ell, f) (``commutator_spectra``), which the bound
    and trace experiments and every sweep step on this grid share.
    """

    def __init__(self, spec: GridSpec):
        _check_model_budget(spec.count)
        self.spec = spec
        n, h = spec.count, spec.spacing
        self._stencils = {ell: _field_stencil(spec, ell) for ell in (1, 2)}
        sine, self.mu = _vertical_basis(n, h)
        half = self.mu.size
        # a kept block stands for itself and its conjugate, except the
        # self-conjugate middle block of an odd count
        self.weight = np.where(np.arange(half) < n // 2, 2, 1)
        phase = np.array([1, 1j, -1, -1j])
        self._t_vectors = phase[np.arange(1, n + 1) % 4][:, None] * sine[:, :half]
        # Re(B (x) u_j u_j^H) = Re B (x) Re(u_j u_j^H) - Im B (x) Im(u_j u_j^H),
        # where (u_j u_j^H)[k, l] = i^(k-l) S[k, j] S[l, j]
        steps = phase[np.subtract.outer(np.arange(n), np.arange(n)) % 4]
        outer = self.weight[:, None, None] * np.einsum(
            "kj,lj->jkl", sine[:, :half], sine[:, :half]
        )
        self._t_outer = np.concatenate([steps.real * outer, -steps.imag * outer])
        self._parity = _parity_halves(n)
        self._parity_eig: tuple[tuple[np.ndarray, np.ndarray], ...] | None = None
        self._sectors: _Orbits | None = None
        self._inverse_root: np.ndarray | None = None
        self._field_rows: dict[int, tuple[_FieldRows, ...]] = {}
        # (ell, bytes of f) -> (spectrum, health) of [R_ell, M_f]
        self._spectra: dict[tuple[int, bytes], tuple[SingularSpectrum, Mapping]] = {}

    def stencil(self, ell: int) -> tuple[_Term, ...]:
        """The four terms of ``X_ell`` (see ``_field_stencil``)."""
        if ell not in self._stencils:
            raise ValueError(f"horizontal index {ell} outside 1..2")
        return self._stencils[ell]

    def apply_field(self, ell: int, values: np.ndarray) -> np.ndarray:
        """``X_ell`` applied to a flat grid function, or to each column of an
        N x k array, by slicing the (x, y, t) view."""
        grid = values.reshape(self.spec.shape + values.shape[1:])
        out = np.zeros(grid.shape, dtype=np.result_type(grid, 1.0))
        trailing = (1,) * (grid.ndim - 3)
        for term in self.stencil(ell):
            rows = [slice(None)] * 3
            neighbours = [slice(None)] * 3
            rows[term.axis] = slice(None, -1) if term.step > 0 else slice(1, None)
            neighbours[term.axis] = slice(1, None) if term.step > 0 else slice(None, -1)
            coefficient = term.coefficient[tuple(rows)]
            coefficient = coefficient.reshape(coefficient.shape + trailing)
            out[tuple(rows)] += coefficient * grid[tuple(neighbours)]
        return out.reshape(values.shape)

    def field_nonzeros(
        self, ell: int, points: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzeros of the rows ``points`` (flat indices) of ``X_ell``,
        term by term: the positions r in ``points`` of the rows with a
        neighbour in the box, those neighbours, and the entries
        ``X_ell[points[r], neighbour]``."""
        shape = self.spec.shape
        strides = (shape[1] * shape[2], shape[2], 1)
        coords = np.unravel_index(points, shape)
        parts = []
        for term in self.stencil(ell):
            target = coords[term.axis] + term.step
            r = np.flatnonzero((target >= 0) & (target < shape[term.axis]))
            start = points[r]
            neighbour = start + term.step * strides[term.axis]
            parts.append((r, neighbour, term.coefficient.reshape(-1)[start]))
        r, neighbour, value = map(np.concatenate, zip(*parts))
        return r, neighbour, value

    def leibniz_defect(self, ell: int, values: np.ndarray) -> float:
        """``|[X_ell, M_f] - M_{X_ell f}|_F / |X_ell f|`` for the flat f.

        ``[X, M_f][a, b] = X[a, b] (f_b - f_a)`` lives on the stencil's
        pairs and ``X`` has a zero diagonal, so the numerator squared is
        ``sum (X[a, b] (f_b - f_a))^2 + |X f|^2``.
        """
        rows, neighbours, entries = self.field_nonzeros(ell, np.arange(values.size))
        pairs = entries * (values[neighbours] - values[rows])
        derivative = float(np.linalg.norm(self.apply_field(ell, values)))
        return math.sqrt(float(pairs @ pairs) + derivative**2) / max(derivative, 1e-30)

    def planar_field(self, ell: int, mu: float) -> np.ndarray:
        """Dense M x M block of ``X_ell`` where ``D_t`` acts as ``i mu``;
        real when ``mu`` is 0.  Formed anew on each call."""
        base, coefficient = _planar_parts(self.spec, ell)
        return base + np.diag(1j * mu * coefficient) if mu else base

    def sublaplacian_blocks(self, mus: Sequence[float]) -> Iterator[np.ndarray]:
        """``X^H X + Y^H Y`` of the blocks where ``D_t`` acts as ``i mu``, for
        each mu of ``mus`` in turn: with ``X = D + i mu diag(c)`` and D real,
        ``X^H X = D^T D + i mu (D^T diag(c) - diag(c) D) + mu^2 diag(c^2)``;
        real when ``mu`` is 0.  The mu-independent parts are formed once per
        call and dropped with the iterator."""
        planar = [_planar_parts(self.spec, ell) for ell in (1, 2)]
        square = sum(d.T @ d for d, _ in planar)
        cross = sum(d.T * c[None, :] - c[:, None] * d for d, c in planar)
        diagonal = sum(c * c for _, c in planar)
        del planar
        for mu in mus:
            real = square + np.diag(mu * mu * diagonal)
            yield real + 1j * mu * cross if mu else real

    def _eigensolve(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Per parity half (``_parity_halves``) of the kept blocks: the
        eigenvalues (h, d), the real orthonormal eigenvectors in the orbit
        vectors (h, d, d) and the live masks (h, d), from one real ``eigh``
        per half and block, each half checked for symmetry first
        (``_symmetric_eigh``).  A mode is live when its eigenvalue is above
        ``KERNEL_THRESHOLD`` times the largest of all blocks.  Solved anew
        on each call; the caller owns the arrays.
        """
        sizes = [half.points.shape[1] for half in self._parity]
        values = [np.empty((self.mu.size, d)) for d in sizes]
        vectors = [np.empty((self.mu.size, d, d)) for d in sizes]
        for j, block in enumerate(self.sublaplacian_blocks(self.mu)):
            for p, half in enumerate(self._parity):
                values[p][j], vectors[p][j] = _symmetric_eigh(_parity_block(block, half))
        scale = max(float(np.max(np.abs(w))) for w in values)
        return tuple(
            (w, u, np.abs(w) > KERNEL_THRESHOLD * scale) for w, u in zip(values, vectors)
        )

    def parity_eig(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per parity half of the kept blocks: the eigenvalues (h, d) and
        the live masks (h, d) of the model's one eigensolve
        (``_eigensolve``), built on first use and kept read-only.  The same
        solve forms the inverse root's t-block columns
        (``inverse_root_columns``); its eigenvectors are then dropped.
        """
        if self._parity_eig is None:
            halves = self._eigensolve()
            reps = self.planar_representatives()
            self._inverse_root = _by_column(self._power(halves, -0.5, reps))
            self._inverse_root.flags.writeable = False
            for w, _, live in halves:
                w.flags.writeable = live.flags.writeable = False
            self._parity_eig = tuple((w, live) for w, _, live in halves)
        return self._parity_eig

    def eig(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Eigenvalues, eigenvectors and live masks of the kept blocks.

        Row j belongs to the block of ``mu[j]``: shapes (h, M), (h, M, M) and
        (h, M) with ``h = ceil(n/2)``, eigenvalues ascending.  They are the
        two parity halves of a fresh eigensolve (``_eigensolve``) merged,
        with the eigenvectors carried to the plane; the model keeps none of
        them.
        """
        halves = self._eigensolve()
        w = np.concatenate([half[0] for half in halves], axis=1)
        live = np.concatenate([half[2] for half in halves], axis=1)
        v = np.concatenate(
            [_in_grid(half, u) for half, (_, u, _) in zip(self._parity, halves)],
            axis=2,
        )
        order = np.argsort(w, axis=1, kind="stable")
        w, live = (np.take_along_axis(arr, order, axis=1) for arr in (w, live))
        v = np.take_along_axis(v, order[:, None, :], axis=2)
        return w, v, live

    def _power(
        self,
        halves: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...],
        exponent: float,
        columns: np.ndarray,
    ) -> np.ndarray:
        """The columns ``columns`` of the kept t-blocks ``B_j`` of
        ``(-Delta)^exponent``, zero on the kernel, from the eigensolve
        ``halves`` (``_eigensolve``): h x M x k.

        Per parity half ``B = O K O^H`` with the real ``K = U w^exponent
        U^T``.  Row m of O holds m's phase-1 and phase-i values, so an entry
        of B is at most four entries of K times those values, which the
        planar group maps onto themselves up to sign and conjugation: B
        commutes with ``r_xy`` and ``r_y B r_y = conj(B)`` bit for bit.
        With ``C = (-1)^(ix+iy)``, also ``C B C = conj(B)``: B is real
        between planar points of equal ``ix+iy`` parity and imaginary
        between the others, and the rounding parts are set to 0.  The grid
        power of these blocks thus commutes exactly with the reflections
        and keeps colour exactly.
        """
        n = self.spec.count
        planar_colour = np.indices((n, n)).sum(axis=0).reshape(-1) % 2
        shape = (self.mu.size, planar_colour.size, columns.size)
        out = np.zeros(shape, dtype=complex)
        real, imag = out.real, out.imag
        for half, (w, u, live) in zip(self._parity, halves):
            values = np.zeros_like(w)
            values[live] = w[live] ** exponent
            core = (u * values[:, None, :]) @ u.transpose(0, 2, 1)
            cr, ci = half.real_column[columns], half.imag_column[columns]
            vr, vi = half.real_value[columns], half.imag_value[columns]
            row_real, row_imag = half.real_value[:, None], half.imag_value[:, None]
            # the k columns first, then the M rows: no gather holds all d
            # columns of the core
            at_cr, at_ci = core[:, :, cr], core[:, :, ci]
            real += (
                row_real * at_cr[:, half.real_column] * vr
                + row_imag * at_ci[:, half.imag_column] * vi
            )
            imag += (
                row_imag * at_cr[:, half.imag_column] * vr
                - row_real * at_ci[:, half.real_column] * vi
            )
        # the planar point pairs of opposite ix + iy parity
        odd = planar_colour[:, None] != planar_colour[columns]
        real[:, odd] = 0.0
        imag[:, ~odd] = 0.0
        return out

    def planar_representatives(self) -> np.ndarray:
        """The planar points of the orbit representatives, ascending: the
        t-block columns ``read_blocks`` takes."""
        table = self.sectors().table
        n = self.spec.count
        return np.flatnonzero(np.bincount(table[0] // n, minlength=n * n))

    def read_blocks(
        self, by_column: np.ndarray, character: int, flip: bool
    ) -> tuple[tuple[np.ndarray, ...], ...]:
        """The sector blocks ``Q_{sigma chi}^T T Q_sigma`` of the real grid
        operator T whose kept t-blocks ``B_j`` have the columns ``by_column``
        (in the layout of ``_by_column``) at ``planar_representatives``; T
        has the reflection character chi = ``SECTORS[character]`` and flips
        colour when ``flip``.  Entry ``[k][c]`` belongs to ``sigma =
        SECTORS[k]`` and colour class c: ``read_class`` over both classes.
        """
        classes = range(len(self.sectors().classes))
        per_class = [self.read_class(by_column, c, character, flip) for c in classes]
        return tuple(zip(*per_class))

    def read_class(
        self, by_column: np.ndarray, c: int, character: int, flip: bool
    ) -> tuple[np.ndarray, ...]:
        """The four sector blocks, ``sigma = SECTORS[k]`` for k = 0..3, of
        colour class c of the operator T of ``read_blocks``, whose t-block
        columns come in the real layout of ``_by_column``.  Read-only.

        The columns of a block are the orbits ``classes[c][1]`` (see
        ``_Orbits``) and its rows ``classes[c][0]`` when T flips colour or
        the columns again when it keeps colour; the parts of T that the cut
        leaves out are those its colour structure makes 0.  Its entry
        (a, b) is ``sum_{g,h} tau(g) sigma(h) T[g a, h b] / (|q_{tau,a}|
        |q_{sigma,b}|)`` with ``tau = sigma chi``, so rows and columns of
        orbits where a sector vanishes are exactly 0.  ``P_g T P_g = chi(g)
        T`` makes the four g-terms equal, and the sum is ``4 sum_g tau(g)
        T[g a, b]`` at the representative b: only the columns of T at the
        representatives are read.  Column ``(n, l)`` (planar point n,
        t-index l) is ``sum_p parts[p][:, n] (x) _t_outer[p][:, l]``; a
        batch of columns, at most ``_COLUMN_BYTES`` of them, is one batched
        matmul, read by four row gathers.
        """
        n = self.spec.count
        orbits = self.sectors()
        table = orbits.table
        # position[n]: where planar point n sits among the representatives
        position = np.zeros(n * n, dtype=int)
        position[self.planar_representatives()] = np.arange(by_column.shape[0])
        by_step = self._t_outer.transpose(2, 0, 1)
        # the row sectors tau = sigma chi of the four column sectors sigma
        targets = np.arange(len(SECTORS)) ^ character
        signs = 4.0 * _SIGNS[targets]
        rows, cols = orbits.classes[c]
        if not flip:
            rows = cols
        out = np.empty((len(SECTORS), rows.size, cols.size))
        step = max(1, _COLUMN_BYTES // (self.spec.size * out.itemsize))
        for start in range(0, cols.size, step):
            batch = slice(start, start + step)
            planar, vertical = np.divmod(table[0, cols[batch]], n)
            # columns[b] = T[:, table[0, b]], over the grid's flat index
            columns = np.matmul(by_column[position[planar]], by_step[vertical])
            columns = columns.reshape(planar.size, -1)
            # picked[b, g, a] = T[g a, b]
            picked = columns[:, table[:, rows]]
            out[:, :, batch] = np.matmul(signs, picked).transpose(1, 2, 0)
        out *= orbits.inverse[targets][:, rows, None]
        out *= orbits.inverse[:, None, cols]
        out.flags.writeable = False
        return tuple(out)

    def kernel(self) -> np.ndarray:
        """The kernel in closed form, checked against the live masks.

        Only the middle t-block of an odd count (``mu = 0``) has a kernel:
        there ``X_1`` and ``X_2`` are the centered differences in x and y,
        whose zero-exterior kernel is 1 on the even indices and 0 on the odd
        ones, and the middle vertical vector has that pattern in t.  So the
        kernel is the N x 1 mode ``1[ix, iy, it all even] / ((n+1)/2)^{3/2}``
        for odd n and N x 0 for even n.  Raises ``ValueError`` unless the
        live masks of ``parity_eig`` mark exactly it: the lowest mode of the
        middle block's ``r_xy``-even half.
        """
        n = self.spec.count
        (_, even), (_, odd) = self.parity_eig()
        expected = np.zeros(even.shape, dtype=bool)
        expected[-1, 0] = n % 2
        if not (np.array_equal(~even, expected) and odd.all()):
            raise ValueError(f"the numerical kernel of {self.spec} is not the closed-form mode")
        parity = np.arange(n) % 2 == 0
        mode = parity[:, None, None] & parity[:, None] & parity
        return mode.reshape(-1, 1)[:, : n % 2] / math.sqrt(((n + 1) // 2) ** 3)

    def levels(self) -> list[dict]:
        """Lowest live eigenvalue over ``|mu_j|`` of every kept block with
        ``mu_j != 0``; the Schroedinger fibre at ``lambda`` starts at
        ``2|lambda|``."""
        lowest = np.min(
            [np.where(live, w, np.inf).min(axis=1) for w, live in self.parity_eig()],
            axis=0,
        )
        return [
            {
                "block": j + 1,
                "abs_mu": abs(float(mu)),
                "lowest_over_abs_mu": float(lowest[j]) / abs(float(mu)),
            }
            for j, mu in enumerate(self.mu)
            if mu
        ]

    def sectors(self) -> _Orbits:
        """The orbits of the reflections as index data (see ``_Orbits``)."""
        if self._sectors is None:
            size = self.spec.size
            index = np.arange(size).reshape(self.spec.shape)
            p1 = index[:, ::-1, ::-1].reshape(-1)
            p2 = index[::-1, :, ::-1].reshape(-1)
            images = np.stack([np.arange(size), p1, p2, p1[p2]])
            # one orbit per representative, its smallest point
            reps = np.flatnonzero(images.min(axis=0) == np.arange(size))
            table = images[:, reps]
            # |q|^2 = sum over group pairs (g, h) with g.rep == h.rep of
            # sigma(g) sigma(h): points an orbit visits twice add up
            same = table[:, None, :] == table[None, :, :]
            norms = np.sqrt(np.einsum("sg,sh,gho->so", _SIGNS, _SIGNS, same))
            colour = np.indices(self.spec.shape).sum(axis=0).reshape(-1)[reps] % 2
            classes = tuple(
                (np.flatnonzero(colour != c), np.flatnonzero(colour == c)) for c in (0, 1)
            )
            live = norms > 0.0
            inverse = np.divide(1.0, norms, out=np.zeros_like(norms), where=live)
            for arr in (table, norms, live, inverse, colour):
                arr.flags.writeable = False
            self._sectors = _Orbits(table, norms, live, inverse, colour, classes)
        return self._sectors

    def field_rows(self, ell: int) -> tuple[_FieldRows, ...]:
        """The colour-flipping sector blocks ``Xt_sigma = Q_{sigma s_ell}^T
        X_ell Q_sigma`` as stencil rows, one ``_FieldRows`` per colour class
        (rows and columns as in ``read_blocks``), built on first use and
        kept read-only.

        Entry (a, b) is ``sum_{g,h} tau(g) sigma(h) X_ell[g a, h b]`` over
        the norms, which ``P_g X_ell P_g = s_ell(g) X_ell`` turns, as in
        ``read_blocks``, into ``4 sum_h sigma(h) X_ell[a, h b]`` at the
        representative a: the row of X_ell at a alone.  So the columns of
        row a are the orbits of a's at most four neighbours, for every
        sector, and each term of ``X_ell`` with value v from a to its
        neighbour p adds ``4 sigma(h) v`` to the slot of b in row a for
        every h with ``h b = p``.  For one h the pairs (a, b) are distinct,
        so each scatter is one indexed add.
        """
        if ell not in self._field_rows:
            orbits = self.sectors()
            table = orbits.table
            orbit_of = np.empty(self.spec.size, dtype=int)
            orbit_of[table] = np.arange(table.shape[1])
            targets = np.arange(len(SECTORS)) ^ _FIELD_CHARACTER[ell]
            per_class = []
            for rows, cols in orbits.classes:
                position = np.full(table.shape[1], -1)
                position[cols] = np.arange(cols.size)
                # the distinct column orbits of each row, ascending, then the
                # free slots, which read column 0 with weight 0
                r, neighbour, value = self.field_nonzeros(ell, table[0, rows])
                orbit = orbit_of[neighbour]
                pairs = np.sort(r * cols.size + position[orbit])
                pairs = pairs[np.diff(pairs, prepend=-1) > 0]
                row, c = np.divmod(pairs, cols.size)
                columns = np.zeros((rows.size, 4), dtype=int)
                columns[row, np.arange(row.size) - np.searchsorted(row, row)] = c
                # the first slot of a row equal to a column is that column's own
                slot = np.argmax(columns[r] == position[orbit][:, None], axis=1)
                values = np.zeros((len(SECTORS),) + columns.shape)
                for h in range(4):
                    hit = table[h, orbit] == neighbour
                    values[:, r[hit], slot[hit]] += 4.0 * _SIGNS[:, h, None] * value[hit]
                values *= orbits.inverse[targets][:, rows, None]
                values *= orbits.inverse[:, cols[columns]]
                for arr in (columns, values):
                    arr.flags.writeable = False
                per_class.append(_FieldRows(columns, values))
            self._field_rows[ell] = tuple(per_class)
        return self._field_rows[ell]

    def field_times(
        self,
        ell: int,
        k: int,
        c: int,
        rows: np.ndarray,
        right: np.ndarray,
        cols: np.ndarray | None = None,
    ) -> np.ndarray:
        """The rows ``rows`` (and the columns ``cols``, or all) of
        ``Xt_sigma @ right`` for ``sigma = SECTORS[k]`` in colour class c:
        each row is a sum of at most four rows of ``right``, read off
        ``field_rows``.  ``right`` is cut to ``cols`` once, unless they are
        all its columns; ``np.take`` keeps the cut row-major, so its rows
        are read contiguously."""
        columns, values = self.field_rows(ell)[c]
        columns, values = columns[rows], values[k, rows]
        if cols is not None and cols.size < right.shape[1]:
            right = np.take(right, cols, axis=1)
        out = np.empty((columns.shape[0], right.shape[1]))
        row_bytes = columns.shape[1] * right.shape[1] * right.itemsize
        step = max(1, _GATHER_BYTES // row_bytes)
        for start in range(0, out.shape[0], step):
            batch = slice(start, start + step)
            np.einsum("rj,rjs->rs", values[batch], right[columns[batch]], out=out[batch])
        return out

    def inverse_root_columns(self) -> np.ndarray:
        """The columns of the kept t-blocks of ``(-Delta)^{-1/2}`` at the
        planar representatives (``_power``), in the layout of
        ``_by_column``, read-only: the one form in which the model keeps the
        inverse root, formed by its one eigensolve (``parity_eig``)."""
        self.parity_eig()
        return self._inverse_root

    def inverse_root_blocks(self, c: int) -> tuple[np.ndarray, ...]:
        """The sector blocks ``St_sigma = Q_sigma^T (-Delta)^{-1/2} Q_sigma``
        of colour class c, indexed by the position of sigma in ``SECTORS``,
        read anew on each call from the kept t-block columns
        (``inverse_root_columns``, ``read_class``); the power keeps sector
        and colour.  A caller reads one class at a time and drops it before
        the next, so no more than one class of them is alive."""
        return self.read_class(self.inverse_root_columns(), c, 0, False)

    def root_block(self, k: int, c: int, inverse: tuple[np.ndarray, ...]) -> np.ndarray:
        """The sector block ``Q_sigma^T (-Delta)^{1/2} Q_sigma`` of
        ``sigma = SECTORS[k]`` in colour class c, formed anew from the
        inverse root's blocks ``inverse`` of class c
        (``inverse_root_blocks``) and the stencil rows.

        On the live modes ``(-Delta)^{1/2} = (-Delta)(-Delta)^{-1/2}``, and
        ``-Delta = X_1^T X_1 + X_2^T X_2 = -(X_1 X_1 + X_2 X_2)`` because the
        fields are skew.  ``X_ell`` maps sector sigma of colour c onto sector
        ``sigma s_ell`` of colour 1 - c and back, so the block is ``-sum_ell
        Xt_{sigma s_ell} Xt_sigma St_sigma``: two ``field_times`` passes per
        ell, the outer one in class 1 - c, whose rows are the columns of
        class c.
        """
        root = inverse[k]
        classes = self.sectors().classes
        out = np.zeros_like(root)
        for ell in (1, 2):
            inner = self.field_times(ell, k, c, np.arange(classes[c][0].size), root)
            back = k ^ _FIELD_CHARACTER[ell]
            out -= self.field_times(ell, back, 1 - c, np.arange(root.shape[0]), inner)
        return out

    def riesz_block(
        self,
        ell: int,
        k: int,
        c: int,
        inverse: tuple[np.ndarray, ...],
        rows: np.ndarray,
        cols: np.ndarray | None = None,
    ) -> np.ndarray:
        """The rows ``rows`` (and the columns ``cols``, or all) of the
        colour-flipping sector block ``Rt_sigma = Q_{sigma s_ell}^T R_ell
        Q_sigma`` of the Riesz transform, ``sigma = SECTORS[k]``, in colour
        class c, gathered anew on each call from the inverse root's blocks
        ``inverse`` of class c.  ``(-Delta)^{-1/2}`` keeps sector and colour
        and ``sum_rho Q_rho Q_rho^T = I``, so ``Rt_sigma = Xt_sigma
        St_sigma``: a row of ``Rt_sigma`` is a sum of at most four rows of
        ``St_sigma`` (``field_times``)."""
        return self.field_times(ell, k, c, rows, inverse[k], cols)

    def riesz_blocks(self, ell: int) -> tuple[tuple[np.ndarray, ...], ...]:
        """Every block ``Rt_sigma`` of ``riesz_block``, laid out as in
        ``read_blocks``; gathered anew on each call, never cached, one
        colour class of the inverse root at a time."""
        per_class = []
        for c, (rows, _) in enumerate(self.sectors().classes):
            inverse = self.inverse_root_blocks(c)
            every = np.arange(rows.size)
            per_class.append(
                [self.riesz_block(ell, k, c, inverse, every) for k in range(len(SECTORS))]
            )
            # dropped before the next class is read
            del inverse
        return tuple(zip(*per_class))

    def commutator_blocks(
        self,
        ell: int,
        components: Mapping[int, np.ndarray],
        c: int,
        inverse: tuple[np.ndarray, ...],
    ) -> Iterator[_Block]:
        """The blocks of ``[R_ell, M_f]`` in sector coordinates in colour
        class c, from the inverse root's blocks ``inverse`` of that class.

        ``components`` maps eps to the reflection component f_eps of f at the
        orbit representatives (``_reflection_components``).  The live sectors
        of an orbit share one norm, so ``M_{f_eps} Q_sigma = Q_{sigma eps}
        diag(f_eps)``: f_eps gives the block of rows rho = sigma eps s_ell
        and columns sigma, ``Rt_{sigma eps} f_eps[cols] - f_eps[rows]
        Rt_sigma``, on the rows live in rho and the columns live in sigma;
        one component's blocks of both classes hold N rows and N columns.
        The blocks come in the order (eps, sigma), each on its live rows
        and columns (``block_support``, ``commutator_terms``).
        """
        for eps, f_rep in components.items():
            for k in range(len(SECTORS)):
                rho, r, s = self.block_support(ell, eps, k, c)
                # the term f Rt_sigma is dropped here, not kept while the
                # caller holds the block
                block = self.commutator_terms(ell, eps, f_rep, k, c, inverse, r, s)[0]
                yield _Block(eps, rho, k, c, r, s, block)

    def block_support(
        self, ell: int, eps: int, k: int, c: int
    ) -> tuple[int, np.ndarray, np.ndarray]:
        """The row sector ``rho = sigma eps s_ell`` of the block of
        ``[R_ell, M_f]`` that a component of character eps gives in column
        sector ``sigma = SECTORS[k]`` and colour class c (see
        ``commutator_blocks``), and the positions r and s, in the class's
        row and column orbits, of its rows live in rho and its columns live
        in sigma."""
        orbits = self.sectors()
        rows, cols = orbits.classes[c]
        rho = k ^ eps ^ _FIELD_CHARACTER[ell]
        r = np.flatnonzero(orbits.live[rho, rows])
        s = np.flatnonzero(orbits.live[k, cols])
        return rho, r, s

    def commutator_terms(
        self,
        ell: int,
        eps: int,
        f_rep: np.ndarray,
        k: int,
        c: int,
        inverse: tuple[np.ndarray, ...],
        r: np.ndarray,
        s: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The block of ``[R_ell, M_f]`` that the component f_eps (at the
        orbit representatives) gives in column sector ``sigma = SECTORS[k]``
        and colour class c, on the rows r and columns s of
        ``block_support``, and its term ``f_eps[rows] Rt_sigma``: the block
        is ``Rt_{sigma eps} f_eps[cols]`` minus that term.  ``Rt_sigma`` is
        gathered once (``riesz_block``) for both, and ``Rt_{sigma eps}``
        once more when eps is not trivial.  Both terms scale the same
        entries, so a constant f gives exact zeros."""
        rows, cols = self.sectors().classes[c]
        shifted = k ^ eps
        riesz = self.riesz_block(ell, k, c, inverse, r, s)
        if shifted == k:
            block = riesz * f_rep[cols[s]]
        else:
            block = self.riesz_block(ell, shifted, c, inverse, r, s)
            block *= f_rep[cols[s]]
        riesz *= f_rep[rows[r], None]
        block -= riesz
        return block, riesz

    def commutator_spectrum(
        self, ell: int, f: GridFunction
    ) -> tuple[SingularSpectrum, Mapping]:
        """``commutator_spectra`` of the one function f."""
        return self.commutator_spectra(ell, {"f": f})["f"]

    def commutator_spectra(
        self, ell: int, functions: Mapping[str, GridFunction]
    ) -> dict[str, tuple[SingularSpectrum, Mapping]]:
        """Singular values of ``[R_ell, M_f]`` and their numerical health for
        each f of ``functions``, under its label, computed once per (ell, f)
        and kept read-only.

        ``commutator_blocks`` gives one block per reflection component eps
        of f, column sector sigma and colour class, with rows in rho =
        sigma eps s_ell.  So two column sectors share a row sector exactly
        when sigma sigma' = eps eps' for two components; in the Klein group
        of characters these products form a subgroup H, whose cosets cut
        each colour class into independent pieces of ``|H|`` sectors times
        the components, one SVD each: single blocks for f of exact parity,
        one piece per class for four components.  The loop runs over colour
        class outside and over the functions not yet kept inside, so one
        class of the inverse root's blocks is read per class
        (``inverse_root_blocks``) for the whole family.  A piece is joined
        and reduced to its singular values as soon as its last block is
        formed (``schatten._DirectSum``), so a single-block piece goes to
        its SVD as it comes and the blocks of a function are never held
        together.  The N x N matrix is never formed.  The health record
        names the character the spectrum was split by (``"+-"``) for one
        component or ``"full"``, the clamp count and the smallest kept
        value over the largest.
        """
        keys, pending = {}, {}
        for label, f in functions.items():
            if f.spec != self.spec:
                raise ValueError("function lives on a different grid")
            key = keys[label] = (ell, f.values.tobytes())
            if key not in self._spectra and key not in pending:
                values = f.flat[self.sectors().table]
                # the zero function has no component; one zero component
                # gives N zeros
                pending[key] = _reflection_components(values) or {0: values[0]}
        sums = {key: _DirectSum() for key in pending}
        for c in range(len(self.sectors().classes)) if pending else ():
            inverse = self.inverse_root_blocks(c)
            for key, components in pending.items():
                steps = {a ^ b for a in components for b in components}
                size = len(steps) * len(components)
                pieces: dict[int, dict[tuple[int, int], np.ndarray]] = {}
                for block in self.commutator_blocks(ell, components, c, inverse):
                    coset = min(block.sigma ^ h for h in steps)
                    piece = pieces.setdefault(coset, {})
                    piece[block.rho, block.sigma] = block.matrix
                    if len(piece) == size:
                        sums[key].add(_join(pieces.pop(coset)))
            # dropped before the next class is read
            del inverse
        for key, components in pending.items():
            spectrum = sums[key].spectrum()
            chi = [eps ^ _FIELD_CHARACTER[ell] for eps in components]
            kept = int(np.count_nonzero(spectrum.values))
            smallest = spectrum.values[kept - 1] / spectrum.values[0] if kept else 0.0
            health = {
                "sector": _character_label(chi[0]) if len(chi) == 1 else "full",
                "clamped": spectrum.clamped,
                "min_kept_ratio": float(smallest),
            }
            self._spectra[key] = (spectrum, types.MappingProxyType(health))
        return {label: self._spectra[key] for label, key in keys.items()}

    def vertical_quarter_root(self) -> np.ndarray:
        """The n x n fourth root of ``D_t^T D_t`` on one vertical line;
        ``D_t`` acts along t alone, so the grid operator is this root in
        the t-index."""
        block = _centered_difference(self.spec.count, self.spec.spacing)
        w, v = np.linalg.eigh(block.T @ block)
        return (v * np.clip(w, 0.0, None) ** 0.25) @ v.T


# the number of models ``_model`` holds and the sum of their estimates
_CacheInfo = namedtuple("_CacheInfo", "currsize bytes")


class _ModelCache:
    """The models of the grids last used, bounded in bytes: their
    ``_peak_bytes`` estimates sum to at most ``_BYTE_BUDGET``.

    Calling it with a spec returns that grid's model, built on first use.
    Before a model is built, the least recently used ones are dropped until
    the new estimate fits beside the rest; a grid over the budget on its
    own raises from ``_GridModel`` and drops none.
    """

    def __init__(self):
        # least recently used first
        self._models: dict[GridSpec, _GridModel] = {}

    def __call__(self, spec: GridSpec) -> _GridModel:
        model = self._models.pop(spec, None)
        if model is None:
            estimate = _peak_bytes(spec.count)
            if estimate <= _BYTE_BUDGET:
                while estimate + self.cache_info().bytes > _BYTE_BUDGET:
                    del self._models[next(iter(self._models))]
            model = _GridModel(spec)
        self._models[spec] = model
        return model

    def cache_clear(self) -> None:
        self._models.clear()

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(
            len(self._models), sum(_peak_bytes(spec.count) for spec in self._models)
        )


_model = _ModelCache()


# ---------------------------------------------------------------------------
# spectra and checks


def sublaplacian_spectrum(spec: GridSpec) -> np.ndarray:
    """All N eigenvalues, ascending: the union of the t-block spectra."""
    model = _model(spec)
    w = np.concatenate([half[0] for half in model.parity_eig()], axis=1)
    return np.sort(np.repeat(w, model.weight, axis=0), axis=None)


def sobolev_seminorm(f: GridFunction, p: float = 4.0) -> float:
    """Sum over horizontal directions of the grid ``L_p`` norm of the derivative."""
    if p < 1.0:
        raise ValueError("exponent must be >= 1")
    model = _model(f.spec)
    total = 0.0
    for ell in (1, 2):
        df = model.apply_field(ell, f.flat)
        total += float(
            (np.sum(np.abs(df) ** p) * f.spec.cell_volume) ** (1.0 / p)
        )
    return total


@dataclass(frozen=True)
class RotationReport:
    target: str
    full_residual: float


def quarter_rotation(spec: GridSpec, k: int = 1) -> tuple[np.ndarray, RotationReport]:
    """Quarter-turn permutation ``(x, y) -> (-y, x)`` and its conjugation report.

    The permutation U is returned as the index array ``source`` with
    ``U f = f[source]``, so ``U^T X U`` holds ``X[p, q]`` at
    ``(source[p], source[q])``.  Conjugation sends the first horizontal
    field to the second and the second to minus the first; the report
    records the residual over the nonzeros of both sides.
    """
    if k not in (1, 2):
        raise ValueError("field index must be 1 or 2")
    index = np.arange(spec.size).reshape(spec.shape)
    ix, iy, it = np.indices(spec.shape)
    # (U f)[ix, iy, it] = f[n-1-iy, ix, it]
    source = index[spec.count - 1 - iy, ix, it].reshape(-1)
    field, target, sign, name = (
        (1, 2, 1.0, "second_field") if k == 1 else (2, 1, -1.0, "minus_first_field")
    )
    model = _model(spec)
    every = np.arange(spec.size)
    rows, cols, conjugated = model.field_nonzeros(field, every)
    target_rows, target_cols, expected = model.field_nonzeros(target, every)
    keys = np.concatenate(
        [source[rows] * spec.size + source[cols], target_rows * spec.size + target_cols]
    )
    _, position = np.unique(keys, return_inverse=True)
    gap = np.bincount(position, weights=np.concatenate([conjugated, -sign * expected]))
    return source, RotationReport(name, float(np.linalg.norm(gap)))


@dataclass(frozen=True)
class RieszSplitReport:
    relative_residual: float
    lhs_norm: float
    leibniz_defect: float
    kernel_dimension: int
    # the reflection characters eps (as "+-") of the nonzero components f_eps
    components: tuple[str, ...]


def _reflection_components(at_orbits: np.ndarray) -> dict[int, np.ndarray]:
    """The nonzero reflection components of f at the orbit representatives.

    ``at_orbits`` holds f at ``table`` (4 x n_orb).  Component
    ``f_eps = (f + e1 f o P1 + e2 f o P2 + e1 e2 f o P1 P2) / 4`` has
    character eps; the key is the position of eps in ``SECTORS``.  The sum
    is taken in pairs, so an exactly even or odd f gives one component
    exactly equal to f and three exactly 0, which are left out.  So is a
    component no larger than the rounding of the sums, ``4 eps max|f|``:
    ``(1 + x) + y`` and ``(1 + x) - y`` round differently, which leaves such
    a remainder where f has none.
    """
    rounding = 4.0 * np.finfo(float).eps * np.max(np.abs(at_orbits), initial=0.0)
    out = {}
    for k, (e1, e2) in enumerate(SECTORS):
        part = at_orbits[0] + e1 * at_orbits[1]
        part += e2 * (at_orbits[2] + e1 * at_orbits[3])
        part /= 4.0
        if np.max(np.abs(part), initial=0.0) > rounding:
            out[k] = part
    return out


def _project_off(mat: np.ndarray, basis: np.ndarray, side: int, out: np.ndarray) -> None:
    """Take from ``mat``, in place, its part on the orthonormal columns of
    ``basis``: on its rows for side 0, on its columns for side 1; ``out``
    is a buffer of ``mat``'s shape."""
    if side == 0:
        mat -= np.matmul(basis, basis.T @ mat, out=out)
    else:
        mat -= np.matmul(mat @ basis, basis.T, out=out)


def riesz_decomposition_residual(
    spec: GridSpec, functions: Mapping[str, GridFunction], ell: int = 1
) -> dict[str, RieszSplitReport]:
    """Residual of the two-term split of ``[R, M_f]`` on the kernel complement.

    Compares ``[R, M_f]`` against
    ``[X, M_f] (-Delta)^{-1/2} - R [(-Delta)^{1/2}, M_f] (-Delta)^{-1/2}``,
    all factors projected off the numerical kernel, for every function of
    ``functions``.  The derivative term is kept in commutator form; the gap
    between ``[X, M_f]`` and multiplication by the discrete derivative (the
    Leibniz defect of centered differences) is reported separately,
    normalized by the derivative's own size.

    Everything is computed in sector coordinates, laid out as
    ``_GridModel.read_blocks`` lays them out.  For f of character eps every
    term maps (sigma, c) into (sigma eps s_ell, 1 - c), as ``[R, M_f]`` does
    (``_GridModel.commutator_blocks``), and the kernel projector, which
    commutes with both reflections and with colour, acts on each block by
    its own sector coordinates.  The reflection components of f land on
    disjoint blocks, and the Frobenius norms are the roots of the sums of
    squared block norms, summed in the order (eps, sigma, colour class).

    The loop runs over colour class and sector outside and over the
    functions and their components inside.  Each class reads its four
    blocks of the inverse root once (``_GridModel.inverse_root_blocks``)
    and hands them to every block it forms, so one class of them is alive
    at a time.  The blocks of ``(-Delta)^{1/2}`` are formed from them and
    the stencil rows (``_GridModel.root_block``), never as a set: each is
    formed once per call and dropped after the last sector that reads it.
    A block of character eps at sector sigma reads the root blocks of sigma
    and of sigma eps, so sigma itself is always formed; for functions whose
    only component is ``++`` one root block is alive at a time.  The terms
    with ``X_ell`` on the left are row gathers of the stencil rows
    (``_GridModel.field_times``), for each block alone; the products and
    the kernel projections of a block are written into two buffers,
    allocated once per class.  A block's lhs and its term ``f Rt_sigma``
    come from one gather of ``Rt_sigma`` (``_GridModel.commutator_terms``),
    made after the products.  A block is projected off the closed-form
    kernel (``_GridModel.kernel``) only on a side where the mode has a
    coordinate on the orbits of its row sector (on the left) or of its
    column sector (on the right): elsewhere the projection is exact zeros,
    so leaving it out keeps the bits.  No N x N array is formed.
    """
    if any(f.spec != spec for f in functions.values()):
        raise ValueError("function lives on a different grid")
    model = _model(spec)
    orbits = model.sectors()
    kernel = model.kernel()
    # Q^T K: the kernel's coordinates in each sector, orbit by orbit
    kernel_coords = np.einsum("sg,gok->sok", _SIGNS, kernel[orbits.table])
    kernel_coords *= orbits.inverse[:, :, None]
    parts = {
        label: _reflection_components(f.flat[orbits.table])
        for label, f in functions.items()
    }
    # a block of character eps at sector k reads the root blocks of k and of
    # k ^ eps, so sector k itself is a step even if no component is trivial
    steps = sorted({0} | {eps for components in parts.values() for eps in components})

    def block_norms(
        eps: int,
        f_rep: np.ndarray,
        k: int,
        c: int,
        roots: Mapping[int, np.ndarray],
        inverse: tuple[np.ndarray, ...],
        buffers: np.ndarray,
    ):
        """The Frobenius norms off the kernel of the lhs and the gap of the
        block that the component f_eps gives at sector k in class c."""
        rho, r, s = model.block_support(ell, eps, k, c)
        shifted = k ^ eps
        rows, cols = orbits.classes[c]
        f_cols = f_rep[cols]
        square = (cols.size, cols.size)
        comm, product = (buffer[: cols.size**2].reshape(square) for buffer in buffers)
        # gap = lhs - [X, M_f] A^{-1/2} + R [A^{1/2}, M_f] A^{-1/2}
        # with A = -Delta, on the live rows and columns of lhs:
        # X_{sigma eps} (S^-_{sigma eps} C S^-_sigma - f S^-_sigma)
        # + f R_sigma + lhs with C = S_{sigma eps} f - f S_sigma from the
        # root blocks, the field and Riesz rows gathered for this block
        # alone
        np.multiply(roots[shifted], f_cols, out=comm)
        comm -= np.multiply(f_cols[:, None], roots[k], out=product)
        np.matmul(comm, inverse[k], out=product)
        # written over comm, which the first product has read
        right = np.matmul(inverse[shifted], product, out=comm)
        right -= np.multiply(f_cols[:, None], inverse[k], out=product)
        gap = model.field_times(ell, shifted, c, r, right, s)
        # formed after the products, so lhs is not alive across them
        lhs, scaled = model.commutator_terms(ell, eps, f_rep, k, c, inverse, r, s)
        gap += scaled
        gap += lhs
        projection = buffers[1, : r.size * s.size].reshape(r.size, s.size)
        for side, basis in enumerate((kernel_coords[rho, rows[r]], kernel_coords[k, cols[s]])):
            if np.any(basis):
                for mat in (lhs, gap):
                    _project_off(mat, basis, side, projection)
        return np.linalg.norm(lhs), np.linalg.norm(gap)

    # per function, the norms of each block keyed (eps, sigma, c)
    by_block: dict[str, dict[tuple[int, int, int], tuple]] = {label: {} for label in parts}
    for c, (rows, cols) in enumerate(orbits.classes):
        inverse = model.inverse_root_blocks(c)
        buffers = np.empty((2, max(rows.size, cols.size) * cols.size))
        # the root blocks of class c in use, keyed by sector
        roots: dict[int, np.ndarray] = {}
        for k in range(len(SECTORS)):
            for j in (k ^ eps for eps in steps):
                if j not in roots:
                    roots[j] = model.root_block(j, c, inverse)
            for label, components in parts.items():
                for eps, f_rep in components.items():
                    by_block[label][eps, k, c] = block_norms(
                        eps, f_rep, k, c, roots, inverse, buffers
                    )
            roots = {j: root for j, root in roots.items() if any(j ^ e > k for e in steps)}
        # dropped before the next class is read
        del inverse, buffers

    def report(label: str) -> RieszSplitReport:
        blocks = [by_block[label][key] for key in sorted(by_block[label])]
        lhs_norm = float(np.linalg.norm([lhs for lhs, _ in blocks]))
        absolute = float(np.linalg.norm([gap for _, gap in blocks]))
        return RieszSplitReport(
            relative_residual=absolute / max(lhs_norm, 1e-30),
            lhs_norm=lhs_norm,
            leibniz_defect=model.leibniz_defect(ell, functions[label].flat),
            kernel_dimension=kernel.shape[1],
            components=tuple(map(_character_label, parts[label])),
        )

    return {label: report(label) for label in functions}
