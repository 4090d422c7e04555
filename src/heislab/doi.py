"""Finite-dimensional double operator integrals.

A double operator integral (DOI) acts on a matrix ``A`` through a scalar
symbol ``phi`` evaluated on pairs of eigenvalues: in the eigenbases of the
flanking self-adjoint operators the transform is the Schur (entrywise)
multiplier ``phi(lam_i, mu_j)``.  This module supplies the spectral
bookkeeping, a small library of named symbols, the quarter-power averaging
operator ``a_k`` on a truncated oscillator basis, and a resolvent-product
quadrature whose large-cutoff limit reproduces ``(pi/2)`` times the
geometric-mean symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .oscillator import (
    FiberOperator,
    MultiIndexBasis,
    momentum_matrix,
    oscillator_matrix,
    position_matrix,
    tensor_scalar,
)

__all__ = [
    "SingularSymbolError",
    "SpectralDecomposition",
    "Symbol",
    "make_symbol",
    "doi_apply",
    "build_a_fiber",
    "resolvent_quadrature_A",
    "phi_n_symbol",
]

# Tolerances for validating decompositions; relative to the matrix scale.
_HERMITIAN_RTOL = 1e-10
_RECONSTRUCT_RTOL = 1e-10

# Below this gap a divided difference switches to the midpoint derivative.
_DIVIDED_DIFF_GAP = 1e-8


class SingularSymbolError(ValueError):
    """A symbol evaluated to a non-finite value at an occurring eigenvalue pair."""


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (nondecreasing) and a unitary matrix of eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        vec = np.asarray(self.eigenvectors, dtype=complex)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("eigenvalues must form a nonempty 1-d sequence")
        if vec.shape != (lam.size, lam.size):
            raise ValueError("eigenvector matrix shape does not match the spectrum")
        if np.any(np.diff(lam) < 0.0):
            raise ValueError("eigenvalues must be sorted nondecreasing")
        gram = vec.conj().T @ vec
        if not np.allclose(gram, np.eye(lam.size), atol=1e-10):
            raise ValueError("eigenvector columns are not orthonormal")
        lam.flags.writeable = False
        vec.flags.writeable = False
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", vec)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @classmethod
    def from_matrix(cls, mat: np.ndarray) -> "SpectralDecomposition":
        """Diagonalize a self-adjoint matrix, validating the reconstruction."""
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("expected a square matrix")
        scale = max(np.linalg.norm(mat), 1.0)
        if np.linalg.norm(mat - mat.conj().T) > _HERMITIAN_RTOL * scale:
            raise ValueError("matrix is not self-adjoint")
        lam, vec = np.linalg.eigh(mat)
        dec = cls(lam, vec)
        if np.linalg.norm(dec.matrix() - mat) > _RECONSTRUCT_RTOL * scale:
            raise ValueError("spectral reconstruction failed validation")
        return dec

    @classmethod
    def from_diagonal(cls, values: Sequence[float]) -> "SpectralDecomposition":
        """Decomposition of ``diag(values)`` with exact permutation eigenvectors."""
        vals = np.asarray(values, dtype=float)
        order = np.argsort(vals, kind="stable")
        vec = np.zeros((vals.size, vals.size))
        vec[order, np.arange(vals.size)] = 1.0
        return cls(vals[order], vec)

    def matrix(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T


@dataclass(frozen=True)
class Symbol:
    """A named two-variable scalar symbol with an array-aware evaluator."""

    name: str
    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(compare=False)

    def table(self, lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
        """Evaluate on the grid ``(lam_i, mu_j)``, rejecting non-finite values."""
        grid_l = np.asarray(lam, dtype=float)[:, None]
        grid_m = np.asarray(mu, dtype=float)[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.asarray(self.evaluator(grid_l, grid_m), dtype=complex)
        out = np.broadcast_to(out, (grid_l.size, grid_m.size))
        bad = ~np.isfinite(out)
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            raise SingularSymbolError(
                f"symbol {self.name!r} is singular at eigenvalue pair "
                f"({grid_l[i, 0]!r}, {grid_m[0, j]!r})"
            )
        return np.ascontiguousarray(out)


def _arctan_profile(x):
    # F(x) = x * arctan(x); its divided difference drives the cutoff symbol.
    return x * np.arctan(x)


def _arctan_profile_derivative(x):
    return np.arctan(x) + x / (1.0 + x * x)


def _divided_difference(x, y):
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    close = np.abs(x - y) < _DIVIDED_DIFF_GAP
    mid = 0.5 * (x + y)
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = (_arctan_profile(x) - _arctan_profile(y)) / (x - y)
    return np.where(close, _arctan_profile_derivative(mid), quotient)


def _psi(lam, mu):
    return 2.0 * lam**0.25 * mu**0.25 / (np.sqrt(lam) + np.sqrt(mu))


def _frac_lambda(lam, mu):
    return lam / (lam + mu)


def _min_over_sum(lam, mu):
    return np.minimum(lam, mu) / (lam + mu)


def phi_n_symbol(alpha0, alpha1, m: float):
    """Partial resolvent integral in closed form.

    Equals ``psi(alpha0, alpha1) * (pi/2 - G(sqrt(alpha0)/m, sqrt(alpha1)/m))``
    where ``G`` is the divided difference of ``x*arctan(x)``; tends to
    ``(pi/2)*psi`` as the cutoff ``m`` grows.
    """
    alpha0 = np.asarray(alpha0, dtype=float)
    alpha1 = np.asarray(alpha1, dtype=float)
    if np.any(alpha0 <= 0.0) or np.any(alpha1 <= 0.0):
        raise ValueError("spectral arguments must be positive")
    if m < 1.0:
        raise ValueError("cutoff must be >= 1")
    gap = _divided_difference(np.sqrt(alpha0) / m, np.sqrt(alpha1) / m)
    out = _psi(alpha0, alpha1) * (0.5 * math.pi - gap)
    return out if out.ndim else float(out)


_LIBRARY: dict[str, Callable] = {
    "frac_lambda": _frac_lambda,
    "min_over_sum": _min_over_sum,
    "psi": _psi,
}


def make_symbol(spec) -> Symbol:
    """Resolve a symbol from a library name or a callable.

    Callables are assumed scalar and are vectorized; pass a Symbol through
    unchanged.
    """
    if isinstance(spec, Symbol):
        return spec
    if callable(spec):
        name = getattr(spec, "__name__", "custom")
        return Symbol(name, np.vectorize(spec, otypes=[complex]))
    if not isinstance(spec, str):
        raise TypeError(f"cannot build a symbol from {type(spec).__name__}")
    if spec in _LIBRARY:
        return Symbol(spec, _LIBRARY[spec])
    raise ValueError(f"unknown symbol {spec!r}; expected one of {sorted(_LIBRARY)}")


def doi_apply(
    d0: SpectralDecomposition,
    d1: SpectralDecomposition,
    symbol,
    a: np.ndarray,
) -> np.ndarray:
    """Apply the double operator integral with the given symbol to ``a``.

    ``a`` maps the ``d1`` space into the ``d0`` space; in the eigenbases the
    coefficient matrix is multiplied entrywise by ``symbol(lam_i, mu_j)``.
    """
    symbol = make_symbol(symbol)
    a = np.asarray(a, dtype=complex)
    if a.shape != (d0.dim, d1.dim):
        raise ValueError(f"matrix shape {a.shape} incompatible with ({d0.dim}, {d1.dim})")
    table = symbol.table(d0.eigenvalues, d1.eigenvalues)
    coeff = d0.eigenvectors.conj().T @ a @ d1.eigenvectors
    return d0.eigenvectors @ (table * coeff) @ d1.eigenvectors.conj().T


def build_a_fiber(basis: MultiIndexBasis, k: int) -> FiberOperator:
    """Averaged momentum (or position) component on the truncated oscillator basis.

    Applies the geometric-mean symbol to ``i H^{-1/4} p_k H^{-1/4}`` (momentum
    for ``k <= n``, position tensored against the sign character for
    ``k = j + n``).
    """
    if not 1 <= k <= 2 * basis.n:
        raise ValueError(f"component {k} outside 1..{2 * basis.n}")
    if k <= basis.n:
        ladder = momentum_matrix(basis, k)
        component = "one"
    else:
        ladder = position_matrix(basis, k - basis.n)
        component = "z"
    energies = np.diag(oscillator_matrix(basis))
    quarter = energies**-0.25
    core = 1j * (quarter[:, None] * ladder * quarter[None, :])
    dec = SpectralDecomposition(energies, np.eye(basis.dim))
    return tensor_scalar(basis, doi_apply(dec, dec, "psi", core), component)


def _panel_edges(lam_max: float) -> list[float]:
    # Geometric doubling keeps the node density high where the integrand peaks.
    edges = [0.0]
    step = 1.0
    while step < lam_max:
        edges.append(step)
        step *= 2.0
    edges.append(lam_max)
    return edges


def resolvent_quadrature_A(
    V: np.ndarray,
    A: SpectralDecomposition,
    lam_max: float,
    nodes: int = 24,
) -> np.ndarray:
    """Integrate ``lam A^{1/4}/(lam^2+A) . V . lam A^{1/4}/(lam^2+A)`` over ``[-lam_max, lam_max]``.

    Composite Gauss-Legendre with ``nodes`` points per dyadic panel; the
    integrand is even in ``lam`` so only the positive half is sampled.  As
    ``lam_max`` grows the result approaches ``(pi/2)`` times the
    geometric-mean Schur multiplier of ``V``.
    """
    if nodes < 16:
        raise ValueError("need at least 16 quadrature nodes per panel")
    if lam_max <= 0.0:
        raise ValueError("integration cutoff must be positive")
    if np.min(A.eigenvalues) < 1.0 - 1e-12:
        raise ValueError("spectrum must lie in [1, inf)")
    V = np.asarray(V, dtype=complex)
    if V.shape != (A.dim, A.dim):
        raise ValueError(f"matrix shape {V.shape} incompatible with dimension {A.dim}")

    base_x, base_w = np.polynomial.legendre.leggauss(nodes)
    edges = _panel_edges(lam_max)
    points, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        points.append(half * (base_x + 1.0) + lo)
        weights.append(half * base_w)
    lam = np.concatenate(points)
    w = np.concatenate(weights)

    a = A.eigenvalues
    # d[i, q] = lam_q * a_i^{1/4} / (lam_q^2 + a_i); the kernel is its weighted Gram.
    d = lam[None, :] * a[:, None] ** 0.25 / (lam[None, :] ** 2 + a[:, None])
    kernel = 2.0 * (d * w[None, :]) @ d.T
    coeff = A.eigenvectors.conj().T @ V @ A.eigenvectors
    return A.eigenvectors @ (kernel * coeff) @ A.eigenvectors.conj().T
