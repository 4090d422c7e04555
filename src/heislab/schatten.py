"""Singular value analytics.

Everything in this module works on the plain nonincreasing sequence
``mu(0) >= mu(1) >= ...`` of singular values of a finite matrix: weak
quasinorms, log-log decay fits, and a logarithmic-mean approximant of a
normalised trace.

A finite matrix only ever carries finitely many singular values, so the
supremum in the weak quasinorm is a maximum over the available indices and is
a lower approximant of the quantity it models.  Callers that need a sharp
statement pair the value with a refinement sweep instead of trusting a single
number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CLAMP_RATIO",
    "SingularSpectrum",
    "WeakFit",
    "singular_values",
    "weak_quasinorm",
    "dixmier_approximant",
    "shadow_fit_range",
    "fit_weak_decay",
]

# Singular values below CLAMP_RATIO * mu(0) are rounding noise of the dense
# solver; they are clamped to zero so log-log slope fits do not chase them.
CLAMP_RATIO = 1e-13


@dataclass(frozen=True)
class SingularSpectrum:
    """Nonincreasing sequence of nonnegative singular values.

    The length always equals ``min(rows, cols)`` of the originating matrix;
    zeros are kept, not trimmed, so the dimension stays visible.  ``clamped``
    counts the values that ``singular_values`` set to zero.
    """

    values: np.ndarray
    clamped: int = 0

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("a singular spectrum is a nonempty 1-d sequence")
        if not np.all(np.isfinite(vals)):
            raise ValueError("singular values must be finite")
        if vals[-1] < 0.0:
            raise ValueError("singular values must be nonnegative")
        if np.any(np.diff(vals) > 0.0):
            raise ValueError("singular values must be nonincreasing")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class WeakFit:
    """The fitted log-log decay exponent and the window it was fitted on.

    ``slope`` is the least squares slope of ``log mu(k)`` against
    ``log (k+1)`` on the window, and ``fit_range`` the half-open index
    interval that was used.
    """

    slope: float
    fit_range: tuple[int, int]


def singular_values(a, *blocks) -> SingularSpectrum:
    """Singular values of a finite rectangular complex matrix, or of the
    block-diagonal direct sum of ``a`` and ``blocks``.

    Returns all ``min(rows, cols)`` values of the (summed) matrix sorted
    nonincreasing; a sum is padded with exact zeros up to that length.
    Values below ``CLAMP_RATIO`` times the largest one are clamped to zero.
    """
    total = _DirectSum()
    for block in (a, *blocks):
        total.add(block)
    return total.spectrum()


class _DirectSum:
    """``singular_values`` of a direct sum whose blocks come one at a time:
    each block is checked and reduced to its singular values when it is
    added, so the blocks need never be held together."""

    def __init__(self):
        self.parts: list[np.ndarray] = []
        self.rows = self.cols = 0

    def add(self, block) -> None:
        m = np.asarray(block)
        if m.ndim != 2:
            raise ValueError("expected 2-d matrices")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        self.rows, self.cols = self.rows + m.shape[0], self.cols + m.shape[1]
        if m.size:
            self.parts.append(np.linalg.svd(m, compute_uv=False))

    def spectrum(self) -> SingularSpectrum:
        """The values added so far, sorted, padded and clamped."""
        length = min(self.rows, self.cols)
        if length == 0:
            raise ValueError("expected a nonempty 2-d matrix")
        vals = np.zeros(length)
        found = np.sort(np.concatenate([np.zeros(0), *self.parts]))[::-1]
        vals[: found.size] = found
        clamped = 0
        if vals[0] > 0.0:
            noise = vals < CLAMP_RATIO * vals[0]
            clamped = int(np.count_nonzero(noise & (vals > 0.0)))
            vals = np.where(noise, 0.0, vals)
        return SingularSpectrum(vals, clamped)


def weak_quasinorm(spectrum: SingularSpectrum, p: float) -> float:
    """max of (k+1)**(1/p) * mu(k) over the available indices.

    Truncation makes this a lower approximant of the weak quasinorm of the
    operator the spectrum came from.
    """
    if p <= 0.0:
        raise ValueError("weak quasinorm exponent must be positive")
    mu = spectrum.values
    k = np.arange(1.0, mu.size + 1.0)
    return float(np.max(k ** (1.0 / p) * mu))


def dixmier_approximant(spectrum: SingularSpectrum, n_terms: int) -> float:
    """Partial-sum-over-log approximant for a normalised trace.

    Returns ``sum(mu(k), k < n_terms) / log(n_terms + 2)``.  On the harmonic
    sequence ``mu(k) = 1/(k+1)`` this tends to 1 as the window grows, which is
    the normalisation every calibration test anchors to.  Convergence is
    logarithmically slow, so callers report the window with the value.
    """
    if n_terms < 1:
        raise ValueError("approximant window must contain at least one term")
    if n_terms > len(spectrum):
        raise ValueError("approximant window exceeds the spectrum length")
    partial = float(np.sum(spectrum.values[:n_terms]))
    return partial / math.log(n_terms + 2.0)


def shadow_fit_range(spectrum: SingularSpectrum, p: float) -> tuple[int, int]:
    """The decade centred on the index attaining the weak quasinorm.

    A finite spectrum only carries the weak-l_p decay law near the peak of
    the compensated profile ``(k+1)^{1/p} mu(k)``; outside that decade the
    head is flat and the far tail collapses at the resolution floor.  The
    window is the geometric decade around the attaining index, clipped to
    the positive part and padded to at least five points.
    """
    if p <= 0.0:
        raise ValueError("weak quasinorm exponent must be positive")
    m = int(np.count_nonzero(spectrum.values))
    if m < 2:
        raise ValueError("cannot place a fit window on a spectrum of rank < 2")
    ranks = np.arange(1.0, m + 1.0)
    compensated = ranks ** (1.0 / p) * spectrum.values[:m]
    attained = int(ranks[int(np.argmax(compensated))])
    half = math.sqrt(10.0)
    lo = max(1, int(round(attained / half)))
    hi = min(m, max(lo + 5, int(round(attained * half))))
    return (lo - 1, hi)


def fit_weak_decay(spectrum: SingularSpectrum, fit_range: tuple[int, int]) -> WeakFit:
    """Least squares decay fit of ``log mu`` against ``log (k+1)`` on ``fit_range``.

    Zero values inside the window (possible after clamping) are excluded from
    the regression.
    """
    lo, hi = fit_range
    if not 0 <= lo < hi <= len(spectrum):
        raise ValueError(f"fit range {(lo, hi)} outside spectrum of length {len(spectrum)}")
    mu = spectrum.values[lo:hi]
    k = np.arange(lo + 1.0, hi + 1.0)
    positive = mu > 0.0
    if np.count_nonzero(positive) < 2:
        raise ValueError("fit window contains fewer than two positive values")
    slope = float(np.polyfit(np.log(k[positive]), np.log(mu[positive]), 1)[0])
    return WeakFit(slope=slope, fit_range=(lo, hi))
