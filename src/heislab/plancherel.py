"""Node quadrature and radial trace integrals for the Plancherel measure.

The measure ``|s|^n ds`` over the signed spectral parameter ``s`` is
sampled by mirrored node rules.  Radial profiles of the sub-Laplacian reduce
to one-dimensional integrals, which gives closed forms for distribution
functions and weak-Schatten quasinorms that the experiment layer checks
against brute-force quadrature.  Every rule here is numpy Gauss-Legendre:
the radial integrals bisect panels of the half-line mapped onto (0, 1], the
brute distribution puts one panel on each side of its jump, and the incursion
distribution is inverted in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .oscillator import FiberOperator, pooled_schatten_powers

__all__ = [
    "NonIntegrableError",
    "PlancherelQuadrature",
    "tau_radial",
    "weak_norm_lift",
    "weak_distribution_brute",
    "incursion_distribution",
    "incursion_profile",
    "IncursionReport",
]


# panel budget of tau_radial (QUADPACK's limit=200), the narrowest panel it
# makes, and the summed error estimate, relative to the total, at which it
# stops bisecting
MAX_PANELS = 200
MIN_PANEL_WIDTH = 1e-13
ROUNDING_LEVEL = 1e-13


class NonIntegrableError(ValueError):
    """The requested profile has no finite integral against the measure."""


@dataclass(frozen=True)
class PlancherelQuadrature:
    """Signed nodes and weights for the measure ``|s|^n ds``.

    Nodes come in mirror pairs and never sit at the origin; the weight at a
    node already includes the ``|s|^n`` density factor.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.size == 0 or weights.shape != nodes.shape:
            raise ValueError("nodes and weights must be matching 1-d arrays")
        if np.any(nodes == 0.0):
            raise ValueError("no quadrature node may sit at s = 0")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
            raise ValueError("weights must be finite and nonnegative")
        if not np.array_equal(np.sort(nodes), np.sort(-nodes)):
            raise ValueError("nodes must be symmetric under s -> -s")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return self.nodes.size

    @classmethod
    def geometric(
        cls,
        n: int,
        s_min: float = 1e-4,
        s_max: float = 1e2,
        nodes_per_decade: int = 24,
    ) -> "PlancherelQuadrature":
        """Gauss-Legendre panels aligned to decades of ``|s|``, mirrored in sign.

        Decade-aligned panel edges make profiles with jumps at powers of ten
        (in particular the unit cutoff) integrate exactly.
        """
        if not 0.0 < s_min < s_max:
            raise ValueError("need 0 < s_min < s_max")
        if nodes_per_decade < 2:
            raise ValueError("need at least 2 nodes per decade")
        lo, hi = math.log10(s_min), math.log10(s_max)
        log_edges = [lo]
        log_edges += [float(j) for j in range(math.floor(lo) + 1, math.ceil(hi)) if lo < j < hi]
        log_edges.append(hi)
        edges = np.power(10.0, log_edges)
        base_x, base_w = np.polynomial.legendre.leggauss(nodes_per_decade)
        pts, wts = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            half = 0.5 * (b - a)
            pts.append(half * (base_x + 1.0) + a)
            wts.append(half * base_w)
        s = np.concatenate(pts)
        dw = np.concatenate(wts)
        weights_half = s**n * dw
        nodes = np.concatenate([-s[::-1], s])
        weights = np.concatenate([weights_half[::-1], weights_half])
        return cls(nodes, weights)

    def integrate_profile(self, m: Callable[[float], float]) -> float:
        """Node sum of ``m`` against the measure, both signs included."""
        vals = np.array([m(float(s)) for s in self.nodes], dtype=float)
        return float(np.dot(self.weights, vals))


def tau_radial(g: Callable[[float], float], n: int) -> float:
    """Adaptive quadrature of ``integral_0^inf g(s) s^n ds``.

    The half-line is mapped onto (0, 1] by ``s = (1 - u)/u``, the map of
    QUADPACK's infinite-range rule.  Each panel is integrated by the 10- and
    21-point Gauss-Legendre rules, whose difference estimates its error, and
    the panel with the largest estimate is bisected until the estimates sum
    to rounding level, the panel count reaches 200 or that panel is too
    narrow to split.  The 21-point values are returned if the estimates sum
    to at most ``max(1e-7, 1e-7 |total|)``; otherwise, or when g is not
    finite at a node, the profile is not integrable.
    """
    if n < 0:
        raise ValueError("dimension must be nonnegative")

    def integrand(u: float) -> float:
        s = (1.0 - u) / u
        try:
            return float(g(s)) * s**n / (u * u)
        except (ZeroDivisionError, OverflowError):
            return math.inf

    rules = [np.polynomial.legendre.leggauss(k) for k in (10, 21)]

    def panel(a: float, b: float) -> tuple[float, float]:
        half = 0.5 * (b - a)
        coarse, fine = (
            half * np.dot(w, [integrand(a + half * (x + 1.0)) for x in nodes])
            for nodes, w in rules
        )
        if not (math.isfinite(coarse) and math.isfinite(fine)):
            raise NonIntegrableError("profile is not finite against s^n")
        return fine, abs(fine - coarse)

    # (a, b) -> (21-point value, error estimate)
    panels = {(0.0, 1.0): panel(0.0, 1.0)}
    while True:
        total = math.fsum(value for value, _ in panels.values())
        total_err = sum(err for _, err in panels.values())
        a, b = max(panels, key=lambda edges: panels[edges][1])
        if (
            total_err <= ROUNDING_LEVEL * abs(total)
            or len(panels) == MAX_PANELS
            or b - a < 2.0 * MIN_PANEL_WIDTH
        ):
            break
        del panels[a, b]
        mid = 0.5 * (a + b)
        panels[a, mid] = panel(a, mid)
        panels[mid, b] = panel(mid, b)
    if total_err > max(1e-7, 1e-7 * abs(total)):
        raise NonIntegrableError("profile failed to integrate against s^n")
    return total


def weak_norm_lift(x: FiberOperator, n: int) -> tuple[float, Callable[[float], float]]:
    """Weak-Schatten quasinorm of ``|x| (x) |s|^{-1/2}`` and its distribution function.

    Each singular value sigma of a block contributes
    ``sigma^{2n+2} t^{-(2n+2)} / (n+1)`` to the distribution (one
    half-line per block), so the level sets are exact power laws and the
    quasinorm is ``(1/(n+1))^{1/(2n+2)}`` times the pooled Schatten norm
    of order ``2n+2``, whose power ``pooled_schatten_powers`` reads as a
    trace, without singular values.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    power = 2 * n + 2
    mass = float(pooled_schatten_powers(np.ones((1, 1)), [x], power)[0]) / (n + 1)

    def distribution(t: float) -> float:
        if t <= 0.0:
            raise ValueError("level must be positive")
        return mass * t**-power

    return mass ** (1.0 / power), distribution


def weak_distribution_brute(x: FiberOperator, n: int, t: float) -> float:
    """Distribution function of the lifted operator by direct quadrature.

    Integrates the indicator of ``sigma |s|^{-1/2} > t`` against the measure
    for every singular value of the two blocks, taken by its own SVD, without
    using the closed form or its trace kernel: one
    Gauss-Legendre panel on each side of the jump at ``cut = (sigma/t)^2``,
    ``[0, cut]`` and ``[cut, 2 cut]``, with n + 1 nodes, exact for the
    density ``s^n`` where the indicator is one.
    """
    if t <= 0.0:
        raise ValueError("level must be positive")
    sigma = np.concatenate(
        [np.linalg.svd(x.minus, compute_uv=False), np.linalg.svd(x.plus, compute_uv=False)]
    )
    cut = (sigma / t) ** 2
    nodes, weights = np.polynomial.legendre.leggauss(n + 1)
    half = cut / 2.0
    total = 0.0
    for lo in (np.zeros_like(cut), cut):
        s = lo[:, None] + np.outer(half, nodes + 1.0)
        indicator = np.where(s < cut[:, None], s**n, 0.0)
        total += float(np.dot(half, indicator @ weights))
    return total


def incursion_distribution(n: int, s) -> np.ndarray:
    """Closed-form distribution function of ``1 - (-Delta)^{1/4} (1-Delta)^{-1/4}``.

    Valid for levels in (0, 1); decreasing from infinity to zero.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0) or np.any(s >= 1.0):
        raise ValueError("levels must lie strictly between 0 and 1")
    fourth = (1.0 - s) ** 4
    out = ((fourth / (1.0 - fourth)) ** (n + 1)) / (n + 1)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class IncursionReport:
    fitted_exponent: float
    target_exponent: float


def _incursion_level(n: int, t: np.ndarray) -> np.ndarray:
    """The level at which ``incursion_distribution(n, .)`` equals t, in
    closed form: ``1 - (q/(1+q))^{1/4}`` with ``q = ((n+1) t)^{1/(n+1)}``."""
    q = ((n + 1) * t) ** (1.0 / (n + 1))
    return 1.0 - (q / (1.0 + q)) ** 0.25


def incursion_profile(n: int) -> IncursionReport:
    """Inverted decay fit of the closed-form incursion distribution.

    Inverts the distribution on a logarithmic grid of heights
    (``_incursion_level``) to recover generalized singular-value samples,
    then fits their power-law decay; the target exponent is ``-1/(n+1)``.
    """
    t_grid = np.geomspace(1e2, 1e6, 25)
    mu = _incursion_level(n, t_grid)
    slope = float(np.polyfit(np.log(t_grid), np.log(mu), 1)[0])
    return IncursionReport(fitted_exponent=slope, target_exponent=-1.0 / (n + 1))
