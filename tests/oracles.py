"""Dense oracles shared by the test modules.

The package reads every grid operator through its t-blocks and sector
blocks; these build the dense N x N matrices the tests compare against, the
dense eigenvalues of the ``product`` table and the grid ``L_p`` norm.
``recorded_svd_shapes`` and ``recorded_eigenvalues`` let a test see the SVDs
and the eigenvalue problems a computation solves.
"""

import numpy as np

from heislab.experiments import product_factor
from heislab.grid import _ASYMMETRY_LIMIT, GridFunction, GridSpec, _model


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
    return model.apply_field(ell, model.power(-0.5))


def norm_lp(f: GridFunction, p: float) -> float:
    """The grid ``L_p`` norm of f."""
    if p < 1.0:
        raise ValueError("exponent must be >= 1")
    return float((np.sum(np.abs(f.values) ** p) * f.spec.cell_volume) ** (1.0 / p))


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
    inverse_root = _model(spec).power(-0.5)
    names = dict.fromkeys(name for case in cases for name in case.factors)
    factors = {name: product_factor(spec, basis, name, inverse_root)[0] for name in names}
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
