import functools
import math
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from heislab import grid
from heislab.experiments import named_family, product_factor
from heislab.grid import (
    _FIELD_CHARACTER,
    KERNEL_THRESHOLD,
    SECTORS,
    GridFunction,
    GridSpec,
    _by_column,
    _GridModel,
    _character_label,
    _model,
    _parity_block,
    _peak_bytes,
    _reflection_components,
    _vertical_basis,
    quarter_rotation,
    riesz_decomposition_residual,
    sobolev_seminorm,
    sublaplacian_spectrum,
)
from heislab.oscillator import enumerate_basis

import oracles
from oracles import (
    assembled_power,
    assembled_product_factor,
    assembled_symbol_realization,
    dense_riesz,
    dense_sublaplacian,
    norm_lp,
    planar_power,
    power_blocks,
)

SPEC = GridSpec.cube(9)


def riesz_blocks(spec, ell):
    """The sector blocks ``Rt_sigma`` of ``R_ell``, entry ``[k][c]``, as the
    product table's ``riesz:ell`` factor gathers them anew on each call."""
    return product_factor(spec, enumerate_basis(1, 4), f"riesz:{ell}")[0]


def interior_mask(spec, margin=1):
    mask = np.zeros(spec.shape, dtype=bool)
    mask[margin:-margin, margin:-margin, margin:-margin] = True
    return mask


@functools.lru_cache(maxsize=8)
def sparse_fields(spec):
    """Oracle: the fields ``X``, ``Y`` and the vertical difference ``D_t``
    as CSR matrices, assembled from the 1-D centered differences (zero
    exterior) by Kronecker products."""
    off = np.full(spec.count - 1, 1.0 / (2.0 * spec.spacing))
    centered = sparse.diags([off, -off], [1, -1])
    eye = sparse.identity(spec.count)
    d_x = sparse.kron(sparse.kron(centered, eye), eye, format="csr")
    d_y = sparse.kron(sparse.kron(eye, centered), eye, format="csr")
    d_t = sparse.kron(sparse.kron(eye, eye), centered, format="csr")
    xs, ys, _ = np.meshgrid(spec.axis, spec.axis, spec.axis, indexing="ij")
    x_field = (d_x - sparse.diags(ys.reshape(-1)) @ d_t).tocsr()
    y_field = (d_y + sparse.diags(xs.reshape(-1)) @ d_t).tocsr()
    return x_field, y_field, d_t


def model_field(spec, ell):
    """The model's ``X_ell`` as a dense matrix: the stencil applied to the
    identity."""
    return _model(spec).apply_field(ell, np.eye(spec.size))


def dense_eig(matrix):
    """Oracle spectral calculus: one dense ``eigh`` of the given matrix and
    the live mask of the grid model's kernel policy."""
    w, v = np.linalg.eigh(matrix)
    live = np.abs(w) > KERNEL_THRESHOLD * np.max(np.abs(w))
    return w, v, live


def dense_power(eig, exponent):
    """Oracle for ``(-Delta)^exponent``: the power on the live modes, zero on
    the kernel."""
    w, v, live = eig
    return (v * np.where(live, np.abs(w), 1.0) ** exponent * live) @ v.T


def dense_inverse_sqrt(matrix):
    """Oracle for ``(-Delta)^{-1/2}`` from a dense ``eigh``."""
    return dense_power(dense_eig(matrix), -0.5)


def dense_symbol_realization(spec, eig, k):
    """Oracle for ``assembled_symbol_realization``: the double operator integral
    taken over the dense eigenbasis, with one N x N table."""
    w, u, live = eig
    safe = np.where(live, w, 1.0)
    quarter = np.where(live, safe**-0.25, 0.0)
    root = np.sqrt(safe)
    table = 2.0 * np.outer(safe**0.25, safe**0.25) / (root[:, None] + root[None, :])
    table *= np.outer(live, live)
    core = quarter[:, None] * (u.T @ (sparse_fields(spec)[k - 1] @ u)) * quarter[None, :]
    return u @ (table * core) @ u.T


def dense_split(spec, functions, ell):
    """Oracle for ``riesz_decomposition_residual``: the split formed with
    N x N products and projected off the kernel by rank-k updates; one
    record per function, without the reflection components."""
    model = _model(spec)
    # read through the module, so a test can perturb the powers
    inv_sqrt = oracles.assembled_power(model, -0.5)
    sqrt_mat = oracles.assembled_power(model, 0.5)
    x_mat = sparse_fields(spec)[ell - 1]
    riesz = x_mat @ inv_sqrt
    kernel = model.kernel()

    def project_off(mat):
        mat -= kernel @ (kernel.T @ mat)
        mat -= (mat @ kernel) @ kernel.T

    out = {}
    for label, f in functions.items():
        fv = f.flat
        lhs = riesz * fv[None, :] - fv[:, None] * riesz
        comm_sqrt = sqrt_mat * fv[None, :] - fv[:, None] * sqrt_mat
        gap = riesz @ (comm_sqrt @ inv_sqrt)
        gap -= x_mat @ (fv[:, None] * inv_sqrt)
        gap += fv[:, None] * riesz
        gap += lhs
        project_off(gap)
        project_off(lhs)
        lhs_norm = float(np.linalg.norm(lhs))
        derivative = x_mat @ fv
        defect = (
            x_mat.multiply(fv[None, :])
            - x_mat.multiply(fv[:, None])
            - sparse.diags(derivative)
        )
        out[label] = {
            "relative_residual": float(np.linalg.norm(gap)) / lhs_norm,
            "lhs_norm": lhs_norm,
            "leibniz_defect": float(
                sparse_linalg.norm(defect) / np.linalg.norm(derivative)
            ),
            "kernel_dimension": kernel.shape[1],
        }
    return out


def split_family(spec):
    """An even, an odd and a parity-free function."""
    gauss = GridFunction.from_callable(
        spec, lambda x, y, t: np.exp(-(x * x + y * y + t * t))
    ).values
    xs, ys, _ = np.meshgrid(spec.axis, spec.axis, spec.axis, indexing="ij")
    return {
        "even": GridFunction(spec, gauss),
        "odd_x": GridFunction(spec, xs * gauss),
        "no_parity": GridFunction(spec, (1.0 + xs + ys) * gauss),
    }


def relative_gap(actual, expected):
    return np.linalg.norm(actual - expected) / np.linalg.norm(expected)


def checkerboard(spec):
    """The alternating product vector, an exact kernel mode on odd grids."""
    alt = np.zeros(spec.count)
    alt[::2] = 1.0
    return np.einsum("i,j,k->ijk", alt, alt, alt).reshape(-1)


def unit_checkerboard(spec):
    vec = checkerboard(spec)
    return vec / np.linalg.norm(vec)


def bump(spec):
    # smooth, decays to ~1e-8 by the boundary at half-width 3
    return GridFunction.from_callable(
        spec, lambda x, y, t: np.exp(-2.0 * (x * x + y * y + t * t))
    )


class TestGridSpec:
    def test_axes_symmetric_and_centered(self):
        spec = GridSpec.cube(9, 3.0)
        assert spec.axis[0] == -3.0 and spec.axis[-1] == 3.0
        assert spec.axis[4] == 0.0
        np.testing.assert_allclose(spec.axis, -spec.axis[::-1])

    def test_axes_exactly_antisymmetric(self):
        # exact parity of the shipped functions needs axis[::-1] == -axis
        for count in range(3, 42):
            axis = GridSpec.cube(count).axis
            assert np.array_equal(axis[::-1], -axis), count
            assert axis[0] == -3.0 and axis[-1] == 3.0

    def test_axes_equal_linspace_at_shipped_sizes(self):
        # the artifacts of these grids were written with np.linspace axes
        for count in (3, 4, 5, 7, 9, 13, 17, 25, 33):
            spec = GridSpec.cube(count)
            assert np.array_equal(spec.axis, np.linspace(-3.0, 3.0, count))

    def test_cell_volume(self):
        spec = GridSpec.cube(7, 3.0)
        assert spec.cell_volume == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "count, half_width",
        [
            (2, 3.0),
            (True, 3.0),
            (9.0, 3.0),
            ("9", 3.0),
            (9, float("nan")),
            (9, float("inf")),
            (9, 0.0),
            (9, -3.0),
            (9, True),
            (9, "3"),
        ],
        ids=[
            "count_2",
            "count_bool",
            "count_float",
            "count_str",
            "width_nan",
            "width_inf",
            "width_zero",
            "width_negative",
            "width_bool",
            "width_str",
        ],
    )
    def test_rejects_bad_fields(self, count, half_width):
        with pytest.raises(ValueError, match="count|half-width"):
            GridSpec.cube(count, half_width)

    def test_byte_budget_enforced_at_model_build(self):
        # the spec of any size is a grid; the model refuses one whose
        # estimated peak is over the budget, naming both numbers
        assert _peak_bytes(31) <= grid._BYTE_BUDGET < _peak_bytes(32)
        spec = GridSpec.cube(41)
        with pytest.raises(ValueError, match=r"estimated \d+ MB, over the budget of 1500 MB"):
            _model(spec)
        assert _GridModel(GridSpec.cube(31)).spec.count == 31

    def test_model_cache_is_bounded_by_the_byte_budget(self, monkeypatch):
        # two 9^3 grids coexist under the real budget; under one that fits
        # two estimates, a third grid drops the least recently used, and a
        # grid over the budget on its own drops none
        first, second, third = GridSpec(9, 3.0), GridSpec(9, 2.5), GridSpec(9, 2.0)
        _model.cache_clear()
        try:
            a, b = _model(first), _model(second)
            assert _model.cache_info() == (2, 2 * _peak_bytes(9))
            assert _model(first) is a and _model(second) is b
            monkeypatch.setattr(grid, "_BYTE_BUDGET", 2 * _peak_bytes(9))
            assert _model(first) is a
            c = _model(third)
            assert _model.cache_info().currsize == 2
            assert _model(first) is a and _model(third) is c
            with pytest.raises(ValueError, match="over the budget"):
                _model(GridSpec.cube(13))
            assert _model.cache_info().currsize == 2
            assert _model(second) is not b
            monkeypatch.setattr(grid, "_BYTE_BUDGET", _peak_bytes(9))
            _model(first)
            assert _model.cache_info().currsize == 1
        finally:
            _model.cache_clear()


class TestVectorFields:
    def test_skew_symmetry(self):
        for op in sparse_fields(SPEC):
            assert abs(op + op.T).max() == 0.0

    def test_constant_annihilated_inside(self):
        ones = GridFunction.from_callable(SPEC, lambda x, y, t: np.ones_like(x))
        mask = interior_mask(SPEC).reshape(-1)
        for op in sparse_fields(SPEC):
            assert np.abs((op @ ones.flat)[mask]).max() == 0.0

    def test_coordinate_function(self):
        x_op, y_op, t_op = sparse_fields(SPEC)
        f = GridFunction.from_callable(SPEC, lambda x, y, t: x)
        mask = interior_mask(SPEC).reshape(-1)
        np.testing.assert_allclose((x_op @ f.flat)[mask], 1.0, atol=1e-13)
        # mixed rows cancel in rounded summation order, not bitwise
        assert np.abs((y_op @ f.flat)[mask]).max() <= 1e-14
        assert np.abs((t_op @ f.flat)[mask]).max() <= 1e-14

    def test_bracket_is_twice_vertical(self):
        # exact for functions linear in each coordinate
        x_op, y_op, t_op = sparse_fields(SPEC)
        f = GridFunction.from_callable(SPEC, lambda x, y, t: x * y * t).flat
        bracket = x_op @ (y_op @ f) - y_op @ (x_op @ f)
        mask = interior_mask(SPEC, margin=2).reshape(-1)
        np.testing.assert_allclose(bracket[mask], 2.0 * (t_op @ f)[mask], atol=1e-12)

    def test_vertical_shift_symmetry(self):
        # shifting along t commutes with the fields on interior support
        x_op, y_op, _ = sparse_fields(SPEC)
        shift1d = sparse.diags([np.ones(SPEC.count - 1)], [-1])
        shift = sparse.kron(sparse.identity(SPEC.count**2), shift1d)
        proj = sparse.diags(interior_mask(SPEC, margin=2).reshape(-1).astype(float))
        for op in (x_op, y_op):
            gap = (op @ shift - shift @ op) @ proj
            assert abs(gap).max() == 0.0


class TestSublaplacian:
    def test_symmetric_psd(self):
        x_op, y_op, _ = sparse_fields(SPEC)
        quad = (x_op.T @ x_op + y_op.T @ y_op).toarray()
        assert np.linalg.norm(quad - quad.T) / max(np.linalg.norm(quad), 1.0) <= 1e-10
        op = dense_sublaplacian(SPEC)
        assert np.array_equal(op, op.T)
        w = sublaplacian_spectrum(SPEC)
        assert w.min() >= -1e-10

    def test_eigenvalue_count(self):
        assert sublaplacian_spectrum(SPEC).size == SPEC.size

    def test_annihilates_constants_inside(self):
        op = dense_sublaplacian(SPEC)
        ones = GridFunction.from_callable(SPEC, lambda x, y, t: np.ones_like(x))
        out = (op @ ones.flat).reshape(SPEC.shape)
        mask = interior_mask(SPEC, margin=2)
        assert np.abs(out[mask]).max() <= 1e-13

    def test_checkerboard_kernel_mode(self):
        op = dense_sublaplacian(SPEC)
        assert np.abs(op @ checkerboard(SPEC)).max() <= 1e-13


class TestSpectralFunction:
    def test_identity_profile(self):
        out = assembled_power(_model(SPEC), 1.0)
        np.testing.assert_allclose(out, dense_sublaplacian(SPEC), atol=1e-10)

    def test_inverse_root_on_diagonal(self):
        # in the eigenbasis the power is diagonal; check the smallest and
        # the largest live eigenvalue
        w, v, live = dense_eig(dense_sublaplacian(SPEC))
        inv_sqrt = assembled_power(_model(SPEC), -0.5)
        for j in (np.flatnonzero(live)[0], w.size - 1):
            np.testing.assert_allclose(
                inv_sqrt @ v[:, j], w[j] ** -0.5 * v[:, j], atol=1e-12 * w[j] ** -0.5
            )

    def test_pseudo_inverse_kernel_policy(self):
        model = _model(SPEC)
        w, _, live = oracles.eig(model)
        assert np.array_equal(live, np.abs(w) > KERNEL_THRESHOLD * np.abs(w).max())
        assert not live.all()
        inv_sqrt = assembled_power(model, -0.5)
        assert np.abs(inv_sqrt @ unit_checkerboard(SPEC)).max() < 1e-12

    def test_inverse_root_matches_dense_oracle(self):
        oracle = dense_inverse_sqrt(dense_sublaplacian(SPEC))
        inv_sqrt = assembled_power(_model(SPEC), -0.5)
        gap = np.linalg.norm(inv_sqrt - oracle) / np.linalg.norm(oracle)
        assert gap <= 1e-13

    def test_kernel_complement_projection(self):
        proj = assembled_power(_model(SPEC), 0.0)
        np.testing.assert_allclose(proj, proj.T, atol=1e-14)
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-13)
        assert np.abs(proj @ unit_checkerboard(SPEC)).max() < 1e-13


# The oracle grids as (count, half_width), keyed by the ids of the boxes the
# cases were first written for. A grid is a cube, so the boxes (9, 9, 10) and
# (10, 10, 9) now run as the cubes of their vertical count at half-width 2.5:
# they keep an even and an odd count covered at a second spacing.
ORACLE_GRIDS = {
    "9x9x9": (9, 3.0),
    "13x13x13": (13, 3.0),
    "10x10x10": (10, 3.0),
    "9x9x10": (10, 2.5),
    "10x10x9": (9, 2.5),
}
# the t-block calculus takes all five; the sector and stencil oracles leave
# out the third, whose count the fourth covers
T_BLOCK_IDS = list(ORACLE_GRIDS)
ORACLE_IDS = [key for key in ORACLE_GRIDS if key != "10x10x10"]


def oracle_spec(request):
    return GridSpec(*ORACLE_GRIDS[request.param])


@pytest.fixture(scope="class", params=T_BLOCK_IDS)
def oracle(request):
    """A grid and the dense eigendecomposition of its sub-Laplacian."""
    spec = oracle_spec(request)
    return spec, dense_eig(dense_sublaplacian(spec))


class TestClosedFormKernel:
    """``kernel()`` builds the mode from index parity and checks the live
    masks of the t-block ``eigh`` against it."""

    @pytest.mark.parametrize("count", [9, 10, 13])
    def test_kernel_is_orthonormal_and_annihilated(self, count):
        spec = GridSpec.cube(count)
        model = _model(spec)
        kernel = model.kernel()
        dim = count % 2
        assert kernel.shape == (spec.size, dim) and kernel.dtype == float
        np.testing.assert_allclose(kernel.T @ kernel, np.eye(dim), atol=1e-15)
        for ell in (1, 2):
            assert not np.any(model.apply_field(ell, kernel))
        if dim:
            # one value on the points with every index even, 0 elsewhere
            even = (np.indices(spec.shape) % 2 == 0).all(axis=0).reshape(-1)
            assert np.unique(kernel[even]).size == 1
            assert not np.any(kernel[~even])

    def test_threshold_rule_agrees_at_every_lab_count(self):
        # lab run builds only half-width 3: there the masks mark exactly the
        # closed-form mode at every count from 3 to 21
        for count in range(3, 22):
            model = _GridModel(GridSpec(count))
            assert model.kernel().shape == (count**3, count % 2)

    def test_a_true_block_kernel_fails_loudly(self):
        # on (3, 1.0) the block of mu_1 has a kernel mode as well (its
        # eigenvalue reads about -5e-16), which the closed form does not have
        model = _GridModel(GridSpec(3, 1.0))
        (_, even), (_, odd) = model.parity_eig()
        assert np.count_nonzero(~even) + np.count_nonzero(~odd) > 1
        with pytest.raises(ValueError, match="not the closed-form mode"):
            model.kernel()


class TestTBlockCalculus:
    """The t-block spectral calculus against the dense ``eigh`` oracle."""

    def test_vertical_basis(self, oracle):
        spec, _ = oracle
        model = _model(spec)
        u = model._t_vectors
        n = spec.count
        dt1 = sparse_fields(spec)[2][:n, :n].toarray()
        scale = np.abs(model.mu).max()
        np.testing.assert_allclose(dt1 @ u, u * (1j * model.mu), atol=1e-14 * scale)
        # u_{n+1-j} = -conj(u_j) has the eigenvalue -i mu_j
        mirror = -u[:, : n // 2].conj()
        np.testing.assert_allclose(
            dt1 @ mirror, mirror * (-1j * model.mu[: n // 2]), atol=1e-14 * scale
        )
        full = np.hstack([u, mirror])
        np.testing.assert_allclose(full.conj().T @ full, np.eye(n), atol=1e-14)
        assert (model.mu == 0.0).sum() == n % 2

    def test_conjugate_blocks(self, oracle):
        spec, _ = oracle
        model = _model(spec)
        for j, mu in enumerate(model.mu):
            n = spec.count
            mirrored = math.cos(math.pi * (n - j) / (n + 1)) / spec.spacing
            assert mirrored == pytest.approx(-mu, abs=1e-15 * abs(model.mu).max())
            block, mirror = model.sublaplacian_blocks([mu, -mu])
            assert np.array_equal(mirror, block.conj())
        # one eigh per conjugate pair, of size n * n
        w, v, live = oracles.eig(model)
        assert w.shape == live.shape == ((spec.count + 1) // 2, spec.count**2)
        assert v.shape == w.shape + (spec.count**2,)

    def test_spectrum(self, oracle):
        spec, (w, _, _) = oracle
        assert np.abs(sublaplacian_spectrum(spec) - w).max() <= 1e-13 * np.abs(w).max()

    def test_kernel(self, oracle):
        # one mode, the checkerboard, when the count is odd; none otherwise
        spec, (_, v, live) = oracle
        kernel = _model(spec).kernel()
        dim = spec.count % 2
        assert np.count_nonzero(~live) == dim
        assert kernel.shape == (spec.size, dim) and kernel.dtype == float
        np.testing.assert_allclose(kernel.T @ kernel, np.eye(dim), atol=1e-14)
        dense = v[:, ~live]
        np.testing.assert_allclose(kernel @ kernel.T, dense @ dense.T, atol=1e-13)

    @pytest.mark.parametrize("exponent", [-0.5, 0.5])
    def test_power(self, oracle, exponent):
        spec, eig = oracle
        power = assembled_power(_model(spec), exponent)
        gap = relative_gap(power, dense_power(eig, exponent))
        assert gap <= 1e-13

    @pytest.mark.parametrize("ell", [1, 2])
    def test_riesz(self, oracle, ell):
        spec, eig = oracle
        dense = sparse_fields(spec)[ell - 1] @ dense_power(eig, -0.5)
        assert relative_gap(dense_riesz(spec, ell), dense) <= 1e-13

    @pytest.mark.parametrize("k", [1, 2])
    def test_symbol_realization(self, oracle, k):
        spec, eig = oracle
        dense = dense_symbol_realization(spec, eig, k)
        assert relative_gap(assembled_symbol_realization(spec, k), dense) <= 1e-13

    def test_levels(self, oracle):
        spec, _ = oracle
        model = _model(spec)
        levels = model.levels()
        assert [level["block"] for level in levels] == [
            j + 1 for j, mu in enumerate(model.mu) if mu
        ]
        for level in levels:
            assert level["abs_mu"] > 0.0 and level["lowest_over_abs_mu"] > 0.0


class TestRiesz:
    def test_empirical_norm_near_one(self):
        for ell in (1, 2):
            op = dense_riesz(SPEC, ell)
            assert 0.5 <= np.linalg.norm(op, 2) <= 1.5

    def test_kills_kernel_modes(self):
        op = dense_riesz(SPEC, 1)
        assert np.abs(op @ unit_checkerboard(SPEC)).max() < 1e-12

    def test_squares_sum_to_kernel_complement_projection(self):
        total = sum(
            dense_riesz(SPEC, ell).T @ dense_riesz(SPEC, ell)
            for ell in (1, 2)
        )
        f = bump(SPEC)
        v = f.flat / np.linalg.norm(f.flat)
        assert np.linalg.norm(total @ v - v) <= 0.2

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="outside 1..2"):
            _model(SPEC).apply_field(3, np.zeros(SPEC.size))


def reflection_maps(spec):
    """``p_1`` and ``p_2`` with ``(P_k u)[i] = u[p_k[i]]``, by index arithmetic."""
    index = np.arange(spec.size).reshape(spec.shape)
    return index[:, ::-1, ::-1].reshape(-1), index[::-1, :, ::-1].reshape(-1)


def reflection_matrices(spec):
    eye = sparse.identity(spec.size, format="csr")
    return tuple(eye[p] for p in reflection_maps(spec))


def sector_bases(spec):
    """Oracle: the orthonormal sector bases as dense N x d matrices keyed by
    character, built from the model's orbit table column by column."""
    orbits = _model(spec).sectors()
    columns = np.arange(orbits.table.shape[1])
    bases = {}
    for k, (s1, s2) in enumerate(SECTORS):
        q = np.zeros((spec.size, columns.size))
        for g, sign in enumerate((1.0, s1, s2, s1 * s2)):
            q[orbits.table[g], columns] += sign
        norms = np.linalg.norm(q, axis=0)
        assert np.array_equal(norms > 0.0, orbits.live[k])
        np.testing.assert_allclose(orbits.norms[k], norms, rtol=1e-15)
        bases[(s1, s2)] = q[:, orbits.live[k]] / norms[orbits.live[k]]
    return bases


def basis_nonzeros(q):
    """The rows and the values, as np.longdouble, of the at most four
    nonzeros of each column of a sector basis, zero-padded: 4 x d each."""
    rows = np.argsort(q == 0.0, axis=0, kind="stable")[:4]
    return rows, np.take_along_axis(q, rows, axis=0).astype(np.longdouble)


def extended_inverse_root_times(model, q):
    """``(-Delta)^{-1/2} q`` for a sector basis q, in np.longdouble: each
    column of the power is summed from the float64 parity t-blocks and
    t-vectors as ``assemble`` sums them."""
    spec = model.spec
    size = spec.count**2
    blocks = planar_power(model, -0.5, np.arange(size))
    half = blocks.shape[0]
    by_column = np.empty((size, size, 2 * half), dtype=np.longdouble)
    by_column[..., :half] = blocks.real.transpose(2, 1, 0)
    by_column[..., half:] = blocks.imag.transpose(2, 1, 0)
    by_step = model._t_outer.transpose(2, 0, 1).astype(np.longdouble)
    out = np.zeros((spec.size, q.shape[1]), dtype=np.longdouble)
    for rows, values in zip(*basis_nonzeros(q)):
        planar, vertical = np.divmod(rows, spec.count)
        columns = np.matmul(by_column[planar], by_step[vertical])
        out += columns.reshape(rows.size, -1).T * values
    return out


def extended_sandwich(q, mat):
    """``q^T mat`` in np.longdouble for a sector basis q."""
    return sum(values[:, None] * mat[rows] for rows, values in zip(*basis_nonzeros(q)))


def point_colours(spec):
    """``(ix + iy + it) mod 2`` of every grid point."""
    return np.indices(spec.shape).sum(axis=0).reshape(-1) % 2


def gather(model, mat, character, flip):
    """Oracle: the sector blocks of a dense grid operator ``mat`` of
    reflection character ``character``, a sign pair, in the model's layout
    (see ``product_factor``), by the full sum over the 16 group
    pairs: ``sum_{g,h} tau(g) sigma(h) mat[g a, h b] / (|q_{tau,a}|
    |q_{sigma,b}|)`` with ``tau = sigma character``, multiplied sign by sign;
    the model reads the same blocks from four terms and the XOR of sector
    positions."""
    orbits = model.sectors()
    table = orbits.table
    signs = [(1, s1, s2, s1 * s2) for s1, s2 in SECTORS]
    inverse = np.divide(
        1.0, orbits.norms, out=np.zeros_like(orbits.norms), where=orbits.live
    )
    out = []
    for k, (s1, s2) in enumerate(SECTORS):
        t = SECTORS.index((s1 * character[0], s2 * character[1]))
        per_class = []
        for rows, cols in orbits.classes:
            if not flip:
                rows = cols
            block = np.zeros((rows.size, cols.size))
            for g in range(4):
                for h in range(4):
                    block += (
                        signs[t][g]
                        * signs[k][h]
                        * mat[np.ix_(table[g, rows], table[h, cols])]
                    )
            per_class.append(block * inverse[t][rows, None] * inverse[k][None, cols])
        out.append(tuple(per_class))
    return tuple(out)


class TestReflectionSectors:
    @pytest.mark.parametrize(
        "count, dims",
        [(4, [16, 16, 16, 16]), (9, [189, 180, 180, 180]), (13, [559, 546, 546, 546])],
    )
    def test_orthonormal_bases_split_the_grid(self, count, dims):
        spec = GridSpec.cube(count)
        bases = sector_bases(spec)
        assert tuple(bases) == SECTORS
        assert [q.shape[1] for q in bases.values()] == dims
        assert sum(dims) == spec.size
        assert max(np.count_nonzero(q, axis=0).max() for q in bases.values()) <= 4
        full = np.hstack(list(bases.values()))
        np.testing.assert_allclose(full.T @ full, np.eye(spec.size), atol=1e-15)

    def test_bases_carry_their_character(self):
        p1, p2 = reflection_matrices(SPEC)
        for (s1, s2), q in sector_bases(SPEC).items():
            assert abs(p1 @ q - s1 * q).max() == 0.0
            assert abs(p2 @ q - s2 * q).max() == 0.0

    def test_reflections_act_on_coordinates(self):
        # the orbit table sends each representative through 1, P1, P2, P1 P2
        table = _model(SPEC).sectors().table
        coordinates = [
            a.reshape(-1)
            for a in np.meshgrid(SPEC.axis, SPEC.axis, SPEC.axis, indexing="ij")
        ]
        signs = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))
        for images, per_axis in zip(table, signs):
            for axis, sign in zip(coordinates, per_axis):
                assert np.array_equal(axis[images], sign * axis[table[0]])

    def test_sector_positions_multiply_by_xor(self):
        # a character's position in SECTORS is 2 [s1 < 0] + [s2 < 0], so the
        # model multiplies characters by the XOR of their positions
        for a, (s1, s2) in enumerate(SECTORS):
            for b, (t1, t2) in enumerate(SECTORS):
                assert SECTORS[a ^ b] == (s1 * t1, s2 * t2)

    def test_fields_have_exact_character(self):
        p1, p2 = reflection_maps(SPEC)
        for ell, k in _FIELD_CHARACTER.items():
            s1, s2 = SECTORS[k]
            field_mat = model_field(SPEC, ell)
            assert np.array_equal(field_mat[np.ix_(p1, p1)], s1 * field_mat)
            assert np.array_equal(field_mat[np.ix_(p2, p2)], s2 * field_mat)

    @pytest.mark.parametrize("count", [9, 13])
    def test_riesz_reflection_residual(self, count):
        spec = GridSpec.cube(count)
        p1, p2 = reflection_maps(spec)
        for ell, k in _FIELD_CHARACTER.items():
            s1, s2 = SECTORS[k]
            riesz = dense_riesz(spec, ell)
            scale = np.linalg.norm(riesz)
            for p, s in ((p1, s1), (p2, s2)):
                gap = riesz[np.ix_(p, p)] - s * riesz
                assert np.linalg.norm(gap) <= 1e-13 * scale


class TestColourGrading:
    """The red-black grading ``(-1)^(ix+iy+it)`` of the sites."""

    # (count, half_width); see ORACLE_GRIDS for the third
    @pytest.mark.parametrize("shape", [(9, 3.0), (10, 3.0), (10, 2.5)])
    def test_fields_couple_opposite_colours(self, shape):
        spec = GridSpec(*shape)
        colours = point_colours(spec)
        for ell in (1, 2):
            rows, cols = np.nonzero(model_field(spec, ell))
            assert np.all(colours[rows] != colours[cols])

    @pytest.mark.parametrize("count", [9, 10])
    def test_orbits_keep_one_colour(self, count):
        spec = GridSpec.cube(count)
        orbits = _model(spec).sectors()
        colours = point_colours(spec)[orbits.table]
        assert np.array_equal(colours[0], orbits.colour)
        assert np.all(colours == orbits.colour)
        assert len(orbits.classes) == 2
        for rows, cols in orbits.classes:
            assert np.all(orbits.colour[rows] != orbits.colour[cols[0]])
            assert np.all(orbits.colour[cols] == orbits.colour[cols[0]])

    @pytest.mark.parametrize("count", [9, 13])
    def test_riesz_sector_blocks_match_the_bases(self, count):
        # the same-colour part of each sector block, which the gathered
        # blocks leave out, is rounding noise
        spec = GridSpec.cube(count)
        model = _model(spec)
        orbits = model.sectors()
        bases = sector_bases(spec)
        same = orbits.colour[:, None] == orbits.colour[None, :]
        for ell, character in _FIELD_CHARACTER.items():
            field = SECTORS[character]
            riesz = dense_riesz(spec, ell)
            for k, sigma in enumerate(SECTORS):
                target = (sigma[0] * field[0], sigma[1] * field[1])
                live = np.ix_(orbits.live[SECTORS.index(target)], orbits.live[k])
                full = np.zeros(same.shape)
                full[live] = bases[target].T @ riesz @ bases[sigma]
                scale = np.abs(full).max()
                assert np.abs(full[same]).max() <= 1e-15 * scale
                for (r, c), gathered in zip(orbits.classes, riesz_blocks(spec, ell)[k]):
                    assert np.abs(gathered - full[np.ix_(r, c)]).max() <= 1e-15 * scale

    @pytest.mark.parametrize("count", [9, 13])
    def test_riesz_sector_block_routes_match_extended_precision(self, count):
        # both routes of the test above against Q^T X P Q summed in
        # np.longdouble from the same float64 factors: the parity t-blocks
        # of P and the t-vectors, the stencil of X and the sector bases Q;
        # measured gaps at most 5.7e-16 (9^3) and 6.8e-16 (13^3) of the
        # block's largest entry for the blocks gathered from the stencil
        # rows, 4.5e-16 and 5.5e-16 for the dense sandwich
        spec = GridSpec.cube(count)
        model = _model(spec)
        orbits = model.sectors()
        bases = sector_bases(spec)
        root_times = {
            sigma: extended_inverse_root_times(model, q) for sigma, q in bases.items()
        }
        for ell, character in _FIELD_CHARACTER.items():
            field = SECTORS[character]
            riesz = dense_riesz(spec, ell)
            for k, sigma in enumerate(SECTORS):
                target = (sigma[0] * field[0], sigma[1] * field[1])
                live = np.ix_(orbits.live[SECTORS.index(target)], orbits.live[k])
                extended = np.zeros((orbits.table.shape[1],) * 2, dtype=np.longdouble)
                extended[live] = extended_sandwich(
                    bases[target], model.apply_field(ell, root_times[sigma])
                )
                scale = np.abs(extended).max()
                full = np.zeros(extended.shape)
                full[live] = bases[target].T @ riesz @ bases[sigma]
                assert np.abs(full - extended).max() <= 1e-15 * scale
                for (r, c), gathered in zip(orbits.classes, riesz_blocks(spec, ell)[k]):
                    assert np.abs(gathered - extended[np.ix_(r, c)]).max() <= 1e-15 * scale

    def test_gather_reads_a_sparse_field_as_its_dense_matrix(self):
        # the stencil rows scattered from the stencil's nonzeros, expanded,
        # against the dense gather of the same field; entries several (g, h)
        # pairs reach add up in another order
        model = _model(SPEC)
        for ell, character in _FIELD_CHARACTER.items():
            field = SECTORS[character]
            from_dense = gather(model, model_field(SPEC, ell), field, flip=True)
            expanded = oracles.expanded_field_rows(model, ell)
            for sparse_blocks, dense_blocks in zip(expanded, from_dense):
                for got, expected in zip(sparse_blocks, dense_blocks):
                    assert np.abs(got - expected).max() <= 1e-15 * np.abs(expected).max()

    @pytest.mark.parametrize("shape", [(9, 3.0), (10, 2.5)])
    def test_power_sector_blocks_match_the_bases(self, shape):
        # the powers keep sector and colour; the opposite-colour part of
        # each diagonal sector block is rounding noise
        spec = GridSpec(*shape)
        model = _model(spec)
        orbits = model.sectors()
        bases = sector_bases(spec)
        same = orbits.colour[:, None] == orbits.colour[None, :]
        root = assembled_power(model, 0.5)
        blocks = power_blocks(model, 0.5)
        for k, sigma in enumerate(SECTORS):
            live = np.ix_(orbits.live[k], orbits.live[k])
            full = np.zeros(same.shape)
            full[live] = bases[sigma].T @ root @ bases[sigma]
            scale = np.abs(full).max()
            assert np.abs(full[~same]).max() <= 1e-15 * scale
            for (_, c), gathered in zip(orbits.classes, blocks[k]):
                assert np.abs(gathered - full[np.ix_(c, c)]).max() <= 1e-14 * scale

    def test_sector_blocks_are_cached_read_only(self):
        # the fields' blocks are kept as read-only stencil rows of four
        # entries; the Riesz blocks are gathered anew on each read, and a
        # gather of some rows and the live columns is the full gather's
        # cut, bit for bit
        model = _model(SPEC)
        orbits = model.sectors()
        for ell in (1, 2):
            stencil = model.field_rows(ell)
            assert model.field_rows(ell) is stencil
            for (rows, _), (columns, values) in zip(orbits.classes, stencil):
                assert columns.shape == (rows.size, 4)
                assert values.shape == (len(SECTORS), rows.size, 4)
                assert not columns.flags.writeable and not values.flags.writeable
            blocks = riesz_blocks(SPEC, ell)
            assert len(blocks) == 4 and all(len(per_sector) == 2 for per_sector in blocks)
            again = riesz_blocks(SPEC, ell)
            for k, (per_sector, per_again) in enumerate(zip(blocks, again)):
                for c, (block, other) in enumerate(zip(per_sector, per_again)):
                    assert block is not other and np.array_equal(block, other)
                    rows, cols = orbits.classes[c]
                    r = np.arange(0, rows.size, 2)
                    s = np.flatnonzero(orbits.live[k, cols])
                    cut = model.riesz_block(ell, k, c, model.inverse_root_blocks(c), r, s)
                    assert np.array_equal(cut, block[np.ix_(r, s)])


@pytest.fixture(scope="class", params=ORACLE_IDS)
def oracle_model(request):
    return _model(oracle_spec(request))


class TestSectorPowerBlocks:
    """The real parity halves and the power blocks read off the t-block
    eigenpairs, against complex ``eigh`` and the dense 16-term gather."""

    def test_parity_spectra_match_complex_eigh(self, oracle_model):
        model = oracle_model
        size = model.spec.count**2
        w, _, _ = oracles.eig(model)
        for j, block in enumerate(model.sublaplacian_blocks(model.mu)):
            halves = [_parity_block(block, half) for half in model._parity]
            assert [h.shape[0] for h in halves] == [(size + 1) // 2, size // 2]
            assert all(h.dtype == float for h in halves)
            expected = np.linalg.eigvalsh(block)
            scale = np.abs(expected).max()
            parity = np.sort(np.concatenate([np.linalg.eigvalsh(h) for h in halves]))
            assert np.abs(parity - expected).max() <= 1e-13 * scale
            assert np.abs(w[j] - expected).max() <= 1e-13 * scale

    def test_planar_power_commutes_exactly_with_the_planar_group(self, oracle_model):
        model = oracle_model
        n = model.spec.count
        blocks = planar_power(model, 0.5, np.arange(n * n))
        grid = blocks.reshape((blocks.shape[0],) + (n,) * 4)
        assert np.array_equal(grid[:, ::-1, ::-1, ::-1, ::-1], grid)
        assert np.array_equal(grid[:, :, ::-1, :, ::-1], grid.conj())
        assert np.array_equal(grid[:, ::-1, :, ::-1, :], grid.conj())

    @pytest.mark.parametrize("exponent", [-0.5, 0.0, 0.5])
    def test_power_blocks_match_dense_gather(self, oracle_model, exponent):
        model = oracle_model
        expected = gather(model, assembled_power(model, exponent), (1, 1), flip=False)
        for got_blocks, want_blocks in zip(power_blocks(model, exponent), expected):
            scale = max(np.abs(want).max() for want in want_blocks)
            for got, want in zip(got_blocks, want_blocks):
                assert not got.flags.writeable
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-14 * scale

    def test_vertical_basis_mirrors_bit_for_bit(self, oracle_model):
        count = oracle_model.spec.count
        sine, _ = _vertical_basis(count, 0.5)
        signs = (-1.0) ** np.arange(2, count + 2)
        # S[count+1-k, j] = (-1)^(j+1) S[k, j]
        assert np.array_equal(sine[::-1], sine * signs)
        if count % 2:
            assert np.all(sine[count // 2, 1::2] == 0.0)


# each product factor with its reflection character and whether it flips
# colour
PRODUCT_FACTORS = {
    "flat_factor": ((1, 1), False),
    "riesz:1": (SECTORS[_FIELD_CHARACTER[1]], True),
    "riesz:2": (SECTORS[_FIELD_CHARACTER[2]], True),
    "a:1": (SECTORS[_FIELD_CHARACTER[1]], True),
    "a:2": (SECTORS[_FIELD_CHARACTER[2]], True),
}


class TestProductFactorBlocks:
    """The sector blocks of each ``product`` factor, read off the t-blocks,
    against the dense 16-term gather of the assembled factor."""

    @pytest.mark.parametrize("name", list(PRODUCT_FACTORS))
    def test_factor_blocks_match_dense_gather(self, oracle_model, name):
        model = oracle_model
        basis = enumerate_basis(1, 4)
        inverse_root = assembled_power(model, -0.5)
        dense, _ = assembled_product_factor(model.spec, basis, name, inverse_root)
        expected = gather(model, dense, *PRODUCT_FACTORS[name])
        got_blocks, _ = product_factor(model.spec, basis, name)
        for got_per_class, want_per_class in zip(got_blocks, expected):
            for got, want in zip(got_per_class, want_per_class):
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("ell", [1, 2])
    def test_symbol_blocks_annihilate_the_kernel(self, ell):
        # a:ell gives its kernel modes weight 0 on both sides: the blocks
        # take the closed-form kernel's sector coordinates (sector ++,
        # colour 0) to rounding level, from the right in the column sector
        # and from the left in the row sector sigma s_ell, where a generic
        # vector of the same norm reads at the scale of the block
        model = _model(SPEC)
        orbits = model.sectors()
        kernel = model.kernel()
        coords = np.einsum("sg,gok->so", grid._SIGNS, kernel[orbits.table])
        coords *= orbits.inverse
        blocks, _ = product_factor(SPEC, enumerate_basis(1, 4), f"a:{ell}")
        sides = []
        for k, per_class in enumerate(blocks):
            rho = k ^ _FIELD_CHARACTER[ell]
            for c, ((rows, cols), block) in enumerate(zip(orbits.classes, per_class)):
                scale = np.abs(block).max()
                for side, mode in (("right", coords[k, cols]), ("left", coords[rho, rows])):
                    if not np.any(mode):
                        continue
                    sides.append((side, k, c))
                    image = block @ mode if side == "right" else mode @ block
                    assert np.abs(image).max() <= 1e-14 * scale
                    generic = np.ones_like(mode) / math.sqrt(mode.size)
                    probe = block @ generic if side == "right" else generic @ block
                    assert np.abs(probe).max() > 1e-3 * scale
        assert sides == [("right", 0, 0), ("left", _FIELD_CHARACTER[ell], 1)]


class TestOneEigensolve:
    """The model keeps of its one eigensolve the eigenvalues, the live masks
    and the inverse root's t-block columns; a power of another exponent or
    column set solves anew, bit for bit as the kept one was formed."""

    @pytest.mark.parametrize("count", [9, 10])
    def test_later_power_equals_a_first_one_bit_for_bit(self, count):
        spec = GridSpec.cube(count)
        every = np.arange(count**2)
        # the oracle: a fresh model whose first eigensolve forms this power
        oracle = planar_power(_GridModel(spec), 0.5, every)
        model = _GridModel(spec)
        model.inverse_root_columns()
        assert np.array_equal(planar_power(model, 0.5, every), oracle)

    @pytest.mark.parametrize("count", [9, 10])
    def test_kept_state_equals_a_fresh_solve_bit_for_bit(self, count):
        model = _GridModel(GridSpec.cube(count))
        kept = model.inverse_root_columns()
        reps = model.planar_representatives()
        assert np.array_equal(kept, _by_column(planar_power(model, -0.5, reps)))
        for (w, live), (w_new, _, live_new) in zip(model.parity_eig(), model._eigensolve()):
            assert np.array_equal(w, w_new) and np.array_equal(live, live_new)
            assert not (w.flags.writeable or live.flags.writeable)
        assert not kept.flags.writeable

    def test_flat_factor_reads_the_kept_columns_bit_for_bit(self):
        # the flat factor scales the kept inverse root's t-block j by
        # u_j^H V u_j; formed again from planar_power(-0.5), it has the same
        # bits
        model = _model(SPEC)
        u = model._t_vectors
        weights = np.einsum("kj,kl,lj->j", u.conj(), model.vertical_quarter_root(), u)
        columns = planar_power(model, -0.5, model.planar_representatives())
        scaled = _by_column(columns * weights.real[:, None, None])
        expected = tuple(zip(*(model.read_class(scaled, c) for c in (0, 1))))
        got, _ = product_factor(SPEC, enumerate_basis(1, 4), "flat_factor")
        for got_per_class, want_per_class in zip(got, expected):
            for got_block, want in zip(got_per_class, want_per_class):
                assert np.array_equal(got_block, want)


class TestMultiplicationAndCommutator:
    def test_commutator_with_constant_vanishes(self):
        # a constant is one even component, and both terms of each block
        # scale the same Riesz entries by it
        c = GridFunction.from_callable(SPEC, lambda x, y, t: 2.5 * np.ones_like(x))
        model = _model(SPEC)
        components = _reflection_components(c.flat[model.sectors().table])
        assert list(components) == [0]
        for ell in (1, 2):
            blocks = [
                block
                for c in range(len(model.sectors().classes))
                for block in model.commutator_blocks(
                    ell, components, c, model.inverse_root_blocks(c)
                )
            ]
            assert len(blocks) == 8
            assert all(np.all(block.matrix == 0.0) for block in blocks)

    def test_field_commutator_acts_as_identity_on_low_degree(self):
        # the averaging stencil of [X, M_x] equals the identity on functions
        # at most linear in x
        model = _model(SPEC)
        coord = GridFunction.from_callable(SPEC, lambda x, y, t: x).flat
        mask = interior_mask(SPEC).reshape(-1)
        for fn in (
            lambda x, y, t: np.ones_like(x),
            lambda x, y, t: x,
            lambda x, y, t: y * t,
        ):
            u = GridFunction.from_callable(SPEC, fn).flat
            out = model.apply_field(1, coord * u) - coord * model.apply_field(1, u)
            np.testing.assert_allclose(out[mask], u[mask], atol=1e-13)


class TestSobolev:
    def test_constant_is_flat(self):
        c = GridFunction.from_callable(SPEC, lambda x, y, t: np.ones_like(x))
        model = _model(SPEC)
        # the zero exterior enters X = D_x - y D_t on the x and t faces, and
        # Y = D_y + x D_t on the y and t faces; off them both vanish exactly
        for ell, axis in ((1, 0), (2, 1)):
            derivative = model.apply_field(ell, c.flat).reshape(SPEC.shape)
            inner = np.ones(SPEC.shape, dtype=bool)
            for face_axis in (axis, 2):
                faces = [slice(None)] * 3
                faces[face_axis] = [0, -1]
                inner[tuple(faces)] = False
            assert np.all(derivative[inner] == 0.0)
            assert np.any(derivative[~inner] != 0.0)
        assert sobolev_seminorm(GridFunction(SPEC, c.values * 0.0)) == 0.0

    def test_scaling(self):
        f = bump(SPEC)
        assert sobolev_seminorm(GridFunction(SPEC, 3.0 * f.values)) == pytest.approx(
            3.0 * sobolev_seminorm(f), rel=1e-12
        )

    def test_refinement_stability(self):
        # wide bump so the 13-point default grid resolves the gradient
        def wide(spec):
            return GridFunction.from_callable(
                spec, lambda x, y, t: np.exp(-0.5 * (x * x + y * y + t * t))
            )

        coarse = sobolev_seminorm(wide(GridSpec.cube(13)))
        fine = sobolev_seminorm(wide(GridSpec.cube(15)))
        assert coarse > 0.0
        assert abs(fine - coarse) / coarse <= 0.05


class TestQuarterRotation:
    def test_permutation_and_order_four(self):
        # U f = f[source], so U^2 f = f[source[source]]
        source, _ = quarter_rotation(SPEC, 1)
        identity = np.arange(SPEC.size)
        assert source.shape == (SPEC.size,)
        assert np.array_equal(np.sort(source), identity)
        assert not np.array_equal(source, identity)
        assert np.array_equal(source[source[source[source]]], identity)

    def test_conjugation_exact(self):
        _, report = quarter_rotation(SPEC, 1)
        assert report.full_residual <= 1e-12
        assert report.target == "second_field"

    def test_second_field_turns_negative(self):
        _, report = quarter_rotation(SPEC, 2)
        assert report.full_residual <= 1e-12
        assert report.target == "minus_first_field"

    def test_rotates_coordinates(self):
        source, _ = quarter_rotation(SPEC, 1)
        f = GridFunction.from_callable(SPEC, lambda x, y, t: x + 10.0 * y + 100.0 * t)
        rotated = f.flat[source]
        expected = GridFunction.from_callable(
            SPEC, lambda x, y, t: -y + 10.0 * x + 100.0 * t
        )
        np.testing.assert_allclose(rotated, expected.flat, atol=1e-12)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            quarter_rotation(SPEC, 3)


@pytest.fixture(scope="class", params=ORACLE_IDS)
def csr_spec(request):
    return oracle_spec(request)


def csr_rotation_residual(spec, k):
    """Oracle: ``|U^T X U - Y|_F`` (k = 1) or ``|U^T Y U + X|_F`` (k = 2)
    with the quarter turn U as a CSR permutation; also U's source indices."""
    n = spec.count
    index = np.arange(spec.size).reshape(spec.shape)
    ix, iy, it = np.meshgrid(*(np.arange(n),) * 3, indexing="ij")
    source = index[n - 1 - iy, ix, it].reshape(-1)
    size = spec.size
    u = sparse.csr_matrix((np.ones(size), (np.arange(size), source)), shape=(size, size))
    x_op, y_op, _ = sparse_fields(spec)
    gap = u.T @ x_op @ u - y_op if k == 1 else u.T @ y_op @ u + x_op
    return sparse_linalg.norm(gap), source


class TestStencilAgainstCSR:
    """The stencil paths of the model against the CSR fields."""

    @pytest.mark.parametrize("ell", [1, 2])
    def test_matvec(self, csr_spec, ell):
        x_op = sparse_fields(csr_spec)[ell - 1]
        model = _model(csr_spec)
        rng = np.random.default_rng(ell)
        size = csr_spec.size
        for values in (rng.standard_normal(size), rng.standard_normal((size, 3))):
            assert relative_gap(model.apply_field(ell, values), x_op @ values) <= 1e-15
        # the stencil's entries are the CSR entries, bit for bit
        assert np.array_equal(model_field(csr_spec, ell), x_op.toarray())

    @pytest.mark.parametrize("ell", [1, 2])
    def test_field_blocks(self, csr_spec, ell):
        # the stencil rows, expanded, against the gather of the CSR field
        model = _model(csr_spec)
        dense = sparse_fields(csr_spec)[ell - 1].toarray()
        expected = gather(model, dense, SECTORS[_FIELD_CHARACTER[ell]], flip=True)
        got = oracles.expanded_field_rows(model, ell)
        for got_blocks, want_blocks in zip(got, expected):
            for got, want in zip(got_blocks, want_blocks):
                assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("ell", [1, 2])
    def test_leibniz_defect(self, csr_spec, ell):
        x_op = sparse_fields(csr_spec)[ell - 1]
        for f in split_family(csr_spec).values():
            fv = f.flat
            derivative = x_op @ fv
            defect = x_op.multiply(fv[None, :]) - x_op.multiply(fv[:, None])
            defect -= sparse.diags(derivative)
            expected = sparse_linalg.norm(defect) / np.linalg.norm(derivative)
            got = _model(csr_spec).leibniz_defect(ell, fv)
            assert abs(got - expected) <= 1e-13 * expected

    @pytest.mark.parametrize("k", [1, 2])
    def test_rotation_residual(self, csr_spec, k):
        # the cube's equal half-widths turn one field exactly into the other
        expected, source = csr_rotation_residual(csr_spec, k)
        got, report = quarter_rotation(csr_spec, k)
        assert np.array_equal(got, source)
        assert report.full_residual == expected == 0.0

    def test_sublaplacian_and_riesz(self, csr_spec):
        x_op, y_op, _ = sparse_fields(csr_spec)
        quad = (x_op.T @ x_op + y_op.T @ y_op).toarray()
        expected = 0.5 * (quad + quad.T)
        assert relative_gap(dense_sublaplacian(csr_spec), expected) <= 1e-14
        inv_sqrt = assembled_power(_model(csr_spec), -0.5)
        for ell, field in ((1, x_op), (2, y_op)):
            assert relative_gap(dense_riesz(csr_spec, ell), field @ inv_sqrt) <= 1e-14


class TestRieszDecomposition:
    def test_split_identity_on_kernel_complement(self):
        report = riesz_decomposition_residual(SPEC, {"bump": bump(SPEC)}, 1)["bump"]
        assert report.relative_residual <= 1e-9
        assert report.kernel_dimension >= 1

    def test_second_direction(self):
        report = riesz_decomposition_residual(SPEC, {"bump": bump(SPEC)}, 2)["bump"]
        assert report.relative_residual <= 1e-9

    def test_leibniz_defect_is_order_one(self):
        # centered differences do not satisfy the product rule as matrices;
        # this is why the derivative term stays in commutator form
        report = riesz_decomposition_residual(SPEC, {"bump": bump(SPEC)}, 1)["bump"]
        assert report.leibniz_defect > 0.1

    def test_leibniz_defect_matches_dense(self):
        f = GridFunction.from_callable(
            SPEC, lambda x, y, t: (1.0 + x) * np.exp(-(x * x + y * y + t * t))
        )
        report = riesz_decomposition_residual(SPEC, {"f": f}, 1)["f"]
        x_dense = sparse_fields(SPEC)[0].toarray()
        derivative = x_dense @ f.flat
        defect = x_dense * f.flat[None, :] - f.flat[:, None] * x_dense
        expected = np.linalg.norm(defect - np.diag(derivative)) / np.linalg.norm(
            derivative
        )
        assert report.leibniz_defect == pytest.approx(expected, rel=1e-13)

    def test_family_call_matches_single_calls(self):
        family = {"bump": bump(SPEC), "wide": GridFunction(SPEC, 2.0 * bump(SPEC).values ** 2)}
        together = riesz_decomposition_residual(SPEC, family, 1)
        assert list(together) == ["bump", "wide"]
        for label, f in family.items():
            alone = riesz_decomposition_residual(SPEC, {label: f}, 1)[label]
            assert together[label] == alone

    def test_even_count_has_no_kernel(self):
        spec = GridSpec.cube(10)
        splits = riesz_decomposition_residual(spec, named_family("trace", spec), 1)
        for report in splits.values():
            assert report.kernel_dimension == 0
            assert report.relative_residual <= 1e-9

    def test_rejects_function_on_other_grid(self):
        other = GridSpec.cube(7)
        with pytest.raises(ValueError, match="different grid"):
            riesz_decomposition_residual(SPEC, {"f": bump(other)}, 1)


@pytest.fixture(scope="class", params=T_BLOCK_IDS)
def split_pair(request):
    """A grid and, per field, the sector split and the dense oracle of the
    even, odd and parity-free functions."""
    spec = oracle_spec(request)
    family = split_family(spec)
    return spec, {
        ell: (
            riesz_decomposition_residual(spec, family, ell),
            dense_split(spec, family, ell),
        )
        for ell in (1, 2)
    }


class TestSectorSplit:
    """The split residual in sector coordinates against the dense products."""

    def test_lhs_norm_matches_dense(self, split_pair):
        _, by_ell = split_pair
        for sector, dense in by_ell.values():
            for label, report in sector.items():
                expected = dense[label]["lhs_norm"]
                assert abs(report.lhs_norm - expected) <= 1e-13 * expected

    def test_both_residuals_within_allowance(self, split_pair):
        _, by_ell = split_pair
        for sector, dense in by_ell.values():
            for label, report in sector.items():
                assert report.relative_residual <= 1e-9
                assert dense[label]["relative_residual"] <= 1e-9

    def test_kernel_and_leibniz_equal_dense(self, split_pair):
        spec, by_ell = split_pair
        for sector, dense in by_ell.values():
            for label, report in sector.items():
                assert report.kernel_dimension == dense[label]["kernel_dimension"]
                assert report.kernel_dimension == spec.count % 2
                expected = dense[label]["leibniz_defect"]
                assert abs(report.leibniz_defect - expected) <= 1e-13 * expected

    def test_components(self, split_pair):
        _, by_ell = split_pair
        for sector, _ in by_ell.values():
            assert sector["even"].components == ("++",)
            assert sector["odd_x"].components == ("+-",)
            # 1, x and y carry ++, +- and -+; the rounding of the sums
            # (1 + x) + y leaves a -- remainder of about 1e-17, which is
            # dropped
            assert sector["no_parity"].components == ("++", "+-", "-+")

    def test_perturbed_root_fails_on_both_paths(self, monkeypatch):
        # one live eigenvalue of a paired kept block of (-Delta)^{-1/2},
        # scaled by 1 + 1e-6, must show on the sector blocks as on the
        # dense products: the sector path reads the perturbed inverse root
        # off its kept t-block columns, in its Riesz blocks and in the
        # stencil S~+, the dense oracle in both of its powers' places
        model = _model(SPEC)
        w, v, live = oracles.eig(model)
        assert model.weight[0] == 2
        mode = np.flatnonzero(live[0])[0]
        scale = 1e-6 / math.sqrt(w[0, mode])
        z = np.kron(v[0, :, mode], model._t_vectors[:, 0])
        # the mode and its conjugate in block nt, as a real operator
        shift = scale * 2.0 * np.outer(z, z.conj()).real
        # the same shift on the kept form: t-block 0 gains scale v v^H, whose
        # columns at the planar representatives go to the real and
        # imaginary slots of block 0
        reps = model.planar_representatives()
        column_shift = scale * np.outer(v[0, :, mode], v[0, reps, mode].conj())
        kept = model.inverse_root_columns().copy()
        kept[:, :, 0] += column_shift.real.T
        kept[:, :, model.mu.size] += column_shift.imag.T
        power = oracles.assembled_power

        def perturbed_power(model, exponent):
            out = power(model, exponent)
            return out + shift if exponent == -0.5 else out

        monkeypatch.setattr(oracles, "assembled_power", perturbed_power)
        # the cached model gets its unperturbed columns back after the test
        monkeypatch.setattr(model, "_inverse_root", kept)
        family = {"bump": bump(SPEC)}
        sector = riesz_decomposition_residual(SPEC, family, 1)["bump"]
        dense = dense_split(SPEC, family, 1)["bump"]
        assert sector.relative_residual > 1e-9
        assert dense["relative_residual"] > 1e-9

    @pytest.mark.parametrize("count", [9, 10, 13])
    def test_stencil_root_blocks_match_the_power(self, count):
        # (-Delta)^{1/2} = -(X_1 X_1 + X_2 X_2)(-Delta)^{-1/2} on the live
        # modes: two stencil passes per field over the inverse root's block
        # give the square root's block read off the t-block eigenpairs
        model = _model(GridSpec.cube(count))
        expected = power_blocks(model, 0.5)
        for k in range(len(SECTORS)):
            for c, want in enumerate(expected[k]):
                got = model.root_block(k, c, model.inverse_root_blocks(c))
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_split_holds_no_root_set(self):
        # on a warm 13^3 model (the inverse root's t-block columns, the
        # kernel and the field rows built), the split of the trace family
        # reads one colour class of S~- at a time and forms its square-root
        # blocks one at a time: it peaks less than 1.5 sector sets of
        # (N + 3n + 4)^2 bytes above the model, where a set of S~+ blocks
        # read whole would add one more set
        count = 13
        spec = GridSpec.cube(count)
        model = _model(spec)
        model.inverse_root_columns()
        model.kernel()
        for ell in (1, 2):
            model.field_rows(ell)
        family = named_family("trace", spec)
        tracemalloc.start()
        try:
            riesz_decomposition_residual(spec, family, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sector_set = (count**3 + 3 * count + 4) ** 2
        assert peak < 1.5 * sector_set

    @pytest.mark.parametrize("count", [9, 13])
    def test_split_holds_two_inverse_root_blocks_at_a_time(self, count, monkeypatch):
        # the split of the trace family reads each sector block of each
        # colour class of the inverse root once, as the pairs {0, 1} and
        # {2, 3}, and drops each block after the last step that reads it:
        # no more than two blocks are alive at once, where a read of the
        # whole class holds four.  The blocks of one read are views of one
        # array, alive while any of them is
        spec = GridSpec.cube(count)
        family = named_family("trace", spec)
        reads, alive, most = Counter(), {}, []
        read_class = _GridModel.read_class

        def counting_read_class(self, by_column, c, *sectors):
            blocks = read_class(self, by_column, c, *sectors)
            for k in sectors[0] if sectors else range(len(SECTORS)):
                reads[c, k] += 1
            base = blocks[0].base
            assert all(block.base is base for block in blocks)
            alive[id(base)] = len(blocks)
            weakref.finalize(base, alive.pop, id(base))
            most.append(sum(alive.values()))
            return blocks

        monkeypatch.setattr(_GridModel, "read_class", counting_read_class)
        riesz_decomposition_residual(spec, family, 1)
        assert reads == Counter({(c, k): 1 for c in (0, 1) for k in range(len(SECTORS))})
        assert max(most) <= 2
        assert len(most) == 4
        assert not alive

    @pytest.mark.parametrize("ell", [1, 2])
    def test_split_gathers_once_and_projects_where_the_kernel_lives(
        self, ell, monkeypatch
    ):
        # on a warm 9^3 model each block of the split gathers R~_sigma once,
        # for its commutator and its f R~_sigma term together, and
        # R~_{sigma eps} once more for a component eps other than ++; a side
        # of a block is projected off the kernel, once for the lhs and once
        # for the gap, only where its sector holds kernel coordinates
        family = split_family(SPEC)
        riesz_decomposition_residual(SPEC, family, ell)
        gathers, projections = Counter(), Counter()
        riesz_block, project_off = _GridModel.riesz_block, grid._project_off

        def counting_riesz_block(self, ell, k, c, inverse, rows, cols=None):
            gathers[k, c] += 1
            return riesz_block(self, ell, k, c, inverse, rows, cols)

        def counting_project_off(mat, basis, side, out):
            projections[side, mat.shape] += 1
            project_off(mat, basis, side, out)

        monkeypatch.setattr(_GridModel, "riesz_block", counting_riesz_block)
        monkeypatch.setattr(grid, "_project_off", counting_project_off)
        reports = riesz_decomposition_residual(SPEC, family, ell)
        # the oracle: the colour of each sector's live orbits, and the
        # (sector, colour) cells on which the kernel has coordinates in the
        # dense sector bases
        model = _model(SPEC)
        orbits = model.sectors()
        kernel = model.kernel()
        colours = point_colours(SPEC)[orbits.table[0]]
        colour = [colours[orbits.live[k]] for k in range(len(SECTORS))]
        held = []
        for k, character in enumerate(SECTORS):
            coords = np.abs(sector_bases(SPEC)[character].T @ kernel)[:, 0]
            held.append([bool(np.any(coords[colour[k] == c] > 1e-8)) for c in (0, 1)])
        # the mode vanishes on every point of odd colour
        assert held == [[True, False], [False, False], [False, False], [False, False]]
        labels = [_character_label(k) for k in range(len(SECTORS))]
        expected_gathers, expected_projections = Counter(), Counter()
        for report in reports.values():
            for eps in map(labels.index, report.components):
                for k in range(len(SECTORS)):
                    for c in (0, 1):
                        expected_gathers[k, c] += 1
                        if eps:
                            expected_gathers[k ^ eps, c] += 1
                        rho = k ^ eps ^ _FIELD_CHARACTER[ell]
                        shape = (int(np.sum(colour[rho] != c)), int(np.sum(colour[k] == c)))
                        # the rows have colour 1 - c, the columns colour c
                        for side, (sector, shade) in enumerate(((rho, 1 - c), (k, c))):
                            if held[sector][shade]:
                                expected_projections[side, shape] += 2
        assert gathers == expected_gathers
        assert projections == expected_projections
        # an even function has 8 blocks, gathered once each; the kernel
        # lies in sector ++ on the even colour, so of their 16 sides 2 are
        # projected
        gathers.clear()
        projections.clear()
        riesz_decomposition_residual(SPEC, {"even": family["even"]}, ell)
        assert sum(gathers.values()) == 8
        assert sum(projections.values()) == 2 * 2

    @pytest.mark.parametrize("ell", [1, 2])
    def test_family_without_a_trivial_component(self, ell):
        # no function has a ++ part, yet each block at sector sigma reads
        # the root block of sigma itself as well as that of sigma eps
        odd_x = split_family(SPEC)["odd_x"]
        odd_xy = GridFunction(SPEC, SPEC.axis[None, :, None] * odd_x.values)
        family = {"odd_x": odd_x, "odd_xy": odd_xy}
        sector = riesz_decomposition_residual(SPEC, family, ell)
        dense = dense_split(SPEC, family, ell)
        assert sector["odd_x"].components == ("+-",)
        assert sector["odd_xy"].components == ("--",)
        for label, report in sector.items():
            expected = dense[label]["lhs_norm"]
            assert abs(report.lhs_norm - expected) <= 1e-13 * expected
            assert report.relative_residual <= 1e-9
        alone = riesz_decomposition_residual(SPEC, {"odd_x": odd_x}, ell)["odd_x"]
        assert alone == sector["odd_x"]

    def test_zero_function(self):
        report = riesz_decomposition_residual(
            SPEC, {"zero": GridFunction(SPEC, np.zeros(SPEC.shape))}, 1
        )["zero"]
        assert report.components == ()
        assert report.lhs_norm == 0.0 and report.relative_residual == 0.0


class TestCwikelSurrogate:
    def test_family_ratio_bounded(self):
        from heislab.schatten import singular_values, weak_quasinorm

        inv_sqrt = dense_inverse_sqrt(dense_sublaplacian(SPEC))
        family = [
            lambda x, y, t: np.exp(-(x * x + y * y + t * t)),
            lambda x, y, t: np.exp(-2.0 * (x * x + y * y + t * t)),
            lambda x, y, t: x * np.exp(-(x * x + y * y + t * t)),
            lambda x, y, t: t * np.exp(-2.0 * (x * x + y * y + t * t)),
            lambda x, y, t: (x * x + y * y) * np.exp(-2.0 * (x * x + y * y + t * t)),
        ]
        ratios = []
        for fn in family:
            f = GridFunction.from_callable(SPEC, fn)
            product = f.flat[:, None] * inv_sqrt
            quasi = weak_quasinorm(singular_values(product), 4.0)
            ratios.append(quasi / norm_lp(f, 4.0))
        assert max(ratios) / min(ratios) <= 5.0


class TestGridFunctionBasics:
    def test_norm_lp(self):
        assert norm_lp(bump(SPEC), 4.0) > 0.0
        ones = GridFunction(SPEC, np.ones(SPEC.shape))
        assert norm_lp(ones, 2.0) == pytest.approx(
            math.sqrt(SPEC.size * SPEC.cell_volume), rel=1e-14
        )

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="finite"):
            GridFunction(SPEC, np.full(SPEC.shape, np.nan))
        with pytest.raises(ValueError, match="shape"):
            GridFunction(SPEC, np.zeros((2, 2, 2)))
        # complex values are refused, not cast to their real parts
        for values in (np.ones(SPEC.shape, dtype=complex), np.full(SPEC.shape, 1j)):
            with pytest.raises(ValueError, match="real"):
                GridFunction(SPEC, values)

    def test_integer_and_boolean_values_become_float(self):
        # the sector path divides and scales the values in place, which
        # integer arrays refuse; float64 input is kept as given
        ints = np.indices(SPEC.shape).sum(axis=0) % 3
        for values in (ints, ints == 1):
            f = GridFunction(SPEC, values)
            assert f.values.dtype == np.float64
            assert np.array_equal(f.values, values)
            same = GridFunction(SPEC, values.astype(float))
            split = riesz_decomposition_residual(SPEC, {"f": f, "same": same})
            assert split["f"] == split["same"]
            spectrum, _ = _model(SPEC).commutator_spectrum(1, f)
            assert spectrum.values[0] > 0.0
        values = np.ones(SPEC.shape)
        assert GridFunction(SPEC, values).values is values
