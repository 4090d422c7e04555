"""Truncated harmonic oscillator model in the Hermite basis.

The basis elements are labelled by multi-indices ``alpha`` with total degree
``|alpha| <= K``.  Momentum and position act by the standard ladder rules

    p_j h_alpha = -i sqrt(alpha_j/2) h_{alpha-e_j} + i sqrt((alpha_j+1)/2) h_{alpha+e_j}
    q_j h_alpha =    sqrt(alpha_j/2) h_{alpha-e_j} +   sqrt((alpha_j+1)/2) h_{alpha+e_j}

and the oscillator ``H = sum_j p_j^2 + q_j^2`` is diagonal with eigenvalues
``2|alpha| + n``.  Truncation is by total degree, which keeps ``H`` exactly
diagonal and confines every truncation artifact to the top grade; identities
that need exact commutation restrict to ``|alpha| <= K - 1``.

A :class:`FiberOperator` is a pair of matrices over this basis, one per sign
of the frequency variable of the group Fourier transform.  The pair encodes
an element of the two-component algebra whose trace is
``tr_sigma = Tr(minus) + Tr(plus)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Dense D x D blocks get eigendecomposed and multiplied freely; past this
# dimension that stops being a desk-scale computation.
MAX_BASIS_DIM = 4096

_WEIGHTS = {"one": (1.0, 1.0), "z": (-1.0, 1.0)}


def _graded_lex(n: int, grade: int):
    """Multi-indices of total degree ``grade``, lexicographically ascending."""
    if n == 1:
        yield (grade,)
        return
    for head in range(grade + 1):
        for tail in _graded_lex(n - 1, grade - head):
            yield (head, *tail)


@dataclass(frozen=True, eq=False)
class MultiIndexBasis:
    """Graded-lexicographic enumeration of ``{alpha : |alpha| <= K}``.

    The ordering is fixed (grade first, then lexicographic within a grade) so
    every matrix built on the basis is byte-stable across runs.
    """

    n: int
    K: int
    indices: tuple[tuple[int, ...], ...]
    _position: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_position", {alpha: i for i, alpha in enumerate(self.indices)}
        )

    @property
    def dim(self) -> int:
        return len(self.indices)

    def index_of(self, alpha) -> int:
        try:
            return self._position[tuple(alpha)]
        except KeyError:
            raise ValueError(f"multi-index {tuple(alpha)} outside the degree-{self.K} cutoff")

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiIndexBasis) and (self.n, self.K) == (other.n, other.K)

    def __hash__(self) -> int:
        return hash((self.n, self.K))


def enumerate_basis(n: int, K: int) -> MultiIndexBasis:
    """Build the graded-lex basis for dimension ``n`` and degree cutoff ``K``."""
    if n < 1:
        raise ValueError("basis dimension must be >= 1")
    if K < 0:
        raise ValueError("degree cutoff must be >= 0")
    dim = math.comb(K + n, n)
    if dim > MAX_BASIS_DIM:
        raise ValueError(f"basis dimension {dim} exceeds the supported cap {MAX_BASIS_DIM}")
    indices = tuple(
        alpha for grade in range(K + 1) for alpha in _graded_lex(n, grade)
    )
    assert len(indices) == dim
    return MultiIndexBasis(n=n, K=K, indices=indices)


def _ladder_matrix(basis: MultiIndexBasis, j: int, down: complex, up: complex) -> np.ndarray:
    """Shared tridiagonal-per-coordinate builder for momentum and position."""
    if not 1 <= j <= basis.n:
        raise ValueError(f"coordinate {j} outside 1..{basis.n}")
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    for col, alpha in enumerate(basis.indices):
        aj = alpha[j - 1]
        if aj >= 1:
            lower = alpha[: j - 1] + (aj - 1,) + alpha[j:]
            mat[basis.index_of(lower), col] = down * math.sqrt(aj / 2.0)
        if sum(alpha) < basis.K:
            upper = alpha[: j - 1] + (aj + 1,) + alpha[j:]
            mat[basis.index_of(upper), col] = up * math.sqrt((aj + 1) / 2.0)
    return mat


def momentum_matrix(basis: MultiIndexBasis, j: int) -> np.ndarray:
    """Matrix of ``p_j`` compressed to the cutoff space.

    Terms that would leave ``|alpha| <= K`` are dropped, so columns in the top
    grade have no upward coupling.
    """
    return _ladder_matrix(basis, j, down=-1j, up=1j)


def position_matrix(basis: MultiIndexBasis, j: int) -> np.ndarray:
    """Matrix of ``q_j`` compressed to the cutoff space; real symmetric."""
    return _ladder_matrix(basis, j, down=1.0, up=1.0).real


def oscillator_matrix(basis: MultiIndexBasis) -> np.ndarray:
    """Diagonal matrix with entries ``2|alpha| + n`` in basis order."""
    return np.diag([2.0 * sum(alpha) + basis.n for alpha in basis.indices])


def matrix_unit(basis: MultiIndexBasis, alpha, beta) -> np.ndarray:
    """The matrix unit ``E_{alpha,beta}``: a single entry 1."""
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    mat[basis.index_of(alpha), basis.index_of(beta)] = 1.0
    return mat


@dataclass(frozen=True)
class FiberOperator:
    """A pair of blocks over one basis, one per sign of the frequency variable.

    The adjoint acts blockwise and never swaps the components.
    """

    basis: MultiIndexBasis
    minus: np.ndarray
    plus: np.ndarray

    def __post_init__(self) -> None:
        shape = (self.basis.dim, self.basis.dim)
        minus = np.asarray(self.minus, dtype=complex)
        plus = np.asarray(self.plus, dtype=complex)
        if minus.shape != shape or plus.shape != shape:
            raise ValueError(f"blocks must both be {shape}")
        for block in (minus, plus):
            block.flags.writeable = False
        object.__setattr__(self, "minus", minus)
        object.__setattr__(self, "plus", plus)

    def __add__(self, other: "FiberOperator") -> "FiberOperator":
        _check_same_basis(self, other)
        return FiberOperator(self.basis, self.minus + other.minus, self.plus + other.plus)

    def __mul__(self, scalar) -> "FiberOperator":
        return FiberOperator(self.basis, scalar * self.minus, scalar * self.plus)

    __rmul__ = __mul__


def _check_same_basis(x: FiberOperator, y: FiberOperator) -> None:
    if x.basis != y.basis:
        raise ValueError("fiber operators live over different bases")


def tensor_scalar(basis: MultiIndexBasis, mat: np.ndarray, component: str = "one") -> FiberOperator:
    """Tensor a single block with one of the two canonical sign patterns.

    ``component="one"`` repeats the block on both signs, ``component="z"``
    flips the sign of the block on the negative component.
    """
    try:
        w_minus, w_plus = _WEIGHTS[component]
    except KeyError:
        raise ValueError(f"unknown component {component!r}; expected 'one' or 'z'")
    mat = np.asarray(mat, dtype=complex)
    return FiberOperator(basis, w_minus * mat, w_plus * mat)


def fiber_identity(basis: MultiIndexBasis) -> FiberOperator:
    return tensor_scalar(basis, np.eye(basis.dim))


def riesz_symbol(basis: MultiIndexBasis, ell: int) -> FiberOperator:
    """Fiber symbol of the ell-th Riesz transform, ``1 <= ell <= 2n``.

    The first n symbols are ``i p_j H^{-1/2}`` on both blocks; the second n
    are ``i q_j H^{-1/2}`` carrying the sign-flip component, so the minus
    block is the negative of the plus block.  Each block is a compression of
    a contraction and has operator norm at most 1.
    """
    if not 1 <= ell <= 2 * basis.n:
        raise ValueError(f"Riesz index {ell} outside 1..{2 * basis.n}")
    h_inv_sqrt = np.diag(np.diag(oscillator_matrix(basis)) ** -0.5)
    if ell <= basis.n:
        core = 1j * momentum_matrix(basis, ell) @ h_inv_sqrt
        return tensor_scalar(basis, core, "one")
    core = 1j * position_matrix(basis, ell - basis.n) @ h_inv_sqrt
    return tensor_scalar(basis, core, "z")


def fiber_mul(x: FiberOperator, y: FiberOperator) -> FiberOperator:
    """Blockwise product."""
    _check_same_basis(x, y)
    return FiberOperator(x.basis, x.minus @ y.minus, x.plus @ y.plus)


def fiber_adjoint(x: FiberOperator) -> FiberOperator:
    """Blockwise conjugate transpose."""
    return FiberOperator(x.basis, x.minus.conj().T, x.plus.conj().T)


def tr_sigma(x: FiberOperator) -> complex:
    """The two-component trace ``Tr(minus) + Tr(plus)``."""
    return complex(np.trace(x.minus) + np.trace(x.plus))


def _pooled_singular_values(x: FiberOperator) -> np.ndarray:
    """Singular values of the minus block followed by those of the plus block."""
    return np.concatenate(
        [
            np.linalg.svd(x.minus, compute_uv=False),
            np.linalg.svd(x.plus, compute_uv=False),
        ]
    )


def fiber_schatten_norm(x: FiberOperator, p: float) -> float:
    """Schatten p-norm with respect to the two-component trace.

    Pools the singular values of both blocks: ``(sum mu^p)^{1/p}``.
    """
    if p < 1.0:
        raise ValueError("Schatten exponent must be >= 1")
    vals = _pooled_singular_values(x)
    return float(np.sum(vals**p) ** (1.0 / p))
