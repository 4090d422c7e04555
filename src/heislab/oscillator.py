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

__all__ = [
    "MAX_BASIS_DIM",
    "MultiIndexBasis",
    "enumerate_basis",
    "momentum_matrix",
    "position_matrix",
    "oscillator_matrix",
    "matrix_unit",
    "FiberOperator",
    "tensor_scalar",
    "riesz_symbol",
    "fiber_mul",
    "fiber_adjoint",
    "tr_sigma",
    "pooled_schatten_powers",
]

# Dense D x D blocks get eigendecomposed and multiplied freely; past this
# dimension that stops being a desk-scale computation.
MAX_BASIS_DIM = 4096

_WEIGHTS = {"one": (1.0, 1.0), "z": (-1.0, 1.0)}

# bytes of the fiber mixes (one D x D complex block per row) that one chunk
# of ``pooled_schatten_powers`` forms; its Gram matrices and their powers
# are a few times as large again
_MIX_BYTES = 524_288


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


def pooled_schatten_powers(coefficients, symbols, p: float) -> np.ndarray:
    """Pooled Schatten p-th powers of a stack of fiber mixes, one per row.

    Row r mixes the symbols as ``A_r = sum_k coefficients[r, k] symbols[k]``
    and gets ``sum mu^p`` over the singular values of both of its blocks.
    Only an even integer ``p = 2m >= 2`` is accepted: then
    ``sum mu^{2m} = tr(G^m)`` with ``G = A^* A``, read as
    ``sum_ij (G^a)_ij (G^b)_ji`` with ``a = floor(m/2)``, ``b = ceil(m/2)``,
    so the whole stack takes a few batched matmuls and no SVD.  The rows
    run in chunks of about ``_MIX_BYTES`` of mixes; a row's value does not
    depend on the chunk it falls in.
    """
    m = p / 2.0
    if not (m >= 1.0 and m.is_integer()):
        raise ValueError(f"Schatten exponent must be an even integer >= 2; got {p}")
    m = int(m)
    basis = symbols[0].basis
    if any(s.basis != basis for s in symbols[1:]):
        raise ValueError("fiber symbols live over different bases")
    coeff = np.asarray(coefficients, dtype=complex)
    if coeff.ndim != 2 or coeff.shape[1] != len(symbols):
        raise ValueError(
            f"coefficient array must be (rows, {len(symbols)}); got {coeff.shape}"
        )
    stacks = [np.stack([s.minus for s in symbols]), np.stack([s.plus for s in symbols])]
    # two rows a chunk at least, and a last row joins the chunk before it:
    # numpy mixes a single row through gemv, which rounds unlike gemm
    count = coeff.shape[0]
    step = max(2, _MIX_BYTES // (16 * basis.dim**2))
    stops = [*range(step, count - 1, step), count]
    total = np.zeros(count)
    for start, stop in zip([0, *stops], stops):
        rows = slice(start, stop)
        for stack in stacks:
            mix = np.tensordot(coeff[rows], stack, axes=1)
            gram = mix.conj().transpose(0, 2, 1) @ mix
            low = gram if m > 1 else np.eye(basis.dim)
            for _ in range(m // 2 - 1):
                low = low @ gram
            high = low @ gram if m % 2 else low
            total[rows] += np.einsum("...ij,...ji->...", low, high).real
    return total
