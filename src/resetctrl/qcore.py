"""Finite-dimensional quantum linear algebra on dense complex matrices.

``Operator``, ``DensityMatrix`` (validated) and ``SuperOperator`` tag a
matrix with its Hilbert space and carry no arithmetic; the numerical
work (partial trace, exponentials, norms, CPTP checks) acts on arrays.

Conventions used throughout the package:

* hbar = 1; all frequencies are in units of a reference model frequency.
* Superoperators act on column-stacked ("vec") density matrices:
  vec(M) stacks the columns of M, so vec(A B C) = (C^T kron A) vec(B).
  Every superoperator constructor and consumer in this package shares
  this convention.
* Default tolerances: hermiticity and trace 1e-10, positivity -1e-8,
  overridable per call on DensityMatrix and is_cptp only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, InitVar
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

TOL_HERM = 1e-10
TOL_TRACE = 1e-10
TOL_PSD = 1e-8
# a pure reference vector must have unit norm within this (fidelity_pure)
FIDELITY_NORM_TOL = 1e-8

# expm overflows double precision well before this; reject early with a
# clear error instead of returning inf entries.
_EXP_NORM_LIMIT = 700.0


class NumericalRangeError(ValueError):
    """Input magnitude outside the range the numerical method can represent."""


class ConvergenceError(RuntimeError):
    """An iterative refinement hit its cap before reaching tolerance.

    ``ladder`` holds the levels tried, as [[steps, residual], ...] (empty
    for a refinement without levels); the message lists them too.
    """

    def __init__(self, message: str, residual: float, steps: int,
                 ladder: Sequence[tuple[int, float]]):
        self.ladder = [[int(s), float(r)] for s, r in ladder]
        tried = ", ".join(f"[{s}, {r:.3e}]" for s, r in self.ladder)
        super().__init__(
            f"{message} (residual {residual:.3e} after {steps} steps"
            + (f"; ladder [{tried}])" if tried else ")")
        )
        self.residual = residual
        self.steps = steps


@dataclass(frozen=True)
class HilbertSpace:
    """Tensor-product structure of a finite-dimensional Hilbert space."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"subsystem dimensions must be >= 1, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def tensor(self, other: "HilbertSpace") -> "HilbertSpace":
        return HilbertSpace(self.dims + other.dims)


def _as_square_complex(matrix) -> np.ndarray:
    m = np.array(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class Operator:
    """Square complex matrix tagged with its Hilbert-space signature."""

    matrix: np.ndarray
    space: HilbertSpace

    def __post_init__(self):
        m = _as_square_complex(self.matrix)
        if m.shape[0] != self.space.total_dim:
            raise ValueError(
                f"matrix side {m.shape[0]} does not match space dimension "
                f"{self.space.total_dim}"
            )
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_matrix(cls, matrix, dims: Sequence[int] | None = None) -> "Operator":
        m = _as_square_complex(matrix)
        space = HilbertSpace(tuple(dims) if dims is not None else (m.shape[0],))
        return cls(m, space)

    @property
    def dim(self) -> int:
        return self.space.total_dim

    def is_hermitian(self) -> bool:
        """Hermitian within ``TOL_HERM`` (max-abs asymmetry)."""
        return bool(np.max(np.abs(self.matrix - self.matrix.conj().T)) <= TOL_HERM)


@dataclass(frozen=True)
class DensityMatrix:
    """Validated quantum state.

    The constructor checks hermiticity, unit trace and positivity; pass
    ``validate=False`` on internal hot paths where the state is valid by
    construction.
    """

    op: Operator
    validate: InitVar[bool] = True
    tol_herm: InitVar[float] = TOL_HERM
    tol_trace: InitVar[float] = TOL_TRACE
    tol_psd: InitVar[float] = TOL_PSD

    def __post_init__(self, validate, tol_herm, tol_trace, tol_psd):
        if not validate:
            return
        m = self.op.matrix
        herm = np.max(np.abs(m - m.conj().T))
        if herm > tol_herm:
            raise ValueError(f"not Hermitian: max asymmetry {herm:.3e} > {tol_herm:.1e}")
        tr = np.trace(m)
        if abs(tr - 1.0) > tol_trace:
            raise ValueError(f"trace {tr:.12g} deviates from 1 beyond {tol_trace:.1e}")
        # the Hermitian part plus tol_psd 1 has a Cholesky factor exactly when
        # its minimum eigenvalue exceeds -tol_psd; eigenvalues are computed
        # only to report a failure
        shifted = 0.5 * (m + m.conj().T)
        shifted.flat[:: m.shape[0] + 1] += tol_psd
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            min_eig = float(np.min(np.linalg.eigvalsh(shifted))) - tol_psd
            if min_eig < -tol_psd:
                raise ValueError(f"minimum eigenvalue {min_eig:.3e} < -{tol_psd:.1e}") from None

    @classmethod
    def from_matrix(cls, matrix, dims: Sequence[int] | None = None, **tols) -> "DensityMatrix":
        return cls(Operator.from_matrix(matrix, dims), **tols)

    @classmethod
    def pure(cls, psi, dims: Sequence[int] | None = None) -> "DensityMatrix":
        v = np.asarray(psi, dtype=complex).reshape(-1)
        v = v / np.linalg.norm(v)
        return cls(Operator.from_matrix(np.outer(v, v.conj()), dims), validate=False)

    @property
    def matrix(self) -> np.ndarray:
        return self.op.matrix

    @property
    def space(self) -> HilbertSpace:
        return self.op.space

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


@dataclass(frozen=True)
class SuperOperator:
    """Linear map on operators, stored as a matrix on column-stacked inputs."""

    matrix: np.ndarray
    space: HilbertSpace

    def __post_init__(self):
        m = _as_square_complex(self.matrix)
        if m.shape[0] != self.space.total_dim ** 2:
            raise ValueError(
                f"superoperator side {m.shape[0]} != total_dim^2 = "
                f"{self.space.total_dim ** 2}"
            )
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls, space: HilbertSpace) -> "SuperOperator":
        return cls(np.eye(space.total_dim ** 2, dtype=complex), space)

    @property
    def dim(self) -> int:
        return self.space.total_dim

    def apply(self, matrix: np.ndarray) -> np.ndarray:
        """Apply the map to an operator matrix, returning an operator matrix."""
        d = self.dim
        return unvec(self.matrix @ vec(matrix), d)


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stack a matrix, or each matrix of a stack in the last two axes, into a vector."""
    m = np.asarray(matrix)
    return m.swapaxes(-1, -2).reshape(m.shape[:-2] + (-1,))


def unvec(vector: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec` for square matrices of side ``dim``, in the last axis."""
    v = np.asarray(vector)
    return v.reshape(v.shape[:-1] + (dim, dim)).swapaxes(-1, -2)


def partial_trace_matrix(matrix: np.ndarray, dims: Sequence[int], keep: int) -> np.ndarray:
    """Trace out all subsystems except ``keep`` from the raw matrices in the last two axes."""
    dims = tuple(dims)
    n = len(dims)
    if not 0 <= keep < n:
        raise ValueError(f"invalid subsystem index {keep} for {n} subsystems")
    m = np.asarray(matrix)
    lead = m.ndim - 2
    tensor = m.reshape(m.shape[:lead] + dims + dims)
    # contract every row index with its matching column index except `keep`
    for axis in reversed([i for i in range(n) if i != keep]):
        row = lead + axis
        tensor = np.trace(tensor, axis1=row, axis2=row + (tensor.ndim - lead) // 2)
    return tensor


def _hstack(stack: np.ndarray) -> np.ndarray:
    """[X_1; ...; X_n] (n d x d) -> [X_1 | ... | X_n] (d x n d) in the last axes; n may be 0."""
    lead, (rows, d) = stack.shape[:-2], stack.shape[-2:]
    return stack.reshape(lead + (-1, d, d)).swapaxes(-3, -2).reshape(lead + (d, rows))


def _kraus_apply(kraus: tuple[np.ndarray, np.ndarray], rho: np.ndarray) -> np.ndarray:
    """sum_j A_j rho B_j for the stacks ``kraus`` = ([A_1; ...; A_n], [B_1; ...; B_n]).

    Two matmuls whatever n: the blocks of [A_j rho] are laid side by
    side and multiplied into the stack of the B_j. Leading axes broadcast.
    """
    left, right = kraus
    return _hstack(left @ rho) @ right


def _super_matrix(apply: Callable[[np.ndarray], np.ndarray], d: int) -> np.ndarray:
    """Column-stacking matrix of a linear map on d x d matrices, by one call of ``apply``.

    ``apply`` maps the stack of the d^2 matrix units E_idx (idx = row + col d)
    at once; axes it prepends (a stack of maps) lead the result.
    """
    units = unvec(np.eye(d * d, dtype=complex), d)
    # C order: a batched matvec on a stack of these then makes the same
    # BLAS call per matrix as a single matvec, and rounds the same way
    return np.ascontiguousarray(vec(apply(units)).swapaxes(-1, -2))


def mat_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential for general (non-normal) complex matrices.

    Uses scaling-and-squaring with Pade approximation via scipy. Raises
    :class:`NumericalRangeError` when the input norm puts the result
    outside double-precision range.
    """
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix exponential of non-finite input")
    if m.size and np.linalg.norm(m, 1) > _EXP_NORM_LIMIT:
        raise NumericalRangeError(
            f"matrix 1-norm {np.linalg.norm(m, 1):.3e} exceeds exp range"
        )
    out = scipy.linalg.expm(m)
    if not np.all(np.isfinite(out)):
        raise NumericalRangeError("matrix exponential overflowed")
    return out


def expm_hermitian(h: np.ndarray, factor: complex = 1.0) -> np.ndarray:
    """exp(factor * h) for Hermitian h via spectral decomposition."""
    energies, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(factor * energies)) @ vecs.conj().T


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.sum(scipy.linalg.svdvals(m)))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * trace_norm(np.asarray(a) - np.asarray(b))


def fidelity_pure(rho: DensityMatrix, psi: np.ndarray) -> float:
    """sqrt(<psi| rho |psi>) between a state and a pure reference.

    ``psi`` must have unit norm within ``FIDELITY_NORM_TOL``.
    """
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.shape[0] != rho.space.total_dim:
        raise ValueError(
            f"state vector length {v.shape[0]} != state dimension {rho.space.total_dim}"
        )
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > FIDELITY_NORM_TOL:
        raise ValueError(f"reference vector norm {norm:.12g} is not 1")
    overlap = float(np.real(v.conj() @ rho.matrix @ v))
    return math.sqrt(min(max(overlap, 0.0), 1.0))


def ham_super(h: Operator) -> SuperOperator:
    """Commutator superoperator rho -> -i [h, rho] (hbar = 1); h Hermitian within ``TOL_HERM``."""
    if not h.is_hermitian():
        raise ValueError("ham_super requires a Hermitian operator")
    m = h.matrix
    d = m.shape[0]
    eye = np.eye(d)
    return SuperOperator(-1j * (np.kron(eye, m) - np.kron(m.T, eye)), h.space)


def dissipator_super(l: Operator) -> SuperOperator:
    """Lindblad dissipator rho -> L rho L^+ - (1/2){L^+ L, rho}."""
    m = l.matrix
    d = m.shape[0]
    eye = np.eye(d)
    ll = m.conj().T @ m
    s = np.kron(m.conj(), m) - 0.5 * np.kron(eye, ll) - 0.5 * np.kron(ll.T, eye)
    return SuperOperator(s, l.space)


def choi_matrix(s: SuperOperator) -> np.ndarray:
    """Choi representation sum_ij E_ij kron Phi(E_ij) (input factor first).

    Phi(E_ij)[a, b] = S[a + b d, i + j d] in the column-stacking
    convention, so the Choi entry [(i, a), (j, b)] is S4[b, a, j, i] of the
    C-order view S4 of S: one transpose and reshape.
    """
    d = s.dim
    return s.matrix.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


def is_cptp(
    s: SuperOperator,
    tol_psd: float = TOL_PSD,
    tol_trace: float = TOL_TRACE,
) -> bool:
    """True iff the map is completely positive and trace-preserving.

    CP: the Choi matrix is PSD within tol_psd. TP: tracing the output
    factor of the Choi matrix returns the identity within tol_trace.
    """
    d = s.dim
    choi = choi_matrix(s)
    herm = np.max(np.abs(choi - choi.conj().T))
    if herm > max(tol_psd, 1e-9):
        return False
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))))
    if min_eig < -tol_psd:
        return False
    reduced = partial_trace_matrix(choi, (d, d), keep=0)
    return bool(np.max(np.abs(reduced - np.eye(d))) <= tol_trace)
