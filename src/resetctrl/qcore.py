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

TOL_HERM = 1e-10
TOL_TRACE = 1e-10
TOL_PSD = 1e-8
# a pure reference vector must have unit norm within this (fidelity_pure)
FIDELITY_NORM_TOL = 1e-8

# expm overflows double precision well before this; reject early with a
# clear error instead of returning inf entries.
_EXP_NORM_LIMIT = 700.0

# Higham (2005), Table 2.3 and eq. (2.2): for the Padé degrees m = 3, 5, 7
# and 9, the largest 1-norm theta_m at which the [m/m] approximant of exp
# meets unit roundoff in double precision, and its coefficients b_0..b_m
_PADE = (
    (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (9.504178996162932e-1,
     (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)),
    (2.097847961257068e0,
     (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
      2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
)
# the same for degree 13, the only degree used with scaling
_THETA_13 = 5.371920351148152
_PADE_13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)


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
        if validate:
            _check_density(self.op.matrix[None], tol_herm, tol_trace, tol_psd)

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
        return float(_purities(self.matrix[None])[0])


def _check_density(m: np.ndarray, tol_herm: float, tol_trace: float, tol_psd: float):
    """Raise ValueError unless every matrix of the stack (n, d, d) is a valid state.

    Finiteness, hermiticity, unit trace and positivity are each reduced
    over the whole stack at once; only a failure is traced back to the
    first failing member, whose numbers the message gives, as for a
    single ``DensityMatrix``. Finiteness comes first: a NaN compares
    false with every tolerance, and an inf makes the later checks warn.
    """
    finite = np.isfinite(m)
    if not finite.all():
        k = np.argmin(finite.all(axis=(-2, -1)))
        raise ValueError(f"not finite: member {k} has entry {m[k][~finite[k]][0]}")
    m_dag = m.conj().swapaxes(-1, -2)
    asym = np.abs(m - m_dag)
    if asym.max() > tol_herm:
        herm = asym.max(axis=(-2, -1))
        k = np.argmax(herm > tol_herm)
        raise ValueError(f"not Hermitian: max asymmetry {herm[k]:.3e} > {tol_herm:.1e}")
    tr = m.trace(axis1=-2, axis2=-1)
    off = np.abs(tr - 1.0)
    if off.max() > tol_trace:
        k = np.argmax(off > tol_trace)
        raise ValueError(f"trace {tr[k]:.12g} deviates from 1 beyond {tol_trace:.1e}")
    # the Hermitian part plus tol_psd 1 has a Cholesky factor exactly when
    # its minimum eigenvalue exceeds -tol_psd; eigenvalues are computed
    # only to report a failure
    shifted = m + m_dag
    shifted *= 0.5
    diagonal = np.einsum("...ii->...i", shifted)  # a writable view
    diagonal += tol_psd
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        min_eig = np.min(np.linalg.eigvalsh(shifted), axis=-1) - tol_psd
        if np.any(min_eig < -tol_psd):
            k = np.argmax(min_eig < -tol_psd)
            raise ValueError(f"minimum eigenvalue {min_eig[k]:.3e} < -{tol_psd:.1e}") from None


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


def _pade_odd_even(a: np.ndarray, norm: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Odd part U, even part V of the Padé approximant chosen for ``norm``, and the squarings.

    The [m/m] approximant of exp(a / 2^s) is (V - U)^-1 (V + U). Below
    theta_9 the lowest degree m with norm <= theta_m is used unscaled;
    above it, degree 13 on a / 2^s with the least s that brings the norm
    to theta_13 or below.
    """
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    for theta, b in _PADE:
        if norm <= theta:
            # sum_k b_{2k+1} A^{2k} and sum_k b_{2k} A^{2k} over k = 0 .. (m - 1) / 2
            odd, even = b[1] * eye + b[3] * a2, b[0] * eye + b[2] * a2
            power = a2
            for k in range(4, len(b), 2):
                power = power @ a2
                odd += b[k + 1] * power
                even += b[k] * power
            return a @ odd, even, 0
    squarings = max(0, math.ceil(math.log2(norm / _THETA_13)))
    scale = 0.5 ** squarings  # a power of two, so a and a2 scale exactly
    a, a2 = a * scale, a2 * (scale * scale)
    a4 = a2 @ a2
    a6 = a4 @ a2
    b = _PADE_13
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    return u, v, squarings


def mat_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential of a general (non-normal) complex matrix, or of each of a stack.

    Scaling and squaring with Padé approximants of degree 3, 5, 7, 9 or
    13: Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005), Algorithm
    2.3. A stack of shape (..., n, n) is exponentiated member by member,
    with the degree and the number of squarings chosen from the largest
    member 1-norm, so a member may be squared more often than alone.
    Raises :class:`NumericalRangeError` when a member norm puts the
    result outside double-precision range.
    """
    m = np.asarray(m, dtype=complex)
    norm = float(np.max(np.abs(m).sum(axis=-2), initial=0.0))
    # a non-finite entry makes the norm non-finite, so only then are the entries scanned
    if not math.isfinite(norm) and not np.all(np.isfinite(m)):
        raise ValueError("matrix exponential of non-finite input")
    if norm > _EXP_NORM_LIMIT:
        raise NumericalRangeError(f"matrix 1-norm {norm:.3e} exceeds exp range")
    u, v, squarings = _pade_odd_even(m, norm)
    out = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        out = out @ out
    if not np.all(np.isfinite(out)):
        raise NumericalRangeError("matrix exponential overflowed")
    return out


def expm_hermitian(h: np.ndarray, factor: complex = 1.0) -> np.ndarray:
    """exp(factor * h) for Hermitian h, or each of a stack, via spectral decomposition."""
    energies, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(factor * energies)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * trace_norm(np.asarray(a) - np.asarray(b))


def fidelity_pure(rho: DensityMatrix, psi: np.ndarray) -> float:
    """sqrt(<psi| rho |psi>) between a state and a pure reference.

    ``psi`` must have unit norm within ``FIDELITY_NORM_TOL``.
    """
    v = np.asarray(psi, dtype=complex).reshape(1, -1)
    return float(_fidelities_pure(rho.matrix[None], v)[0])


def _fidelities_pure(rhos: np.ndarray, psis: np.ndarray) -> np.ndarray:
    """``fidelity_pure`` of each state of a stack (n, d, d) with its row of ``psis`` (n, d)."""
    if psis.shape[-1] != rhos.shape[-1]:
        raise ValueError(
            f"state vector length {psis.shape[-1]} != state dimension {rhos.shape[-1]}"
        )
    norms = np.linalg.norm(psis, axis=-1)
    bad = np.abs(norms - 1.0) > FIDELITY_NORM_TOL
    if bad.any():
        raise ValueError(f"reference vector norm {norms[np.argmax(bad)]:.12g} is not 1")
    overlaps = np.einsum("ni,nij,nj->n", psis.conj(), rhos, psis).real
    return np.sqrt(np.clip(overlaps, 0.0, 1.0))


def _purities(rhos: np.ndarray) -> np.ndarray:
    """tr(rho^2) of each state of a stack (n, d, d)."""
    return np.einsum("nij,nji->n", rhos, rhos).real


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
