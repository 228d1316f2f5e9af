"""Cycle Liouvillian decomposition and the effective objects derived from it.

A reset cycle evolves the system-actuator pair under

    L(zeta) = L_S + L_A + g(zeta) L_SA,   zeta = tau / dt in [0, 1],

with each part time-independent and of Lindblad type. From this
decomposition the module builds the mean coupling, the effective
Hamiltonian, and the first- and second-order coefficients of the
short-cycle expansion of the reduced dynamical map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import quadrature
from .qcore import (
    TOL_HERM,
    DensityMatrix,
    HilbertSpace,
    Operator,
    SuperOperator,
    _hstack,
    _kraus_apply,
    _super_matrix,
    partial_trace_matrix,
)

_GMAX_SAMPLES = 10 ** 4


@dataclass(frozen=True)
class SwitchingFunction:
    """Piecewise-continuous coupling modulation g on [0, 1].

    ``breakpoints`` are interior discontinuity (or kink) locations used
    to split quadrature. ``g_max`` is the supremum of |g|; when not
    supplied it is estimated by dense sampling. The mean is computed by
    adaptive quadrature at construction and cached.
    """

    evaluate: Callable[[float], float]
    breakpoints: tuple[float, ...] = ()
    g_max: float | None = None
    mean: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(float(p) for p in self.breakpoints))
        if self.g_max is None:
            zs = np.linspace(0.0, 1.0, _GMAX_SAMPLES)
            zs = np.union1d(zs, [p for p in self.breakpoints if 0.0 <= p <= 1.0])
            object.__setattr__(
                self, "g_max", float(max(abs(self.evaluate(z)) for z in zs))
            )
        object.__setattr__(self, "mean", mean_coupling(self))

    def __call__(self, zeta: float) -> float:
        return float(self.evaluate(zeta))


def mean_coupling(g: SwitchingFunction) -> float:
    """Average of g over one cycle, by adaptive quadrature."""
    return quadrature.integrate_scalar(
        g.evaluate, 0.0, 1.0, breakpoints=g.breakpoints, tol=1e-10
    )


def constant(value: float) -> SwitchingFunction:
    return SwitchingFunction(lambda z, v=float(value): v, g_max=abs(float(value)))


def sin_squared(peak: float) -> SwitchingFunction:
    """g(zeta) = peak * sin^2(pi zeta); the pulse used in the example model."""
    return SwitchingFunction(
        lambda z, p=float(peak): p * np.sin(np.pi * z) ** 2, g_max=abs(float(peak))
    )


def square_pulse(height: float, start: float = 0.0, stop: float = 0.5) -> SwitchingFunction:
    if not 0.0 <= start < stop <= 1.0:
        raise ValueError(f"need 0 <= start < stop <= 1, got [{start}, {stop}]")

    def evaluate(z, h=float(height), a=float(start), b=float(stop)):
        return h if a <= z <= b else 0.0

    return SwitchingFunction(evaluate, breakpoints=(start, stop), g_max=abs(float(height)))


def from_table(zs: Sequence[float], values: Sequence[float]) -> SwitchingFunction:
    """Linear interpolation through sampled (zeta, g) points."""
    zs = np.asarray(zs, dtype=float)
    values = np.asarray(values, dtype=float)
    if zs.ndim != 1 or zs.shape != values.shape or zs.size < 2:
        raise ValueError("table needs matching 1-d arrays with >= 2 points")
    if zs[0] > 0.0 or zs[-1] < 1.0 or np.any(np.diff(zs) <= 0):
        raise ValueError("table abscissae must increase and cover [0, 1]")
    return SwitchingFunction(
        lambda z: float(np.interp(z, zs, values)),
        breakpoints=tuple(float(z) for z in zs[1:-1]),
        g_max=float(np.max(np.abs(values))),
    )


@dataclass(frozen=True)
class CycleGenerator:
    """Liouvillian decomposition of one evolve-and-reset cycle.

    Hamiltonian parts h_S, h_A (free) and h_SA (coupling, modulated by
    g), plus optional jump-operator lists attached to each part. Empty
    jump lists give closed (unitary) intra-cycle dynamics.
    """

    space_S: HilbertSpace
    space_A: HilbertSpace
    h_S: Operator
    h_A: Operator
    h_SA: Operator
    g: SwitchingFunction
    jumps_S: tuple[Operator, ...] = ()
    jumps_A: tuple[Operator, ...] = ()
    jumps_SA: tuple[Operator, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "jumps_S", tuple(self.jumps_S))
        object.__setattr__(self, "jumps_A", tuple(self.jumps_A))
        object.__setattr__(self, "jumps_SA", tuple(self.jumps_SA))
        d_s, d_a = self.space_S.total_dim, self.space_A.total_dim
        for name, op, dim in (
            ("h_S", self.h_S, d_s),
            ("h_A", self.h_A, d_a),
            ("h_SA", self.h_SA, d_s * d_a),
        ):
            if op.dim != dim:
                raise ValueError(f"{name} has dimension {op.dim}, expected {dim}")
            if not op.is_hermitian():
                raise ValueError(f"{name} must be Hermitian within {TOL_HERM:.1e}")
        for name, jumps, dim in (
            ("jumps_S", self.jumps_S, d_s),
            ("jumps_A", self.jumps_A, d_a),
            ("jumps_SA", self.jumps_SA, d_s * d_a),
        ):
            for k, op in enumerate(jumps):
                if op.dim != dim:
                    raise ValueError(f"{name}[{k}] has dimension {op.dim}, expected {dim}")

    @property
    def space(self) -> HilbertSpace:
        return self.space_S.tensor(self.space_A)

    @property
    def total_dim(self) -> int:
        return self.space_S.total_dim * self.space_A.total_dim

    @property
    def is_closed(self) -> bool:
        return not (self.jumps_S or self.jumps_A or self.jumps_SA)

    # --- full-space embeddings, cached because the generator is immutable ---

    @cached_property
    def h_free_full(self) -> np.ndarray:
        """H_S kron I + I kron H_A on the joint space."""
        d_s, d_a = self.space_S.total_dim, self.space_A.total_dim
        return np.kron(self.h_S.matrix, np.eye(d_a)) + np.kron(np.eye(d_s), self.h_A.matrix)

    @cached_property
    def magnus_basis(self) -> np.ndarray:
        """The ten Hermitian directions of a Magnus-6 exponent, stacked.

        H(zeta) = H_free + g(zeta) H_SA, so every commutator in the
        Magnus-6 exponent is a g-weighted sum of constant nested
        commutators of F = H_free and C = H_SA. Row j holds i^(n-1) N_j,
        flattened, for the nested commutator N_j of n letters, in the order
        F, C, [F,C], [F,[F,C]], [C,[F,C]], [F,[F,[F,C]]], [C,[F,[F,C]]],
        [C,[C,[F,C]]], [[F,C],[F,[F,C]]], [[F,C],[C,[F,C]]] ([F,[C,[F,C]]]
        equals [C,[F,[F,C]]] by the Jacobi identity). The array is the real
        view (two floats per entry), so a real combination of the rows is
        one real matrix-vector product.
        """
        f, c = self.h_free_full, self.h_SA.matrix
        com = lambda a, b: a @ b - b @ a
        k1 = com(f, c)
        k2f, k2c = com(f, k1), com(c, k1)
        nested = (f, c, k1, k2f, k2c, com(f, k2f), com(c, k2f), com(c, k2c),
                  com(k1, k2f), com(k1, k2c))
        letters = (1, 1, 2, 3, 3, 4, 4, 4, 5, 5)
        rows = []
        for n, m in zip(letters, nested):
            b = 1j ** (n - 1) * m
            rows.append((0.5 * (b + b.conj().T)).ravel())
        return np.ascontiguousarray(rows).view(float)

    def hamiltonian_at(self, zeta: float) -> np.ndarray:
        return self.h_free_full + self.g(zeta) * self.h_SA.matrix

    @cached_property
    def free_lindblad(self) -> "_LindbladForm":
        """Form of L_S + L_A, with the actuator jumps kept on the actuator factor."""
        d_a = self.space_A.total_dim
        return _LindbladForm.of(
            self.h_free_full,
            [np.kron(l.matrix, np.eye(d_a)) for l in self.jumps_S],
            [l.matrix for l in self.jumps_A],
        )

    @cached_property
    def coupling_lindblad(self) -> "_LindbladForm":
        return _LindbladForm.of(self.h_SA.matrix, [l.matrix for l in self.jumps_SA])

    def apply_free_liouvillian(self, m: np.ndarray) -> np.ndarray:
        """(L_S + L_A) applied to a joint-space matrix."""
        return self.free_lindblad.apply(m)

    def apply_coupling_liouvillian(self, m: np.ndarray) -> np.ndarray:
        """L_SA applied to a joint-space matrix (without the g factor)."""
        return self.coupling_lindblad.apply(m)

    @cached_property
    def free_super(self) -> SuperOperator:
        """Matrix form of L_S + L_A on the joint space, read off ``free_lindblad``."""
        return SuperOperator(_super_matrix(self.free_lindblad.apply, self.total_dim), self.space)

    @cached_property
    def coupling_super(self) -> SuperOperator:
        """Matrix form of L_SA on the joint space, read off ``coupling_lindblad``."""
        d = self.total_dim
        return SuperOperator(_super_matrix(self.coupling_lindblad.apply, d), self.space)

    def validity_report(self) -> list[str]:
        """Warnings about physically questionable configurations."""
        warnings = []
        if self.jumps_SA:
            zs = np.linspace(0.0, 1.0, 1001)
            if min(self.g(z) for z in zs) < 0:
                warnings.append(
                    "switching function attains negative values while coupling "
                    "dissipators are present: the instantaneous generator is "
                    "not of Lindblad form for those times"
                )
        return warnings


@dataclass(frozen=True)
class _LindbladForm:
    """A Lindbladian L m = K m + m K^dag + sum_j s_j L_j m L_j^dag, precomputed.

    K = -i H - (1/2) sum_j s_j L_j^dag L_j with real weights s_j, on the
    joint space of side d = d_S d_A. Joint jumps are stacked, ``left`` =
    [L_1; ...; L_n] and ``right`` = [s_1 L_1^dag; ...; s_n L_n^dag]
    (n d x d each), so their sum costs two matmuls
    (``qcore._kraus_apply``) whatever n, and none when n = 0. Jumps
    1 kron l_a of the actuator are kept as the d_A^2 x d_A^2
    superoperator ``t`` = sum_a s_a l_a kron conj(l_a), which acts on
    the actuator index pair (a, b) of m viewed as (d_S, d_A, d_S, d_A):
    one matmul with d_S^2 columns instead of two joint-size ones per
    jump stack; K still holds their L^dag L terms. ``of`` builds a form
    with unit weights from joint ``jumps`` and actuator ``jumps_a``;
    ``plus`` adds a real multiple of another form, which scales that
    form's weights, so it is exact for either sign. ``apply`` takes a
    stack of matrices in the leading axes, so ``qcore._super_matrix``
    reads a dense superoperator off any form.
    """

    k: np.ndarray
    k_dag: np.ndarray
    left: np.ndarray
    right: np.ndarray
    t: np.ndarray | None = None

    @classmethod
    def of(cls, h: np.ndarray, jumps: Sequence[np.ndarray],
           jumps_a: Sequence[np.ndarray] = ()) -> "_LindbladForm":
        d = h.shape[0]
        embedded = [*jumps, *(np.kron(np.eye(d // l.shape[0]), l) for l in jumps_a)]
        left = np.array(embedded, dtype=complex).reshape(-1, d)
        right = np.array([l.conj().T for l in embedded], dtype=complex).reshape(-1, d)
        k = -1j * h - 0.5 * (_hstack(right) @ left)
        rows = len(jumps) * d
        t = sum(np.kron(l, l.conj()) for l in jumps_a) if jumps_a else None
        return cls(k, k.conj().T, left[:rows].copy(), right[:rows].copy(), t)

    def plus(self, c: float, other: "_LindbladForm") -> "_LindbladForm":
        """The form of L + c L' for L' = ``other`` and real c."""
        k = self.k + c * other.k
        t = self.t
        if other.t is not None:
            t = c * other.t if t is None else t + c * other.t
        return _LindbladForm(
            k,
            k.conj().T,
            np.concatenate((self.left, other.left)),
            np.concatenate((self.right, c * other.right)),
            t,
        )

    @cached_property
    def norm_bound(self) -> float:
        """Upper bound on ||L m|| / ||m|| (Frobenius norm) over all m.

        Holds for non-negative weights s_j, as in every form ``of``
        builds. 2 ||K'||_2 bounds K m + m K^dag, with
        K' = K + i tr(H)/d, which gives the same L. The jump part J is
        then completely positive, so ||J|| <= (||J(I)|| ||J^dag(I)||)^(1/2),
        which does not depend on how the dissipator is split into jump
        operators. The actuator jumps add 1 kron sum_a s_a l_a l_a^dag to
        J(I) and 1 kron sum_a s_a l_a^dag l_a to J^dag(I).
        """
        d = self.k.shape[0]
        bound = 2.0 * np.linalg.norm(self.k - 1j * np.trace(self.k).imag / d * np.eye(d), 2)
        out = _hstack(self.left) @ self.right
        into = _hstack(self.right) @ self.left
        if self.t is not None:
            d_a = math.isqrt(self.t.shape[0])
            eye_s, eye_a = np.eye(d // d_a), np.eye(d_a).ravel()
            # t and t^dag applied to the row-major vec of the identity
            out = out + np.kron(eye_s, (self.t @ eye_a).reshape(d_a, d_a))
            into = into + np.kron(eye_s, (self.t.conj().T @ eye_a).reshape(d_a, d_a))
        bound += np.sqrt(np.linalg.norm(out, 2) * np.linalg.norm(into, 2))
        return float(bound)

    def apply(self, m: np.ndarray) -> np.ndarray:
        out = self.k @ m
        out += m @ self.k_dag
        if len(self.left):
            out += _kraus_apply((self.left, self.right), m)
        if self.t is not None:
            lead, n = m.shape[:-2], m.ndim - 2
            d_a = math.isqrt(self.t.shape[0])
            d_s = m.shape[-1] // d_a
            split = lead + (d_s, d_a, d_s, d_a)
            # (..., s, a, s', b) -> (..., a b, s s') for t to act from the
            # left: a long last axis keeps both copies fast
            pairs = m.reshape(split).transpose(*range(n), n + 1, n + 3, n, n + 2)
            pairs = self.t @ pairs.reshape(lead + (d_a * d_a, d_s * d_s))
            view = out.reshape(split)
            view += pairs.reshape(lead + (d_a, d_a, d_s, d_s)).transpose(
                *range(n), n + 2, n, n + 3, n + 1
            )
        return out


def _reduced_super(gen: CycleGenerator, rho_a: np.ndarray,
                   apply_full: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Matrix of rho_S -> tr_A[ F(rho_S kron rho_a) ] for a linear map F.

    F is applied once, to the stack of the d_S^2 joint inputs E_idx kron
    rho_a (``qcore._super_matrix``). F may prepend axes of its own (a
    stack of maps); they lead the result.
    """
    d_s, d_a = gen.space_S.total_dim, gen.space_A.total_dim

    def reduced(rho_s: np.ndarray) -> np.ndarray:
        # np.kron pads rho_a to a stack of one, so it krons each matrix of rho_s
        return partial_trace_matrix(apply_full(np.kron(rho_s, rho_a)), (d_s, d_a), keep=0)

    return _super_matrix(reduced, d_s)


def _check_actuator_state(gen: CycleGenerator, rho_A: DensityMatrix):
    if rho_A.space.total_dim != gen.space_A.total_dim:
        raise ValueError(
            f"actuator state dimension {rho_A.space.total_dim} != "
            f"{gen.space_A.total_dim}"
        )


def _coupling_average(gen: CycleGenerator, rho_A: DensityMatrix) -> np.ndarray:
    """The actuator-averaged interaction tr_A[H_SA (1 kron rho_A)]."""
    d_s, d_a = gen.space_S.total_dim, gen.space_A.total_dim
    return partial_trace_matrix(
        gen.h_SA.matrix @ np.kron(np.eye(d_s), rho_A.matrix), (d_s, d_a), keep=0
    )


def effective_hamiltonian(gen: CycleGenerator, rho_A: DensityMatrix) -> Operator:
    """H_S plus the mean coupling times the actuator-averaged interaction.

    In the high reset-frequency limit the reduced system dynamics is
    generated by this Hamiltonian (for closed intra-cycle dynamics).
    """
    _check_actuator_state(gen, rho_A)
    return Operator(gen.h_S.matrix + gen.g.mean * _coupling_average(gen, rho_A), gen.space_S)


def phi1_super(gen: CycleGenerator, rho_A: DensityMatrix) -> SuperOperator:
    """First-order coefficient of the short-cycle expansion of the cycle map.

    Phi_1 = L_S + g_mean * tr_A[ L_SA ( . kron rho_A) ]; the actuator's
    free generator drops out of this order entirely. For closed dynamics
    this reduces to the commutator superoperator of the effective
    Hamiltonian.
    """
    _check_actuator_state(gen, rho_A)
    system = _LindbladForm.of(gen.h_S.matrix, [l.matrix for l in gen.jumps_S])
    system_part = _super_matrix(system.apply, gen.space_S.total_dim)
    coupling_part = _reduced_super(gen, rho_A.matrix, gen.apply_coupling_liouvillian)
    return SuperOperator(system_part + gen.g.mean * coupling_part, gen.space_S)


def _phi2_weights(g: SwitchingFunction) -> tuple[float, float, float, float]:
    """Scalar weights of the time-ordered double integral of L(z1) L(z2).

    Expanding L(z) = L0 + g(z) L1 over the triangle z1 >= z2 gives
    weights for the four operator orderings L0L0, L1L0, L0L1, L1L1. Only
    w_10 = int g(z) z dz needs quadrature: w_01 = int g(z) (1 - z) dz is
    the mean minus w_10, and with G(z) = int_0^z g the triangle integral
    w_11 = int g(z) G(z) dz is G(1)^2 / 2 = mean^2 / 2.
    """
    w_10 = quadrature.integrate_scalar(lambda z: g(z) * z, breakpoints=g.breakpoints)
    return 0.5, w_10, g.mean - w_10, 0.5 * g.mean ** 2


def phi2_super(gen: CycleGenerator, rho_A: DensityMatrix) -> SuperOperator:
    """Second-order coefficient of the short-cycle expansion.

    The time-ordered double integral is exact in the operator structure;
    of its four scalar weights only one is computed by quadrature
    (``_phi2_weights``).
    """
    _check_actuator_state(gen, rho_A)
    w_00, w_10, w_01, w_11 = _phi2_weights(gen.g)
    l0 = gen.apply_free_liouvillian
    l1 = gen.apply_coupling_liouvillian

    def apply_full(m: np.ndarray) -> np.ndarray:
        l0m = l0(m)
        l1m = l1(m)
        return w_00 * l0(l0m) + w_10 * l1(l0m) + w_01 * l0(l1m) + w_11 * l1(l1m)

    return SuperOperator(_reduced_super(gen, rho_A.matrix, apply_full), gen.space_S)
