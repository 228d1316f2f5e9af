"""Propagation of the bipartite system through evolve-and-reset cycles.

The intra-cycle propagator is approximated by an ordered product of
substep exponentials. Closed cycles use the three-point Gauss Magnus-6
step (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009), section 4),
sixth order in the substep width: it samples the switching function at
zeta and zeta -+ (sqrt(15)/10) dzeta, and because H(zeta) is affine in
g(zeta) its exponent is a g-weighted sum of ten constant nested
commutators (``CycleGenerator.magnus_basis``). The exponent is
anti-Hermitian, so every factor is exactly unitary and costs one
eigendecomposition. Open cycles use the two-exponential commutator-free
Magnus-4 step (CF4; Blanes & Moan, Appl. Numer. Math. 56, 1519 (2006)),
fourth order, at the two Gauss nodes zeta -+ (sqrt(3)/6) dzeta:
exp((h/2)(L_free + c2 L_SA)) exp((h/2)(L_free + c1 L_SA)), with c1, c2
real weightings of the two node values of g. Each exponent is half of
L_free plus a real multiple of L_SA, so every factor is an exact channel
whenever the coupling has no jump operators, and also with coupling
jumps whenever c1, c2 >= 0.

The substep grid is aligned with the switching function: the interval
is cut at the breakpoints of g (jumps and kinks), and at a kernel's
sample times, and every piece gets the same number of uniform substeps.
No substep straddles a discontinuity, so a piecewise-smooth g keeps the
full order, and a piecewise-constant g is propagated exactly.

Three execution paths exist, and ``_path`` chooses between them: a
closed generator propagates the joint unitary; an open one with joint
dimension up to ``SUPEROP_PATH_MAX_DIM`` the dense superoperator; a
larger open one steps the joint state with matrix-free exponentials and
never materializes a superoperator. Each CF4 exponent there is one fused
Lindblad form of L_free + c L_SA (``_LindbladForm.plus``), so every term
of its power series is one application: two matmuls for K, two for all
system and coupling jumps (none when there are none), and one small
matmul for all actuator jumps, which act on the actuator index pair of
the joint state through the d_A^2 x d_A^2 superoperator
sum l kron conj(l) and are never embedded in the joint space.

Both dense paths cut joint propagators into the maps they induce on
the system for the reset state rho_A, a whole stack of partial products
in one call. The closed path stores system-space Kraus blocks: with
rho_A = sum_k p_k |a_k><a_k|, M_jk = sqrt(p_k) (1 kron <j|) U (1 kron
|a_k>), d_S x d_S blocks of the joint unitary (``_kraus``), checked
once for sum M^dag M = 1; the closed ``cycle_map`` is sum conj(M) kron
M. The dense open path stores the d_S^2 x d_S^2 matrix of rho_S ->
tr_A[P (rho_S kron rho_A)] (``_system_super``), which is also its
``cycle_map``. A cycle kernel applies its stack of maps to the system
state in one stacked product per cycle, so only the matrix-free path
forms joint states.

One state propagator, ``_CycleKernel``, serves both the reset
trajectories and the intra-cycle samples: a sample a time tau into a
cycle is a one-sample kernel over the cycle fractions [0, tau / dt].

This module holds the only size rule of the package: ``cycle_map``
refuses a dense reduced map of an open generator above
``SUPEROP_PATH_MAX_DIM``; everything else runs at any size. A
matrix-free exponential is split by a norm bound of the generator,
never by the state it acts on. One sweep, ``_sweep``, runs the
substep factors of any path over the grid, and one ladder,
``quadrature._refine_doubling``, doubles the substeps until successive
outputs agree, with two criteria: ``cycle_map`` compares the cycle
propagators by max-abs difference, a kernel its last reduced sample of
the calibrating state by trace distance. Kernel and segment metadata
record that ladder as ``[[substeps, residual], ...]``, one entry per
level compared with the one before, so the ratio of successive
residuals shows the empirical order (about 2^6 = 64 on the closed path,
2^4 = 16 on the open ones). A ladder that reaches its cap raises
ConvergenceError with its levels in ``ladder``, counted in substeps per
piece of the grid.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .generators import CycleGenerator, SwitchingFunction, _check_actuator_state, _reduced_super
from .quadrature import _refine_doubling
from .qcore import (
    ConvergenceError,
    DensityMatrix,
    Operator,
    SuperOperator,
    _hstack,
    _kraus_apply,
    expm_hermitian,
    mat_exp,
    partial_trace_matrix,
    trace_distance,
    unvec,
    vec,
)

DEFAULT_STEP_TOL = 1e-9
DEFAULT_SUBSTEP_CAP = 2 ** 14
SUPEROP_PATH_MAX_DIM = 16
CUTOFF_POPULATION_LIMIT = 1e-6

# Magnus-6: three-point Gauss nodes at the centre of a substep and
# +-sqrt(15)/10 of it from the centre; CF4: two-point Gauss nodes at
# +-sqrt(3)/6
_GAUSS3_OFFSET = math.sqrt(15.0) / 10.0
_MAGNUS6_A2 = math.sqrt(15.0) / 3.0
_GAUSS_OFFSET = np.sqrt(3.0) / 6.0
# CF4: weights of the earlier and the later node in the first exponent
# (swapped in the second)
_CF4_NEAR = 0.25 + np.sqrt(3.0) / 6.0
_CF4_FAR = 0.25 - np.sqrt(3.0) / 6.0
# a matrix-free series piece stops at ||term|| <= 1e-15 ||sum||, tested
# on squared norms
_SERIES_TOL_SQ = 1e-15 ** 2
# breakpoints closer than this to a piece edge fall on the edge
_BREAKPOINT_SLACK = 1e-12

# trajectory states are valid by construction up to accumulated roundoff
_STATE_TOLS = dict(tol_herm=1e-9, tol_trace=1e-9, tol_psd=1e-7)
# actuator eigenvalues below this fraction of the largest are roundoff and
# get no Kraus blocks; a Kraus set must satisfy sum M^dag M = 1 to _KRAUS_TOL
_ROUNDOFF_WEIGHT = 1e-14
_KRAUS_TOL = 1e-10


@dataclass(frozen=True)
class ResetSchedule:
    """Strictly increasing actuator reset times in (0, t]."""

    reset_times: tuple[float, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.reset_times)
        if not times:
            raise ValueError("schedule needs at least one reset")
        if times[0] <= 0.0 or any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("reset times must be strictly increasing and positive")
        object.__setattr__(self, "reset_times", times)

    @classmethod
    def uniform(cls, n: int, t: float) -> "ResetSchedule":
        if n < 1 or t <= 0:
            raise ValueError("uniform schedule needs n >= 1 and t > 0")
        return cls(tuple(t * (k + 1) / n for k in range(n)))

    @property
    def n_resets(self) -> int:
        return len(self.reset_times)

    @property
    def total_time(self) -> float:
        return self.reset_times[-1]

    @property
    def gaps(self) -> tuple[float, ...]:
        edges = (0.0,) + self.reset_times
        return tuple(b - a for a, b in zip(edges, edges[1:]))


@dataclass
class Trajectory:
    """Reduced system states sampled along an evolve-and-reset run."""

    times: np.ndarray
    states: list[DensityMatrix]
    metadata: dict

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or len(self.states) != self.times.size:
            raise ValueError("times and states must have matching lengths")
        if np.any(np.diff(self.times) < 0):
            raise ValueError("times must be sorted ascending")


def _substep_grid(
    g: SwitchingFunction, a: float, b: float, substeps: int, parts: int = 1
) -> tuple[list[float], list[float], list[int]]:
    """Substep centres and widths over the cycle fractions [a, b].

    [a, b] is cut into ``parts`` equal parts (a kernel's sample
    intervals), each part again at the breakpoints of g inside it, and
    every piece gets ``substeps`` uniform substeps. Also returns the
    number of substeps up to the end of each part. Without breakpoints
    this is the uniform grid of ``parts * substeps`` substeps.
    """
    centres: list[float] = []
    widths: list[float] = []
    ends = []
    for k in range(parts):
        lo, hi = a + (b - a) * k / parts, a + (b - a) * (k + 1) / parts
        inner = sorted(
            p for p in g.breakpoints if lo + _BREAKPOINT_SLACK < p < hi - _BREAKPOINT_SLACK
        )
        cuts = [lo, *inner, hi]
        for c0, c1 in zip(cuts, cuts[1:]):
            w = (c1 - c0) / substeps
            centres += [c0 + w * (j + 0.5) for j in range(substeps)]
            widths += [w] * substeps
        ends.append(len(centres))
    return centres, widths, ends


# ---------------------------------------------------------------------------
# substep factors of the three paths


def _closed_step(gen: CycleGenerator, zeta: float, dzeta: float, dt: float) -> np.ndarray:
    """Magnus-6 factor for the substep of width ``dzeta`` centred at ``zeta``.

    With A_i = -i h H(z_i) at the Gauss nodes z_1 < z_2 = zeta < z_3 and
    h = dzeta dt: a1 = A_2, a2 = (sqrt(15)/3)(A_3 - A_1), a3 = (10/3)
    (A_3 - 2 A_2 + A_1), C1 = [a1, a2], C2 = -(1/60)[a1, 2 a3 + C1] and
    Omega = a1 + a3/12 + (1/240)[-20 a1 - a3 + C1, a2 + C2]. As
    H = H_free + g H_SA, a2 = -i h b2 H_SA and a3 = -i h b3 H_SA with
    b2 = (sqrt(15)/3)(g_3 - g_1) and b3 = (10/3)(g_3 - 2 g_2 + g_1), and
    expanding the commutators gives i Omega = sum_j w_j B_j over the rows
    B_j of ``gen.magnus_basis``, with the real weights w_j below. i Omega
    is Hermitian, so the factor exp(Omega) is exactly unitary and costs
    one eigendecomposition.
    """
    h = dzeta * dt
    g1 = gen.g(zeta - _GAUSS3_OFFSET * dzeta)
    g2 = gen.g(zeta)
    g3 = gen.g(zeta + _GAUSS3_OFFSET * dzeta)
    b2 = _MAGNUS6_A2 * (g3 - g1)
    b3 = (10.0 / 3.0) * (g3 - 2.0 * g2 + g1)
    h2 = h * h
    h3 = h2 * h
    h4, h5 = h2 * h2, h2 * h3
    weights = np.array((
        h,
        h * (g2 + b3 / 12.0),
        h2 * b2 / 12.0,
        h3 * b3 / 360.0,
        h3 * ((20.0 * g2 + b3) * b3 / 30.0 - b2 * b2) / 240.0,
        -h4 * b2 / 720.0,
        -h4 * b2 * (40.0 * g2 + b3) / 14400.0,
        -h4 * b2 * g2 * (20.0 * g2 + b3) / 14400.0,
        -h5 * b2 * b2 / 14400.0,
        -h5 * b2 * b2 * g2 / 14400.0,
    ))
    d = gen.total_dim
    return expm_hermitian((weights @ gen.magnus_basis).view(complex).reshape(d, d), -1j)


def _cf4_couplings(gen: CycleGenerator, zeta: float, dzeta: float) -> tuple[float, float]:
    """Coupling weights (c1, c2) of the two CF4 exponents, in the order applied.

    With g_lo, g_hi the values of g at the earlier and later Gauss node,
    c1 = 2 (a1 g_lo + a2 g_hi) and c2 = 2 (a2 g_lo + a1 g_hi), where
    a1,2 = 1/4 +- sqrt(3)/6. The exponent (h/2)(L_free + c L_SA) is of
    Lindblad form, so its exponential is an exact channel, for every
    real c when L_SA has no jump operators, and otherwise only for
    c >= 0: for g >= 0 that means g_lo / g_hi in [0.0718, 13.93].
    """
    g_lo = gen.g(zeta - _GAUSS_OFFSET * dzeta)
    g_hi = gen.g(zeta + _GAUSS_OFFSET * dzeta)
    return (
        2.0 * (_CF4_NEAR * g_lo + _CF4_FAR * g_hi),
        2.0 * (_CF4_FAR * g_lo + _CF4_NEAR * g_hi),
    )


def _open_step_super(gen: CycleGenerator, zeta: float, dzeta: float, dt: float) -> np.ndarray:
    """CF4 superoperator factor for the substep of width ``dzeta`` centred at ``zeta``."""
    half = 0.5 * dzeta * dt
    l_free, l_sa = gen.free_super.matrix, gen.coupling_super.matrix
    first, second = (
        mat_exp(half * (l_free + c * l_sa)) for c in _cf4_couplings(gen, zeta, dzeta)
    )
    return second @ first


def _open_step_matvec(
    gen: CycleGenerator, zeta: float, dzeta: float, dt: float
) -> Callable[[np.ndarray], np.ndarray]:
    """CF4 factor of a substep as a map on joint states, without materializing L.

    Each exponent (h/2)(L_free + c L_SA) is one fused Lindblad form, so a
    series term costs one application. Its norm bound is b_free + |c| b_sa
    from the two cached bounds.
    """
    half = 0.5 * dzeta * dt
    free, coupling = gen.free_lindblad, gen.coupling_lindblad
    first, second = (
        (free.plus(c, coupling).apply, free.norm_bound + abs(c) * coupling.norm_bound)
        for c in _cf4_couplings(gen, zeta, dzeta)
    )
    return lambda rho: _expmv(*second, half, _expmv(*first, half, rho))


def _expmv(
    apply_x: Callable[[np.ndarray], np.ndarray], bound: float, t: float, rho: np.ndarray
) -> np.ndarray:
    """exp(t X) rho for the linear map X = ``apply_x`` with ||X|| <= ``bound``.

    The exponential is split into ceil(t bound) pieces of norm <= 1 (sized
    from the generator, never from the state; cf. Al-Mohy & Higham, SIAM
    J. Sci. Comput. 33, 488 (2011)), so the k-th series term of a piece is
    at most 1/k! of its input and the series cannot stall. Each term is
    one call of ``apply_x``. A piece stops at the first term with
    ||term|| <= 1e-15 ||sum||, compared as squared Frobenius norms from
    ``np.vdot``, which is cheaper than ``np.linalg.norm``.
    """
    pieces = max(1, math.ceil(t * bound))
    for _ in range(pieces):
        term = rho
        acc = rho.copy()
        for k in range(1, 60):
            term = apply_x(term) * (t / (pieces * k))
            acc += term
            if np.vdot(term, term).real <= _SERIES_TOL_SQ * np.vdot(acc, acc).real:
                break
        else:
            raise ConvergenceError(
                "substep exponential series stalled", float(np.linalg.norm(term)), 60, []
            )
        rho = acc
    return rho


@dataclass(frozen=True)
class _Path:
    """One representation of the substep factors of a cycle.

    ``factor(gen, zeta, dzeta, dt)`` builds the factor of one substep. A
    dense factor is a square matrix of side d ** ``power`` for joint
    dimension d; a matrix-free one is a map on joint states and has no
    power.
    """

    name: str
    factor: Callable
    power: int | None


_UNITARY = _Path("unitary", _closed_step, 1)
_SUPEROP = _Path("superop", _open_step_super, 2)
_MATVEC = _Path("matvec", _open_step_matvec, None)


def _path(gen: CycleGenerator) -> _Path:
    """The path rule: unitary if closed, dense superoperator if small, else matrix-free."""
    if gen.is_closed:
        return _UNITARY
    return _SUPEROP if gen.total_dim <= SUPEROP_PATH_MAX_DIM else _MATVEC


def _sweep(
    gen: CycleGenerator,
    path: _Path,
    dt: float,
    grid: tuple[list[float], list[float], list[int]],
    joint: np.ndarray | None = None,
) -> np.ndarray:
    """Run the substep factors of ``grid`` in order; return the values at the part ends, stacked.

    Without ``joint`` the dense factors are left-multiplied into partial
    products, starting from the identity; with it every matrix-free
    factor acts on the joint state in turn.
    """
    zetas, widths, ends = grid
    if joint is None:
        cur, step = np.eye(gen.total_dim ** path.power, dtype=complex), operator.matmul
    else:
        cur, step = joint, lambda f, m: f(m)
    if dt == 0.0:
        return np.array([cur] * len(ends))
    factor = path.factor
    out = []
    for k, (zeta, dzeta) in enumerate(zip(zetas, widths), start=1):
        cur = step(factor(gen, zeta, dzeta, dt), cur)
        if k in ends:
            out.append(cur)
    return np.array(out)


def _system_state(gen: CycleGenerator, m: np.ndarray) -> DensityMatrix:
    return DensityMatrix(Operator(m, gen.space_S), **_STATE_TOLS)


def _check_states(gen: CycleGenerator, rho_S: DensityMatrix, rho_A: DensityMatrix):
    if rho_S.space.total_dim != gen.space_S.total_dim:
        raise ValueError(
            f"system state dimension {rho_S.space.total_dim} != {gen.space_S.total_dim}"
        )
    _check_actuator_state(gen, rho_A)


def _actuator_columns(rho_A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns sqrt|p_k| a_k over the eigenpairs (p_k, a_k) of rho_A, and the signs of p_k.

    Eigenvalues at roundoff level are dropped, so a pure rho_A keeps one
    column. A valid rho_A may have negative eigenvalues down to its
    positivity tolerance; they keep their sign, so ``_kraus`` reproduces
    tr_A[U (rho kron rho_A) U^dag] for every Hermitian rho_A.
    """
    p, vecs = np.linalg.eigh(rho_A)
    keep = np.abs(p) > _ROUNDOFF_WEIGHT * np.max(np.abs(p))
    return vecs[:, keep] * np.sqrt(np.abs(p[keep])), np.sign(p[keep])


def _kraus(
    u: np.ndarray, cols: np.ndarray, signs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """System-space Kraus form of rho -> tr_A[U (rho kron rho_A) U^dag].

    ``cols`` and ``signs`` come from ``_actuator_columns(rho_A)``. The
    blocks M_jk = (1 kron <j|) U (1 kron cols_k) are d_S x d_S, and the
    map is sum_jk s_k M_jk rho M_jk^dag. Returns the blocks and the
    signed adjoints s M^dag, each stacked vertically, so that the map
    costs two matmuls (``_kraus_apply``). A stack of unitaries in the
    leading axes gives a stack of Kraus sets. Raises ValueError unless
    sum s M^dag M is the identity to ``_KRAUS_TOL`` for every set.
    """
    d_a = cols.shape[0]
    lead, n = u.shape[:-2], u.ndim - 2
    d_s = u.shape[-1] // d_a
    # last four axes (j, k, s, s'): blocks[..., j, k, :, :] = M_jk
    blocks = (u.reshape(lead + (d_s, d_a, d_s, d_a)) @ cols).transpose(
        *range(n), n + 1, n + 3, n, n + 2
    )
    left = blocks.reshape(lead + (-1, d_s))
    right = (blocks.conj().swapaxes(-1, -2) * signs[:, None, None]).reshape(lead + (-1, d_s))
    defect = float(np.max(np.abs(_hstack(right) @ left - np.eye(d_s))))
    if defect > _KRAUS_TOL:
        raise ValueError(
            f"cycle Kraus blocks are not trace preserving: "
            f"max |sum M^dag M - 1| = {defect:.3e} > {_KRAUS_TOL:.0e}"
        )
    return left, right


def _system_super(gen: CycleGenerator, rho_a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Matrix of rho_S -> tr_A[P (rho_S kron rho_a)] for a dense joint superoperator P.

    A stack of P gives the stack of matrices, one matvec per P and basis input.
    """
    d = gen.total_dim
    return _reduced_super(
        gen, rho_a, lambda m: unvec((p[..., None, :, :] @ vec(m)[..., None])[..., 0], d)
    )


def _kraus_super(kraus: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """sum s conj(M) kron M, the column-stacking matrix of the Kraus map."""
    left, right = kraus
    d = left.shape[1]
    # conj(s M) = (s M^dag)^T
    # not qcore._super_matrix: 0.5 vs 3.1 ms at d_S = 13, 25 vs 87 ms at d_S = 30 (2 cores)
    terms = np.einsum("iba,icd->acbd", right.reshape(-1, d, d), left.reshape(-1, d, d))
    return terms.reshape(d * d, d * d)


# ---------------------------------------------------------------------------
# cycle propagators


def cycle_unitary(gen: CycleGenerator, dt: float, substeps: int) -> np.ndarray:
    """Joint-space unitary for one closed cycle (Magnus-6 substep rule)."""
    if not gen.is_closed:
        raise ValueError("cycle_unitary requires a closed (jump-free) generator")
    if dt < 0 or substeps < 1:
        raise ValueError("need dt >= 0 and substeps >= 1")
    return _sweep(gen, _UNITARY, dt, _substep_grid(gen.g, 0.0, 1.0, substeps))[-1]


def cycle_propagator(gen: CycleGenerator, dt: float, substeps: int) -> SuperOperator:
    """Time-ordered intra-cycle propagator on the joint space.

    A closed generator gives the conjugation superoperator of its
    Magnus-6 cycle unitary, an open one the product of CF4 superoperator
    factors. ``substeps`` is the count per piece of the breakpoint-aligned
    grid.
    """
    if dt < 0 or substeps < 1:
        raise ValueError("need dt >= 0 and substeps >= 1")
    if _path(gen) is _UNITARY:
        u = cycle_unitary(gen, dt, substeps)
        return SuperOperator(np.kron(u.conj(), u), gen.space)
    p = _sweep(gen, _SUPEROP, dt, _substep_grid(gen.g, 0.0, 1.0, substeps))[-1]
    return SuperOperator(p, gen.space)


def cycle_map(
    gen: CycleGenerator,
    rho_A: DensityMatrix,
    dt: float,
    *,
    substeps: int | None = None,
    tol: float = DEFAULT_STEP_TOL,
    substep_cap: int = DEFAULT_SUBSTEP_CAP,
) -> SuperOperator:
    """Reduced dynamical map on the system for one evolve-and-reset cycle.

    With ``substeps=None`` the substep count doubles until the
    propagator stabilizes to ``tol`` (max-abs difference).
    """
    _check_actuator_state(gen, rho_A)
    if dt < 0:
        raise ValueError("dt must be >= 0")
    if dt == 0.0:
        return SuperOperator.identity(gen.space_S)
    path = _path(gen)
    if path is _MATVEC:
        raise ValueError(
            f"dense cycle_map for open systems is limited to joint dimension "
            f"{SUPEROP_PATH_MAX_DIM}; use evolve_with_resets for larger models"
        )

    if path is _UNITARY:
        build = lambda s: cycle_unitary(gen, dt, s)
    else:
        build = lambda s: cycle_propagator(gen, dt, s).matrix
    prop, *_ = _refine_doubling(
        build,
        lambda a, b: float(np.max(np.abs(a - b))),
        start=1 if substeps is None else substeps,
        tol=tol if substeps is None else None,
        cap=substep_cap,
        what="cycle_map substep refinement",
    )
    if path is _UNITARY:
        reduced = _kraus_super(_kraus(prop, *_actuator_columns(rho_A.matrix)))
    else:
        reduced = _system_super(gen, rho_A.matrix, prop)
    return SuperOperator(reduced, gen.space_S)


# ---------------------------------------------------------------------------
# state propagation


class _CycleKernel:
    """Reusable propagator for one gap length, with intra-cycle samples.

    The cycle fractions [0, ``end``] are split into ``parts`` equal
    sample intervals, each propagated with ``substeps_per_piece``
    substeps per piece of the breakpoint-aligned grid; ``substeps`` is
    the total. Both dense paths cut the partial products up to all
    samples in one call into a stack of maps on the system: the closed
    path into Kraus blocks (``actuator`` is ``_actuator_columns(rho_a)``),
    the dense open path into the d_S^2 x d_S^2 matrices of rho_S ->
    tr_A[P (rho_S kron rho_a)]. A dense ``apply`` is one stacked product
    per cycle, not one per sample. Only the matrix-free path forms joint
    states: it steps rho_S kron rho_a through the factors on every apply.
    """

    def __init__(
        self,
        gen: CycleGenerator,
        gap: float,
        substeps_per_piece: int,
        parts: int,
        rho_a: np.ndarray,
        actuator: tuple[np.ndarray, np.ndarray] | None,
        end: float = 1.0,
    ):
        self.gen = gen
        self.gap = gap
        self.path = _path(gen)
        self._grid = _substep_grid(gen.g, 0.0, end, substeps_per_piece, parts)
        self.substeps = self._grid[2][-1]
        self._rho_a = rho_a
        self._kraus = self._supers = None
        if self.path is _UNITARY:
            self._kraus = _kraus(_sweep(gen, _UNITARY, gap, self._grid), *actuator)
        elif self.path is _SUPEROP:
            self._supers = _system_super(gen, rho_a, _sweep(gen, _SUPEROP, gap, self._grid))

    def apply(self, rho_s: np.ndarray) -> np.ndarray:
        """Propagate a system state through one cycle; returns its samples, stacked."""
        if self._kraus is not None:
            return _kraus_apply(self._kraus, rho_s)
        d_s = rho_s.shape[0]
        if self._supers is not None:
            return unvec(self._supers @ vec(rho_s), d_s)
        joint = np.kron(rho_s, self._rho_a)
        joints = _sweep(self.gen, _MATVEC, self.gap, self._grid, joint)
        return partial_trace_matrix(joints, (d_s, self._rho_a.shape[0]), keep=0)


def _build_kernel(
    gen: CycleGenerator,
    gap: float,
    parts: int,
    probe: np.ndarray,
    rho_a: np.ndarray,
    substeps: int | None,
    tol: float,
    cap: int,
    end: float = 1.0,
) -> tuple[_CycleKernel, list[np.ndarray], dict]:
    """Construct a cycle kernel, calibrating substeps on a probe system state.

    Returns the kernel, its samples of the probe (so the caller does not
    propagate the probe again) and its metadata: the total substeps, the
    calibration residual and the ladder as [total substeps, residual]
    pairs. A fixed ``substeps`` is spread over the sample intervals,
    rounded up.
    """
    actuator = _actuator_columns(rho_a) if _path(gen) is _UNITARY else None

    def run(s: int) -> tuple[_CycleKernel, list[np.ndarray]]:
        kernel = _CycleKernel(gen, gap, s, parts, rho_a, actuator, end)
        return kernel, kernel.apply(probe)

    (kernel, reduced), accepted, resid, history = _refine_doubling(
        run,
        lambda a, b: trace_distance(a[1][-1], b[1][-1]),
        start=1 if substeps is None else max(1, -(-substeps // parts)),
        tol=tol if substeps is None else None,
        cap=max(1, cap // parts),
        what="cycle propagation",
    )
    # the total is proportional to the substeps per piece
    ladder = [[s * kernel.substeps // accepted, r] for s, r in history]
    return kernel, reduced, {"substeps": kernel.substeps, "residual": resid, "ladder": ladder}


def evolve_with_resets(
    gen: CycleGenerator,
    rho_S0: DensityMatrix,
    rho_A: DensityMatrix,
    schedule: ResetSchedule,
    *,
    substeps: int | None = None,
    step_tol: float = DEFAULT_STEP_TOL,
    substep_cap: int = DEFAULT_SUBSTEP_CAP,
    samples_per_cycle: int = 1,
    monitor_top_levels: int | None = None,
) -> Trajectory:
    """Propagate through the schedule, resetting the actuator at each time.

    Resets are instantaneous: after each cycle the actuator state is
    replaced by ``rho_A``. The reduced system state is recorded at every
    reset boundary, plus ``samples_per_cycle - 1`` interior points per
    cycle when requested. ``monitor_top_levels`` tracks the population
    of the top system levels to expose truncation artifacts.
    """
    _check_states(gen, rho_S0, rho_A)
    if samples_per_cycle < 1:
        raise ValueError("samples_per_cycle must be >= 1")

    fractions = [(k + 1) / samples_per_cycle for k in range(samples_per_cycle)]
    edges = (0.0,) + schedule.reset_times
    kernels: dict[float, _CycleKernel] = {}
    kernel_info: dict[float, dict] = {}
    applies: dict[float, int] = {}

    times = [0.0]
    states = [rho_S0]
    rho_s = rho_S0.matrix
    top_level_max = 0.0

    for start, stop in zip(edges, edges[1:]):
        gap = stop - start
        key = round(gap, 12)
        if key in kernels:
            samples = kernels[key].apply(rho_s)
        else:
            kernels[key], samples, kernel_info[key] = _build_kernel(
                gen, gap, samples_per_cycle, rho_s, rho_A.matrix,
                substeps, step_tol, substep_cap,
            )
        applies[key] = applies.get(key, 0) + 1
        for frac, reduced in zip(fractions, samples):
            times.append(start + frac * gap)
            states.append(_system_state(gen, reduced))
            if monitor_top_levels:
                pops = np.real(np.diag(reduced))
                top_level_max = max(top_level_max, float(np.sum(pops[-monitor_top_levels:])))
        rho_s = states[-1].matrix

    metadata = {
        "resets": schedule.n_resets,
        "samples_per_cycle": samples_per_cycle,
        "path": _path(gen).name,
        "kernels": {str(k): v for k, v in sorted(kernel_info.items())},
        # cycles served by each kernel: its cache hits plus one
        "kernel_applies": {str(k): v for k, v in sorted(applies.items())},
    }
    if monitor_top_levels:
        metadata["top_level_max"] = top_level_max
        metadata["cutoff_flag"] = top_level_max > CUTOFF_POPULATION_LIMIT
    return Trajectory(np.array(times), states, metadata)


def intra_cycle_trajectory(
    gen: CycleGenerator,
    rho_S: DensityMatrix,
    rho_A: DensityMatrix,
    dt: float,
    sample_points: Sequence[float],
    *,
    step_tol: float = DEFAULT_STEP_TOL,
    substep_cap: int = DEFAULT_SUBSTEP_CAP,
) -> Trajectory:
    """Reduced system states at requested times inside a single cycle.

    Each sample tau > 0 starts from ``rho_S kron rho_A`` at the start of
    the cycle and is a one-sample cycle kernel over the cycle fractions
    [0, tau / dt], with the switching function argument referred to the
    full cycle length ``dt``, refined on the sampled state. Its
    ``segments`` entry spans [0, tau].
    """
    _check_states(gen, rho_S, rho_A)
    pts = sorted(float(p) for p in sample_points)
    if not pts:
        raise ValueError("sample_points must be non-empty")
    if pts[0] < 0.0 or pts[-1] > dt * (1 + 1e-12):
        raise ValueError(f"sample points must lie in [0, {dt}]")

    states, seg_info = [], []
    for tau in pts:
        reduced = rho_S.matrix
        if tau > 0.0:
            _, (reduced,), info = _build_kernel(
                gen, dt, 1, rho_S.matrix, rho_A.matrix, None, step_tol, substep_cap, tau / dt
            )
            seg_info.append({"to": tau, **info})
        states.append(_system_state(gen, reduced))

    return Trajectory(np.array(pts), states, {"segments": seg_info, "cycle_dt": dt})
