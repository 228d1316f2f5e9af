"""Propagation of the bipartite system through evolve-and-reset cycles.

The intra-cycle propagator is approximated by an ordered product of
substep exponentials. Closed cycles use the three-point Gauss Magnus-6
step (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009), section 4),
sixth order in the substep width: it samples the switching function at
zeta and zeta -+ (sqrt(15)/10) dzeta, and because H(zeta) is affine in
g(zeta) its exponent is a g-weighted sum of ten constant nested
commutators (``CycleGenerator.magnus_basis``). The exponent is
anti-Hermitian, so every factor is exactly unitary. It is also block
diagonal on the sectors of any parity H conserves at every zeta
(``CycleGenerator.sectors``; two sectors of d/2 for the quantum Rabi
form, one block otherwise), so a factor costs one eigendecomposition per
sector, all in one stacked call. Open cycles use the two-exponential
commutator-free Magnus-4 step (CF4; Blanes & Moan, Appl. Numer. Math.
56, 1519 (2006)), fourth order, at the two Gauss nodes zeta -+
(sqrt(3)/6) dzeta:
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
closed generator propagates the joint unitary, as a stack of its sector
blocks that is scattered into the joint matrix only where a sample is
cut; an open one with joint
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
``quadrature._refine_doubling``, doubles the substeps, with two
distances: ``cycle_map`` compares the cycle propagators by max-abs
difference, a kernel its last reduced sample of the calibrating state
by trace distance. A level is accepted when it agrees with the one
before to the tolerance, or earlier on its Richardson error estimate:
once the ratio of two successive residuals confirms the order p of the
path (6 closed, 4 open) to within a factor of two, the residual divided
by 2^(p-1) - 1 must be below the tolerance. Kernel and segment metadata
record that ladder as ``[[substeps, residual], ...]``, one entry per
level compared with the one before, so the ratio of successive
residuals shows the empirical order (about 2^6 = 64 on the closed path,
2^4 = 16 on the open ones), and ``accepted_on`` names the rule that
accepted it, ``"agreement"`` or ``"estimate"``. Every ladder reads its
cap from ``DEFAULT_SUBSTEP_CAP`` when it runs; a kernel shares it among
its sample intervals. A ladder that reaches its cap raises
ConvergenceError with its levels in ``ladder``, counted in substeps per
piece of the grid.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .generators import (
    CycleGenerator,
    SwitchingFunction,
    _check_actuator_state,
    _reduce,
    _reduced_super,
)
from .quadrature import _refine_doubling
from .qcore import (
    ConvergenceError,
    DensityMatrix,
    HilbertSpace,
    Operator,
    SuperOperator,
    _check_density,
    _hstack,
    _kraus_apply,
    expm_hermitian,
    mat_exp,
    trace_distance,
    unvec,
    vec,
)

DEFAULT_STEP_TOL = 1e-9
# default tolerance of the single-cycle map that an n-cycle product composes
DEFAULT_MAP_TOL = 1e-10
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
# a reset trajectory is run in blocks of whole cycles of at most this many
# state entries (at least one cycle), each block checked in one call
_BLOCK_ENTRIES = 2 ** 14
# actuator eigenvalues below this fraction of the largest are roundoff and
# get no Kraus blocks; a Kraus set must satisfy sum M^dag M = 1 to _KRAUS_TOL
_ROUNDOFF_WEIGHT = 1e-14
_KRAUS_TOL = 1e-10


def _cycle_count(f: float, t: float) -> int:
    """The whole number of cycles at reset rate f that ends nearest time t, at least one."""
    return max(1, round(f * t))


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


class _StateStack(Sequence):
    """Read-only sequence over a stack (n, d, d) of checked states.

    An entry becomes a ``DensityMatrix`` only when it is read, unchecked.
    """

    def __init__(self, stack: np.ndarray, space: HilbertSpace):
        stack.setflags(write=False)
        self._stack = stack
        self._space = space

    def __len__(self) -> int:
        return len(self._stack)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return _StateStack(self._stack[k], self._space)
        return DensityMatrix(Operator(self._stack[k], self._space), validate=False)


@dataclass
class Trajectory:
    """Reduced system states sampled along an evolve-and-reset run.

    ``states`` is any sequence of states; ``evolve_with_resets`` and
    ``intra_cycle_trajectory`` give a read-only ``_StateStack``.
    """

    times: np.ndarray
    states: Sequence[DensityMatrix]
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
    is Hermitian, so the factor exp(Omega) is exactly unitary. It is
    returned as the stack of its blocks on ``gen.sectors``, one
    eigendecomposition per sector, all in one call.
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
    m = gen.sectors.shape[1]
    return expm_hermitian((weights @ gen.magnus_sector_basis).view(complex).reshape(-1, m, m), -1j)


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
    """CF4 superoperator factor for the substep of width ``dzeta`` centred at ``zeta``.

    Both exponents are exponentiated by one call on their stack.
    """
    half = 0.5 * dzeta * dt
    l_free, l_sa = gen.free_super.matrix, gen.coupling_super.matrix
    c = np.array(_cf4_couplings(gen, zeta, dzeta))
    first, second = mat_exp(half * (l_free + c[:, None, None] * l_sa))
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

    ``factor(gen, zeta, dzeta, dt)`` builds the factor of one substep:
    the stacked sector blocks of a joint unitary, a joint superoperator
    matrix, or a map on joint states. ``order`` is the order of the
    substep rule in the substep width, which the substep ladder uses for
    its error estimate.
    """

    name: str
    factor: Callable
    order: int


_UNITARY = _Path("unitary", _closed_step, 6)
_SUPEROP = _Path("superop", _open_step_super, 4)
_MATVEC = _Path("matvec", _open_step_matvec, 4)


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
    factors: Sequence | None = None,
) -> np.ndarray:
    """Run the substep factors of ``grid`` in order; return the values at the part ends, stacked.

    Without ``joint`` the dense factors are left-multiplied into partial
    products, starting from the first factor; with it every matrix-free
    factor acts on the joint state in turn. The closed partial products
    are kept as stacks of sector blocks (``_closed_step``) and scattered
    into joint unitaries once, at the part ends. ``factors`` are the
    factors of ``grid`` if the caller holds them already; otherwise each
    is built as it is needed.
    """
    zetas, widths, ends = grid
    step = operator.matmul if joint is None else lambda f, m: f(m)
    if factors is None:
        factors = (path.factor(gen, zeta, dzeta, dt) for zeta, dzeta in zip(zetas, widths))
    cur, out = joint, []
    for k, factor in enumerate(factors, start=1):
        cur = factor if cur is None else step(factor, cur)
        if k in ends:
            out.append(cur)
    return _scatter(gen.sectors, np.array(out)) if path is _UNITARY else np.array(out)


def _scatter(sectors: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Joint matrices from their stacked blocks (..., k, m, m) on the k rows of ``sectors``."""
    d = sectors.size
    out = np.zeros(blocks.shape[:-3] + (d, d), dtype=blocks.dtype)
    out[..., sectors[:, :, None], sectors[:, None, :]] = blocks
    return out


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
) -> SuperOperator:
    """Reduced dynamical map on the system for one evolve-and-reset cycle.

    With ``substeps=None`` the substep count doubles until two
    successive propagators agree to ``tol`` (max-abs difference), or
    until the Richardson estimate of the path's order puts the error of
    the last one below ``tol``.
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
        cap=DEFAULT_SUBSTEP_CAP,
        what="cycle_map substep refinement",
        order=path.order,
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
    samples in one call into ``_maps``, a stack of system maps: the closed
    path into Kraus blocks (``actuator`` is ``_actuator_columns(rho_a)``),
    the dense open path into the d_S^2 x d_S^2 matrices of rho_S ->
    tr_A[P (rho_S kron rho_a)]. A dense ``apply`` is one stacked product
    per cycle, not one per sample. Only the matrix-free path forms joint
    states: its ``_maps`` are the substep factors (their fused Lindblad
    forms), and ``apply`` steps rho_S kron rho_a through them (``_reduce``).
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
        if self.path is _UNITARY:
            self._maps = _kraus(_sweep(gen, _UNITARY, gap, self._grid), *actuator)
        elif self.path is _SUPEROP:
            self._maps = _system_super(gen, rho_a, _sweep(gen, _SUPEROP, gap, self._grid))
        else:
            zetas, widths, _ = self._grid
            self._maps = [_open_step_matvec(gen, z, w, gap) for z, w in zip(zetas, widths)]

    def apply(self, rho_s: np.ndarray) -> np.ndarray:
        """Propagate a system state through one cycle; returns its samples, stacked."""
        if self.path is _UNITARY:
            return _kraus_apply(self._maps, rho_s)
        if self.path is _SUPEROP:
            return unvec(self._maps @ vec(rho_s), rho_s.shape[0])
        sweep = lambda joint: _sweep(self.gen, _MATVEC, self.gap, self._grid, joint, self._maps)
        return _reduce(self.gen, self._rho_a, sweep, rho_s)


def _build_kernel(
    gen: CycleGenerator,
    gap: float,
    parts: int,
    probe: np.ndarray,
    rho_a: np.ndarray,
    substeps: int | None,
    tol: float,
    end: float = 1.0,
) -> tuple[_CycleKernel, list[np.ndarray], dict]:
    """Construct a cycle kernel, calibrating substeps on a probe system state.

    Returns the kernel, its samples of the probe (so the caller does not
    propagate the probe again) and its metadata: the total substeps, the
    calibration residual, the ladder as [total substeps, residual] pairs
    and, when a ladder ran, the rule that accepted its level
    (``accepted_on``). A fixed ``substeps`` is spread over the sample
    intervals, rounded up; so is the ladder's cap, ``DEFAULT_SUBSTEP_CAP``.
    """
    path = _path(gen)
    actuator = _actuator_columns(rho_a) if path is _UNITARY else None
    kernel = None

    # the ladder holds the probe samples of two levels, but only the kernel
    # of the last level run, which is the one it accepts
    def run(s: int) -> np.ndarray:
        nonlocal kernel
        kernel = None  # free the previous level's factors before building this one
        kernel = _CycleKernel(gen, gap, s, parts, rho_a, actuator, end)
        return kernel.apply(probe)

    reduced, accepted, resid, history, rule = _refine_doubling(
        run,
        lambda a, b: trace_distance(a[-1], b[-1]),
        start=1 if substeps is None else max(1, -(-substeps // parts)),
        tol=tol if substeps is None else None,
        cap=max(1, DEFAULT_SUBSTEP_CAP // parts),
        what="cycle propagation",
        order=path.order,
    )
    # the total is proportional to the substeps per piece
    ladder = [[s * kernel.substeps // accepted, r] for s, r in history]
    info = {"substeps": kernel.substeps, "residual": resid, "ladder": ladder}
    if rule is not None:
        info["accepted_on"] = rule
    return kernel, reduced, info


def _check_cycles(states: np.ndarray, samples_per_cycle: int):
    """Check a stack of whole cycles in one call; a failure raises its first failing cycle's error."""
    try:
        _check_density(states, **_STATE_TOLS)
    except ValueError:
        for cycle in states.reshape((-1, samples_per_cycle) + states.shape[1:]):
            _check_density(cycle, **_STATE_TOLS)
        raise


def _reset_blocks(
    gen: CycleGenerator,
    rho_S0: DensityMatrix,
    rho_A: DensityMatrix,
    schedule: ResetSchedule,
    metadata: dict,
    substeps: int | None,
    step_tol: float,
    samples_per_cycle: int,
    monitor_top_levels: int | None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Run the reset schedule, yielding (times, states) blocks of whole cycles.

    The first block is the start state at time 0, as given. Every later
    block is one read-only array (n, d_S, d_S) of the samples of as many
    whole cycles as fit into ``_BLOCK_ENTRIES`` entries, at least one,
    checked in one call (``_check_cycles``), so an invalid state raises
    the error a check of its own cycle gives; a cycle ending in a
    non-finite state is checked at once. When the schedule is done,
    ``metadata`` receives the run's metadata.
    """
    _check_states(gen, rho_S0, rho_A)
    if samples_per_cycle < 1:
        raise ValueError("samples_per_cycle must be >= 1")

    d = gen.space_S.total_dim
    per_block = max(1, _BLOCK_ENTRIES // (d * d * samples_per_cycle))
    fractions = [(k + 1) / samples_per_cycle for k in range(samples_per_cycle)]
    starts = (0.0,) + schedule.reset_times[:-1]
    gaps = schedule.gaps
    kernels: dict[float, _CycleKernel] = {}
    kernel_info: dict[float, dict] = {}
    applies: dict[float, int] = {}
    rho_s = rho_S0.matrix
    top_level_max = 0.0
    yield np.zeros(1), rho_S0.matrix[None]

    for first in range(0, schedule.n_resets, per_block):
        cycles = range(first, min(first + per_block, schedule.n_resets))
        times = np.empty(len(cycles) * samples_per_cycle)
        states = np.empty((times.size, d, d), dtype=complex)
        for j, k in enumerate(cycles):
            key = round(gaps[k], 12)
            if key in kernels:
                samples = kernels[key].apply(rho_s)
            else:
                kernels[key], samples, kernel_info[key] = _build_kernel(
                    gen, gaps[k], samples_per_cycle, rho_s, rho_A.matrix, substeps, step_tol
                )
            applies[key] = applies.get(key, 0) + 1
            at = slice(j * samples_per_cycle, (j + 1) * samples_per_cycle)
            times[at] = [starts[k] + frac * gaps[k] for frac in fractions]
            states[at] = samples
            rho_s = states[at.stop - 1]
            if not np.isfinite(rho_s).all():
                # the next matrix-free cycle would stall on it before the block check
                _check_cycles(states[:at.stop], samples_per_cycle)
        _check_cycles(states, samples_per_cycle)
        if monitor_top_levels:
            pops = np.real(np.diagonal(states, axis1=-2, axis2=-1))[:, -monitor_top_levels:]
            top_level_max = max(top_level_max, float(np.max(np.sum(pops, axis=-1))))
        states.setflags(write=False)
        yield times, states

    path = _path(gen)
    n_blocks, size = gen.sectors.shape if path is _UNITARY else (1, gen.total_dim)
    metadata.update({
        "resets": schedule.n_resets,
        "samples_per_cycle": samples_per_cycle,
        "path": path.name,
        # sizes of the joint blocks propagated apart
        "sectors": [int(size)] * n_blocks,
        "kernels": {str(k): v for k, v in sorted(kernel_info.items())},
        # cycles served by each kernel: its cache hits plus one
        "kernel_applies": {str(k): v for k, v in sorted(applies.items())},
    })
    if monitor_top_levels:
        metadata["top_level_max"] = top_level_max
        metadata["cutoff_flag"] = top_level_max > CUTOFF_POPULATION_LIMIT


def evolve_with_resets(
    gen: CycleGenerator,
    rho_S0: DensityMatrix,
    rho_A: DensityMatrix,
    schedule: ResetSchedule,
    *,
    substeps: int | None = None,
    step_tol: float = DEFAULT_STEP_TOL,
    samples_per_cycle: int = 1,
    monitor_top_levels: int | None = None,
) -> Trajectory:
    """Propagate through the schedule, resetting the actuator at each time.

    Resets are instantaneous: after each cycle the actuator state is
    replaced by ``rho_A``. The reduced system state is recorded at every
    reset boundary, plus ``samples_per_cycle - 1`` interior points per
    cycle when requested. ``monitor_top_levels`` tracks the population
    of the top system levels to expose truncation artifacts. The states
    are the blocks of ``_reset_blocks`` joined into one array.
    """
    metadata: dict = {}
    times, states = zip(*_reset_blocks(
        gen, rho_S0, rho_A, schedule, metadata,
        substeps, step_tol, samples_per_cycle, monitor_top_levels,
    ))
    return Trajectory(
        np.concatenate(times), _StateStack(np.concatenate(states), gen.space_S), metadata
    )


def intra_cycle_trajectory(
    gen: CycleGenerator,
    rho_S: DensityMatrix,
    rho_A: DensityMatrix,
    dt: float,
    sample_points: Sequence[float],
    *,
    step_tol: float = DEFAULT_STEP_TOL,
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

    samples, seg_info = [], []
    for tau in pts:
        reduced = rho_S.matrix
        if tau > 0.0:
            _, (reduced,), info = _build_kernel(
                gen, dt, 1, rho_S.matrix, rho_A.matrix, None, step_tol, tau / dt
            )
            seg_info.append({"to": tau, **info})
        samples.append(reduced)

    states = np.array(samples)
    _check_density(states, **_STATE_TOLS)
    return Trajectory(
        np.array(pts), _StateStack(states, gen.space_S), {"segments": seg_info, "cycle_dt": dt}
    )
