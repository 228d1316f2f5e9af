"""Propagation of the bipartite system through evolve-and-reset cycles.

The intra-cycle propagator is approximated by an ordered product of
substep exponentials. Closed cycles use the two-point Gauss Magnus-4
step (fourth order in the substep width): its exponent is
anti-Hermitian, so every factor is exactly unitary. Open cycles use the
exponential midpoint rule (second order), with the switching function
frozen at each substep midpoint: each factor is an exact channel
whenever the instantaneous generator is of Lindblad form, so complete
positivity is preserved per substep.

Two execution paths exist: a dense-superoperator path for small joint
dimensions (analysis consumption) and a state-propagation path that
never materializes superoperators, used for trajectories whenever the
joint dimension exceeds 16. Closed systems always propagate a joint
unitary instead of a superoperator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .generators import CycleGenerator, _reduced_super
from .qcore import (
    ConvergenceError,
    DensityMatrix,
    Operator,
    SuperOperator,
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

# Magnus-4: two-point Gauss nodes at +-sqrt(3)/6 of a substep from its
# centre, and the weight of the commutator term
_GAUSS_OFFSET = np.sqrt(3.0) / 6.0
_MAGNUS_WEIGHT = np.sqrt(3.0) / 12.0

# trajectory states are valid by construction up to accumulated roundoff
_STATE_TOLS = dict(tol_herm=1e-9, tol_trace=1e-9, tol_psd=1e-7)


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

    @property
    def max_gap(self) -> float:
        return max(self.gaps)


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


def _midpoint_zetas(a_frac: float, b_frac: float, substeps: int) -> np.ndarray:
    h = (b_frac - a_frac) / substeps
    return a_frac + h * (np.arange(substeps) + 0.5)


# ---------------------------------------------------------------------------
# substep factor construction


def _closed_step(gen: CycleGenerator, zeta: float, dzeta: float, dt: float) -> np.ndarray:
    """Magnus-4 factor for the substep of width ``dzeta`` centred at ``zeta``.

    With Gauss nodes z_pm = zeta +- dzeta sqrt(3)/6 and h = dzeta dt the
    factor is exp(-i K), K = (h/2)(H(z_+) + H(z_-)) + (sqrt(3)/12) h^2
    (g(z_+) - g(z_-)) i[H_free, H_SA]. K is Hermitian, so the factor is
    exactly unitary and costs one eigendecomposition.
    """
    h = dzeta * dt
    g_lo = gen.g(zeta - _GAUSS_OFFSET * dzeta)
    g_hi = gen.g(zeta + _GAUSS_OFFSET * dzeta)
    k = (
        h * gen.h_free_full
        + (0.5 * h * (g_lo + g_hi)) * gen.h_SA.matrix
        + (_MAGNUS_WEIGHT * h * h * (g_hi - g_lo)) * gen.h_commutator_full
    )
    return expm_hermitian(k, -1j)


def _open_step_super(gen: CycleGenerator, zeta: float, h: float) -> np.ndarray:
    l_mid = gen.free_super.matrix + gen.g(zeta) * gen.coupling_super.matrix
    return mat_exp(h * l_mid)


def _open_step_matvec(gen: CycleGenerator, zeta: float, h: float, rho: np.ndarray) -> np.ndarray:
    """Apply exp(h L(zeta)) to a joint state without materializing L.

    Substep exponents are small by construction, so the exponential
    series applied term by term converges at machine precision after a
    handful of Liouvillian applications; a splitting guard keeps the
    series safe if a caller forces coarse substeps.
    """
    g_val = gen.g(zeta)

    def apply_l(m: np.ndarray) -> np.ndarray:
        return h * (gen.apply_free_liouvillian(m) + g_val * gen.apply_coupling_liouvillian(m))

    norm0 = np.linalg.norm(rho)
    first = apply_l(rho)
    growth = np.linalg.norm(first) / max(norm0, 1e-300)
    splits = max(0, int(np.ceil(np.log2(max(growth, 1.0)))))
    pieces = 2 ** splits
    scale = 1.0 / pieces

    out = rho
    for _ in range(pieces):
        term = out
        acc = out.copy()
        for k in range(1, 60):
            term = apply_l(term) * (scale / k)
            acc += term
            if np.linalg.norm(term) <= 1e-15 * np.linalg.norm(acc):
                break
        else:
            raise ConvergenceError(
                "substep exponential series stalled", float(np.linalg.norm(term)), 60
            )
        out = acc
    return out


# ---------------------------------------------------------------------------
# cycle propagators


def cycle_unitary(gen: CycleGenerator, dt: float, substeps: int) -> np.ndarray:
    """Joint-space unitary for one closed cycle (Magnus-4 substep rule)."""
    if not gen.is_closed:
        raise ValueError("cycle_unitary requires a closed (jump-free) generator")
    if dt < 0 or substeps < 1:
        raise ValueError("need dt >= 0 and substeps >= 1")
    d = gen.total_dim
    u = np.eye(d, dtype=complex)
    if dt == 0.0:
        return u
    for zeta in _midpoint_zetas(0.0, 1.0, substeps):
        u = _closed_step(gen, zeta, 1.0 / substeps, dt) @ u
    return u


def cycle_propagator(
    gen: CycleGenerator, dt: float, substeps: int, method: str = "auto"
) -> SuperOperator:
    """Time-ordered intra-cycle propagator on the joint space.

    ``method`` selects the unitary-conjugation form ("unitary", closed
    generators only) or the superoperator product ("superop"); "auto"
    picks by generator. A closed generator gives the same Magnus-4
    factors either way, as the conjugation superoperator of its cycle
    unitary; an open one takes midpoint-rule superoperator factors.
    """
    if dt < 0 or substeps < 1:
        raise ValueError("need dt >= 0 and substeps >= 1")
    if method not in ("auto", "unitary", "superop"):
        raise ValueError(f"unknown method {method!r}")
    space = gen.space
    if gen.is_closed or method == "unitary":
        u = cycle_unitary(gen, dt, substeps)
        return SuperOperator(np.kron(u.conj(), u), space)
    d2 = gen.total_dim ** 2
    p = np.eye(d2, dtype=complex)
    if dt == 0.0:
        return SuperOperator(p, space)
    h = dt / substeps
    for zeta in _midpoint_zetas(0.0, 1.0, substeps):
        p = _open_step_super(gen, zeta, h) @ p
    return SuperOperator(p, space)


def _refine_doubling(
    run: Callable[[int], object],
    distance: Callable[[object, object], float],
    start: int,
    tol: float,
    cap: int,
    what: str,
) -> tuple[object, int, float]:
    """Double a resolution parameter until successive outputs agree."""
    s = max(1, start)
    prev = run(s)
    resid = np.inf
    while 2 * s <= cap:
        s *= 2
        cur = run(s)
        resid = distance(cur, prev)
        if resid < tol:
            return cur, s, resid
        prev = cur
    raise ConvergenceError(f"{what} did not converge by substep cap {cap}", resid, s)


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
    if dt < 0:
        raise ValueError("dt must be >= 0")
    if dt == 0.0:
        return SuperOperator.identity(gen.space_S)
    if not gen.is_closed and gen.total_dim > SUPEROP_PATH_MAX_DIM:
        raise ValueError(
            f"dense cycle_map for open systems is limited to joint dimension "
            f"{SUPEROP_PATH_MAX_DIM}; use evolve_with_resets for larger models"
        )

    if gen.is_closed:
        build = lambda s: cycle_unitary(gen, dt, s)
    else:
        build = lambda s: cycle_propagator(gen, dt, s, method="superop").matrix

    if substeps is not None:
        prop = build(substeps)
    else:
        prop, _, _ = _refine_doubling(
            build,
            lambda a, b: float(np.max(np.abs(a - b))),
            start=1,
            tol=tol,
            cap=substep_cap,
            what="cycle_map substep refinement",
        )

    if gen.is_closed:
        apply_joint = lambda m: prop @ m @ prop.conj().T
    else:
        d = gen.total_dim
        apply_joint = lambda m: unvec(prop @ vec(m), d)
    return SuperOperator(_reduced_super(gen, rho_A, apply_joint), gen.space_S)


# ---------------------------------------------------------------------------
# state propagation


class _CycleKernel:
    """Reusable propagator for one gap length, with intra-cycle samples.

    ``fractions`` are the sample offsets within the cycle (ending at 1).
    For closed generators the kernel stores partial unitary products;
    for small open systems partial superoperator products; large open
    systems step the vectorized state with matrix-free exponentials.
    """

    def __init__(self, gen: CycleGenerator, gap: float, substeps: int, fractions: Sequence[float]):
        self.gen = gen
        self.gap = gap
        self.substeps = substeps
        self.fractions = tuple(fractions)
        self.kind = (
            "unitary"
            if gen.is_closed
            else ("superop" if gen.total_dim <= SUPEROP_PATH_MAX_DIM else "matvec")
        )
        self._partials: list[np.ndarray] | None = None
        if self.kind != "matvec":
            self._partials = self._build_partials()

    def _sample_indices(self) -> list[int]:
        return [max(1, round(f * self.substeps)) for f in self.fractions]

    def _build_partials(self) -> list[np.ndarray]:
        gen, s, gap = self.gen, self.substeps, self.gap
        marks = set(self._sample_indices())
        if self.kind == "unitary":
            acc = np.eye(gen.total_dim, dtype=complex)
            step = lambda z: _closed_step(gen, z, 1.0 / s, gap)
        else:
            acc = np.eye(gen.total_dim ** 2, dtype=complex)
            step = lambda z: _open_step_super(gen, z, gap / s)
        partials = []
        for k, zeta in enumerate(_midpoint_zetas(0.0, 1.0, s), start=1):
            acc = step(zeta) @ acc
            if k in marks:
                partials.append(acc.copy())
        return partials

    def apply(self, joint: np.ndarray) -> list[np.ndarray]:
        """Propagate a joint state, returning reduced states at each sample."""
        gen = self.gen
        d_s, d_a = gen.space_S.total_dim, gen.space_A.total_dim
        reduced = []
        if self.kind == "unitary":
            for u in self._partials:
                out = u @ joint @ u.conj().T
                reduced.append(partial_trace_matrix(out, (d_s, d_a), keep=0))
        elif self.kind == "superop":
            v0 = vec(joint)
            for p in self._partials:
                out = unvec(p @ v0, gen.total_dim)
                reduced.append(partial_trace_matrix(out, (d_s, d_a), keep=0))
        else:
            h = self.gap / self.substeps
            marks = self._sample_indices()
            m = joint
            next_mark = 0
            for k, zeta in enumerate(_midpoint_zetas(0.0, 1.0, self.substeps), start=1):
                m = _open_step_matvec(gen, zeta, h, m)
                while next_mark < len(marks) and marks[next_mark] == k:
                    reduced.append(partial_trace_matrix(m, (d_s, d_a), keep=0))
                    next_mark += 1
        return reduced


def _build_kernel(
    gen: CycleGenerator,
    gap: float,
    fractions: Sequence[float],
    joint_probe: np.ndarray,
    substeps: int | None,
    tol: float,
    cap: int,
) -> tuple[_CycleKernel, float]:
    """Construct a cycle kernel, calibrating substeps on a probe state."""
    base = len(fractions)
    if substeps is not None:
        s = base * max(1, -(-substeps // base))  # round up to sample multiple
        return _CycleKernel(gen, gap, s, fractions), 0.0

    def run(s: int) -> _CycleKernel:
        return _CycleKernel(gen, gap, s * base, fractions)

    def dist(a: _CycleKernel, b: _CycleKernel) -> float:
        ra = a.apply(joint_probe)[-1]
        rb = b.apply(joint_probe)[-1]
        return trace_distance(ra, rb)

    kernel, _, resid = _refine_doubling(
        run, dist, start=1, tol=tol, cap=max(1, cap // base), what="cycle propagation"
    )
    return kernel, resid


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
    validate_states: bool = True,
) -> Trajectory:
    """Propagate through the schedule, resetting the actuator at each time.

    Resets are instantaneous: after each cycle the actuator state is
    replaced by ``rho_A``. The reduced system state is recorded at every
    reset boundary, plus ``samples_per_cycle - 1`` interior points per
    cycle when requested. ``monitor_top_levels`` tracks the population
    of the top system levels to expose truncation artifacts.
    """
    if rho_S0.space.total_dim != gen.space_S.total_dim:
        raise ValueError("initial system state dimension mismatch")
    if rho_A.space.total_dim != gen.space_A.total_dim:
        raise ValueError("actuator state dimension mismatch")
    if samples_per_cycle < 1:
        raise ValueError("samples_per_cycle must be >= 1")

    fractions = [(k + 1) / samples_per_cycle for k in range(samples_per_cycle)]
    edges = (0.0,) + schedule.reset_times
    kernels: dict[float, _CycleKernel] = {}
    kernel_info: dict[float, dict] = {}

    def make_state(m: np.ndarray) -> DensityMatrix:
        op = Operator(m, gen.space_S)
        if validate_states:
            return DensityMatrix(op, **_STATE_TOLS)
        return DensityMatrix.unchecked(op)

    times = [0.0]
    states = [rho_S0]
    rho_s = rho_S0.matrix
    top_level_max = 0.0

    for start, stop in zip(edges, edges[1:]):
        gap = stop - start
        key = round(gap, 12)
        joint = np.kron(rho_s, rho_A.matrix)
        if key not in kernels:
            kernel, resid = _build_kernel(
                gen, gap, fractions, joint, substeps, step_tol, substep_cap
            )
            kernels[key] = kernel
            kernel_info[key] = {"substeps": kernel.substeps, "residual": resid}
        kernel = kernels[key]
        for frac, reduced in zip(fractions, kernel.apply(joint)):
            times.append(start + frac * gap)
            states.append(make_state(reduced))
            if monitor_top_levels:
                pops = np.real(np.diag(reduced))
                top_level_max = max(top_level_max, float(np.sum(pops[-monitor_top_levels:])))
        rho_s = states[-1].matrix

    metadata = {
        "resets": schedule.n_resets,
        "samples_per_cycle": samples_per_cycle,
        "path": kernels[next(iter(kernels))].kind if kernels else "none",
        "kernels": {str(k): v for k, v in sorted(kernel_info.items())},
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
    validate_states: bool = True,
) -> Trajectory:
    """Reduced system states at requested times inside a single cycle.

    The joint state starts as ``rho_S kron rho_A`` and is propagated
    exactly (to substep convergence) with the switching function argument
    referred to the full cycle length ``dt``.
    """
    pts = sorted(float(p) for p in sample_points)
    if not pts:
        raise ValueError("sample_points must be non-empty")
    if pts[0] < 0.0 or pts[-1] > dt * (1 + 1e-12):
        raise ValueError(f"sample points must lie in [0, {dt}]")

    d_s, d_a = gen.space_S.total_dim, gen.space_A.total_dim
    joint = np.kron(rho_S.matrix, rho_A.matrix)
    times, states, seg_info = [], [], []

    def make_state(m: np.ndarray) -> DensityMatrix:
        op = Operator(m, gen.space_S)
        return DensityMatrix(op, **_STATE_TOLS) if validate_states else DensityMatrix.unchecked(op)

    prev = 0.0
    for tau in pts:
        if tau > prev:
            joint, substeps, resid = _propagate_segment(
                gen, joint, dt, prev, tau, step_tol, substep_cap
            )
            seg_info.append({"to": tau, "substeps": substeps, "residual": resid})
            prev = tau
        times.append(tau)
        states.append(make_state(partial_trace_matrix(joint, (d_s, d_a), keep=0)))

    return Trajectory(np.array(times), states, {"segments": seg_info, "cycle_dt": dt})


def _propagate_segment(
    gen: CycleGenerator,
    joint: np.ndarray,
    dt: float,
    a: float,
    b: float,
    tol: float,
    cap: int,
) -> tuple[np.ndarray, int, float]:
    """Evolve a joint state from cycle time a to b (0 <= a < b <= dt)."""
    a_frac, b_frac = a / dt, b / dt
    d = gen.total_dim
    closed = gen.is_closed
    small = d <= SUPEROP_PATH_MAX_DIM

    def run(s: int) -> np.ndarray:
        if closed:
            dzeta = (b_frac - a_frac) / s
            out = joint
            for zeta in _midpoint_zetas(a_frac, b_frac, s):
                u = _closed_step(gen, zeta, dzeta, dt)
                out = u @ out @ u.conj().T
            return out
        h = (b - a) / s
        if small:
            v = vec(joint)
            for zeta in _midpoint_zetas(a_frac, b_frac, s):
                v = _open_step_super(gen, zeta, h) @ v
            return unvec(v, d)
        m = joint
        for zeta in _midpoint_zetas(a_frac, b_frac, s):
            m = _open_step_matvec(gen, zeta, h, m)
        return m

    out, substeps, resid = _refine_doubling(
        run, trace_distance, start=1, tol=tol, cap=cap, what="intra-cycle segment"
    )
    return out, substeps, resid
