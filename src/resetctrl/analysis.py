"""Quantitative checks of the high reset-frequency limit and its error laws.

Covers convergence of the repeated-cycle product to the effective
exponential, the first-order dissipative correction and its O(t/f)
scaling, the mid-cycle (stroboscopic) deviation and its bound, and the
Lie-algebra reachability of effective Hamiltonians.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import quadrature
from .dynamics import (
    DEFAULT_MAP_TOL,
    DEFAULT_STEP_TOL,
    ResetSchedule,
    _check_states,
    _cycle_count,
    cycle_map,
    evolve_with_resets,
    intra_cycle_trajectory,
)
from .generators import (
    CycleGenerator,
    SwitchingFunction,
    _coupling_average,
    constant,
    effective_hamiltonian,
    phi1_super,
)
from .qcore import (
    TOL_HERM,
    DensityMatrix,
    Operator,
    SuperOperator,
    expm_hermitian,
    mat_exp,
    trace_distance,
    vec,
)

_PROBE_SEED = 7
_N_RANDOM_PROBES = 100
# deviations at or below these count as exact convergence: FIT_ZERO_FLOOR
# in fit_order, DISSIPATIVE_EXACT_FLOOR over a whole dissipative scan
FIT_ZERO_FLOOR = 1e-13
DISSIPATIVE_EXACT_FLOOR = 1e-9
# slack on the mid-cycle bound in stroboscopic_bound_check
STROBE_BOUND_SLACK = 1e-9
# absolute rank tolerance in lie_algebra_dimension, on commutators of
# orthonormal directions
LIE_TOL = 1e-9


@dataclass(frozen=True)
class ScalingReport:
    """Log-log power-law fit of measured deviations against a parameter."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    fitted_order: float
    r_squared: float
    exact: bool = False


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r_squared: float


def linear_fit(xs, ys) -> LinearFit:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size or xs.size < 2:
        raise ValueError("linear_fit needs >= 2 matching points")
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LinearFit(float(slope), float(intercept), r2)


def fit_order(xs, ys) -> ScalingReport:
    """Least-squares slope of log(ys) against log(xs).

    Deviations that are all at or below ``FIT_ZERO_FLOOR`` indicate exact
    convergence; the report carries a flag instead of a meaningless fit.
    """
    xs = tuple(float(x) for x in xs)
    ys = tuple(float(y) for y in ys)
    if len(xs) != len(ys) or len(xs) < 3:
        raise ValueError("fit_order needs >= 3 matching points")
    if any(b <= a for a, b in zip(xs, xs[1:])) or xs[0] <= 0:
        raise ValueError("xs must be positive and strictly increasing")
    if min(ys) < 0:
        raise ValueError("ys must be non-negative")
    if max(ys) <= FIT_ZERO_FLOOR:
        return ScalingReport(xs, ys, float("nan"), float("nan"), exact=True)
    if min(ys) <= 0:
        raise ValueError("mixed zero and nonzero deviations cannot be fitted")
    fit = linear_fit(np.log(xs), np.log(ys))
    return ScalingReport(xs, ys, fit.slope, fit.r_squared)


# ---------------------------------------------------------------------------
# induced-norm probes and Chernoff convergence


def hermitian_probe_basis(dim: int) -> list[np.ndarray]:
    """Hermitian operator basis, each element of unit trace norm."""
    probes = []
    for i in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[i, i] = 1.0
        probes.append(e)
    for i in range(dim):
        for j in range(i + 1, dim):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[i, j] = sym[j, i] = 0.5
            probes.append(sym)
            anti = np.zeros((dim, dim), dtype=complex)
            anti[i, j] = 0.5j
            anti[j, i] = -0.5j
            probes.append(anti)
    return probes


def random_pure_probes(dim: int) -> list[np.ndarray]:
    """``_N_RANDOM_PROBES`` pure-state projectors, seeded by ``_PROBE_SEED``."""
    rng = np.random.default_rng(_PROBE_SEED)
    probes = []
    for _ in range(_N_RANDOM_PROBES):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        probes.append(np.outer(v, v.conj()))
    return probes


def default_probes(dim: int) -> list[np.ndarray]:
    return hermitian_probe_basis(dim) + random_pure_probes(dim)


def induced_trace_norm(matrix: np.ndarray, dim: int, probes=None) -> float:
    """Lower bound on the trace-norm-induced superoperator norm.

    Maximizes the output trace norm over unit-trace-norm Hermitian
    probes (a fixed basis plus seeded random pure states). Using the
    same probe set across a refinement ladder makes convergence-order
    fits well defined even though the value is only a lower bound. All
    probes go through one matmul and one batched SVD.
    """
    if probes is None:
        probes = default_probes(dim)
    # columns vec(probe k), in C order; row k of the transposed product is
    # vec(output k), and reshaped in C order it is that output's transpose,
    # with the same singular values
    inputs = np.ascontiguousarray(vec(np.array(probes)).T)
    outputs = (matrix @ inputs).T.reshape(-1, dim, dim)
    return float(np.max(np.sum(np.linalg.svd(outputs, compute_uv=False), axis=-1)))


def product_formula_superop(
    gen: CycleGenerator,
    rho_A: DensityMatrix,
    t: float,
    n: int,
    *,
    map_tol: float = DEFAULT_MAP_TOL,
) -> SuperOperator:
    """The n-cycle reduced map: n-fold composition of the single-cycle map."""
    if n < 1:
        raise ValueError("n must be >= 1")
    single = cycle_map(gen, rho_A, t / n, tol=map_tol)
    return SuperOperator(np.linalg.matrix_power(single.matrix, n), gen.space_S)


def chernoff_deviation(
    gen: CycleGenerator,
    rho_A: DensityMatrix,
    t: float,
    n: int,
    *,
    probes=None,
    map_tol: float = DEFAULT_MAP_TOL,
    first_order_correction: SuperOperator | None = None,
) -> float:
    """Distance between the n-cycle product and the effective exponential.

    Measured in the probe-based induced trace norm. When
    ``first_order_correction`` (the t-dependent first-order coefficient
    superoperator) is supplied, its 1/n multiple is subtracted, leaving
    the second-order residual. For a closed generator Phi_1 = -i[H_eff, .],
    so the target exp(Phi_1 t) is conj(U) kron U with U = exp(-i H_eff t).
    """
    if t == 0.0:
        return 0.0
    product = product_formula_superop(gen, rho_A, t, n, map_tol=map_tol)
    if gen.is_closed:
        u = expm_hermitian(effective_hamiltonian(gen, rho_A).matrix, -1j * t)
        target = np.kron(u.conj(), u)
    else:
        target = mat_exp(phi1_super(gen, rho_A).matrix * t)
    diff = product.matrix - target
    if first_order_correction is not None:
        diff = diff - first_order_correction.matrix / n
    return induced_trace_norm(diff, gen.space_S.total_dim, probes)


def omega1_super(phi1: SuperOperator, phi2: SuperOperator, t: float) -> SuperOperator:
    """First-order coefficient of the 1/n expansion of the cycle product.

    The coefficient is t^2 * integral over tau in [0,1] of
    exp(Phi1 tau t) (Phi2 - Phi1^2 / 2) exp(Phi1 (1-tau) t). With
    A = Phi1 t and B = (Phi2 - Phi1^2 / 2) t, the upper-right block of
    exp([[A, B], [0, A]]) is integral over s in [0,1] of
    exp(A (1-s)) B exp(A s) (Van Loan, IEEE Trans. Autom. Control 23, 395
    (1978)), so the coefficient is t times that block, from one matrix
    exponential.
    """
    if phi1.space.total_dim != phi2.space.total_dim:
        raise ValueError("phi1 and phi2 must act on the same space")
    side = phi1.matrix.shape[0]
    a = phi1.matrix * t
    block = np.zeros((2 * side, 2 * side), dtype=complex)
    block[:side, :side] = block[side:, side:] = a
    block[:side, side:] = (phi2.matrix - 0.5 * (phi1.matrix @ phi1.matrix)) * t
    return SuperOperator(t * mat_exp(block)[:side, side:], phi1.space)


# ---------------------------------------------------------------------------
# dissipative error scaling


def _effective_reference(h_eff: np.ndarray, psi0: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The map from times to exp(-i h_eff t) psi0, one row each, from one eigendecomposition."""
    energies, vecs = np.linalg.eigh(h_eff)
    amplitudes = vecs.conj().T @ psi0
    return lambda times: (np.exp(-1j * np.outer(times, energies)) * amplitudes) @ vecs.T


def _effective_evolver(h_eff: np.ndarray, times: np.ndarray, psi0: np.ndarray) -> np.ndarray:
    """exp(-i h_eff t) psi0 for every t of ``times``, one row each, in one product."""
    return _effective_reference(h_eff, psi0)(times)


@dataclass(frozen=True)
class FrequencyScan:
    f: float
    times: tuple[float, ...]
    deviations: tuple[float, ...]
    fit: LinearFit


@dataclass(frozen=True)
class DissipativeScalingResult:
    scans: tuple[FrequencyScan, ...]
    freq_report: ScalingReport


def dissipative_scaling(
    gen: CycleGenerator,
    rho_A: DensityMatrix,
    psi0: np.ndarray,
    f_list,
    t_grid,
    *,
    step_tol: float = DEFAULT_STEP_TOL,
) -> DissipativeScalingResult:
    """Measure the deviation from the effective trajectory against f.

    For each reset rate the end-of-cycle trace distance to the
    effective-Hamiltonian-evolved pure state is fitted linearly in t;
    the slopes are then fitted against f on a log-log scale (the
    predicted order is -1). Times snap to integer cycle counts; the
    rates are scanned in ascending order. A scan whose deviations are
    all at or below ``DISSIPATIVE_EXACT_FLOOR`` is reported as exact.
    """
    f_list = sorted(float(f) for f in f_list)
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    psi0 = psi0 / np.linalg.norm(psi0)
    h_eff = effective_hamiltonian(gen, rho_A).matrix
    rho0 = DensityMatrix.pure(psi0, gen.space_S.dims)

    scans = []
    for f in f_list:
        cycle_counts = sorted({_cycle_count(f, t) for t in t_grid})
        n_max = cycle_counts[-1]
        schedule = ResetSchedule.uniform(n_max, n_max / f)
        traj = evolve_with_resets(gen, rho0, rho_A, schedule, step_tol=step_tol)
        times = [n / f for n in cycle_counts]
        refs = _effective_evolver(h_eff, np.array(times), psi0)
        devs = [
            trace_distance(traj.states[n].matrix, np.outer(psi_t, psi_t.conj()))
            for n, psi_t in zip(cycle_counts, refs)
        ]
        scans.append(FrequencyScan(f, tuple(times), tuple(devs), linear_fit(times, devs)))

    slopes = [scan.fit.slope for scan in scans]
    all_devs = [d for scan in scans for d in scan.deviations]
    if max(all_devs) <= DISSIPATIVE_EXACT_FLOOR:
        report = ScalingReport(
            tuple(f_list), tuple(slopes), float("nan"), float("nan"), exact=True
        )
    else:
        report = fit_order(f_list, slopes)
    return DissipativeScalingResult(tuple(scans), report)


# ---------------------------------------------------------------------------
# stroboscopic (mid-cycle) error


def braced_switching_term(g: SwitchingFunction, tau: float, dt: float) -> float:
    """Mean coupling minus the running average of g over the partial cycle."""
    if not 0.0 < tau <= dt:
        raise ValueError("need 0 < tau <= dt")
    s = tau / dt
    partial = quadrature.integrate_scalar(g.evaluate, 0.0, s, breakpoints=g.breakpoints)
    return g.mean - partial / s


def stroboscopic_deviation(
    gen: CycleGenerator,
    rho_A: DensityMatrix,
    rho_S: DensityMatrix,
    tau: float,
    dt: float,
) -> Operator:
    """First-order mid-cycle deviation between effective and full dynamics.

    Returns -i tau {braced term} [tr_A(H_SA rho_A), rho_S]: the
    traceless Hermitian leading-order difference between the
    effective-Hamiltonian prediction and the reduced full evolution a
    time tau into a cycle of length dt. Requires closed dynamics.
    """
    if not gen.is_closed:
        raise ValueError("the first-order mid-cycle expansion assumes closed dynamics")
    braced = braced_switching_term(gen.g, tau, dt)
    b = _coupling_average(gen, rho_A)
    comm = b @ rho_S.matrix - rho_S.matrix @ b
    return Operator(-1j * tau * braced * comm, gen.space_S)


def measured_stroboscopic_deviation(
    gen: CycleGenerator,
    rho_A: DensityMatrix,
    rho_S: DensityMatrix,
    tau: float,
    dt: float,
    *,
    step_tol: float = DEFAULT_STEP_TOL,
) -> Operator:
    """Measured counterpart: first-order effective state minus full state."""
    h_eff = effective_hamiltonian(gen, rho_A).matrix
    eff_first = rho_S.matrix - 1j * tau * (h_eff @ rho_S.matrix - rho_S.matrix @ h_eff)
    traj = intra_cycle_trajectory(gen, rho_S, rho_A, dt, [tau], step_tol=step_tol)
    return Operator(eff_first - traj.states[-1].matrix, gen.space_S)


def stroboscopic_bound_check(g: SwitchingFunction, tau: float, dt: float) -> bool:
    """Check |braced term| <= 2 g_max (dt - tau) / tau + ``STROBE_BOUND_SLACK``."""
    braced = abs(braced_switching_term(g, tau, dt))
    bound = 2.0 * g.g_max * (dt - tau) / tau
    return braced <= bound + STROBE_BOUND_SLACK


# ---------------------------------------------------------------------------
# reachability


def lie_algebra_dimension(generators) -> int:
    """Dimension of the real Lie algebra generated by {i H_k}.

    A rank-revealing closure on Hermitian matrices under H, K -> i[H, K],
    each held as the d^2 entries of Re H + Im H, isometric coordinates
    (Hilbert-Schmidt) that never leave u(d). Each round takes the
    commutators of the newest directions with the whole orthonormal basis
    unnormalized (scaling a small one up to unit norm would scale its
    roundoff with it), projects the basis out twice, drops residuals of
    norm at most ``LIE_TOL`` and adds the right singular vectors whose
    singular values exceed it. It stops when a round adds nothing or the
    basis spans u(d).
    """
    mats = []
    for k, h in enumerate(generators):
        m = h.matrix if isinstance(h, Operator) else np.asarray(h, dtype=complex)
        if np.max(np.abs(m - m.conj().T)) > TOL_HERM:
            raise ValueError(f"generator {k} is not Hermitian")
        mats.append(m)
    if not mats:
        return 0
    dim = mats[0].shape[0]

    def hermitian(v: np.ndarray) -> np.ndarray:
        r = v.reshape(-1, dim, dim)
        return (r + r.swapaxes(1, 2)) / 2 + 0.5j * (r - r.swapaxes(1, 2))

    # orthonormal rows, each the coordinates of one Hermitian matrix
    basis = np.empty((0, dim * dim))

    def extend(h: np.ndarray) -> np.ndarray:
        nonlocal basis
        v = (h.real + h.imag).reshape(-1, dim * dim)
        for _ in range(2):
            v = v - (v @ basis.T) @ basis
        v = v[np.linalg.norm(v, axis=1) > LIE_TOL]
        _, sv, vt = np.linalg.svd(v, full_matrices=False)
        new = vt[sv > LIE_TOL]
        basis = np.concatenate([basis, new])
        return new

    mats = np.array(mats)
    norms = np.linalg.norm(mats, axis=(1, 2))
    newest = extend(mats[norms > LIE_TOL] / norms[norms > LIE_TOL, None, None])
    while len(newest) and len(basis) < dim * dim:
        a, b = hermitian(newest)[:, None], hermitian(basis)[None]
        newest = extend(1j * (a @ b - b @ a))
    return len(basis)


# ---------------------------------------------------------------------------
# gradual (non-instantaneous) reset scenario


def reset_jumps(rho_A: DensityMatrix, kappa: float) -> tuple[Operator, ...]:
    """Jump operators whose dissipator damps the actuator toward rho_A.

    Eigen-decomposing rho_A = sum_i p_i |x_i><x_i| and taking jumps
    sqrt(kappa p_i) |x_i><j| over any orthonormal basis realizes the
    generator kappa (rho_A tr(.) - .) in Lindblad form.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    d = rho_A.space.total_dim
    probs, states = np.linalg.eigh(rho_A.matrix)
    jumps = []
    for i in range(d):
        if probs[i] < 1e-14:
            continue
        for j in range(d):
            op = np.sqrt(kappa * probs[i]) * np.outer(states[:, i], np.eye(d)[j])
            jumps.append(Operator(op, rho_A.space))
    return tuple(jumps)


def gradual_reset_generator(
    gen: CycleGenerator, rho_A: DensityMatrix, kappa: float
) -> CycleGenerator:
    """Continuous-coupling variant with the actuator damped toward rho_A.

    The switching function is replaced by its mean (there are no cycles
    to modulate) and reset jumps at rate kappa are attached to the
    actuator.
    """
    return dataclasses.replace(
        gen, g=constant(gen.g.mean), jumps_A=reset_jumps(rho_A, kappa)
    )


def gradual_reset_scan(
    gen: CycleGenerator,
    rho_A: DensityMatrix,
    rho_S0: DensityMatrix,
    kappas,
    t: float,
    *,
    step_tol: float = DEFAULT_STEP_TOL,
) -> tuple[float, ...]:
    """Trace distance at t from the effective trajectory, for each damping rate kappa.

    The effective target is computed once. Each damped generator has a
    constant g, so both CF4 exponents of a substep are equal and every
    substep count is exact: the propagation settles at two substeps, on
    whichever path ``dynamics`` picks.
    """
    _check_states(gen, rho_S0, rho_A)
    u = expm_hermitian(effective_hamiltonian(gen, rho_A).matrix, -1j * t)
    target = u @ rho_S0.matrix @ u.conj().T
    devs = []
    for kappa in kappas:
        damped = gradual_reset_generator(gen, rho_A, kappa)
        traj = intra_cycle_trajectory(damped, rho_S0, rho_A, t, [t], step_tol=step_tol)
        devs.append(trace_distance(traj.states[-1].matrix, target))
    return tuple(devs)
