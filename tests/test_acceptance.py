"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines on passing runs as well.
"""

import dataclasses

import numpy as np
import pytest

from resetctrl.analysis import (
    chernoff_deviation,
    default_probes,
    dissipative_scaling,
    fit_order,
    gradual_reset_scan,
    lie_algebra_dimension,
    measured_stroboscopic_deviation,
    omega1_super,
    stroboscopic_bound_check,
    stroboscopic_deviation,
)
from resetctrl.config import qubit_defaults
from resetctrl.dynamics import ResetSchedule, cycle_map, evolve_with_resets
from resetctrl.experiments import run_experiment
from resetctrl.generators import constant, effective_hamiltonian, phi1_super, phi2_super, sin_squared
from resetctrl.models import (
    OscillatorQubitModel,
    SIGMA_X,
    SIGMA_Z,
    bloch_density,
    build_oscillator_qubit,
    coherent_state,
    number_operator,
    quadrature_p,
    quadrature_x,
)
from resetctrl.qcore import (
    DensityMatrix,
    Operator,
    fidelity_pure,
    ham_super,
    is_cptp,
    trace_distance,
    trace_norm,
    unvec,
    vec,
)
from helpers import QQ, generic_qq, random_matrix, random_open_qq, random_closed_qq


def _verdict(name: str, ok: bool, detail: str):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_c01_effective_hamiltonian_identity(rng):
    worst = 0.0
    for _ in range(20):
        gen, rho_a = random_closed_qq(rng)
        diff = phi1_super(gen, rho_a).matrix - ham_super(effective_hamiltonian(gen, rho_a)).matrix
        worst = max(worst, float(np.max(np.abs(diff))))
    _verdict(
        "C01 effective-hamiltonian identity",
        worst <= 1e-10,
        f"max |Phi1 - ad(H_eff)| = {worst:.2e} over 20 random closed generators",
    )


_NS = (16, 32, 64, 128, 256)


@pytest.fixture(scope="module")
def chernoff_ladder():
    gen, rho_a = generic_qq()
    probes = default_probes(2)
    devs = [chernoff_deviation(gen, rho_a, 1.0, n, probes=probes) for n in _NS]
    p1 = phi1_super(gen, rho_a)
    p2 = phi2_super(gen, rho_a)
    omega1 = omega1_super(p1, p2, 1.0)
    resids = [
        chernoff_deviation(gen, rho_a, 1.0, n, probes=probes, first_order_correction=omega1)
        for n in _NS
    ]
    return devs, resids


def test_c02_chernoff_convergence(chernoff_ladder):
    devs, _ = chernoff_ladder
    monotone = all(b < a for a, b in zip(devs, devs[1:]))
    order = fit_order(_NS, devs).fitted_order
    _verdict(
        "C02 chernoff convergence",
        monotone and -1.3 <= order <= -0.7,
        f"monotone={monotone}, fitted order={order:.3f}, devs={[f'{d:.2e}' for d in devs]}",
    )


def test_c03_first_order_correction(chernoff_ladder):
    _, resids = chernoff_ladder
    order = fit_order(_NS, resids).fitted_order
    _verdict(
        "C03 first-order correction residual",
        -2.4 <= order <= -1.6,
        f"fitted order={order:.3f}, residuals={[f'{d:.2e}' for d in resids]}",
    )


def test_c04_dissipative_scaling_law():
    gen, rho_a = generic_qq()
    result = dissipative_scaling(
        gen, rho_a, np.array([1.0, 0.0]), [20.0, 40.0, 80.0], [0.5, 1.0, 1.5, 2.0]
    )
    r2s = [scan.fit.r_squared for scan in result.scans]
    order = result.freq_report.fitted_order
    _verdict(
        "C04 dissipative O(t/f) law",
        all(r2 >= 0.95 for r2 in r2s) and -1.3 <= order <= -0.7,
        f"per-f r^2={[f'{r:.4f}' for r in r2s]}, slope-vs-f order={order:.3f}",
    )


def _oscillator_30():
    """The illustration model at its own cutoff (joint dimension 60)."""
    model = OscillatorQubitModel(1.0, 1.0, (1.0, 0.0, 0.0), 30, sin_squared(2.0))
    return build_oscillator_qubit(model), coherent_state((1 + 1j) / np.sqrt(2), 30)


@pytest.mark.parametrize(
    "bloch, low, high",
    [
        ((0.6, 0.0, 0.5), -1.3, -0.7),  # generic reset state: O(t/f)
        ((1.0, 0.0, 0.0), -2.4, -1.6),  # (I+sx)/2, first order vanishes: O(t/f^2)
    ],
    ids=["generic", "degenerate"],
)
def test_c04_dissipative_scaling_law_on_oscillator(bloch, low, high):
    gen, psi0 = _oscillator_30()
    result = dissipative_scaling(
        gen, bloch_density(bloch), psi0, [20.0, 40.0, 80.0], [0.5, 1.0, 1.5, 2.0]
    )
    r2s = [scan.fit.r_squared for scan in result.scans]
    order = result.freq_report.fitted_order
    _verdict(
        f"C04 dissipative law on the d=60 oscillator, rho_A bloch {bloch}",
        all(r2 >= 0.95 for r2 in r2s) and low <= order <= high,
        f"per-f r^2={[f'{r:.4f}' for r in r2s]}, slope-vs-f order={order:.3f}",
    )


_FIG1_CUTOFF = 30
_FIG1_SAMPLES = 8


@pytest.fixture(scope="module")
def fig1_curves():
    model = OscillatorQubitModel(1.0, 1.0, (1.0, 0.0, 0.0), _FIG1_CUTOFF, sin_squared(2.0))
    gen = build_oscillator_qubit(model)
    rho_a = bloch_density((1.0, 0.0, 0.0))
    psi0 = coherent_state((1 + 1j) / np.sqrt(2), _FIG1_CUTOFF)
    rho0 = DensityMatrix.pure(psi0, (_FIG1_CUTOFF,))
    energies, states = np.linalg.eigh(effective_hamiltonian(gen, rho_a).matrix)
    curves = {}
    for f in (10.0, 5.0, 2.0):
        n = round(f * 10.0)
        traj = evolve_with_resets(
            gen,
            rho0,
            rho_a,
            ResetSchedule.uniform(n, n / f),
            samples_per_cycle=_FIG1_SAMPLES,
            monitor_top_levels=2,
        )
        assert not traj.metadata["cutoff_flag"]
        fids = np.array(
            [
                fidelity_pure(
                    state, (states * np.exp(-1j * energies * t)) @ (states.conj().T @ psi0)
                )
                for t, state in zip(traj.times, traj.states)
            ]
        )
        curves[f] = (traj.times, fids)
    return curves


def test_c05_fig1_qualitative_reproduction(fig1_curves):
    # (a) curves ordered by reset rate at every common integer-cycle time
    ordered = True
    for t_int in range(1, 11):
        vals = []
        for f in (10.0, 5.0, 2.0):
            times, fids = fig1_curves[f]
            idx = int(np.argmin(np.abs(times - t_int)))
            assert abs(times[idx] - t_int) < 1e-9
            vals.append(fids[idx])
        ordered = ordered and vals[0] >= vals[1] >= vals[2]
    # (b) fastest-reset curve stays above 0.99 throughout
    min_f10 = float(fig1_curves[10.0][1].min())
    # (c) mid-cycle wiggles: interior deviation exceeds boundary deviation (f = 2)
    times2, fids2 = fig1_curves[2.0]
    boundary = np.zeros(len(times2), dtype=bool)
    boundary[0] = True
    boundary[_FIG1_SAMPLES::_FIG1_SAMPLES] = True
    interior_max = float((1 - fids2[~boundary]).max())
    boundary_max = float((1 - fids2[boundary]).max())
    ok = ordered and min_f10 > 0.99 and interior_max > boundary_max
    _verdict(
        "C05 fig1 qualitative reproduction",
        ok,
        f"ordered={ordered}, min F(f=10nu)={min_f10:.5f}, "
        f"wiggle {interior_max:.3e} > boundary {boundary_max:.3e}",
    )


def test_c06_stroboscopic_error():
    gen, rho_a = generic_qq()
    rho0 = DensityMatrix.pure(np.array([1.0, 0.0]), (2,))
    dts = [0.2, 0.1, 0.05, 0.025]
    resids = []
    for dt in dts:
        tau = dt / 2
        pred = stroboscopic_deviation(gen, rho_a, rho0, tau, dt).matrix
        meas = measured_stroboscopic_deviation(gen, rho_a, rho0, tau, dt).matrix
        resids.append(trace_norm(meas - pred))
    order = fit_order([dt / 2 for dt in reversed(dts)], list(reversed(resids))).fitted_order

    bound_ok = all(
        stroboscopic_bound_check(g, frac * dt, dt)
        for g in (gen.g, constant(1.0), sin_squared(3.0))
        for dt in (0.4, 0.2, 0.1, 0.05)
        for frac in np.linspace(0.02, 1.0, 50)
    )

    static = dataclasses.replace(gen, g=constant(1.0))
    const_dev = max(
        trace_norm(stroboscopic_deviation(static, rho_a, rho0, frac * 0.2, 0.2).matrix)
        for frac in (0.25, 0.5, 0.75, 1.0)
    )
    ok = 1.6 <= order <= 2.4 and bound_ok and const_dev <= 1e-9
    _verdict(
        "C06 stroboscopic error",
        ok,
        f"tau-order={order:.3f}, bound-grid={bound_ok}, constant-g deviation={const_dev:.2e}",
    )


def test_c06_stroboscopic_error_on_oscillator():
    gen, psi0 = _oscillator_30()
    rho_a = bloch_density((0.6, 0.0, 0.5))
    rho0 = DensityMatrix.pure(psi0, (30,))
    dts = [0.2, 0.1, 0.05, 0.025]
    resids = []
    for dt in dts:
        pred = stroboscopic_deviation(gen, rho_a, rho0, dt / 2, dt).matrix
        meas = measured_stroboscopic_deviation(gen, rho_a, rho0, dt / 2, dt).matrix
        resids.append(trace_norm(meas - pred))
    order = fit_order([dt / 2 for dt in reversed(dts)], list(reversed(resids))).fitted_order
    _verdict(
        "C06 stroboscopic error on the d=60 oscillator",
        1.6 <= order <= 2.4,
        f"tau-order={order:.3f}, residuals={[f'{r:.2e}' for r in resids]}",
    )


def test_c07_actuator_independence_and_gradual_reset(rng):
    gen, rho_a = generic_qq()
    base = phi1_super(gen, rho_a).matrix
    worst = 0.0
    for _ in range(20):
        h_pert = random_matrix(rng, 2)
        perturbed = dataclasses.replace(
            gen,
            h_A=Operator(gen.h_A.matrix + 0.5 * (h_pert + h_pert.conj().T), QQ),
            jumps_A=(Operator(random_matrix(rng, 2), QQ), Operator(random_matrix(rng, 2), QQ)),
        )
        worst = max(worst, float(np.max(np.abs(phi1_super(perturbed, rho_a).matrix - base))))

    rho0 = DensityMatrix.pure(np.array([1.0, 0.0]), (2,))
    kappas = (4.0, 8.0, 16.0, 32.0, 64.0)
    devs = gradual_reset_scan(gen, rho_a, rho0, kappas, 2.0)
    monotone = all(b <= a * 1.1 for a, b in zip(devs, devs[1:]))
    _verdict(
        "C07 actuator-generator independence + gradual reset",
        worst <= 1e-12 and monotone,
        f"max Phi1 shift={worst:.2e}, gradual devs={[f'{d:.2e}' for d in devs]}",
    )


def test_c08_channel_validity(rng):
    failures = 0
    for _ in range(20):
        gen, rho_a = random_open_qq(rng)
        if not is_cptp(cycle_map(gen, rho_a, 0.3), tol_psd=1e-8, tol_trace=1e-9):
            failures += 1
    _verdict(
        "C08 channel validity",
        failures == 0,
        f"{failures}/20 random generators failed the CPTP check",
    )


def test_c09_controllability():
    dim_pair = lie_algebra_dimension([SIGMA_Z, SIGMA_X])
    dim_single = lie_algebra_dimension([SIGMA_Z])

    d = _FIG1_CUTOFF
    n, x, p = number_operator(d), quadrature_x(d), quadrature_p(d)
    inner = slice(0, d - 2)
    residuals = (
        np.max(np.abs((n @ x - x @ n - (-1j * p))[inner, inner])),
        np.max(np.abs((n @ p - p @ n - 1j * x)[inner, inner])),
        np.max(np.abs((x @ p - p @ x - 0.5j * np.eye(d))[inner, inner])),
    )
    worst = float(max(residuals))
    ok = dim_pair == 3 and dim_single == 1 and worst <= 1e-10
    _verdict(
        "C09 controllability",
        ok,
        f"dim(sz,sx)={dim_pair}, dim(sz)={dim_single}, "
        f"interior commutator residual={worst:.2e}",
    )


def test_c10_determinism_and_cross_path(tmp_path, rng):
    cfg = qubit_defaults()
    outs = (tmp_path / "a", tmp_path / "b")
    for out in outs:
        run_experiment(cfg, "chernoff", out, quiet=True)
        run_experiment(cfg, "strobe", out, quiet=True)
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("chernoff.csv", "chernoff.meta.json", "strobe.csv", "strobe.meta.json")
    )

    def cross_path_distance(gen, rho_a):
        rho0 = DensityMatrix.pure(np.array([1.0, 0.0]), (2,))
        n, t, substeps = 10, 1.0, 256
        traj = evolve_with_resets(
            gen, rho0, rho_a, ResetSchedule.uniform(n, t), substeps=substeps
        )
        m = cycle_map(gen, rho_a, t / n, substeps=substeps)
        final = unvec(np.linalg.matrix_power(m.matrix, n) @ vec(rho0.matrix), 2)
        return trace_distance(traj.states[-1].matrix, final)

    closed_dist = cross_path_distance(*generic_qq())
    open_dist = cross_path_distance(*random_open_qq(rng))
    ok = identical and closed_dist <= 1e-9 and open_dist <= 1e-9
    _verdict(
        "C10 determinism + cross-path equivalence",
        ok,
        f"byte-identical={identical}, closed path distance={closed_dist:.2e}, "
        f"open path distance={open_dist:.2e}",
    )
