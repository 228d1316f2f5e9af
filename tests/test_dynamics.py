import dataclasses

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from resetctrl.analysis import fit_order, gradual_reset_generator, reset_jumps
from resetctrl.config import default_config, qubit_defaults
from resetctrl.dynamics import (
    _MATVEC,
    _SUPEROP,
    ResetSchedule,
    _actuator_columns,
    _cf4_couplings,
    _closed_step,
    _CycleKernel,
    _kraus,
    _path,
    _substep_grid,
    _sweep,
    _system_super,
    Trajectory,
    cycle_map,
    cycle_propagator,
    cycle_unitary,
    evolve_with_resets,
    intra_cycle_trajectory,
)
from resetctrl import generators
from resetctrl.generators import (
    _reduced_super,
    constant,
    effective_hamiltonian,
    from_table,
    phi1_super,
    sin_squared,
    square_pulse,
)
from resetctrl.qcore import (
    ConvergenceError,
    DensityMatrix,
    HilbertSpace,
    Operator,
    SuperOperator,
    _kraus_apply,
    choi_matrix,
    expm_hermitian,
    is_cptp,
    mat_exp,
    partial_trace_matrix,
    trace_distance,
    unvec,
    vec,
)
from resetctrl.models import (
    SIGMA_X,
    OscillatorQubitModel,
    annihilation,
    bloch_density,
    build_oscillator_qubit,
    coherent_state,
    number_operator,
    quadrature_x,
)
from helpers import (
    QQ, generic_qq, random_closed_qq, random_density, random_open_qq, random_pure,
)


class TestResetSchedule:
    def test_uniform(self):
        s = ResetSchedule.uniform(4, 2.0)
        np.testing.assert_allclose(s.reset_times, [0.5, 1.0, 1.5, 2.0])
        assert max(s.gaps) == pytest.approx(0.5)
        assert s.n_resets == 4
        assert s.total_time == 2.0

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            ResetSchedule((0.5, 0.5))
        with pytest.raises(ValueError):
            ResetSchedule((-0.1, 0.5))
        with pytest.raises(ValueError):
            ResetSchedule(())

    def test_gaps(self):
        s = ResetSchedule((0.2, 0.7, 1.0))
        np.testing.assert_allclose(s.gaps, [0.2, 0.5, 0.3])
        assert max(s.gaps) == pytest.approx(0.5)


class TestCyclePropagator:
    def test_static_decoupled_is_free_conjugation(self, rng):
        gen, _ = random_closed_qq(rng)
        static = dataclasses.replace(gen, g=constant(0.0))
        dt = 0.4
        p = cycle_propagator(static, dt, substeps=3)
        u = mat_exp(-1j * static.h_free_full * dt)
        np.testing.assert_allclose(p.matrix, np.kron(u.conj(), u), atol=1e-12)

    def test_short_cycle_near_identity(self):
        gen, _ = generic_qq()
        p = cycle_propagator(gen, 1e-8, substeps=1)
        assert np.max(np.abs(p.matrix - np.eye(16))) <= 1e-6

    def test_closed_self_convergence_is_sixth_order(self):
        gen, _ = generic_qq()
        dt = 0.5
        # s = 4 is not yet asymptotic; the last difference, 9e-13, is
        # still far above roundoff
        ladder = [8, 16, 32, 64]
        props = [cycle_propagator(gen, dt, s).matrix for s in ladder]
        widths = [dt / s for s in ladder]
        diffs = [np.max(np.abs(a - b)) for a, b in zip(props, props[1:])]
        report = fit_order(list(reversed(widths[:-1])), list(reversed(diffs)))
        assert 5.8 <= report.fitted_order <= 6.2

    def test_open_self_convergence_is_fourth_order(self, rng):
        gen, _ = random_open_qq(rng)
        dt = 0.5
        ladder = [4, 8, 16, 32, 64]
        props = [cycle_propagator(gen, dt, s).matrix for s in ladder]
        widths = [dt / s for s in ladder]
        diffs = [np.max(np.abs(a - b)) for a, b in zip(props, props[1:])]
        report = fit_order(list(reversed(widths[:-1])), list(reversed(diffs)))
        assert 3.8 <= report.fitted_order <= 4.2

    def test_unitary_path_rejects_open(self, rng):
        gen, _ = random_open_qq(rng)
        with pytest.raises(ValueError):
            cycle_unitary(gen, 0.1, 4)

    def test_constant_g_is_exact_for_any_substeps(self, rng):
        gen, _ = random_closed_qq(rng)
        static = dataclasses.replace(gen, g=constant(0.9))
        one = cycle_propagator(static, 0.7, 1).matrix
        many = cycle_propagator(static, 0.7, 64).matrix
        assert np.max(np.abs(one - many)) <= 1e-11


class TestCycleMap:
    def test_zero_duration_is_identity(self, rng):
        gen, rho_a = random_closed_qq(rng)
        np.testing.assert_array_equal(cycle_map(gen, rho_a, 0.0).matrix, np.eye(4))

    def test_decoupled_is_unitary_channel(self, rng):
        gen, rho_a = random_closed_qq(rng, coupling_scale=0.0)
        dt = 0.6
        m = cycle_map(gen, rho_a, dt)
        u = mat_exp(-1j * gen.h_S.matrix * dt)
        np.testing.assert_allclose(m.matrix, np.kron(u.conj(), u), atol=1e-10)

    def test_short_time_expansion_matches_phi1(self):
        gen, rho_a = generic_qq()
        p1 = phi1_super(gen, rho_a).matrix
        dts = [0.2, 0.1, 0.05, 0.025]
        diffs = [
            np.max(np.abs(cycle_map(gen, rho_a, dt).matrix - np.eye(4) - dt * p1))
            for dt in dts
        ]
        report = fit_order(list(reversed(dts)), list(reversed(diffs)))
        assert 1.8 <= report.fitted_order <= 2.2

    def test_random_open_generators_give_channels(self, rng):
        for _ in range(5):
            gen, rho_a = random_open_qq(rng)
            m = cycle_map(gen, rho_a, 0.3)
            assert is_cptp(m, tol_psd=1e-8, tol_trace=1e-9)

    def test_open_dimension_guard(self):
        cutoff = 16
        space = HilbertSpace((cutoff,))
        gen = dataclasses.replace(
            generic_qq()[0],
            space_S=space,
            h_S=Operator(number_operator(cutoff), space),
            h_SA=Operator(np.kron(quadrature_x(cutoff), SIGMA_X), space.tensor(QQ)),
            jumps_A=(Operator(0.1 * annihilation(2), QQ),),
        )
        rho_a = DensityMatrix.from_matrix(np.eye(2) / 2)
        with pytest.raises(ValueError, match="joint dimension"):
            cycle_map(gen, rho_a, 0.1)


class TestSystemSpaceKraus:
    """Closed cycles act on the system through Kraus blocks of the joint unitary."""

    GENS = {
        "qubit": lambda: generic_qq()[0],
        "oscillator6": lambda: dataclasses.replace(default_config().model, cutoff=6).build()[1],
    }
    RHO_AS = {
        "rank1": lambda: bloch_density((1.0, 0.0, 0.0)),
        "rank2": lambda: bloch_density((0.6, 0.0, 0.5)),
        # a valid state with an eigenvalue just below zero keeps its sign
        "signed": lambda: DensityMatrix.from_matrix(np.diag([1.0 + 5e-9, -5e-9])),
    }

    @staticmethod
    def _joint_reference(u, rho_s, rho_a):
        d_s = rho_s.shape[0]
        out = u @ np.kron(rho_s, rho_a) @ u.conj().T
        return partial_trace_matrix(out, (d_s, rho_a.shape[0]), keep=0)

    @pytest.mark.parametrize("gen_name", GENS)
    @pytest.mark.parametrize("rho_name", RHO_AS)
    def test_kernel_samples_match_joint_form(self, rng, gen_name, rho_name):
        gen, rho_a = self.GENS[gen_name](), self.RHO_AS[rho_name]().matrix
        gap, parts = 0.5, 4
        kernel = _CycleKernel(gen, gap, 4, parts, rho_a, _actuator_columns(rho_a))
        rho_s = random_density(rng, gen.space_S.total_dim)
        partials = _sweep(gen, _path(gen), gap, _substep_grid(gen.g, 0.0, 1.0, 4, parts))
        samples = kernel.apply(rho_s)
        assert len(samples) == len(partials) == parts
        for got, u in zip(samples, partials):
            assert np.max(np.abs(got - self._joint_reference(u, rho_s, rho_a))) <= 1e-13

    @pytest.mark.parametrize("gen_name", GENS)
    @pytest.mark.parametrize("rho_name", RHO_AS)
    def test_cycle_map_matches_reduced_super_loop(self, gen_name, rho_name):
        gen, rho_a = self.GENS[gen_name](), self.RHO_AS[rho_name]()
        dt = 0.5
        u = cycle_unitary(gen, dt, 8)
        loop = _reduced_super(gen, rho_a.matrix, lambda m: u @ m @ u.conj().T)
        kraus = cycle_map(gen, rho_a, dt, substeps=8).matrix
        assert np.max(np.abs(kraus - loop)) <= 1e-13

    @pytest.mark.parametrize("gen_name", GENS)
    @pytest.mark.parametrize("rho_name", ["rank1", "rank2"])
    def test_blocks_are_complete(self, gen_name, rho_name):
        gen, rho_a = self.GENS[gen_name](), self.RHO_AS[rho_name]().matrix
        d_s = gen.space_S.total_dim
        left, _ = _kraus(cycle_unitary(gen, 0.5, 8), *_actuator_columns(rho_a))
        blocks = left.reshape(-1, d_s, d_s)
        total = sum(m.conj().T @ m for m in blocks)
        assert np.max(np.abs(total - np.eye(d_s))) <= 1e-12

    @pytest.mark.parametrize("gen_name", GENS)
    def test_pure_actuator_gives_d_a_blocks(self, gen_name):
        gen = self.GENS[gen_name]()
        d_s, d_a = gen.space_S.total_dim, gen.space_A.total_dim
        u = cycle_unitary(gen, 0.5, 8)
        for bloch, rank in (((1.0, 0.0, 0.0), 1), ((0.0, 0.6, -0.8), 1), ((0.6, 0.0, 0.5), 2)):
            left, right = _kraus(u, *_actuator_columns(bloch_density(bloch).matrix))
            assert left.shape == right.shape == (rank * d_a * d_s, d_s)

    def test_non_unitary_propagator_raises(self):
        gen, rho_a = generic_qq()
        u = cycle_unitary(gen, 0.5, 8) * (1.0 + 1e-8)
        with pytest.raises(ValueError, match="trace preserving"):
            _kraus(u, *_actuator_columns(rho_a.matrix))

    def test_kernel_applies_count_every_cycle(self, rng):
        gen, rho_a = generic_qq()
        rho0 = DensityMatrix.pure(random_pure(rng, 2), (2,))
        schedule = ResetSchedule((0.2, 0.4, 0.7, 0.9, 1.2))
        traj = evolve_with_resets(gen, rho0, rho_a, schedule, samples_per_cycle=2)
        assert traj.metadata["kernel_applies"] == {"0.2": 3, "0.3": 2}
        assert traj.metadata["kernel_applies"].keys() == traj.metadata["kernels"].keys()


class TestDenseOpenKernel:
    """The dense open kernel holds one reduced superoperator per sample.

    Each must act on rho_S as tr_A[P_k (rho_S kron rho_A)] does, for the
    partial products P_k of the CF4 superoperator factors up to sample k.
    """

    @staticmethod
    def _open_oscillator(rng):
        _, gen = dataclasses.replace(default_config().model, cutoff=8).build()
        jump = Operator(0.3 * annihilation(8), gen.space_S)
        return dataclasses.replace(gen, jumps_S=(jump,))

    GENS = {
        "random_qq": lambda rng: random_open_qq(rng)[0],
        "oscillator8": _open_oscillator,
    }

    @pytest.mark.parametrize("gen_name", GENS)
    def test_samples_match_joint_superoperator(self, rng, gen_name):
        gen = self.GENS[gen_name](rng)
        assert _path(gen) is _SUPEROP
        rho_a = bloch_density((0.6, 0.0, 0.5)).matrix
        gap, parts = 0.5, 4
        kernel = _CycleKernel(gen, gap, 4, parts, rho_a, None)
        d_s = gen.space_S.total_dim
        rho_s = random_density(rng, d_s)
        partials = _sweep(gen, _SUPEROP, gap, _substep_grid(gen.g, 0.0, 1.0, 4, parts))
        samples = kernel.apply(rho_s)
        assert len(samples) == len(partials) == parts
        joint = vec(np.kron(rho_s, rho_a))
        for got, p in zip(samples, partials):
            ref = partial_trace_matrix(unvec(p @ joint, gen.total_dim), (d_s, 2), keep=0)
            assert np.max(np.abs(got - ref)) <= 1e-13


def _reduced_super_loop(gen, rho_a, apply_full):
    """Reference reduction: one np.kron joint input and one apply per basis element."""
    d_s, d_a = gen.space_S.total_dim, gen.space_A.total_dim
    cols = np.empty((d_s * d_s, d_s * d_s), dtype=complex)
    for idx in range(d_s * d_s):
        e = np.zeros((d_s, d_s), dtype=complex)
        e[idx % d_s, idx // d_s] = 1.0
        joint = np.kron(e, rho_a.matrix)
        cols[:, idx] = vec(partial_trace_matrix(apply_full(joint), (d_s, d_a), keep=0))
    return cols


class TestStackedSystemMaps:
    """Stacked cuts and applies equal their per-basis and per-sample forms exactly."""

    GENS = {
        "qubit": lambda rng: random_open_qq(rng)[0],
        "oscillator8": TestDenseOpenKernel._open_oscillator,
    }
    RHO_A = (0.6, 0.0, 0.5)

    @pytest.mark.parametrize("gen_name", GENS)
    @pytest.mark.parametrize("form", ["coupling", "second_order", "superop"])
    def test_reduced_super_matches_basis_loop(self, rng, gen_name, form):
        gen, rho_a = self.GENS[gen_name](rng), bloch_density(self.RHO_A)
        l0, l1 = gen.apply_free_liouvillian, gen.apply_coupling_liouvillian
        if form == "superop":
            p = cycle_propagator(gen, 0.5, 2).matrix
            got = _system_super(gen, rho_a.matrix, p)
            apply_full = lambda m: unvec(p @ vec(m), gen.total_dim)
        else:
            apply_full = l1 if form == "coupling" else (lambda m: 0.3 * l0(l1(m)) + l1(l1(m)))
            got = _reduced_super(gen, rho_a.matrix, apply_full)
        assert np.array_equal(got, _reduced_super_loop(gen, rho_a, apply_full))

    def test_closed_kernel_apply_matches_per_sample_kraus(self, rng):
        _, gen = dataclasses.replace(default_config().model, cutoff=8).build()
        assert gen.is_closed
        rho_a = bloch_density(self.RHO_A).matrix
        actuator = _actuator_columns(rho_a)
        kernel = _CycleKernel(gen, 0.5, 2, 4, rho_a, actuator)
        rho_s = random_density(rng, 8)
        partials = _sweep(gen, _path(gen), 0.5, _substep_grid(gen.g, 0.0, 1.0, 2, 4))
        got = kernel.apply(rho_s)
        assert got.shape == (4, 8, 8)
        for sample, u in zip(got, partials):
            assert np.array_equal(sample, _kraus_apply(_kraus(u, *actuator), rho_s))

    @pytest.mark.parametrize("gen_name", GENS)
    def test_dense_open_kernel_apply_matches_per_sample_supers(self, rng, gen_name):
        gen, rho_a = self.GENS[gen_name](rng), bloch_density(self.RHO_A)
        assert _path(gen) is _SUPEROP
        kernel = _CycleKernel(gen, 0.5, 2, 4, rho_a.matrix, None)
        d_s = gen.space_S.total_dim
        rho_s = random_density(rng, d_s)
        partials = _sweep(gen, _SUPEROP, 0.5, _substep_grid(gen.g, 0.0, 1.0, 2, 4))
        got = kernel.apply(rho_s)
        assert got.shape == (4, d_s, d_s)
        for sample, p in zip(got, partials):
            ref = unvec(_system_super(gen, rho_a.matrix, p) @ vec(rho_s), d_s)
            assert np.array_equal(sample, ref)


class TestSubstepGrid:
    """Without breakpoints the grid is uniform: centres a + h (k s + j + 1/2), width h.

    On the substep counts of the doubling ladder, s = 1, 2, 4, ..., 64,
    the points are exact for one, two or four parts of [0, 1] and for one
    part of any [0, end]; other part counts are within 2e-16.
    """

    @pytest.mark.parametrize(
        "parts, end, tol", [(1, 1.0, 0.0), (2, 1.0, 0.0), (4, 1.0, 0.0), (1, 0.7, 0.0),
                            (3, 1.0, 2e-16), (4, 0.7, 2e-16)]
    )
    def test_uniform_without_breakpoints(self, parts, end, tol):
        g = constant(0.8)
        assert g.breakpoints == ()
        for s in (2 ** n for n in range(7)):
            centres, widths, ends = _substep_grid(g, 0.0, end, s, parts)
            h = end / (parts * s)
            uniform = [h * (k * s + j + 0.5) for k in range(parts) for j in range(s)]
            assert ends == [s * (k + 1) for k in range(parts)]
            assert np.max(np.abs(np.subtract(centres, uniform))) <= tol
            assert np.max(np.abs(np.subtract(widths, h))) <= tol


class TestEvolveWithResets:
    def test_single_cycle_decoupled(self, rng):
        gen, rho_a = random_closed_qq(rng, coupling_scale=0.0)
        psi = random_pure(rng, 2)
        rho0 = DensityMatrix.pure(psi, (2,))
        t = 0.9
        traj = evolve_with_resets(gen, rho0, rho_a, ResetSchedule((t,)))
        u = mat_exp(-1j * gen.h_S.matrix * t)
        np.testing.assert_allclose(
            traj.states[-1].matrix, u @ rho0.matrix @ u.conj().T, atol=1e-10
        )

    def test_matches_cycle_map_power_closed(self):
        # same discretization on both paths isolates the path difference
        gen, rho_a = generic_qq()
        rho0 = DensityMatrix.pure(np.array([1.0, 0.0]), (2,))
        n, t = 10, 1.0
        traj = evolve_with_resets(
            gen, rho0, rho_a, ResetSchedule.uniform(n, t), substeps=128
        )
        m = cycle_map(gen, rho_a, t / n, substeps=128)
        final = unvec(np.linalg.matrix_power(m.matrix, n) @ vec(rho0.matrix), 2)
        assert trace_distance(traj.states[-1].matrix, final) <= 1e-9

    def test_matches_cycle_map_power_adaptive(self):
        # independently calibrated paths agree within the composed tolerances
        gen, rho_a = generic_qq()
        rho0 = DensityMatrix.pure(np.array([1.0, 0.0]), (2,))
        n, t = 10, 1.0
        tol = 1e-10
        traj = evolve_with_resets(
            gen, rho0, rho_a, ResetSchedule.uniform(n, t), step_tol=tol
        )
        m = cycle_map(gen, rho_a, t / n, tol=tol)
        final = unvec(np.linalg.matrix_power(m.matrix, n) @ vec(rho0.matrix), 2)
        assert trace_distance(traj.states[-1].matrix, final) <= 2 * n * tol

    def test_matches_cycle_map_power_open(self, rng):
        gen, rho_a = random_open_qq(rng)
        rho0 = DensityMatrix.pure(random_pure(rng, 2), (2,))
        n, t = 8, 0.8
        traj = evolve_with_resets(
            gen, rho0, rho_a, ResetSchedule.uniform(n, t), substeps=96
        )
        assert traj.metadata["path"] == "superop"
        m = cycle_map(gen, rho_a, t / n, substeps=96)
        final = unvec(np.linalg.matrix_power(m.matrix, n) @ vec(rho0.matrix), 2)
        assert trace_distance(traj.states[-1].matrix, final) <= 1e-9

    def test_trace_and_positivity_along_trajectory(self, rng):
        gen, rho_a = random_open_qq(rng)
        rho0 = DensityMatrix.pure(random_pure(rng, 2), (2,))
        traj = evolve_with_resets(
            gen, rho0, rho_a, ResetSchedule.uniform(6, 1.2), samples_per_cycle=3
        )
        for state in traj.states:
            assert abs(np.trace(state.matrix) - 1.0) <= 1e-9
            assert np.linalg.eigvalsh(state.matrix).min() >= -1e-7

    def test_purity_never_increases_for_pure_input_closed(self, rng):
        gen, rho_a = random_closed_qq(rng)
        rho0 = DensityMatrix.pure(random_pure(rng, 2), (2,))
        traj = evolve_with_resets(gen, rho0, rho_a, ResetSchedule.uniform(5, 1.0))
        purity = rho0.purity()
        for state in traj.states[1:]:
            assert state.purity() <= purity + 1e-9
            purity = max(purity, state.purity())

    def test_substep_convergence_is_sixth_order_on_final_state(self):
        gen, rho_a = generic_qq()
        rho0 = DensityMatrix.pure(np.array([1.0, 0.0]), (2,))
        schedule = ResetSchedule.uniform(2, 1.0)
        ladder = [8, 16, 32, 64]
        finals = [
            evolve_with_resets(gen, rho0, rho_a, schedule, substeps=s).states[-1].matrix
            for s in ladder
        ]
        widths = [0.5 / s for s in ladder]
        diffs = [trace_distance(a, b) for a, b in zip(finals, finals[1:])]
        report = fit_order(list(reversed(widths[:-1])), list(reversed(diffs)))
        assert 5.8 <= report.fitted_order <= 6.2

    def test_interior_samples_recorded(self):
        gen, rho_a = generic_qq()
        rho0 = DensityMatrix.pure(np.array([1.0, 0.0]), (2,))
        traj = evolve_with_resets(
            gen, rho0, rho_a, ResetSchedule.uniform(3, 0.9), samples_per_cycle=4
        )
        assert len(traj.times) == 1 + 3 * 4
        np.testing.assert_allclose(np.diff(traj.times), 0.075, atol=1e-12)

    def test_top_level_monitor(self):
        gen, rho_a = generic_qq()
        rho0 = DensityMatrix.pure(np.array([1.0, 0.0]), (2,))
        traj = evolve_with_resets(
            gen, rho0, rho_a, ResetSchedule.uniform(2, 0.4), monitor_top_levels=2
        )
        # two levels of a qubit: the monitor sees the whole trace
        assert traj.metadata["top_level_max"] == pytest.approx(1.0, abs=1e-9)
        assert traj.metadata["cutoff_flag"]

    def test_dimension_mismatch_errors(self, rng):
        gen, rho_a = random_closed_qq(rng)
        rho3 = DensityMatrix.from_matrix(np.eye(3) / 3)
        rho4 = DensityMatrix.from_matrix(np.eye(4) / 4)
        system, actuator = "system state dimension 3 != 2", "actuator state dimension 3 != 2"
        with pytest.raises(ValueError, match=system):
            evolve_with_resets(gen, rho3, rho_a, ResetSchedule.uniform(2, 1.0))
        with pytest.raises(ValueError, match=actuator):
            evolve_with_resets(gen, rho_a, rho3, ResetSchedule.uniform(2, 1.0))
        # checked before the substep ladder runs
        with pytest.raises(ValueError, match="actuator state dimension 4 != 2"):
            cycle_map(gen, rho4, 0.1)
        with pytest.raises(ValueError, match=system):
            intra_cycle_trajectory(gen, rho3, rho_a, 0.1, [0.05])
        with pytest.raises(ValueError, match=actuator):
            intra_cycle_trajectory(gen, rho_a, rho3, 0.1, [0.05])

    def test_non_convergence_reports_residual(self):
        gen, rho_a = generic_qq()
        rho0 = DensityMatrix.pure(np.array([1.0, 0.0]), (2,))
        with pytest.raises(ConvergenceError) as err:
            evolve_with_resets(
                gen, rho0, rho_a, ResetSchedule((2.0,)), step_tol=1e-15, substep_cap=4
            )
        assert err.value.residual > 0

    def test_non_uniform_refinement_approaches_effective(self):
        gen, rho_a = generic_qq()
        rho0 = DensityMatrix.pure(np.array([1.0, 0.0]), (2,))
        t = 1.0
        h_eff = effective_hamiltonian(gen, rho_a).matrix
        u = expm_hermitian(h_eff, -1j * t)
        target = u @ rho0.matrix @ u.conj().T

        def deviation(times):
            traj = evolve_with_resets(gen, rho0, rho_a, ResetSchedule(times))
            return trace_distance(traj.states[-1].matrix, target)

        coarse = tuple(np.sort(np.r_[np.random.default_rng(5).uniform(0.05, 0.95, 5), t]))
        fine_rng = np.random.default_rng(6)
        fine = tuple(np.sort(np.r_[fine_rng.uniform(0.02, 0.98, 30), t]))
        assert max(ResetSchedule(fine).gaps) < max(ResetSchedule(coarse).gaps)
        assert deviation(fine) < deviation(coarse)


class TestIntraCycle:
    def test_zero_offset_returns_input(self, rng):
        gen, rho_a = random_closed_qq(rng)
        rho0 = DensityMatrix.pure(random_pure(rng, 2), (2,))
        traj = intra_cycle_trajectory(gen, rho0, rho_a, 0.3, [0.0])
        np.testing.assert_allclose(traj.states[0].matrix, rho0.matrix, atol=1e-14)

    def test_endpoint_agrees_with_cycle_map(self, rng):
        gen, rho_a = random_open_qq(rng)
        rho0 = DensityMatrix.pure(random_pure(rng, 2), (2,))
        dt = 0.05
        traj = intra_cycle_trajectory(gen, rho0, rho_a, dt, [0.0, dt / 3, dt], step_tol=1e-10)
        m = cycle_map(gen, rho_a, dt, tol=1e-10)
        np.testing.assert_allclose(
            traj.states[-1].matrix, m.apply(rho0.matrix), atol=1e-9
        )

    def test_out_of_range_sample(self, rng):
        gen, rho_a = random_closed_qq(rng)
        rho0 = DensityMatrix.pure(random_pure(rng, 2), (2,))
        with pytest.raises(ValueError):
            intra_cycle_trajectory(gen, rho0, rho_a, 0.2, [0.3])


class TestLadderMetadata:
    """Kernel and segment metadata record every compared ladder level."""

    @staticmethod
    def _check_ladder(info):
        ladder = info["ladder"]
        assert len(ladder) >= 2
        substeps = [s for s, _ in ladder]
        assert all(b == 2 * a for a, b in zip(substeps, substeps[1:]))
        assert substeps[-1] == info["substeps"]
        assert ladder[-1][1] == info["residual"]

    @pytest.mark.parametrize("make", [random_closed_qq, random_open_qq])
    def test_kernel_and_segment_ladders(self, make, rng):
        gen, rho_a = make(rng)
        gen = dataclasses.replace(gen, g=sin_squared(1.5))
        rho0 = DensityMatrix.pure(random_pure(rng, 2), (2,))
        traj = evolve_with_resets(
            gen, rho0, rho_a, ResetSchedule.uniform(3, 1.2), samples_per_cycle=2
        )
        (info,) = traj.metadata["kernels"].values()
        self._check_ladder(info)
        traj = intra_cycle_trajectory(gen, rho0, rho_a, 0.7, [0.2, 0.7])
        for info in traj.metadata["segments"]:
            self._check_ladder(info)

    def test_fixed_substeps_leave_the_ladder_empty(self, rng):
        gen, rho_a = random_closed_qq(rng)
        gen = dataclasses.replace(gen, g=sin_squared(1.5))
        rho0 = DensityMatrix.pure(random_pure(rng, 2), (2,))
        traj = evolve_with_resets(gen, rho0, rho_a, ResetSchedule.uniform(2, 1.0), substeps=8)
        (info,) = traj.metadata["kernels"].values()
        assert info == {"substeps": 8, "residual": 0.0, "ladder": []}


class TestFailedLadder:
    """A ladder that reaches its cap raises with the levels it tried."""

    def test_error_carries_the_ladder(self):
        gen, rho_a = generic_qq()
        rho0 = DensityMatrix.pure(np.array([1.0, 0.0]), (2,))
        with pytest.raises(ConvergenceError) as err:
            evolve_with_resets(
                gen, rho0, rho_a, ResetSchedule((2.0,)), step_tol=1e-15, substep_cap=4
            )
        ladder = err.value.ladder
        assert [s for s, _ in ladder] == [2, 4]
        assert all(r > 0 for _, r in ladder)
        assert ladder[-1][1] == err.value.residual
        assert f"ladder [[2, {ladder[0][1]:.3e}], [4, {ladder[1][1]:.3e}]]" in str(err.value)


class TestClosedAgainstExactSolutions:
    def test_square_pulse_is_product_of_two_exponentials(self, rng):
        gen, _ = random_closed_qq(rng)
        gen = dataclasses.replace(gen, g=square_pulse(1.2, 0.0, 0.5))
        dt = 0.7
        coupled = gen.h_free_full + 1.2 * gen.h_SA.matrix
        exact = expm_hermitian(gen.h_free_full, -0.5j * dt) @ expm_hermitian(coupled, -0.5j * dt)
        for s in (2, 4, 8):
            assert np.max(np.abs(cycle_unitary(gen, dt, s) - exact)) <= 1e-13

    @staticmethod
    def _oracle_unitary(gen, dt, t_end):
        # i dU/dt = H(t / dt) U, integrated to t_end by an independent RK method
        d = gen.total_dim

        def rhs(t, y):
            return (-1j * gen.hamiltonian_at(t / dt) @ y.reshape(d, d)).ravel()

        sol = solve_ivp(
            rhs, (0.0, t_end), np.eye(d, dtype=complex).ravel(),
            method="DOP853", rtol=1e-13, atol=1e-13,
        )
        assert sol.success
        return sol.y[:, -1].reshape(d, d)

    @staticmethod
    def _reduce(u, rho_s, rho_a):
        out = u @ np.kron(rho_s, rho_a) @ u.conj().T
        return partial_trace_matrix(out, (2, 2), keep=0)

    @pytest.fixture
    def sin_gen(self, rng):
        gen, rho_a = random_closed_qq(rng)
        return dataclasses.replace(gen, g=sin_squared(1.5)), rho_a

    def test_cycle_unitary_sixth_order_against_oracle(self, sin_gen):
        gen, _ = sin_gen
        dt = 0.7
        exact = self._oracle_unitary(gen, dt, dt)
        # ends before the oracle's own error floor of about 1e-13
        ladder = [8, 16, 32]
        errors = [np.max(np.abs(cycle_unitary(gen, dt, s) - exact)) for s in ladder]
        widths = [dt / s for s in ladder]
        report = fit_order(list(reversed(widths)), list(reversed(errors)))
        assert 5.8 <= report.fitted_order <= 6.2

    @staticmethod
    def _magnus6_direct(gen, zeta, dzeta, dt):
        # the three-node Magnus-6 exponent with every commutator evaluated
        # (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009), section 4)
        h = dzeta * dt
        r = np.sqrt(15.0) / 10.0
        a1, a2, a3 = (
            -1j * h * gen.hamiltonian_at(z) for z in (zeta - r * dzeta, zeta, zeta + r * dzeta)
        )
        com = lambda x, y: x @ y - y @ x
        al1, al2, al3 = a2, np.sqrt(15.0) / 3.0 * (a3 - a1), 10.0 / 3.0 * (a3 - 2.0 * a2 + a1)
        c1 = com(al1, al2)
        c2 = -com(al1, 2.0 * al3 + c1) / 60.0
        omega = al1 + al3 / 12.0 + com(-20.0 * al1 - al3 + c1, al2 + c2) / 240.0
        return expm_hermitian(1j * omega, -1j)

    @pytest.mark.parametrize("dzeta, zeta", [(1.0, 0.5), (0.25, 0.625), (1 / 32, 0.3)])
    def test_factor_matches_direct_commutator_form(self, sin_gen, dzeta, zeta):
        gen, _ = sin_gen
        dt = 0.7
        direct = self._magnus6_direct(gen, zeta, dzeta, dt)
        assert np.max(np.abs(_closed_step(gen, zeta, dzeta, dt) - direct)) <= 1e-13

    def test_coarse_step_is_unitary(self, sin_gen):
        # one Magnus-6 factor over a long cycle: h ||H|| is far beyond
        # the asymptotic regime, yet the exponent stays anti-Hermitian
        gen, _ = sin_gen
        u = cycle_unitary(gen, 2.0, 1)
        assert np.max(np.abs(u @ u.conj().T - np.eye(gen.total_dim))) <= 1e-13

    def test_cycle_map_matches_oracle(self, sin_gen):
        gen, rho_a = sin_gen
        dt = 0.7
        u = self._oracle_unitary(gen, dt, dt)
        exact = np.empty((4, 4), dtype=complex)
        for idx in range(4):
            e = np.zeros((2, 2), dtype=complex)
            e[idx % 2, idx // 2] = 1.0
            exact[:, idx] = vec(self._reduce(u, e, rho_a.matrix))
        m = cycle_map(gen, rho_a, dt, tol=1e-10)
        assert np.max(np.abs(m.matrix - exact)) <= 1e-9

    def test_intra_cycle_state_matches_oracle(self, sin_gen, rng):
        gen, rho_a = sin_gen
        dt = 0.7
        rho0 = DensityMatrix.pure(random_pure(rng, 2), (2,))
        u = self._oracle_unitary(gen, dt, dt / 3)
        exact = self._reduce(u, rho0.matrix, rho_a.matrix)
        traj = intra_cycle_trajectory(gen, rho0, rho_a, dt, [dt / 3], step_tol=1e-10)
        assert trace_distance(traj.states[-1].matrix, exact) <= 1e-9

    def test_intra_cycle_samples_across_breakpoints(self, rng):
        # the pulse is on over [0.1, 0.6] of the cycle: the samples lie
        # before it, inside it and after it, so each sample's grid must
        # cut at the breakpoints below it and ignore those above
        gen, _ = random_closed_qq(rng)
        gen = dataclasses.replace(gen, g=square_pulse(1.2, 0.1, 0.6))
        rho_a = bloch_density((0.6, 0.0, 0.5))
        rho0 = DensityMatrix.pure(random_pure(rng, 2), (2,))
        dt = 0.7
        free, coupled = gen.h_free_full, gen.h_free_full + 1.2 * gen.h_SA.matrix

        def exact(frac):
            on = min(max(frac - 0.1, 0.0), 0.5)
            off_after = max(frac - 0.6, 0.0)
            u = (
                expm_hermitian(free, -1j * dt * off_after)
                @ expm_hermitian(coupled, -1j * dt * on)
                @ expm_hermitian(free, -1j * dt * min(frac, 0.1))
            )
            return self._reduce(u, rho0.matrix, rho_a.matrix)

        fracs = (0.05, 0.35, 1.0)
        traj = intra_cycle_trajectory(gen, rho0, rho_a, dt, [f * dt for f in fracs])
        for frac, state in zip(fracs, traj.states):
            assert np.max(np.abs(state.matrix - exact(frac))) <= 1e-12


class TestLargeDimMatvecPath:
    def test_matches_dense_product_at_fixed_substeps(self):
        cutoff = 10
        space = HilbertSpace((cutoff,))
        gen = dataclasses.replace(
            generic_qq()[0],
            space_S=space,
            h_S=Operator(number_operator(cutoff), space),
            h_SA=Operator(np.kron(quadrature_x(cutoff), SIGMA_X), space.tensor(QQ)),
            g=sin_squared(1.0),
            jumps_A=(Operator(0.5 * annihilation(2), QQ),),
        )
        assert gen.total_dim == 20
        rho_a = DensityMatrix.from_matrix(np.eye(2) / 2)
        psi = np.zeros(cutoff, dtype=complex)
        psi[0] = psi[1] = 1 / np.sqrt(2)
        rho0 = DensityMatrix.pure(psi, (cutoff,))
        substeps, dt = 24, 0.15

        traj = evolve_with_resets(
            gen, rho0, rho_a, ResetSchedule((dt,)), substeps=substeps
        )
        assert traj.metadata["path"] == "matvec"

        prop = cycle_propagator(gen, dt, substeps)
        joint = np.kron(rho0.matrix, rho_a.matrix)
        dense = unvec(prop.matrix @ vec(joint), 20)
        from resetctrl.qcore import partial_trace_matrix

        reduced = partial_trace_matrix(dense, (cutoff, 2), keep=0)
        assert trace_distance(traj.states[-1].matrix, reduced) <= 1e-11


def _reduced_map(apply_joint, rho_a):
    """Matrix of rho_S -> tr_A[F(rho_S kron rho_A)] on a qubit system."""
    out = np.empty((4, 4), dtype=complex)
    for idx in range(4):
        e = np.zeros((2, 2), dtype=complex)
        e[idx % 2, idx // 2] = 1.0
        joint = apply_joint(np.kron(e, rho_a.matrix))
        out[:, idx] = vec(partial_trace_matrix(joint, (2, 2), keep=0))
    return out


def _oracle_cycle(gen, dt, v0, t_end=None):
    # dv/dt = L(t / dt) v on the vectorized Lindblad equation, integrated
    # over one cycle (or up to t_end inside it) by an independent RK
    # method; v0 is a vector or a matrix of columns
    l_free, l_sa = gen.free_super.matrix, gen.coupling_super.matrix
    shape = v0.shape

    def rhs(t, y):
        return ((l_free + gen.g(t / dt) * l_sa) @ y.reshape(shape)).ravel()

    sol = solve_ivp(
        rhs, (0.0, dt if t_end is None else t_end), v0.astype(complex).ravel(),
        method="DOP853", rtol=1e-13, atol=1e-13,
    )
    assert sol.success
    return sol.y[:, -1].reshape(shape)


def _open_matvec_model():
    """Open oscillator-qubit model at cutoff 10: joint dimension 20, matrix-free."""
    cutoff = 10
    space = HilbertSpace((cutoff,))
    gen = dataclasses.replace(
        generic_qq()[0],
        space_S=space,
        h_S=Operator(number_operator(cutoff), space),
        h_SA=Operator(np.kron(quadrature_x(cutoff), SIGMA_X), space.tensor(QQ)),
        g=sin_squared(1.0),
        jumps_A=(Operator(0.5 * annihilation(2), QQ),),
    )
    rho_a = DensityMatrix.from_matrix(np.eye(2) / 2)
    psi = np.zeros(cutoff, dtype=complex)
    psi[0] = psi[1] = 1 / np.sqrt(2)
    return gen, rho_a, DensityMatrix.pure(psi, (cutoff,))


class TestBreakpointAlignedGrid:
    # g = 1.2 on [0.1, 0.6] and 0 elsewhere: the cycle is exactly a
    # product of three exponentials, which an aligned grid reproduces
    HEIGHT, START, STOP = 1.2, 0.1, 0.6
    DT = 0.3

    def test_open_cycle_map_is_three_exponentials(self, rng):
        gen, rho_a = random_open_qq(rng)
        gen = dataclasses.replace(gen, g=square_pulse(self.HEIGHT, self.START, self.STOP))
        l_free, l_sa = gen.free_super.matrix, gen.coupling_super.matrix
        dt = self.DT
        prop = (
            mat_exp((1.0 - self.STOP) * dt * l_free)
            @ mat_exp((self.STOP - self.START) * dt * (l_free + self.HEIGHT * l_sa))
            @ mat_exp(self.START * dt * l_free)
        )
        exact = _reduced_map(lambda m: unvec(prop @ vec(m), 4), rho_a)
        assert np.max(np.abs(cycle_map(gen, rho_a, dt).matrix - exact)) <= 1e-9

    def test_closed_cycle_map_is_three_exponentials(self, rng):
        gen, rho_a = random_closed_qq(rng)
        gen = dataclasses.replace(gen, g=square_pulse(self.HEIGHT, self.START, self.STOP))
        h_free, h_on = gen.h_free_full, gen.h_free_full + self.HEIGHT * gen.h_SA.matrix
        dt = self.DT
        u = (
            expm_hermitian(h_free, -1j * (1.0 - self.STOP) * dt)
            @ expm_hermitian(h_on, -1j * (self.STOP - self.START) * dt)
            @ expm_hermitian(h_free, -1j * self.START * dt)
        )
        exact = _reduced_map(lambda m: u @ m @ u.conj().T, rho_a)
        assert np.max(np.abs(cycle_map(gen, rho_a, dt).matrix - exact)) <= 1e-9

    def test_kernel_samples_split_pieces(self, rng):
        # samples at cycle quarters cut the pulse pieces again; every
        # piece keeps the same substep count and the samples stay exact
        gen, rho_a = random_open_qq(rng)
        gen = dataclasses.replace(gen, g=square_pulse(self.HEIGHT, self.START, self.STOP))
        rho0 = DensityMatrix.pure(random_pure(rng, 2), (2,))
        dt = self.DT
        traj = evolve_with_resets(
            gen, rho0, rho_a, ResetSchedule((dt,)), substeps=8, samples_per_cycle=4
        )
        # pieces [0, .1, .25, .5, .6, .75, 1]: six pieces of two substeps
        assert traj.metadata["kernels"][str(dt)]["substeps"] == 12
        l_free, l_sa = gen.free_super.matrix, gen.coupling_super.matrix
        joint = np.kron(rho0.matrix, rho_a.matrix)
        for frac, state in zip((0.25, 0.5, 0.75, 1.0), traj.states[1:]):
            on = max(0.0, min(frac, self.STOP) - self.START)
            prop = (
                mat_exp(max(0.0, frac - self.STOP) * dt * l_free)
                @ mat_exp(on * dt * (l_free + self.HEIGHT * l_sa))
                @ mat_exp(min(frac, self.START) * dt * l_free)
            )
            exact = partial_trace_matrix(unvec(prop @ vec(joint), 4), (2, 2), keep=0)
            assert trace_distance(state.matrix, exact) <= 1e-12


class TestOpenAgainstOracle:
    def test_superop_error_is_fourth_order(self, rng):
        gen, _ = random_open_qq(rng)
        gen = dataclasses.replace(gen, g=sin_squared(1.5))
        dt = 0.7
        exact = _oracle_cycle(gen, dt, np.eye(16))
        ladder = [8, 16, 32, 64]
        errors = [
            np.max(np.abs(cycle_propagator(gen, dt, s).matrix - exact))
            for s in ladder
        ]
        widths = [dt / s for s in ladder]
        report = fit_order(list(reversed(widths)), list(reversed(errors)))
        assert 3.8 <= report.fitted_order <= 4.2

    def test_matvec_trajectory_matches_oracle(self):
        gen, rho_a, rho0 = _open_matvec_model()
        dt, n = 0.15, 3
        traj = evolve_with_resets(
            gen, rho0, rho_a, ResetSchedule.uniform(n, n * dt), step_tol=1e-10
        )
        assert traj.metadata["path"] == "matvec"
        rho_s = rho0.matrix
        for _ in range(n):
            v = _oracle_cycle(gen, dt, vec(np.kron(rho_s, rho_a.matrix)))
            rho_s = partial_trace_matrix(unvec(v, 20), (10, 2), keep=0)
        assert trace_distance(traj.states[-1].matrix, rho_s) <= 1e-9

    @pytest.mark.parametrize("substeps", [1, 2])
    def test_coarse_matvec_steps_match_dense_product(self, substeps, rng):
        # a state spread over all levels at dt = 1.2 makes each CF4
        # exponent grow the state (norm ratio above 1 at s = 1 and 2),
        # so the series runs under the splitting guard
        gen, rho_a, _ = _open_matvec_model()
        rho0 = DensityMatrix.pure(random_pure(rng, 10), (10,))
        dt = 1.2
        traj = evolve_with_resets(
            gen, rho0, rho_a, ResetSchedule((dt,)), substeps=substeps
        )
        assert traj.metadata["path"] == "matvec"
        prop = cycle_propagator(gen, dt, substeps).matrix
        dense = unvec(prop @ vec(np.kron(rho0.matrix, rho_a.matrix)), 20)
        reduced = partial_trace_matrix(dense, (10, 2), keep=0)
        assert trace_distance(traj.states[-1].matrix, reduced) <= 1e-11


class TestMatvecFactorsWithCouplingJumps:
    """Matrix-free CF4 factors of a generator with jumps on S, A and SA.

    Each fused exponent carries the coupling jumps with weight c; the
    dense superoperator factors are the reference, also for a switching
    function that changes sign and so makes some c negative.
    """

    @pytest.mark.parametrize("substeps", [1, 2, 8])
    @pytest.mark.parametrize("sign_change", [False, True])
    def test_matches_dense_factors(self, substeps, sign_change, rng):
        gen, rho_a = random_open_qq(rng)
        if sign_change:
            gen = dataclasses.replace(gen, g=from_table([0.0, 1.0], [1.2, -0.9]))
        grid = _substep_grid(gen.g, 0.0, 1.0, substeps)
        if sign_change:
            assert min(min(_cf4_couplings(gen, z, w)) for z, w in zip(*grid[:2])) < 0.0
        dt = 0.7
        joint = np.kron(random_density(rng, 2), rho_a.matrix)
        (matvec,) = _sweep(gen, _MATVEC, dt, grid, joint)
        (dense,) = _sweep(gen, _SUPEROP, dt, grid)
        assert np.max(np.abs(matvec - unvec(dense @ vec(joint), 4))) <= 1e-11


class TestMatvecWithFactoredResetJumps:
    """The matrix-free path with reset jumps applied on the actuator factor."""

    def test_sweep_matches_dense_product(self, rng):
        # cutoff 4: joint dimension 8, where the dense product is cheap
        _, gen = dataclasses.replace(default_config().model, cutoff=4).build()
        rho_a = bloch_density((0.6, 0.0, 0.5))
        gen = dataclasses.replace(gen, jumps_A=reset_jumps(rho_a, 2.0))
        assert gen.total_dim == 8 and gen.free_lindblad.t is not None
        grid = _substep_grid(gen.g, 0.0, 1.0, 4, 2)
        joint = np.kron(random_density(rng, 4), rho_a.matrix)
        matvec = _sweep(gen, _MATVEC, 0.8, grid, joint)
        dense = _sweep(gen, _SUPEROP, 0.8, grid)
        assert np.max(np.abs(matvec - unvec(dense @ vec(joint), 8))) <= 1e-12

    def test_application_count_is_pinned(self, monkeypatch):
        # the count before the actuator jumps were factored out: the
        # norm bound, and so the pieces and terms, did not move
        gen, rho_a, rho0 = _open_matvec_model()
        gen = dataclasses.replace(gen, jumps_A=reset_jumps(rho_a, 1.0))
        calls = []
        apply = generators._LindbladForm.apply
        monkeypatch.setattr(
            generators._LindbladForm, "apply", lambda form, m: calls.append(1) or apply(form, m)
        )
        traj = evolve_with_resets(gen, rho0, rho_a, ResetSchedule.uniform(2, 0.6), step_tol=1e-8)
        assert traj.metadata["path"] == "matvec"
        assert traj.metadata["kernels"]["0.3"]["substeps"] == 32
        assert len(calls) == 1394


class TestMatvecSeriesUnderStrongReset:
    """Matrix-free steps on a state that is stationary for a large dissipator.

    The reset dissipator kappa (rho_A tr_A(.) - .) annihilates
    rho_S kron rho_A, so the first series term is small while L is large.
    The damped generator has a constant g, so its CF4 steps are exact and
    the dense exponential of the joint Liouvillian is the oracle.
    """

    @pytest.mark.parametrize("kappa", [4.0, 64.0])
    def test_gradual_generator_matches_dense_exponential(self, kappa):
        cutoff = 13
        model = OscillatorQubitModel(1.0, 1.0, (1.0, 0.0, 0.0), cutoff, sin_squared(2.0))
        rho_a = bloch_density((0.6, 0.0, 0.5))
        damped = gradual_reset_generator(build_oscillator_qubit(model), rho_a, kappa)
        assert _path(damped).name == "matvec"
        rho0 = DensityMatrix.pure(coherent_state((1 + 1j) / np.sqrt(2), cutoff), (cutoff,))
        t = 2.0
        traj = intra_cycle_trajectory(damped, rho0, rho_a, t, [t])

        total = damped.free_super.matrix + damped.g.mean * damped.coupling_super.matrix
        joint = mat_exp(t * total) @ vec(np.kron(rho0.matrix, rho_a.matrix))
        exact = partial_trace_matrix(unvec(joint, damped.total_dim), (cutoff, 2), keep=0)
        assert np.max(np.abs(traj.states[-1].matrix - exact)) <= 1e-13


class TestOpenIntraCycleAgainstOracle:
    """Interior samples of one open cycle on both open paths.

    Each sample is propagated from the start of the cycle; nothing is
    chained from an earlier sample.
    """

    @staticmethod
    def _check(gen, rho_a, rho0, dt):
        pts = [dt / 3, 2 * dt / 3]
        traj = intra_cycle_trajectory(gen, rho0, rho_a, dt, pts, step_tol=1e-10)
        d_s, d_a = gen.space_S.total_dim, gen.space_A.total_dim
        v0 = vec(np.kron(rho0.matrix, rho_a.matrix))
        for tau, state in zip(pts, traj.states):
            v = _oracle_cycle(gen, dt, v0, t_end=tau)
            exact = partial_trace_matrix(unvec(v, gen.total_dim), (d_s, d_a), keep=0)
            assert trace_distance(state.matrix, exact) <= 1e-9

    def test_superop_segments_match_oracle(self, rng):
        gen, rho_a = random_open_qq(rng)
        gen = dataclasses.replace(gen, g=sin_squared(1.5))
        assert _path(gen).name == "superop"
        rho0 = DensityMatrix.pure(random_pure(rng, 2), (2,))
        self._check(gen, rho_a, rho0, 0.7)

    def test_matvec_segments_match_oracle(self):
        gen, rho_a, rho0 = _open_matvec_model()
        assert _path(gen).name == "matvec"
        self._check(gen, rho_a, rho0, 0.3)


class TestOpenFactorsAreChannels:
    def test_cf4_factors_of_reset_model_are_cptp(self):
        """Each CF4 factor exp((h/2)(L_free + c L_SA)) is a channel.

        A factor is exactly CP whenever the coupling has no jump operators
        (L_SA is then Hamiltonian and c may have either sign), as in this
        model with reset jumps on the actuator only. With coupling jumps
        it is exactly CP only for c1, c2 >= 0, i.e. for g_lo / g_hi within
        [0.0718, 13.93] at the two Gauss nodes of the substep.
        """
        cfg = qubit_defaults()
        _, gen = cfg.model.build()
        rho_a = cfg.states.build_rho_a()
        gen = dataclasses.replace(gen, jumps_A=reset_jumps(rho_a, 1.0))
        assert not gen.jumps_SA
        zetas, widths, _ = _substep_grid(gen.g, 0.0, 1.0, 1)
        half = 0.5 * widths[0] * 0.3
        l_free, l_sa = gen.free_super.matrix, gen.coupling_super.matrix
        factors = [
            mat_exp(half * (l_free + c * l_sa)) for c in _cf4_couplings(gen, zetas[0], widths[0])
        ]
        # the two factors make up the step the dense path takes
        np.testing.assert_allclose(
            factors[1] @ factors[0],
            cycle_propagator(gen, 0.3, 1).matrix,
            atol=1e-14,
        )
        for f in factors:
            choi = choi_matrix(SuperOperator(f, gen.space))
            assert np.linalg.eigvalsh(0.5 * (choi + choi.conj().T)).min() >= -1e-12
            assert is_cptp(SuperOperator(f, gen.space), tol_psd=1e-12)

    def test_coupling_weights_sign_band(self):
        # c1, c2 >= 0 exactly when g_lo / g_hi lies in [0.0718, 13.93]
        gen, _ = generic_qq()
        offset = np.sqrt(3.0) / 6.0
        for ratio, inside in ((0.07, False), (0.073, True), (13.9, True), (14.0, False)):
            table = from_table([0.0, 0.5 - offset, 0.5 + offset, 1.0], [1.0, ratio, 1.0, 1.0])
            c1, c2 = _cf4_couplings(dataclasses.replace(gen, g=table), 0.5, 1.0)
            assert (min(c1, c2) >= 0.0) == inside


def test_trajectory_validation():
    state = DensityMatrix.from_matrix(np.eye(2) / 2)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), [state], {})
    with pytest.raises(ValueError):
        Trajectory(np.array([1.0, 0.0]), [state, state], {})


def test_concurrent_trajectories_share_inputs(rng):
    # generators and states are immutable: parallel sweeps over shared
    # instances must reproduce the serial results exactly
    from concurrent.futures import ThreadPoolExecutor

    gen, rho_a = generic_qq()
    rho0 = DensityMatrix.pure(np.array([1.0, 0.0]), (2,))
    schedules = [ResetSchedule.uniform(n, 1.0) for n in (3, 5, 8, 13)]

    def final_state(schedule):
        return evolve_with_resets(gen, rho0, rho_a, schedule).states[-1].matrix

    serial = [final_state(s) for s in schedules]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(final_state, schedules))
    for a, b in zip(serial, parallel):
        np.testing.assert_array_equal(a, b)
