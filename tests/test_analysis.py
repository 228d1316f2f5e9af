import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from resetctrl import analysis
from resetctrl.analysis import (
    braced_switching_term,
    chernoff_deviation,
    default_probes,
    dissipative_scaling,
    fit_order,
    gradual_reset_generator,
    gradual_reset_scan,
    hermitian_probe_basis,
    induced_trace_norm,
    lie_algebra_dimension,
    linear_fit,
    measured_stroboscopic_deviation,
    omega1_super,
    product_formula_superop,
    reset_jumps,
    stroboscopic_bound_check,
    stroboscopic_deviation,
)
from resetctrl.dynamics import ResetSchedule, evolve_with_resets, intra_cycle_trajectory
from resetctrl.generators import (
    constant,
    effective_hamiltonian,
    phi1_super,
    phi2_super,
    sin_squared,
    square_pulse,
)
from resetctrl.qcore import (
    DensityMatrix,
    Operator,
    SuperOperator,
    dissipator_super,
    expm_hermitian,
    mat_exp,
    trace_distance,
    trace_norm,
    unvec,
    vec,
)
from resetctrl.models import SIGMA_X, SIGMA_Y, SIGMA_Z, number_operator, quadrature_x
from helpers import (
    QQ,
    caption_qq,
    generic_qq,
    random_closed_qq,
    random_density,
    random_hermitian,
    random_open_qq,
    random_pure,
)


class TestFitOrder:
    def test_inverse_law(self):
        xs = [1.0, 2.0, 4.0, 8.0]
        report = fit_order(xs, [3.0 / x for x in xs])
        assert report.fitted_order == pytest.approx(-1.0, abs=1e-6)
        assert report.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_inverse_square_law(self):
        xs = [1.0, 2.0, 4.0, 8.0]
        report = fit_order(xs, [5.0 / x ** 2 for x in xs])
        assert report.fitted_order == pytest.approx(-2.0, abs=1e-6)

    def test_exact_convergence_flag(self):
        report = fit_order([1.0, 2.0, 4.0], [0.0, 0.0, 0.0])
        assert report.exact
        assert np.isnan(report.fitted_order)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_order([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_order([2.0, 1.0, 3.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            fit_order([1.0, 2.0, 3.0], [1.0, -1.0, 1.0])
        with pytest.raises(ValueError):
            fit_order([1.0, 2.0, 3.0], [0.0, 0.0, 1.0])


def test_linear_fit_recovers_line():
    fit = linear_fit([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 5.0, 7.0])
    assert fit.slope == pytest.approx(2.0)
    assert fit.intercept == pytest.approx(1.0)
    assert fit.r_squared == pytest.approx(1.0)


class TestInducedNorm:
    def test_probe_basis_has_unit_trace_norm(self):
        for p in hermitian_probe_basis(3):
            assert trace_norm(p) == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(p, p.conj().T, atol=1e-14)

    def test_identity_map_has_norm_one(self):
        assert induced_trace_norm(np.eye(4, dtype=complex), 2) == pytest.approx(1.0, abs=1e-10)

    def test_probes_deterministic(self):
        a = default_probes(2)
        b = default_probes(2)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize("dim", [2, 5])
    def test_batched_norm_matches_per_probe_loop(self, rng, dim):
        probes = default_probes(dim)
        for _ in range(3):
            matrix = rng.normal(size=(dim * dim,) * 2) + 1j * rng.normal(size=(dim * dim,) * 2)
            loop = max(trace_norm(unvec(matrix @ vec(p), dim)) for p in probes)
            batched = induced_trace_norm(matrix, dim, probes)
            assert batched == pytest.approx(loop, rel=1e-13, abs=0.0)
            assert induced_trace_norm(matrix, dim) == batched


class TestChernoff:
    def test_zero_time(self):
        gen, rho_a = generic_qq()
        assert chernoff_deviation(gen, rho_a, 0.0, 4) == 0.0

    def test_commuting_instance_is_exact(self):
        # [H_S + H_A, H_SA] = 0 with the actuator reset to an eigenstate:
        # the product formula collapses at every n
        gen = dataclasses.replace(
            generic_qq()[0],
            h_S=Operator(SIGMA_Z, QQ),
            h_A=Operator(SIGMA_Z, QQ),
            h_SA=Operator(np.kron(SIGMA_Z, SIGMA_Z), QQ.tensor(QQ)),
            g=constant(0.7),
        )
        rho_a = DensityMatrix.from_matrix(np.diag([1.0, 0.0]))
        for n in (1, 3, 16, 64):
            assert chernoff_deviation(gen, rho_a, 1.0, n) <= 1e-9

    def test_doubling_ladder_decreases(self):
        gen, rho_a = generic_qq()
        probes = default_probes(2)
        devs = [chernoff_deviation(gen, rho_a, 1.0, n, probes=probes) for n in (16, 32, 64)]
        assert devs[1] <= devs[0] * 1.05
        assert devs[2] <= devs[1] * 1.05

    def test_dimension_guard(self):
        # the one size rule left: no dense open reduced map above the limit
        from resetctrl.models import OscillatorQubitModel, build_oscillator_qubit
        from resetctrl import bloch_density

        rho_a = bloch_density((1.0, 0.0, 0.0))
        gen = dataclasses.replace(
            build_oscillator_qubit(
                OscillatorQubitModel(1.0, 1.0, (1.0, 0.0, 0.0), 16, sin_squared(2.0))
            ),
            jumps_A=reset_jumps(rho_a, 1.0),
        )
        with pytest.raises(ValueError, match="dimension"):
            chernoff_deviation(gen, rho_a, 1.0, 4)

    def test_product_formula_is_map_power(self):
        gen, rho_a = generic_qq()
        from resetctrl.dynamics import cycle_map

        single = cycle_map(gen, rho_a, 0.25, tol=1e-10)
        prod = product_formula_superop(gen, rho_a, 1.0, 4, map_tol=1e-10)
        np.testing.assert_allclose(
            prod.matrix, np.linalg.matrix_power(single.matrix, 4), atol=1e-12
        )


def _load_scaling_study():
    path = Path(__file__).resolve().parents[1] / "scripts" / "scaling_study.py"
    spec = importlib.util.spec_from_file_location("scaling_study", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestScalingStudyScript:
    """``scripts/scaling_study.py`` exits 0 only if both fitted orders hold."""

    def test_orders_pass(self):
        assert _load_scaling_study().main() == 0

    def test_off_order_fails(self, monkeypatch):
        # the raw order fits -0.998, outside a zero slack
        study = _load_scaling_study()
        monkeypatch.setattr(study, "ORDER_SLACK", 0.0)
        assert study.main() == 1


class TestOmega1:
    def test_zero_time(self):
        gen, rho_a = generic_qq()
        p1, p2 = phi1_super(gen, rho_a), phi2_super(gen, rho_a)
        assert np.all(omega1_super(p1, p2, 0.0).matrix == 0)

    def test_vanishing_integrand(self):
        gen, rho_a = generic_qq()
        p1 = phi1_super(gen, rho_a)
        half_sq = SuperOperator(0.5 * p1.matrix @ p1.matrix, p1.space)
        assert np.all(omega1_super(p1, half_sq, 2.0).matrix == 0)

    @staticmethod
    def _oracle(p1, p2, t, nodes=40):
        """t^2 * integral of exp(Phi1 tau t) core exp(Phi1 (1 - tau) t) by a fixed Gauss rule."""
        core = p2.matrix - 0.5 * p1.matrix @ p1.matrix
        x, w = np.polynomial.legendre.leggauss(nodes)
        total = sum(
            wi * mat_exp(p1.matrix * tau * t) @ core @ mat_exp(p1.matrix * (1.0 - tau) * t)
            for tau, wi in zip(0.5 * (x + 1.0), 0.5 * w)
        )
        return t * t * total

    @pytest.mark.parametrize("t", [0.3, 1.3])
    @pytest.mark.parametrize("system_jumps", [False, True])
    def test_matches_quadrature_oracle(self, t, system_jumps):
        gen, rho_a = generic_qq()
        if system_jumps:
            gen = dataclasses.replace(
                gen, jumps_S=(Operator(0.4 * (SIGMA_X - 1j * SIGMA_Y) / 2, QQ),)
            )
        p1, p2 = phi1_super(gen, rho_a), phi2_super(gen, rho_a)
        got = omega1_super(p1, p2, t).matrix
        assert np.max(np.abs(got - self._oracle(p1, p2, t))) <= 1e-13

    def test_trace_annihilating(self, rng):
        gen, rho_a = generic_qq()
        p1, p2 = phi1_super(gen, rho_a), phi2_super(gen, rho_a)
        om = omega1_super(p1, p2, 1.3)
        h = random_hermitian(rng, 2)
        assert abs(np.trace(om.apply(h))) <= 1e-10

    def test_caption_state_gives_zero_correction(self):
        gen, rho_a = caption_qq()
        p1, p2 = phi1_super(gen, rho_a), phi2_super(gen, rho_a)
        assert np.max(np.abs(omega1_super(p1, p2, 1.0).matrix)) <= 1e-10

    def test_first_order_correction_improves_ladder(self):
        gen, rho_a = generic_qq()
        probes = default_probes(2)
        p1, p2 = phi1_super(gen, rho_a), phi2_super(gen, rho_a)
        om = omega1_super(p1, p2, 1.0)
        ns = (16, 32, 64)
        raw = [chernoff_deviation(gen, rho_a, 1.0, n, probes=probes) for n in ns]
        corrected = [
            chernoff_deviation(gen, rho_a, 1.0, n, probes=probes, first_order_correction=om)
            for n in ns
        ]
        assert all(c < 0.1 * r for c, r in zip(corrected, raw))


class TestDissipativeScaling:
    def test_decoupled_reports_exact(self):
        gen, rho_a = generic_qq()
        decoupled = dataclasses.replace(gen, g=constant(0.0))
        result = dissipative_scaling(
            decoupled, rho_a, np.array([1.0, 0.0]), [10.0, 20.0, 40.0], [0.5, 1.0]
        )
        assert result.freq_report.exact
        assert all(d <= 1e-9 for scan in result.scans for d in scan.deviations)

    def test_times_snap_to_cycles(self):
        gen, rho_a = generic_qq()
        result = dissipative_scaling(
            gen, rho_a, np.array([1.0, 0.0]), [3.0, 6.0, 12.0], [0.4, 0.7]
        )
        # 0.4 * 3 = 1.2 -> 1 cycle at t = 1/3; 0.7 * 3 = 2.1 -> 2 cycles
        np.testing.assert_allclose(result.scans[0].times, [1 / 3, 2 / 3])

    def test_deviations_match_a_per_time_reference(self):
        # the effective states of a rate come from one eigendecomposition;
        # the oracle exponentiates H_eff once per snapped time
        gen, rho_a = generic_qq()
        psi0 = np.array([0.6, 0.8j])
        f_list, t_grid = [10.0, 20.0, 40.0], [0.5, 1.0, 1.5]
        result = dissipative_scaling(gen, rho_a, psi0, f_list, t_grid)
        h_eff = effective_hamiltonian(gen, rho_a).matrix
        rho0 = DensityMatrix.pure(psi0, (2,))
        for f, scan in zip(f_list, result.scans):
            counts = sorted({max(1, round(f * t)) for t in t_grid})
            schedule = ResetSchedule.uniform(counts[-1], counts[-1] / f)
            traj = evolve_with_resets(gen, rho0, rho_a, schedule)
            for n, t, dev in zip(counts, scan.times, scan.deviations):
                psi_t = expm_hermitian(h_eff, -1j * (n / f)) @ psi0
                expected = trace_distance(traj.states[n].matrix, np.outer(psi_t, psi_t.conj()))
                assert t == n / f
                assert abs(dev - expected) <= 1e-14


class TestStroboscopic:
    def test_full_cycle_deviation_vanishes(self, rng):
        gen, rho_a = random_closed_qq(rng)
        rho0 = DensityMatrix.pure(random_pure(rng, 2), (2,))
        dt = 0.2
        dev = stroboscopic_deviation(gen, rho_a, rho0, dt, dt).matrix
        assert trace_norm(dev) <= 1e-9

    def test_constant_switching_gives_zero(self, rng):
        gen, rho_a = random_closed_qq(rng)
        static = dataclasses.replace(gen, g=constant(1.3))
        rho0 = DensityMatrix.pure(random_pure(rng, 2), (2,))
        for frac in (0.25, 0.5, 0.75):
            dev = stroboscopic_deviation(static, rho_a, rho0, frac * 0.2, 0.2).matrix
            assert trace_norm(dev) <= 1e-9

    def test_sin_squared_quarter_cycle_closed_form(self):
        # braced term for the sin^2 pulse at tau = dt/4 is 2 nu / pi
        gen, rho_a = caption_qq()
        assert braced_switching_term(gen.g, 0.05, 0.2) == pytest.approx(
            2.0 / np.pi, abs=1e-10
        )
        rho0 = DensityMatrix.pure(np.array([1.0, 0.0]), (2,))
        dev = stroboscopic_deviation(gen, rho_a, rho0, 0.05, 0.2).matrix
        b = np.array([[0.0, 0.5], [0.5, 0.0]])  # tr_A(H_SA rho_A) for X kron sx at (I+sx)/2
        expected = -1j * 0.05 * (2.0 / np.pi) * (b @ rho0.matrix - rho0.matrix @ b)
        np.testing.assert_allclose(dev, expected, atol=1e-12)

    def test_square_pulse_half_cycle(self):
        g = square_pulse(1.4, 0.0, 0.5)
        assert braced_switching_term(g, 0.1, 0.2) == pytest.approx(-0.7, abs=1e-10)
        assert stroboscopic_bound_check(g, 0.1, 0.2)

    def test_prediction_matches_measurement_to_second_order(self):
        gen, rho_a = generic_qq()
        rho0 = DensityMatrix.pure(np.array([1.0, 0.0]), (2,))
        dts = [0.2, 0.1, 0.05, 0.025]
        resids = []
        for dt in dts:
            tau = dt / 2
            pred = stroboscopic_deviation(gen, rho_a, rho0, tau, dt).matrix
            meas = measured_stroboscopic_deviation(gen, rho_a, rho0, tau, dt).matrix
            resids.append(trace_norm(meas - pred))
        taus = [dt / 2 for dt in reversed(dts)]
        report = fit_order(taus, list(reversed(resids)))
        assert 1.6 <= report.fitted_order <= 2.4

    def test_second_order_residual_on_oscillator_model(self):
        # same check on the full oscillator model at a mid-sized cutoff
        from resetctrl.models import (
            OscillatorQubitModel,
            build_oscillator_qubit,
            coherent_state,
        )
        from resetctrl import bloch_density

        cutoff = 16
        gen = build_oscillator_qubit(
            OscillatorQubitModel(1.0, 1.0, (1.0, 0.0, 0.0), cutoff, sin_squared(2.0))
        )
        rho_a = bloch_density((1.0, 0.0, 0.0))
        psi = coherent_state((1 + 1j) / np.sqrt(2), cutoff)
        rho0 = DensityMatrix.pure(psi, (cutoff,))
        dts = [0.1, 0.05, 0.025]
        resids = []
        for dt in dts:
            tau = dt / 2
            pred = stroboscopic_deviation(gen, rho_a, rho0, tau, dt).matrix
            meas = measured_stroboscopic_deviation(gen, rho_a, rho0, tau, dt).matrix
            resids.append(trace_norm(meas - pred))
        report = fit_order([dt / 2 for dt in reversed(dts)], list(reversed(resids)))
        assert 1.6 <= report.fitted_order <= 2.4

    def test_bound_holds_on_dense_grid(self):
        gs = [sin_squared(2.0), constant(1.0), square_pulse(1.5, 0.2, 0.7)]
        for g in gs:
            for dt in (0.4, 0.1):
                for frac in np.linspace(0.02, 1.0, 25):
                    assert stroboscopic_bound_check(g, frac * dt, dt)

    def test_rejects_open_generator(self, rng):
        gen, rho_a = random_open_qq(rng)
        rho0 = DensityMatrix.pure(random_pure(rng, 2), (2,))
        with pytest.raises(ValueError):
            stroboscopic_deviation(gen, rho_a, rho0, 0.1, 0.2)

    def test_rejects_bad_tau(self, rng):
        gen, rho_a = random_closed_qq(rng)
        rho0 = DensityMatrix.pure(random_pure(rng, 2), (2,))
        for tau in (0.0, 0.3):
            with pytest.raises(ValueError):
                stroboscopic_deviation(gen, rho_a, rho0, tau, 0.2)


class TestLieAlgebra:
    def test_single_generator(self):
        assert lie_algebra_dimension([SIGMA_Z]) == 1

    def test_su2_closure(self):
        assert lie_algebra_dimension([SIGMA_Z, SIGMA_X]) == 3

    def test_overlapping_generators_close_to_su2(self):
        assert lie_algebra_dimension([SIGMA_Z, SIGMA_Z + SIGMA_X]) == 3

    def test_full_u2_with_identity(self):
        assert lie_algebra_dimension([SIGMA_Z, SIGMA_X, np.eye(2)]) == 4

    def test_invariant_under_recombination(self, rng):
        gens = [SIGMA_Z, SIGMA_X + 0.3 * SIGMA_Y]
        base = lie_algebra_dimension(gens)
        for _ in range(5):
            a = rng.normal(size=(2, 2))
            while abs(np.linalg.det(a)) < 0.1:
                a = rng.normal(size=(2, 2))
            mixed = [a[0, 0] * gens[0] + a[0, 1] * gens[1], a[1, 0] * gens[0] + a[1, 1] * gens[1]]
            assert lie_algebra_dimension(mixed) == base

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            lie_algebra_dimension([np.array([[0.0, 1.0], [0.0, 0.0]])])

    def test_accepts_operators(self):
        assert lie_algebra_dimension([Operator.from_matrix(SIGMA_Z)]) == 1

    @pytest.mark.parametrize("d", [5, 6, 8])
    def test_generic_pair_generates_u_d(self, d):
        # two generic Hermitian matrices generate u(d), of real dimension d^2;
        # a closure whose basis loses orthogonality counts roundoff as new
        # directions (53 at d = 5 and 76-77 at d = 6 on these pairs)
        rng = np.random.default_rng(d)
        for _ in range(3):
            pair = [random_hermitian(rng, d) for _ in range(2)]
            assert lie_algebra_dimension(pair) == d * d

    def test_commuting_generators_give_their_rank(self):
        # diagonal 2x2 matrices commute exactly; over six decades of scale the
        # three generators span the two diagonal directions and nothing else
        gens = [1e-3 * np.diag([1.0, 2.0]), np.diag([3.0, -1.0]), 1e3 * np.diag([-2.0, 0.5])]
        assert lie_algebra_dimension(gens) == 2

    def test_block_diagonal_pair_generates_the_block_algebra(self, rng):
        # generic 2+3 block-diagonal pairs generate su(2) + su(3) plus the two
        # block identities: 3 + 8 + 2
        for _ in range(3):
            pair = []
            for _ in range(2):
                h = np.zeros((5, 5), dtype=complex)
                h[:2, :2] = random_hermitian(rng, 2)
                h[2:, 2:] = random_hermitian(rng, 3)
                pair.append(h)
            assert lie_algebra_dimension(pair) == 13

    def test_never_exceeds_u_d(self):
        rng = np.random.default_rng(11)
        for d in (2, 3, 4, 5, 6):
            for count in (1, 2, 3):
                gens = [random_hermitian(rng, d, scale=10.0 ** rng.uniform(-3, 3))
                        for _ in range(count)]
                assert lie_algebra_dimension(gens) <= d * d


def _oscillator_pair(cutoff):
    return [number_operator(cutoff), quadrature_x(cutoff)]


class TestLieAlgebraOnTheOscillator:
    # {a^dag a, x} on the truncated oscillator; a closure that scales small
    # commutators up to unit norm scales their roundoff with them, and from
    # cutoff 9 on counts it as new directions (83 at cutoff 9, 287 at 12)

    def test_generates_u_d_at_low_cutoffs(self):
        for d in range(2, 11):
            assert lie_algebra_dimension(_oscillator_pair(d)) == d * d

    @pytest.mark.parametrize("d", [12, 13])
    def test_never_exceeds_u_d(self, d):
        assert lie_algebra_dimension(_oscillator_pair(d)) <= d * d

    @pytest.mark.parametrize("d", [8, 11])
    def test_doubled_blocks_keep_the_dimension(self, d):
        # X -> diag(X, X) is a Lie-algebra isomorphism onto its image
        doubled = [np.kron(np.eye(2), h) for h in _oscillator_pair(d)]
        assert lie_algebra_dimension(doubled) == lie_algebra_dimension(_oscillator_pair(d))


class TestGradualReset:
    def test_reset_jumps_drive_to_target(self, rng):
        rho_a = DensityMatrix.from_matrix(random_density(rng, 2))
        jumps = reset_jumps(rho_a, 3.0)
        total = sum(dissipator_super(j).matrix for j in jumps)
        sigma = random_density(rng, 2)
        from resetctrl.qcore import unvec, vec

        out = unvec(total @ vec(sigma), 2)
        np.testing.assert_allclose(out, 3.0 * (rho_a.matrix - sigma), atol=1e-12)

    def test_deviation_decreases_with_damping_rate(self):
        gen, rho_a = generic_qq()
        rho0 = DensityMatrix.pure(np.array([1.0, 0.0]), (2,))
        devs = gradual_reset_scan(gen, rho_a, rho0, [4.0, 8.0, 16.0, 32.0], 2.0)
        for a, b in zip(devs, devs[1:]):
            assert b <= a * 1.1

    def test_scan_builds_the_effective_target_once(self, monkeypatch):
        calls = []
        original = analysis.effective_hamiltonian

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(analysis, "effective_hamiltonian", counted)
        gen, rho_a = generic_qq()
        rho0 = DensityMatrix.pure(np.array([1.0, 0.0]), (2,))
        gradual_reset_scan(gen, rho_a, rho0, [4.0, 8.0, 16.0], 2.0)
        assert len(calls) == 1
        # a mismatched state is named before the target is built
        rho3 = DensityMatrix.from_matrix(np.eye(3) / 3)
        with pytest.raises(ValueError, match="system state dimension 3 != 2"):
            gradual_reset_scan(gen, rho_a, rho3, [4.0], 2.0)

    @pytest.mark.parametrize("kappas", [[4.0, 8.0, 16.0], [2.5]])
    def test_scan_equals_the_per_rate_route(self, rng, kappas):
        gen, rho_a = random_closed_qq(rng)
        rho0 = DensityMatrix.from_matrix(random_density(rng, 2))
        t = 1.5
        expected = []
        for kappa in kappas:
            damped = gradual_reset_generator(gen, rho_a, kappa)
            traj = intra_cycle_trajectory(damped, rho0, rho_a, t, [t])
            u = expm_hermitian(effective_hamiltonian(gen, rho_a).matrix, -1j * t)
            target = u @ rho0.matrix @ u.conj().T
            expected.append(trace_distance(traj.states[-1].matrix, target))
        assert gradual_reset_scan(gen, rho_a, rho0, kappas, t) == tuple(expected)

    def test_generator_replaces_switching_and_jumps(self):
        gen, rho_a = generic_qq()
        damped = gradual_reset_generator(gen, rho_a, 5.0)
        assert damped.jumps_A
        assert damped.g.mean == pytest.approx(gen.g.mean, abs=1e-10)
        assert damped.g(0.1) == pytest.approx(damped.g(0.9))

    def test_rejects_nonpositive_rate(self):
        gen, rho_a = generic_qq()
        with pytest.raises(ValueError):
            reset_jumps(rho_a, 0.0)
