import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from resetctrl.analysis import reset_jumps
from resetctrl.config import default_config

from resetctrl.generators import (
    CycleGenerator,
    _LindbladForm,
    _phi2_weights,
    SwitchingFunction,
    constant,
    effective_hamiltonian,
    from_table,
    mean_coupling,
    phi1_super,
    phi2_super,
    sin_squared,
    square_pulse,
)
from resetctrl.models import (
    OscillatorQubitModel,
    SIGMA_X,
    SIGMA_Z,
    annihilation,
    build_oscillator_qubit,
    number_operator,
    quadrature_x,
)
from resetctrl.qcore import (
    DensityMatrix,
    Operator,
    dissipator_super,
    ham_super,
    partial_trace_matrix,
    unvec,
    vec,
)
from resetctrl import bloch_density
from resetctrl.quadrature import integrate_scalar
from helpers import (
    QQ,
    caption_qq,
    generic_qq,
    random_closed_qq,
    random_density,
    random_hermitian,
    random_matrix,
    random_open_qq,
    random_unitary,
)


class TestSwitchingFunctions:
    def test_constant_mean(self):
        assert constant(2.5).mean == pytest.approx(2.5, abs=1e-12)

    def test_sin_squared_mean_is_half_peak(self):
        g = sin_squared(2.0)
        assert g.mean == pytest.approx(1.0, abs=1e-10)
        assert g.g_max == 2.0

    def test_square_pulse_mean_is_area(self):
        g = square_pulse(3.0, 0.0, 0.5)
        assert g.mean == pytest.approx(1.5, abs=1e-10)
        assert mean_coupling(g) == pytest.approx(1.5, abs=1e-10)

    def test_table_interpolation(self):
        g = from_table([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        assert g.mean == pytest.approx(0.5, abs=1e-10)
        assert g(0.25) == pytest.approx(0.5)
        assert g.g_max == 1.0

    def test_table_g_max_is_taken_on_the_unit_interval(self):
        # nodes outside [0, 1] do not count; interpolated end values do
        assert from_table([-1.0, 0.0, 1.0], [10.0, 0.0, 1.0]).g_max == 1.0
        assert from_table([-1.0, 2.0], [3.0, -3.0]).g_max == 1.0
        assert from_table([0.0, 0.3, 0.6, 1.0], [0.0, 2.5, 1.0, 0.5]).g_max == 2.5

    def test_table_validation(self):
        with pytest.raises(ValueError):
            from_table([0.0, 0.4], [1.0, 1.0])  # does not cover [0, 1]
        with pytest.raises(ValueError):
            from_table([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])

    def test_g_max_estimated_by_sampling(self):
        g = SwitchingFunction(lambda z: np.sin(np.pi * z) ** 2)
        assert g.g_max == pytest.approx(1.0, abs=1e-6)

    def test_square_pulse_bounds(self):
        with pytest.raises(ValueError):
            square_pulse(1.0, 0.7, 0.2)


class TestCycleGenerator:
    def test_rejects_non_hermitian(self, rng):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        with pytest.raises(ValueError, match="Hermitian"):
            CycleGenerator(
                space_S=QQ,
                space_A=QQ,
                h_S=Operator(m, QQ),
                h_A=Operator(np.eye(2), QQ),
                h_SA=Operator(np.eye(4), QQ.tensor(QQ)),
                g=constant(1.0),
            )

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            CycleGenerator(
                space_S=QQ,
                space_A=QQ,
                h_S=Operator(np.eye(2), QQ),
                h_A=Operator(np.eye(2), QQ),
                h_SA=Operator(np.eye(2), QQ),
                g=constant(1.0),
            )

    def test_validity_report_flags_negative_g_with_sa_dissipators(self, rng):
        gen, _ = random_open_qq(rng)
        flagged = CycleGenerator(
            space_S=gen.space_S,
            space_A=gen.space_A,
            h_S=gen.h_S,
            h_A=gen.h_A,
            h_SA=gen.h_SA,
            g=constant(-1.0),
            jumps_SA=gen.jumps_SA,
        )
        assert flagged.validity_report()
        assert not gen.validity_report()


class TestLindbladNormBound:
    def test_bounds_the_superoperator_norm(self, rng):
        # vec is an isometry, so the Frobenius operator norm of L is the
        # spectral norm of its superoperator matrix
        for _ in range(20):
            gen, _ = random_open_qq(rng)
            for form, sup in (
                (gen.free_lindblad, gen.free_super),
                (gen.coupling_lindblad, gen.coupling_super),
            ):
                assert np.linalg.norm(sup.matrix, 2) <= form.norm_bound * (1 + 1e-12)

    def test_independent_of_the_jump_operator_split(self, rng):
        h = random_hermitian(rng, 4)
        jumps = [random_matrix(rng, 4) for _ in range(3)]
        u = random_unitary(rng, 3)
        mixed = [sum(u[i, j] * jumps[j] for j in range(3)) for i in range(3)]
        bound = _LindbladForm.of(h, jumps).norm_bound
        assert _LindbladForm.of(h, mixed).norm_bound == pytest.approx(bound, rel=1e-12)

    def test_closed_bound_ignores_energy_offset(self, rng):
        h = random_hermitian(rng, 4)
        bound = _LindbladForm.of(h, ()).norm_bound
        assert _LindbladForm.of(h + 50.0 * np.eye(4), ()).norm_bound == pytest.approx(bound)


class TestFusedLindbladForm:
    @pytest.mark.parametrize("c", [-0.7, 0.0, 0.3, 2.1])
    def test_matches_two_applications(self, c, rng):
        # jumps on S, A and SA: a negative c gives the coupling jumps
        # negative weights
        for _ in range(5):
            gen, _ = random_open_qq(rng)
            fused = gen.free_lindblad.plus(c, gen.coupling_lindblad)
            m = random_matrix(rng, 4)
            two_calls = gen.apply_free_liouvillian(m) + c * gen.apply_coupling_liouvillian(m)
            dense = unvec((gen.free_super.matrix + c * gen.coupling_super.matrix) @ vec(m), 4)
            tol = 1e-12 * np.linalg.norm(m)
            assert np.max(np.abs(fused.apply(m) - two_calls)) <= tol
            assert np.max(np.abs(fused.apply(m) - dense)) <= tol


def _embedded_free_form(gen):
    """The form of L_S + L_A with every jump embedded in the joint space, 1 kron l."""
    d_s, d_a = gen.space_S.total_dim, gen.space_A.total_dim
    jumps = [np.kron(l.matrix, np.eye(d_a)) for l in gen.jumps_S]
    jumps += [np.kron(np.eye(d_s), l.matrix) for l in gen.jumps_A]
    return _LindbladForm.of(gen.h_free_full, jumps)


def _oscillator6_with_jumps(rng):
    """Cutoff-6 oscillator with reset jumps on the actuator, a system and a coupling jump."""
    _, gen = dataclasses.replace(default_config().model, cutoff=6).build()
    rho_a = bloch_density((0.6, 0.0, 0.5))
    return dataclasses.replace(
        gen,
        jumps_S=(Operator(0.3 * annihilation(6), gen.space_S),),
        jumps_A=reset_jumps(rho_a, 1.5),
        jumps_SA=(Operator(random_matrix(rng, 12, 0.2), gen.space),),
    )


class TestFactoredActuatorJumps:
    """Actuator jumps kept on the actuator factor against their joint embedding.

    The reference is ``_LindbladForm.of`` with every actuator jump
    embedded as 1 kron l, as the form was built before the factoring.
    """

    MODELS = {
        "random_open_qq": lambda rng: random_open_qq(rng)[0],
        "oscillator6": _oscillator6_with_jumps,
    }

    @staticmethod
    def _inputs(rng, gen):
        d_s, d = gen.space_S.total_dim, gen.total_dim
        stack = np.array([random_matrix(rng, d) for _ in range(d_s * d_s)])
        return random_matrix(rng, d), stack

    @staticmethod
    def _assert_same(form, ref, m):
        assert np.max(np.abs(form.apply(m) - ref.apply(m))) <= 1e-12 * np.linalg.norm(m)

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_free_form_matches_embedded(self, model, rng):
        gen = self.MODELS[model](rng)
        form, ref = gen.free_lindblad, _embedded_free_form(gen)
        assert form.t is not None and len(form.left) == len(gen.jumps_S) * gen.total_dim
        assert np.array_equal(form.k, ref.k)
        assert form.norm_bound == pytest.approx(ref.norm_bound, rel=1e-12)
        for m in self._inputs(rng, gen):
            self._assert_same(form, ref, m)

    @pytest.mark.parametrize("c", [-0.7, 0.0, 0.3, 2.1])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_plus_matches_embedded(self, model, c, rng):
        gen = self.MODELS[model](rng)
        free, ref, coupling = gen.free_lindblad, _embedded_free_form(gen), gen.coupling_lindblad
        # the actuator part on the left, on the right and on both sides
        for form, oracle in (
            (free.plus(c, coupling), ref.plus(c, coupling)),
            (coupling.plus(c, free), coupling.plus(c, ref)),
            (free.plus(c, free), ref.plus(c, ref)),
        ):
            assert np.array_equal(form.k, oracle.k)
            assert form.norm_bound == pytest.approx(oracle.norm_bound, rel=1e-12)
            for m in self._inputs(rng, gen):
                self._assert_same(form, oracle, m)

    def test_jump_free_form_has_no_actuator_part(self, rng):
        gen, _ = random_closed_qq(rng)
        form = gen.free_lindblad
        assert form.t is None and not len(form.left)
        m = random_matrix(rng, 4)
        assert np.array_equal(form.apply(m), form.k @ m + m @ form.k_dag)


class TestDenseLindbladOracle:
    """Dense Liouvillians against ham_super + sum of dissipator_super.

    ``free_super``, ``coupling_super`` and Phi_1 are read off the
    ``_LindbladForm`` they share with the matrix-free path; the oracle
    embeds every jump explicitly (l kron 1, 1 kron l) and adds the kron
    formulas of ``qcore``.
    """

    @staticmethod
    def _oracle(h, jumps):
        return ham_super(h).matrix + sum(dissipator_super(l).matrix for l in jumps)

    @staticmethod
    def _assert_close(got, ref):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("model", sorted(TestFactoredActuatorJumps.MODELS))
    def test_free_coupling_and_phi1_system_part(self, model, rng):
        gen = TestFactoredActuatorJumps.MODELS[model](rng)
        assert gen.jumps_S and gen.jumps_A and gen.jumps_SA
        eye_s, eye_a = np.eye(gen.space_S.total_dim), np.eye(gen.space_A.total_dim)
        embedded = [np.kron(l.matrix, eye_a) for l in gen.jumps_S]
        embedded += [np.kron(eye_s, l.matrix) for l in gen.jumps_A]
        free = self._oracle(
            Operator(gen.h_free_full, gen.space), [Operator(l, gen.space) for l in embedded]
        )
        self._assert_close(gen.free_super.matrix, free)
        self._assert_close(gen.coupling_super.matrix, self._oracle(gen.h_SA, gen.jumps_SA))
        # a zero mean coupling leaves Phi_1 its system part L_S
        uncoupled = dataclasses.replace(gen, g=constant(0.0))
        rho_a = DensityMatrix.from_matrix(random_density(rng, 2))
        self._assert_close(phi1_super(uncoupled, rho_a).matrix, self._oracle(gen.h_S, gen.jumps_S))


class TestEffectiveHamiltonian:
    def test_caption_parameters_reproduce_displaced_oscillator(self):
        # nu a'a + nu X for n=(1,0,0), rho_A=(I+sx)/2, g = 2 nu sin^2
        cutoff = 8
        model = OscillatorQubitModel(1.0, 1.0, (1.0, 0.0, 0.0), cutoff, sin_squared(2.0))
        gen = build_oscillator_qubit(model)
        h_eff = effective_hamiltonian(gen, bloch_density((1.0, 0.0, 0.0)))
        expected = number_operator(cutoff) + quadrature_x(cutoff)
        np.testing.assert_allclose(h_eff.matrix, expected, atol=1e-10)

    def test_zero_coupling(self, rng):
        gen, rho_a = random_closed_qq(rng, coupling_scale=0.0)
        np.testing.assert_allclose(
            effective_hamiltonian(gen, rho_a).matrix, gen.h_S.matrix, atol=1e-14
        )

    def test_traceless_actuator_factor_drops_out(self):
        gen, _ = caption_qq()  # h_SA = X kron sigma_x
        rho_a = DensityMatrix.from_matrix(np.eye(2) / 2)
        np.testing.assert_allclose(
            effective_hamiltonian(gen, rho_a).matrix, gen.h_S.matrix, atol=1e-12
        )

    def test_always_hermitian(self, rng):
        for _ in range(10):
            gen, rho_a = random_closed_qq(rng)
            h = effective_hamiltonian(gen, rho_a).matrix
            assert np.max(np.abs(h - h.conj().T)) <= 1e-12

    def test_linear_in_actuator_state(self, rng):
        gen, _ = random_closed_qq(rng)
        r1 = random_density(rng, 2)
        r2 = random_density(rng, 2)
        lam = 0.3
        mixed = DensityMatrix.from_matrix(lam * r1 + (1 - lam) * r2)
        h_mixed = effective_hamiltonian(gen, mixed).matrix
        h1 = effective_hamiltonian(gen, DensityMatrix.from_matrix(r1)).matrix
        h2 = effective_hamiltonian(gen, DensityMatrix.from_matrix(r2)).matrix
        np.testing.assert_allclose(h_mixed, lam * h1 + (1 - lam) * h2, atol=1e-13)

    def test_dimension_mismatch(self, rng):
        gen, _ = random_closed_qq(rng)
        with pytest.raises(ValueError):
            effective_hamiltonian(gen, DensityMatrix.from_matrix(np.eye(3) / 3))


class TestPhi1:
    def test_closed_system_equals_effective_commutator(self, rng):
        for _ in range(20):
            gen, rho_a = random_closed_qq(rng)
            p1 = phi1_super(gen, rho_a).matrix
            target = ham_super(effective_hamiltonian(gen, rho_a)).matrix
            assert np.max(np.abs(p1 - target)) <= 1e-10

    def test_actuator_generator_does_not_contribute(self, rng):
        import dataclasses

        gen, rho_a = random_open_qq(rng)
        base = phi1_super(gen, rho_a).matrix
        perturbed = dataclasses.replace(
            gen,
            h_A=Operator(gen.h_A.matrix + SIGMA_X + 0.5 * SIGMA_Z, QQ),
            jumps_A=gen.jumps_A + (Operator(np.array([[0.0, 0.9], [0.2, 0.1j]]), QQ),),
        )
        assert np.max(np.abs(phi1_super(perturbed, rho_a).matrix - base)) <= 1e-12

    def test_sigma_z_coupling_example(self):
        # H_SA = sz kron sz, rho_A = |0><0|, g = 1: Phi_1 = -i [H_S + sz, .]
        h_s = np.array([[0.3, 0.1], [0.1, -0.4]], dtype=complex)
        gen = CycleGenerator(
            space_S=QQ,
            space_A=QQ,
            h_S=Operator(h_s, QQ),
            h_A=Operator(0.7 * SIGMA_Z, QQ),
            h_SA=Operator(np.kron(SIGMA_Z, SIGMA_Z), QQ.tensor(QQ)),
            g=constant(1.0),
        )
        rho_a = DensityMatrix.from_matrix(np.diag([1.0, 0.0]))
        expected = ham_super(Operator(h_s + SIGMA_Z, QQ)).matrix
        np.testing.assert_allclose(phi1_super(gen, rho_a).matrix, expected, atol=1e-12)

    def test_trace_annihilating_closed(self, rng):
        gen, rho_a = random_closed_qq(rng)
        p1 = phi1_super(gen, rho_a)
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = h + h.conj().T
        assert abs(np.trace(p1.apply(h))) <= 1e-12

    def test_open_system_matches_map_derivative(self, rng):
        # (cycle_map(dt) - I)/dt -> Phi_1 at rate O(dt)
        from resetctrl.dynamics import cycle_map

        gen, rho_a = random_open_qq(rng)
        p1 = phi1_super(gen, rho_a).matrix
        errs = []
        for dt in (4e-4, 1e-4):
            m = cycle_map(gen, rho_a, dt, tol=1e-12).matrix
            errs.append(np.max(np.abs((m - np.eye(4)) / dt - p1)))
        assert errs[1] < errs[0]
        assert errs[1] <= 5e-3


def _phi2_triangle_oracle(gen, rho_a, nodes):
    """2-D Gauss-Legendre over the ordered triangle, on joint superoperators."""
    l0 = gen.free_super.matrix
    l1 = gen.coupling_super.matrix
    x, w = np.polynomial.legendre.leggauss(nodes)
    z, wz = 0.5 * (x + 1.0), 0.5 * w
    d2 = gen.total_dim ** 2
    integral = np.zeros((d2, d2), dtype=complex)
    for z1, w1 in zip(z, wz):
        for u, wu in zip(z, wz):
            z2 = z1 * u
            outer = l0 + gen.g(z1) * l1
            inner = l0 + gen.g(z2) * l1
            integral += (w1 * wu * z1) * (outer @ inner)
    d_s, d_a = gen.space_S.total_dim, gen.space_A.total_dim
    cols = np.empty((d_s * d_s, d_s * d_s), dtype=complex)
    for idx in range(d_s * d_s):
        e = np.zeros((d_s, d_s), dtype=complex)
        e[idx % d_s, idx // d_s] = 1.0
        out = integral @ vec(np.kron(e, rho_a.matrix))
        out = out.reshape((gen.total_dim, gen.total_dim), order="F")
        cols[:, idx] = vec(partial_trace_matrix(out, (d_s, d_a), keep=0))
    return cols


def _phi2_weights_by_quadrature(g):
    """The four weights as three direct quadratures, the triangle one nested."""
    bp = g.breakpoints
    w_10 = integrate_scalar(lambda z: g(z) * z, breakpoints=bp)
    w_01 = integrate_scalar(lambda z: g(z) * (1.0 - z), breakpoints=bp)

    def inner(z1):
        return integrate_scalar(g.evaluate, 0.0, z1, breakpoints=bp) if z1 > 0.0 else 0.0

    w_11 = integrate_scalar(lambda z: g(z) * inner(z), breakpoints=bp)
    return 0.5, w_10, w_01, w_11


class TestPhi2:
    @pytest.mark.parametrize(
        "g",
        [
            square_pulse(1.2, 0.1, 0.6),
            from_table([0.0, 0.2, 0.5, 0.9, 1.0], [0.0, 1.5, -0.4, 0.8, 0.1]),
        ],
        ids=["square", "table"],
    )
    def test_weights_match_direct_quadrature(self, g):
        # pulses with breakpoints and w_10 != w_01, which a time-symmetric
        # pulse cannot tell apart
        np.testing.assert_allclose(
            _phi2_weights(g), _phi2_weights_by_quadrature(g), rtol=0.0, atol=1e-12
        )

    def test_static_decoupled_case(self, rng):
        gen, rho_a = random_closed_qq(rng, coupling_scale=1.0)
        import dataclasses

        static = dataclasses.replace(
            gen, g=constant(0.0), h_A=Operator(np.zeros((2, 2)), QQ)
        )
        p2 = phi2_super(static, rho_a).matrix
        ls = ham_super(static.h_S).matrix
        np.testing.assert_allclose(p2, 0.5 * ls @ ls, atol=1e-10)

    def test_constant_coupling_is_half_total_square(self, rng):
        import dataclasses

        gen, rho_a = random_closed_qq(rng)
        static = dataclasses.replace(gen, g=constant(1.0))
        p2 = phi2_super(static, rho_a).matrix
        l_tot = static.free_super.matrix + static.coupling_super.matrix
        d_s, d_a = 2, 2
        expected = np.empty((4, 4), dtype=complex)
        for idx in range(4):
            e = np.zeros((2, 2), dtype=complex)
            e[idx % 2, idx // 2] = 1.0
            out = 0.5 * (l_tot @ l_tot) @ vec(np.kron(e, rho_a.matrix))
            out = out.reshape((4, 4), order="F")
            expected[:, idx] = vec(partial_trace_matrix(out, (d_s, d_a), keep=0))
        np.testing.assert_allclose(p2, expected, atol=1e-10)

    def test_matches_triangle_quadrature_oracle(self):
        gen, rho_a = generic_qq()
        p2 = phi2_super(gen, rho_a).matrix
        oracle = _phi2_triangle_oracle(gen, rho_a, nodes=64)
        assert np.max(np.abs(p2 - oracle)) <= 1e-8 * max(1.0, np.max(np.abs(oracle)))

    def test_decomposition_identity_with_dissipators(self, rng):
        gen, rho_a = random_open_qq(rng)
        p2 = phi2_super(gen, rho_a).matrix
        oracle = _phi2_triangle_oracle(gen, rho_a, nodes=64)
        scale = max(1.0, np.max(np.abs(oracle)))
        assert np.max(np.abs(p2 - oracle)) <= 1e-8 * scale

    def test_caption_state_cancels_first_order_core(self):
        # rho_A an eigenstate of the coupling's actuator factor plus a
        # time-symmetric pulse make Phi_2 = Phi_1^2 / 2 exactly
        gen, rho_a = caption_qq()
        p1 = phi1_super(gen, rho_a).matrix
        p2 = phi2_super(gen, rho_a).matrix
        assert np.max(np.abs(p2 - 0.5 * p1 @ p1)) <= 1e-12

    def test_generic_state_does_not_cancel(self):
        gen, rho_a = generic_qq()
        p1 = phi1_super(gen, rho_a).matrix
        p2 = phi2_super(gen, rho_a).matrix
        assert np.max(np.abs(p2 - 0.5 * p1 @ p1)) > 1e-3


class TestSwitchingProperties:
    @given(st.integers(0, 200))
    def test_braced_term_bound_for_random_pulses(self, seed):
        # the running-average deficit never exceeds 2 g_max (dt - tau)/tau
        from resetctrl.analysis import braced_switching_term

        rng = np.random.default_rng(seed)
        zs = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, 4)), [1.0]])
        g = from_table(zs, rng.uniform(-2.0, 2.0, zs.size))
        dt = float(rng.uniform(0.05, 0.5))
        tau = float(rng.uniform(0.05, 1.0)) * dt
        braced = abs(braced_switching_term(g, tau, dt))
        assert braced <= 2.0 * g.g_max * (dt - tau) / tau + 1e-9

    @given(st.integers(0, 200))
    def test_mean_of_random_table_matches_trapezoid(self, seed):
        rng = np.random.default_rng(seed)
        zs = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, 5)), [1.0]])
        vals = rng.uniform(-3.0, 3.0, zs.size)
        g = from_table(zs, vals)
        trapezoid = float(np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(zs)))
        assert g.mean == pytest.approx(trapezoid, abs=1e-10)

    @given(st.integers(0, 200))
    def test_effective_hamiltonian_hermitian_and_linear(self, seed):
        rng = np.random.default_rng(seed)
        gen, _ = random_closed_qq(rng)
        r1, r2 = random_density(rng, 2), random_density(rng, 2)
        lam = float(rng.uniform(0.0, 1.0))
        mix = DensityMatrix.from_matrix(lam * r1 + (1 - lam) * r2)
        h_mix = effective_hamiltonian(gen, mix).matrix
        np.testing.assert_allclose(h_mix, h_mix.conj().T, atol=1e-12)
        h1 = effective_hamiltonian(gen, DensityMatrix.from_matrix(r1)).matrix
        h2 = effective_hamiltonian(gen, DensityMatrix.from_matrix(r2)).matrix
        np.testing.assert_allclose(h_mix, lam * h1 + (1 - lam) * h2, atol=1e-12)


def _oscillator_gen(cutoff, n_vec=(1.0, 0.0, 0.0)):
    model = dataclasses.replace(default_config().model, cutoff=cutoff, n_vec=n_vec)
    return model.build()[1]


class TestParitySectors:
    @pytest.mark.parametrize("cutoff", [2, 8, 30])
    def test_rabi_form_has_two_sectors_of_cutoff(self, cutoff):
        sectors = _oscillator_gen(cutoff).sectors
        assert sectors.shape == (2, cutoff)
        assert np.array_equal(np.sort(sectors.ravel()), np.arange(2 * cutoff))
        # the parity (-1)^n sigma_z of joint index 2n + s is constant on a sector
        parity = [(-1) ** (i // 2) * (1 - 2 * (i % 2)) for i in range(2 * cutoff)]
        for row in sectors:
            assert len({parity[i] for i in row}) == 1

    def test_qubit_defaults_split_two_plus_two(self):
        from resetctrl.config import qubit_defaults

        _, gen = qubit_defaults().model.build()
        assert gen.sectors.shape == (2, 2)

    def test_z_component_in_the_coupling_leaves_one_block(self):
        gen = _oscillator_gen(8, (0.8, 0.0, 0.6))
        assert np.array_equal(gen.sectors, np.arange(16)[None])

    def test_random_generator_is_one_block(self, rng):
        gen, _ = random_closed_qq(rng)
        assert np.array_equal(gen.sectors, np.arange(4)[None])

    def test_unequal_components_are_one_block(self):
        # sigma_z on both qubits and a coupling |00><11| + h.c.: components
        # {0, 3}, {1}, {2}, which do not stack
        h_sa = np.zeros((4, 4), dtype=complex)
        h_sa[0, 3] = h_sa[3, 0] = 1.0
        gen = CycleGenerator(
            space_S=QQ, space_A=QQ,
            h_S=Operator(SIGMA_Z, QQ), h_A=Operator(0.5 * SIGMA_Z, QQ),
            h_SA=Operator(h_sa, QQ.tensor(QQ)), g=constant(1.0),
        )
        assert np.array_equal(gen.sectors, np.arange(4)[None])

    @pytest.mark.parametrize("cutoff", [2, 8, 30])
    def test_every_basis_row_is_exactly_zero_across_sectors(self, cutoff):
        gen = _oscillator_gen(cutoff)
        d = gen.total_dim
        label = np.empty(d, dtype=int)
        for k, row in enumerate(gen.sectors):
            label[row] = k
        across = label[:, None] != label[None, :]
        rows = gen.magnus_basis.view(complex).reshape(-1, d, d)
        assert across.any()
        assert np.all(rows[:, across] == 0)

    def test_sector_basis_holds_the_diagonal_blocks(self, rng):
        gen = _oscillator_gen(8)
        w = rng.normal(size=len(gen.magnus_basis))
        full = (w @ gen.magnus_basis).view(complex).reshape(16, 16)
        blocks = (w @ gen.magnus_sector_basis).view(complex).reshape(2, 8, 8)
        for block, row in zip(blocks, gen.sectors):
            assert np.array_equal(block, full[np.ix_(row, row)])

    def test_detection_is_lazy(self):
        gen = _oscillator_gen(8)
        assert "sectors" not in gen.__dict__ and "magnus_basis" not in gen.__dict__
