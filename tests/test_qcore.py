import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from resetctrl.analysis import gradual_reset_generator
from resetctrl.generators import phi1_super, phi2_super
from resetctrl.qcore import (
    _EXP_NORM_LIMIT,
    _PADE,
    _THETA_13,
    TOL_HERM,
    TOL_PSD,
    TOL_TRACE,
    DensityMatrix,
    HilbertSpace,
    NumericalRangeError,
    Operator,
    SuperOperator,
    _check_density,
    _hstack,
    _super_matrix,
    choi_matrix,
    dissipator_super,
    expm_hermitian,
    fidelity_pure,
    ham_super,
    is_cptp,
    mat_exp,
    partial_trace_matrix,
    trace_norm,
    unvec,
    vec,
)
from helpers import (
    generic_qq,
    random_density,
    random_hermitian,
    random_matrix,
    random_pure,
    random_unitary,
)

I2 = np.eye(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def op(m, dims=None):
    return Operator.from_matrix(m, dims)


class TestHilbertSpace:
    def test_total_dim(self):
        assert HilbertSpace((3, 2)).total_dim == 6

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            HilbertSpace((2, 0))
        with pytest.raises(ValueError):
            HilbertSpace(())


class TestPartialTrace:
    def test_product_state(self, rng):
        rho_s = random_density(rng, 3)
        rho_a = random_density(rng, 2)
        joint = np.kron(rho_s, rho_a)
        np.testing.assert_allclose(partial_trace_matrix(joint, (3, 2), 0), rho_s, atol=1e-14)
        np.testing.assert_allclose(partial_trace_matrix(joint, (3, 2), 1), rho_a, atol=1e-14)

    def test_bell_state_reduces_to_mixed(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        for keep in (0, 1):
            np.testing.assert_allclose(partial_trace_matrix(rho, (2, 2), keep), I2 / 2, atol=1e-14)

    def test_matches_index_sum_oracle(self, rng):
        m = random_matrix(rng, 6)
        got0 = partial_trace_matrix(m, (3, 2), 0)
        expected0 = np.zeros((3, 3), dtype=complex)
        for i in range(3):
            for j in range(3):
                for a in range(2):
                    expected0[i, j] += m[i * 2 + a, j * 2 + a]
        np.testing.assert_allclose(got0, expected0, atol=1e-14)

        got1 = partial_trace_matrix(m, (3, 2), 1)
        expected1 = np.zeros((2, 2), dtype=complex)
        for a in range(2):
            for b in range(2):
                for i in range(3):
                    expected1[a, b] += m[i * 2 + a, i * 2 + b]
        np.testing.assert_allclose(got1, expected1, atol=1e-14)

    def test_three_subsystems(self, rng):
        parts = [random_density(rng, d) for d in (2, 3, 2)]
        joint = np.kron(np.kron(parts[0], parts[1]), parts[2])
        np.testing.assert_allclose(partial_trace_matrix(joint, (2, 3, 2), 1), parts[1], atol=1e-14)

    def test_invalid_index(self, rng):
        with pytest.raises(ValueError):
            partial_trace_matrix(random_matrix(rng, 4), (2, 2), 2)

    @given(st.integers(0, 500), st.integers(2, 4), st.integers(2, 3))
    def test_kron_then_trace_recovers_factor(self, seed, da, db):
        rng = np.random.default_rng(seed)
        a, b = random_matrix(rng, da), random_matrix(rng, db)
        np.testing.assert_allclose(
            partial_trace_matrix(np.kron(a, b), (da, db), 0), a * np.trace(b), atol=1e-12
        )


class TestMatExp:
    def test_zero(self):
        np.testing.assert_array_equal(mat_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal_rotation(self):
        theta = 0.731
        out = mat_exp(-1j * theta * SZ / 2)
        np.testing.assert_allclose(
            out, np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)]), atol=1e-14
        )

    def test_hermitian_spectral_oracle(self, rng):
        h = random_hermitian(rng, 8)
        h *= 40.0 / np.linalg.norm(h, 2)  # sizable but inside the accuracy contract
        evals, evecs = np.linalg.eigh(h)
        expected = (evecs * np.exp(evals)) @ evecs.conj().T
        got = mat_exp(h)
        assert np.linalg.norm(got - expected) / np.linalg.norm(expected) <= 1e-12

    def test_expm_hermitian_matches(self, rng):
        h = random_hermitian(rng, 5)
        np.testing.assert_allclose(expm_hermitian(h, -0.3j), mat_exp(-0.3j * h), atol=1e-12)

    def test_non_diagonalizable(self):
        jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
        expected = np.exp(1.0) * np.array([[1.0, 1.0], [0.0, 1.0]])
        np.testing.assert_allclose(mat_exp(jordan), expected, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            mat_exp(np.array([[np.inf, 0], [0, 0]]))

    def test_overflow_reported(self):
        with pytest.raises(NumericalRangeError):
            mat_exp(np.diag([1000.0, 0.0]))

    @given(st.integers(0, 500))
    def test_inverse_property(self, seed):
        rng = np.random.default_rng(seed)
        m = random_matrix(rng, 4)
        m *= min(1.0, 10.0 / np.linalg.norm(m, 2))
        np.testing.assert_allclose(mat_exp(m) @ mat_exp(-m), np.eye(4), atol=1e-10)


def _exp_inputs(d=16):
    """Named unit-1-norm inputs: random complex, Jordan-like, Liouvillian, Van Loan block.

    The Jordan block (spread diagonal, unit superdiagonal) is conjugated by
    a random unitary: it stays non-normal, but is not triangular, for which
    scipy takes a separate route.
    """
    rng = np.random.default_rng(2005)
    gen, rho_a = generic_qq()
    jordan = np.diag(rng.normal(size=d)) + np.diag(np.ones(d - 1), 1)
    q = random_unitary(rng, d)
    p1, p2 = phi1_super(gen, rho_a).matrix, phi2_super(gen, rho_a).matrix
    inputs = {
        "random": random_matrix(rng, d),
        "jordan": q @ jordan @ q.conj().T,
        "liouvillian": gradual_reset_generator(gen, rho_a, 4.0).free_super.matrix,
        "van_loan": np.block([[p1, p2 - 0.5 * p1 @ p1], [np.zeros_like(p1), p1]]),
    }
    return {name: m / np.linalg.norm(m, 1) for name, m in inputs.items()}


def _rel_diff(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


# 1-norms on both sides of each Padé degree's theta_m, then two that need squaring
_EXP_NORMS = [f * theta for theta, _ in _PADE for f in (0.99, 1.01)]
_EXP_NORMS += [0.99 * _THETA_13, 1.01 * _THETA_13, 50.0, 600.0]


class TestMatExpAgainstScipy:
    @pytest.mark.parametrize("name", ["random", "jordan", "liouvillian", "van_loan"])
    @pytest.mark.parametrize("norm", _EXP_NORMS)
    def test_matches_scipy(self, name, norm):
        from scipy.linalg import expm

        m = norm * _exp_inputs()[name]
        # the relative condition number of exp is at least the norm, so at
        # 600 neither routine is good to 1e-14 (against a 40-digit reference
        # this one errs by up to 3.4e-14 on these inputs, scipy by 3.8e-14);
        # the comparison there is at norm times unit roundoff
        tol = max(1e-14, norm * np.finfo(float).eps)
        assert _rel_diff(mat_exp(m), expm(m)) <= tol

    def test_stack_matches_members_alone(self):
        inputs = _exp_inputs()
        stack = np.stack([
            0.01 * inputs["liouvillian"],
            0.5 * inputs["random"],
            3.0 * inputs["jordan"],
            50.0 * inputs["liouvillian"],
        ])
        got = mat_exp(stack)
        assert got.shape == stack.shape
        for member, out in zip(stack, got):
            assert _rel_diff(out, mat_exp(member)) <= 1e-14

    def test_rejects_a_non_finite_member(self):
        stack = np.zeros((3, 4, 4), dtype=complex)
        stack[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite input"):
            mat_exp(stack)

    def test_rejects_a_member_over_the_limit(self):
        stack = np.zeros((3, 4, 4), dtype=complex)
        stack[2, 0, 0] = 1.01 * _EXP_NORM_LIMIT
        with pytest.raises(NumericalRangeError, match="exceeds exp range"):
            mat_exp(stack)


class TestTraceNorm:
    def test_identity(self):
        assert trace_norm(np.eye(5)) == pytest.approx(5.0)

    def test_sigma_x(self):
        assert trace_norm(SX) == pytest.approx(2.0)

    def test_matches_singular_value_oracle(self, rng):
        m = random_matrix(rng, 5)
        expected = np.sum(np.sqrt(np.linalg.eigvalsh(m.conj().T @ m).clip(min=0)))
        assert trace_norm(m) == pytest.approx(expected, abs=1e-10)

    @given(st.integers(0, 500))
    def test_unitarily_invariant(self, seed):
        rng = np.random.default_rng(seed)
        m = random_matrix(rng, 4)
        u, v = random_unitary(rng, 4), random_unitary(rng, 4)
        assert trace_norm(u @ m @ v) == pytest.approx(trace_norm(m), abs=1e-10)


class TestFidelityPure:
    def test_same_pure_state(self, rng):
        psi = random_pure(rng, 4)
        rho = DensityMatrix.pure(psi)
        assert fidelity_pure(rho, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        rho = DensityMatrix.pure(np.array([1.0, 0.0]))
        assert fidelity_pure(rho, np.array([0.0, 1.0])) == 0.0

    def test_maximally_mixed(self, rng):
        rho = DensityMatrix.from_matrix(I2 / 2)
        psi = random_pure(rng, 2)
        assert fidelity_pure(rho, psi) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_dimension_mismatch(self):
        rho = DensityMatrix.from_matrix(I2 / 2)
        with pytest.raises(ValueError):
            fidelity_pure(rho, np.ones(3) / np.sqrt(3))

    def test_unnormalized_reference(self):
        rho = DensityMatrix.from_matrix(I2 / 2)
        with pytest.raises(ValueError):
            fidelity_pure(rho, np.array([2.0, 0.0]))


class TestHamSuper:
    def test_zero_hamiltonian(self):
        s = ham_super(op(np.zeros((2, 2))))
        np.testing.assert_array_equal(s.matrix, np.zeros((4, 4)))

    def test_action_matches_commutator(self, rng):
        h = random_hermitian(rng, 3)
        rho = random_density(rng, 3)
        got = ham_super(op(h)).apply(rho)
        np.testing.assert_allclose(got, -1j * (h @ rho - rho @ h), atol=1e-13)

    def test_spectrum_is_bohr_frequencies(self, rng):
        # eigenvalues are -i (E_j - E_k): purely imaginary, sort by imag part
        h = random_hermitian(rng, 4)
        energies = np.linalg.eigh(h)[0]
        expected = sorted((-1j * (ej - ek) for ej in energies for ek in energies), key=lambda z: z.imag)
        got = sorted(np.linalg.eigvals(ham_super(op(h)).matrix), key=lambda z: z.imag)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(ValueError):
            ham_super(op(random_matrix(rng, 2)))

    def test_exponential_is_unitary_conjugation(self, rng):
        h = random_hermitian(rng, 3)
        rho = random_density(rng, 3)
        t = 0.37
        u = mat_exp(-1j * h * t)
        via_super = unvec(mat_exp(ham_super(op(h)).matrix * t) @ vec(rho), 3)
        np.testing.assert_allclose(via_super, u @ rho @ u.conj().T, atol=1e-10)


class TestDissipatorSuper:
    def test_zero_jump(self):
        np.testing.assert_array_equal(
            dissipator_super(op(np.zeros((2, 2)))).matrix, np.zeros((4, 4))
        )

    def test_decay_structure(self):
        sigma_minus = np.array([[0, 1], [0, 0]], dtype=complex)
        excited = np.diag([0.0, 1.0]).astype(complex)
        out = dissipator_super(op(sigma_minus)).apply(excited)
        np.testing.assert_allclose(out, np.diag([1.0, -1.0]), atol=1e-14)

    @given(st.integers(0, 500))
    def test_trace_annihilating(self, seed):
        rng = np.random.default_rng(seed)
        l = random_matrix(rng, 3)
        rho = random_density(rng, 3)
        assert abs(np.trace(dissipator_super(op(l)).apply(rho))) <= 1e-12

    def test_hermitian_input_gives_traceless_hermitian(self, rng):
        l = random_matrix(rng, 4)
        h = random_hermitian(rng, 4)
        out = dissipator_super(op(l)).apply(h)
        assert abs(np.trace(out)) <= 1e-12
        np.testing.assert_allclose(out, out.conj().T, atol=1e-12)


class TestChoi:
    def test_identity_map(self):
        d = 3
        s = SuperOperator.identity(HilbertSpace((d,)))
        choi = choi_matrix(s)
        omega = np.zeros(d * d, dtype=complex)
        for i in range(d):
            omega[i * d + i] = 1.0
        np.testing.assert_allclose(choi, np.outer(omega, omega.conj()), atol=1e-14)
        assert is_cptp(s)

    def test_unitary_channel_is_cptp(self, rng):
        h = random_hermitian(rng, 3)
        s = SuperOperator(mat_exp(ham_super(op(h)).matrix * 0.9), HilbertSpace((3,)))
        assert is_cptp(s)

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_definition(self, rng, d):
        # a random complex map preserves no Hermiticity, so every index
        # permutation of the Choi matrix differs from it
        s = SuperOperator(random_matrix(rng, d * d), HilbertSpace((d,)))
        expected = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                e = np.zeros((d, d), dtype=complex)
                e[i, j] = 1.0
                expected += np.kron(e, unvec(s.matrix @ vec(e), d))
        np.testing.assert_array_equal(choi_matrix(s), expected)

    def test_transpose_map_not_cp(self):
        d = 2
        cols = [vec(unvec(e, d).T) for e in np.eye(d * d, dtype=complex)]
        transpose = SuperOperator(np.array(cols).T, HilbertSpace((d,)))
        eigs = np.linalg.eigvalsh(choi_matrix(transpose))
        assert eigs.min() == pytest.approx(-1.0, abs=1e-12)
        assert not is_cptp(transpose)

    def test_trace_preservation_detects_violation(self):
        s = SuperOperator(0.9 * np.eye(4, dtype=complex), HilbertSpace((2,)))
        assert not is_cptp(s)


class TestVecConvention:
    def test_column_stacking(self):
        m = np.array([[1, 2], [3, 4]], dtype=complex)
        np.testing.assert_array_equal(vec(m), [1, 3, 2, 4])
        np.testing.assert_array_equal(unvec(vec(m), 2), m)

    def test_vec_abc_identity(self, rng):
        a, b, c = (random_matrix(rng, 3) for _ in range(3))
        np.testing.assert_allclose(
            vec(a @ b @ c), np.kron(c.T, a) @ vec(b), atol=1e-12
        )


class TestDensityMatrix:
    def test_valid_state_passes(self, rng):
        DensityMatrix.from_matrix(random_density(rng, 3))

    def test_rejects_non_hermitian(self, rng):
        m = random_density(rng, 2)
        m[0, 1] += 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix.from_matrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix.from_matrix(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix.from_matrix(np.diag([1.2, -0.2]))

    def test_unchecked_path_skips_validation(self):
        DensityMatrix(op(np.diag([1.2, -0.2])), validate=False)

    def test_tolerance_override(self):
        m = np.diag([1.0, -5e-9])
        with pytest.raises(ValueError):
            DensityMatrix.from_matrix(m)
        DensityMatrix.from_matrix(m, tol_trace=1e-7)

    @pytest.mark.parametrize("d", [2, 30])
    @pytest.mark.parametrize("tol_psd", [1e-8, 1e-7])
    def test_positivity_boundary(self, rng, d, tol_psd):
        # unit trace, Hermitian, smallest eigenvalue on either side of -tol_psd
        v = random_unitary(rng, d)

        def state(min_eig):
            p = np.full(d, (1.0 - min_eig) / (d - 1))
            p[0] = min_eig
            m = (v * p) @ v.conj().T
            return 0.5 * (m + m.conj().T)

        with pytest.raises(ValueError, match="minimum eigenvalue"):
            DensityMatrix.from_matrix(state(-2.0 * tol_psd), tol_psd=tol_psd)
        DensityMatrix.from_matrix(state(-0.5 * tol_psd), tol_psd=tol_psd)

    def test_purity(self, rng):
        psi = random_pure(rng, 3)
        assert DensityMatrix.pure(psi).purity() == pytest.approx(1.0)


class TestOperator:
    def test_space_mismatch(self):
        with pytest.raises(ValueError):
            Operator(np.eye(3), HilbertSpace((2,)))

    def test_non_square(self):
        with pytest.raises(ValueError):
            Operator.from_matrix(np.ones((2, 3)))

    def test_matrices_are_read_only(self, rng):
        o = op(random_matrix(rng, 2))
        with pytest.raises(ValueError):
            o.matrix[0, 0] = 1.0


def test_partial_trace_matrix_choi_marginal(rng):
    # tracing the output factor of a TP map's Choi matrix gives the identity
    h = random_hermitian(rng, 2)
    s = SuperOperator(mat_exp(ham_super(op(h)).matrix), HilbertSpace((2,)))
    reduced = partial_trace_matrix(choi_matrix(s), (2, 2), keep=0)
    np.testing.assert_allclose(reduced, I2, atol=1e-10)


def _random_stack(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestStacks:
    """vec, unvec, _hstack and partial_trace_matrix act on the last two axes
    of a stack exactly as on each matrix of it."""

    def test_vec_unvec(self, rng):
        stack = _random_stack(rng, (3, 4, 5, 5))
        vecs = vec(stack)
        assert vecs.shape == (3, 4, 25)
        back = unvec(vecs, 5)
        for i in range(3):
            for j in range(4):
                assert np.array_equal(vecs[i, j], vec(stack[i, j]))
                assert np.array_equal(back[i, j], unvec(vecs[i, j], 5))
        assert np.array_equal(back, stack)

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_hstack(self, rng, n):
        stack = _random_stack(rng, (2, 4, n * 3, 3))
        out = _hstack(stack)
        assert out.shape == (2, 4, 3, n * 3)
        for i in range(2):
            for j in range(4):
                assert np.array_equal(out[i, j], _hstack(stack[i, j]))

    def test_hstack_lays_blocks_side_by_side(self, rng):
        a, b = _random_stack(rng, (2, 3, 3))
        assert np.array_equal(_hstack(np.vstack([a, b])), np.hstack([a, b]))

    @pytest.mark.parametrize("dims", [(3, 2), (2, 5), (2, 3, 2)])
    def test_partial_trace_matrix(self, rng, dims):
        d = int(np.prod(dims))
        stack = _random_stack(rng, (2, 3, d, d))
        for keep in range(len(dims)):
            out = partial_trace_matrix(stack, dims, keep)
            assert out.shape == (2, 3, dims[keep], dims[keep])
            for i in range(2):
                for j in range(3):
                    assert np.array_equal(out[i, j], partial_trace_matrix(stack[i, j], dims, keep))


class TestSuperMatrix:
    """_super_matrix reads a map's column-stacking matrix back exactly."""

    @staticmethod
    def _dense_map(s, d):
        # the map of a stack of superoperators s (..., d^2, d^2), prepending their axes
        return lambda m: unvec((s[..., None, :, :] @ vec(m)[..., None])[..., 0], d)

    def test_returns_a_dense_superoperator(self, rng):
        s = random_matrix(rng, 9)
        got = _super_matrix(self._dense_map(s, 3), 3)
        assert got.flags.c_contiguous
        assert np.array_equal(got, s)

    def test_passes_a_stack_axis_through(self, rng):
        s = _random_stack(rng, (2, 9, 9))
        got = _super_matrix(self._dense_map(s, 3), 3)
        assert got.shape == (2, 9, 9) and got.flags.c_contiguous
        assert np.array_equal(got, s)


class TestDensityStackCheck:
    TOLS = (TOL_HERM, TOL_TRACE, TOL_PSD)

    @staticmethod
    def _bad(kind, rng):
        m = random_density(rng, 3)
        if kind == "hermitian":
            m[0, 1] += 0.1
        elif kind == "trace":
            m = 1.5 * m
        else:
            m = np.diag([1.2, -0.2, 0.0]).astype(complex)
        return m

    def test_valid_stack_passes(self, rng):
        _check_density(np.array([random_density(rng, 3) for _ in range(5)]), *self.TOLS)

    @pytest.mark.parametrize("kind", ["hermitian", "trace", "positivity"])
    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_one_bad_member_raises_its_own_message(self, rng, kind, position):
        stack = np.array([random_density(rng, 3) for _ in range(5)])
        stack[position] = self._bad(kind, rng)
        with pytest.raises(ValueError) as single:
            DensityMatrix.from_matrix(stack[position])
        with pytest.raises(ValueError) as stacked:
            _check_density(stack, *self.TOLS)
        assert str(stacked.value) == str(single.value)

    def test_first_failing_member_is_named(self, rng):
        stack = np.array([random_density(rng, 3) for _ in range(4)])
        stack[1] *= 1.5
        stack[3] *= 2.0
        with pytest.raises(ValueError) as single:
            DensityMatrix.from_matrix(stack[1])
        with pytest.raises(ValueError, match=re.escape(str(single.value))):
            _check_density(stack, *self.TOLS)


def test_expm_hermitian_takes_a_stack(rng):
    hs = np.array([random_hermitian(rng, 5) for _ in range(3)])
    got = expm_hermitian(hs, -0.7j)
    assert got.shape == (3, 5, 5)
    for g, h in zip(got, hs):
        assert np.max(np.abs(g - expm_hermitian(h, -0.7j))) <= 1e-14


class TestNonFiniteStates:
    TOLS = (TOL_HERM, TOL_TRACE, TOL_PSD)

    @pytest.mark.parametrize(
        "m",
        [
            np.full((2, 2), np.nan, dtype=complex),
            np.array([[0.5, 0.0], [0.0, np.nan]], dtype=complex),
            np.array([[0.5, np.inf], [0.0, 0.5]], dtype=complex),
            np.array([[np.inf, 0.0], [0.0, 0.5]], dtype=complex),
        ],
        ids=["all_nan", "nan_diagonal", "inf_off_diagonal", "inf_diagonal"],
    )
    def test_raises_before_any_other_check(self, m):
        # warnings are errors in this suite, so an inf that reached the
        # hermiticity check would fail with a RuntimeWarning instead
        with pytest.raises(ValueError, match="^not finite: member 0 has entry"):
            _check_density(m[None], *self.TOLS)

    def test_first_bad_member_is_named(self, rng):
        stack = np.array([random_density(rng, 3) for _ in range(4)])
        stack[2, 1, 1] = np.nan
        stack[3, 0, 0] = np.inf
        with pytest.raises(ValueError, match=r"^not finite: member 2 has entry \(?nan"):
            _check_density(stack, *self.TOLS)

    def test_density_matrix_validation_rejects_them(self):
        with pytest.raises(ValueError, match="not finite"):
            DensityMatrix.from_matrix([[0.5, 0.0], [0.0, np.nan]])
        with pytest.raises(ValueError, match="not finite"):
            DensityMatrix.from_matrix([[np.inf, 0.0], [0.0, 0.5]])


class TestStackedFidelity:
    def test_each_member_is_fidelity_pure(self, rng):
        from resetctrl.qcore import _fidelities_pure

        rhos = np.array([random_density(rng, 4) for _ in range(6)])
        psis = np.array([random_pure(rng, 4) for _ in range(6)])
        got = _fidelities_pure(rhos, psis)
        want = [fidelity_pure(DensityMatrix.from_matrix(r), p) for r, p in zip(rhos, psis)]
        assert got.shape == (6,)
        np.testing.assert_array_equal(got, want)

    def test_checks_every_reference(self, rng):
        from resetctrl.qcore import _fidelities_pure

        rhos = np.array([random_density(rng, 2) for _ in range(3)])
        psis = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="reference vector norm 2 is not 1"):
            _fidelities_pure(rhos, psis)
        with pytest.raises(ValueError, match="state vector length 3 != state dimension 2"):
            _fidelities_pure(rhos, np.ones((3, 3)) / np.sqrt(3))

    def test_clipped_to_the_unit_interval(self):
        from resetctrl.qcore import _fidelities_pure

        # not states: overlaps of -0.5 and 1.5 clip to 0 and 1
        rhos = np.array([np.diag([-0.5, 1.5]), np.diag([1.5, -0.5])]).astype(complex)
        psi = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
        np.testing.assert_array_equal(_fidelities_pure(rhos, psi), [0.0, 1.0])

    def test_purities_match_the_single_state_rule(self, rng):
        from resetctrl.qcore import _purities

        rhos = np.array([random_density(rng, 5) for _ in range(4)])
        for got, rho in zip(_purities(rhos), rhos):
            assert got == pytest.approx(np.trace(rho @ rho).real, abs=1e-15)
