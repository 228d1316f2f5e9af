import numpy as np
import pytest

from resetctrl.analysis import omega1_super
from resetctrl.generators import phi1_super, phi2_super
from resetctrl.qcore import ConvergenceError
from resetctrl.quadrature import integrate_operator, integrate_scalar
from helpers import generic_qq


def test_polynomial():
    assert integrate_scalar(lambda z: 3 * z * z) == pytest.approx(1.0, abs=1e-12)


def test_oscillatory():
    assert integrate_scalar(lambda z: np.sin(11 * z)) == pytest.approx(
        (1 - np.cos(11.0)) / 11.0, abs=1e-11
    )


def test_breakpoint_splitting_handles_kink():
    f = lambda z: abs(z - 1 / 3)
    exact = (1 / 3) ** 2 / 2 + (2 / 3) ** 2 / 2
    assert integrate_scalar(f, breakpoints=(1 / 3,)) == pytest.approx(exact, abs=1e-12)


def test_subinterval():
    assert integrate_scalar(np.cos, 0.2, 1.4) == pytest.approx(
        np.sin(1.4) - np.sin(0.2), abs=1e-12
    )


def test_empty_interval():
    assert integrate_scalar(np.cos, 1.0, 1.0) == 0.0


def test_operator_valued(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3))
    got = integrate_operator(lambda z: a * np.exp(-z) + b * z)
    expected = a * (1 - np.exp(-1.0)) + b / 2
    np.testing.assert_allclose(got, expected, atol=1e-10)


def test_start_above_cap_is_non_convergence():
    with pytest.raises(ConvergenceError):
        integrate_scalar(np.cos, start_nodes=16, node_cap=8)
    with pytest.raises(ConvergenceError):
        integrate_operator(lambda z: z * np.eye(2), start_nodes=16, node_cap=8)


def test_omega1_start_above_cap_is_non_convergence():
    # the default node_cap of omega1_super is 4096
    gen, rho_a = generic_qq()
    with pytest.raises(ConvergenceError):
        omega1_super(phi1_super(gen, rho_a), phi2_super(gen, rho_a), 1.0, nodes=8192)


def test_no_node_count_above_cap():
    nodes = []

    def f(z):
        nodes.append(z)
        return np.sin(200.0 * z)  # far from resolved by 16 nodes

    with pytest.raises(ConvergenceError):
        integrate_scalar(f, node_cap=16)
    assert len(nodes) == 8 + 16
