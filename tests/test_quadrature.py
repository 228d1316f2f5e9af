import numpy as np
import pytest

from resetctrl import quadrature
from resetctrl.qcore import ConvergenceError
from resetctrl.quadrature import _refine_doubling, integrate_operator, integrate_scalar


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


def test_start_above_cap_is_non_convergence(monkeypatch):
    monkeypatch.setattr(quadrature, "START_NODES", 16)
    monkeypatch.setattr(quadrature, "SCALAR_NODE_CAP", 8)
    monkeypatch.setattr(quadrature, "OPERATOR_NODE_CAP", 8)
    with pytest.raises(ConvergenceError):
        integrate_scalar(np.cos)
    with pytest.raises(ConvergenceError):
        integrate_operator(lambda z: z * np.eye(2))


def test_no_node_count_above_cap(monkeypatch):
    monkeypatch.setattr(quadrature, "SCALAR_NODE_CAP", 16)
    nodes = []

    def f(z):
        nodes.append(z)
        return np.sin(200.0 * z)  # far from resolved by 16 nodes

    with pytest.raises(ConvergenceError):
        integrate_scalar(f)
    assert len(nodes) == 8 + 16


def _scripted_ladder(resids):
    """A ladder whose level 2^(k+1) has residual ``resids[k]`` against the level before."""
    return (lambda s: s), (lambda cur, prev: resids[cur.bit_length() - 2])


def _accept(resids, tol, order):
    run, distance = _scripted_ladder(resids)
    _, s, _, _, rule = _refine_doubling(run, distance, 1, tol, 2 ** len(resids), "ladder", order)
    return s, rule


@pytest.mark.parametrize("order", [4, 6])
@pytest.mark.parametrize("shift", [-2, -1, 0, 1, 2])
def test_estimate_needs_the_ratio_in_the_band(order, shift):
    # residuals fall by 2^(p + shift) per doubling, and tol sits between
    # r(16) / (2^(p-1) - 1) and r(16): a ratio in the closed band
    # [2^(p-1), 2^(p+1)] accepts level 16 on the estimate, one level
    # before agreement; one outside it waits for agreement
    resids = [2.0 ** (-(order + shift) * k) for k in range(10)]
    tol = resids[3] / 2
    assert _accept(resids, tol, None) == (32, "agreement")
    expected = (16, "estimate") if abs(shift) <= 1 else (32, "agreement")
    assert _accept(resids, tol, order) == expected


@pytest.mark.parametrize("order", [4, 6])
def test_order_never_accepts_a_later_level(order):
    rng = np.random.default_rng(17)
    for _ in range(500):
        # log2 ratios from below the band to above it, occasionally rising
        resids = list(np.cumprod(2.0 ** -rng.uniform(-1.0, order + 3.0, size=12)))
        tol = 10.0 ** rng.uniform(-12.0, -1.0)
        try:
            plain, _ = _accept(resids, tol, None)
        except ConvergenceError:
            continue
        s, rule = _accept(resids, tol, order)
        assert s <= plain
        if rule == "agreement":
            assert s == plain
        else:
            assert resids[s.bit_length() - 2] < (2.0 ** (order - 1) - 1.0) * tol

