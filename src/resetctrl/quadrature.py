"""Adaptive Gauss-Legendre quadrature with node doubling.

Piecewise-continuous integrands are handled by splitting the domain at
supplied breakpoints; within each smooth piece the node count doubles
until two successive refinements agree to tolerance. The doubling
ladder, ``_refine_doubling``, is also the one that refines the substep
count of every propagator in ``dynamics``; those pass the order of
their integrator, so that a level can also be accepted on its
Richardson error estimate.

The two public integrators have fixed tolerances and node ladders,
module constants read at call time: ``integrate_scalar`` refines to
absolute ``SCALAR_TOL`` and ``integrate_operator`` to relative
Frobenius ``OPERATOR_RTOL``, both from ``START_NODES`` Gauss-Legendre
nodes per piece up to ``SCALAR_NODE_CAP`` and ``OPERATOR_NODE_CAP``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .qcore import ConvergenceError

SCALAR_TOL = 1e-10
OPERATOR_RTOL = 1e-8
START_NODES = 8
SCALAR_NODE_CAP = 2 ** 13
OPERATOR_NODE_CAP = 2 ** 12


@lru_cache(maxsize=None)
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _segments(a: float, b: float, breakpoints: Sequence[float]) -> list[tuple[float, float]]:
    cuts = sorted({float(p) for p in breakpoints if a < p < b})
    edges = [a] + cuts + [b]
    return [(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]


def _fixed_quad(f: Callable[[float], object], lo: float, hi: float, n: int):
    x, w = _gl_nodes(n)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    total = None
    for xi, wi in zip(x, w):
        val = f(mid + half * xi)
        term = wi * np.asarray(val) if np.ndim(val) else wi * val
        total = term if total is None else total + term
    return half * total


def _refine_doubling(
    run: Callable[[int], object],
    distance: Callable[[object, object], float],
    start: int,
    tol: float | None,
    cap: int,
    what: str,
    order: int | None = None,
) -> tuple[object, int, float, list[tuple[int, float]], str | None]:
    """Double a resolution from ``start`` until the output is within ``tol``.

    Level s is accepted on agreement when the residual r(s) =
    ``distance(run(s), run(s / 2))`` is below ``tol``. A caller whose
    ``run`` converges at a known ``order`` p also accepts it on the
    Richardson estimate (Hairer, Norsett & Wanner, Solving ODEs I,
    section II.4): once the ratio r(s / 2) / r(s) of two successive
    residuals lies in [2^(p-1), 2^(p+1)], the error of level s is
    estimated as r(s) / (ratio - 1), at most r(s) / (2^(p-1) - 1) inside
    that band, and s is accepted when the latter is below ``tol``.
    The estimate only ever accepts a level earlier, never later.

    Returns the accepted output, its resolution, its residual r(s), the
    history of the ladder (one (resolution, residual) pair per level
    compared with the one before, ending with the accepted level) and
    the rule that accepted it, ``"agreement"`` or ``"estimate"``. No
    resolution above ``cap`` is run. ``tol=None`` fixes the resolution:
    ``run(start)`` is accepted as is, with residual 0, an empty history
    and no rule. A ladder that reaches the cap raises ConvergenceError
    carrying its history (``ladder``).
    """
    if tol is None:
        return run(start), start, 0.0, [], None
    s = max(1, start)
    resid = np.inf
    history = []
    if s <= cap:
        prev = run(s)
        while 2 * s <= cap:
            s *= 2
            cur = run(s)
            resid = distance(cur, prev)
            history.append((s, resid))
            if resid < tol:
                return cur, s, resid, history, "agreement"
            if order is not None and len(history) > 1:
                low = 2.0 ** (order - 1)
                in_band = low * resid <= history[-2][1] <= 4.0 * low * resid
                if in_band and resid < (low - 1.0) * tol:
                    return cur, s, resid, history, "estimate"
            prev = cur
    raise ConvergenceError(f"{what} did not converge by cap {cap}", resid, s, history)


def integrate_scalar(
    f: Callable[[float], float],
    a: float = 0.0,
    b: float = 1.0,
    *,
    breakpoints: Sequence[float] = (),
) -> float:
    """Integrate a piecewise-smooth scalar function to absolute ``SCALAR_TOL``."""
    if b <= a:
        return 0.0
    segs = _segments(a, b, breakpoints)
    value, *_ = _refine_doubling(
        lambda n: sum(_fixed_quad(f, lo, hi, n) for lo, hi in segs),
        lambda cur, prev: abs(cur - prev), START_NODES, SCALAR_TOL, SCALAR_NODE_CAP,
        "scalar quadrature",
    )
    return float(value)


def integrate_operator(
    f: Callable[[float], np.ndarray],
    a: float = 0.0,
    b: float = 1.0,
    *,
    breakpoints: Sequence[float] = (),
) -> np.ndarray:
    """Integrate a matrix-valued function to relative Frobenius ``OPERATOR_RTOL``."""
    if b <= a:
        raise ValueError("integrate_operator needs b > a")
    segs = _segments(a, b, breakpoints)

    def distance(cur: np.ndarray, prev: np.ndarray) -> float:
        scale = max(float(np.linalg.norm(cur)), 1e-300)
        return float(np.linalg.norm(cur - prev)) / scale

    value, *_ = _refine_doubling(
        lambda n: sum(_fixed_quad(f, lo, hi, n) for lo, hi in segs),
        distance, START_NODES, OPERATOR_RTOL, OPERATOR_NODE_CAP, "operator quadrature",
    )
    return value
