#!/usr/bin/env python3
"""Convergence-order study for the repeated-cycle product.

Prints the deviation of the n-cycle product from the effective
exponential along an n-doubling ladder, then the residual after
subtracting the first-order correction, with fitted log-log orders.
Demonstrates that the correction removes the leading 1/n term: exits 1
unless the raw order is -1 within ORDER_SLACK and the corrected order -2
within CORRECTED_ORDER_SLACK.
"""

import sys

from resetctrl import bloch_density, build_oscillator_qubit, qubit_qubit_model, sin_squared
from resetctrl.analysis import chernoff_deviation, default_probes, fit_order, omega1_super
from resetctrl.generators import phi1_super, phi2_super

# slack on the fitted log-log orders (the benchmark's gate uses the same)
ORDER_SLACK = 0.05
CORRECTED_ORDER_SLACK = 0.1


def main() -> int:
    gen = build_oscillator_qubit(qubit_qubit_model(1.0, 1.0, (1.0, 0.0, 0.0), sin_squared(2.0)))
    rho_a = bloch_density((0.6, 0.0, 0.5))
    t = 1.0
    ns = [16, 32, 64, 128, 256, 512]
    probes = default_probes(2)

    devs = [chernoff_deviation(gen, rho_a, t, n, probes=probes) for n in ns]
    omega1 = omega1_super(phi1_super(gen, rho_a), phi2_super(gen, rho_a), t)
    resids = [
        chernoff_deviation(gen, rho_a, t, n, probes=probes, first_order_correction=omega1)
        for n in ns
    ]

    print(f"{'n':>6} {'deviation':>14} {'after correction':>18}")
    for n, d, r in zip(ns, devs, resids):
        print(f"{n:>6} {d:>14.6e} {r:>18.6e}")
    raw = fit_order(ns, devs).fitted_order
    corrected = fit_order(ns, resids).fitted_order
    print(f"fitted order, raw:       {raw:+.3f}")
    print(f"fitted order, corrected: {corrected:+.3f}")
    if abs(raw + 1.0) <= ORDER_SLACK and abs(corrected + 2.0) <= CORRECTED_ORDER_SLACK:
        return 0
    print(
        f"expected orders -1 +- {ORDER_SLACK} (raw) and -2 +- {CORRECTED_ORDER_SLACK} (corrected)",
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
