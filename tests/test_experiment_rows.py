"""simulate and fig1 reduce each block of the reset stream with stacked rules.

Their columns must equal the single-state rules (``fidelity_pure``,
``DensityMatrix.purity``, tr(O rho)) applied to every state of the same
trajectory from ``evolve_with_resets``.
"""

import csv

import numpy as np
import pytest

from resetctrl.analysis import _effective_evolver
from resetctrl.config import default_config, qubit_defaults
from resetctrl.dynamics import ResetSchedule, evolve_with_resets
from resetctrl.experiments import _QUBIT_OBSERVABLES, _oscillator_observables, run_experiment
from resetctrl.generators import effective_hamiltonian
from resetctrl.qcore import fidelity_pure

TOL = 1e-14


def _columns(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    return {name: np.array([float(r[name]) for r in rows]) for name in rows[0]}


def _recomputed(cfg, f):
    """Every state of the rate-f trajectory, with its per-state fidelity, purity and model."""
    model, gen = cfg.model.build()
    rho_a = cfg.states.build_rho_a()
    psi0, rho0 = cfg.states.build_initial(model.cutoff)
    n, t = cfg.schedule.snapped_cycles(f)
    traj = evolve_with_resets(
        gen,
        rho0,
        rho_a,
        ResetSchedule.uniform(n, t),
        step_tol=cfg.tolerances.step_tol,
        samples_per_cycle=cfg.schedule.samples_per_cycle,
        monitor_top_levels=2 if cfg.model.kind == "oscillator_qubit" else None,
    )
    refs = _effective_evolver(effective_hamiltonian(gen, rho_a).matrix, traj.times, psi0)
    fidelity = np.array([fidelity_pure(s, ref) for s, ref in zip(traj.states, refs)])
    purity = np.array([s.purity() for s in traj.states])
    return traj, fidelity, purity, model


@pytest.mark.parametrize("make_cfg", [default_config, qubit_defaults])
def test_simulate_columns_equal_the_per_state_rules(make_cfg, tmp_path):
    cfg = make_cfg()
    run_experiment(cfg, "simulate", tmp_path, quiet=True)
    got = _columns(tmp_path / "simulate.csv")
    traj, fidelity, purity, model = _recomputed(cfg, cfg.schedule.f_list[0])
    observables = _QUBIT_OBSERVABLES
    if cfg.model.kind == "oscillator_qubit":
        observables = _oscillator_observables(model.cutoff)
    assert np.array_equal(got["t"], traj.times)
    assert np.max(np.abs(got["fidelity_eff"] - fidelity)) <= TOL
    assert np.max(np.abs(got["purity"] - purity)) <= TOL
    for name, obs in observables:
        want = [np.real(np.trace(obs @ s.matrix)) for s in traj.states]
        assert np.max(np.abs(got[name] - want)) <= TOL


def test_fig1_columns_equal_the_per_state_rule(tmp_path):
    cfg = default_config()
    run_experiment(cfg, "fig1", tmp_path, quiet=True)
    got = _columns(tmp_path / "fig1.csv")
    for f in cfg.schedule.f_list:
        at = got["f"] == f
        traj, fidelity, _, _ = _recomputed(cfg, f)
        assert np.array_equal(got["t"][at], traj.times)
        assert np.max(np.abs(got["fidelity"][at] - fidelity)) <= TOL
