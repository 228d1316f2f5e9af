"""Experiment runners with deterministic CSV and metadata emission.

Each experiment kind writes ``<kind>.csv`` plus a ``<kind>.meta.json``
sidecar holding the config hash, tool version, and convergence
diagnostics. Identical configs produce byte-identical files: no wall
clock, no unseeded randomness.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    chernoff_deviation,
    default_probes,
    dissipative_scaling,
    fit_order,
    gradual_reset_scan,
    lie_algebra_dimension,
    measured_stroboscopic_deviation,
    stroboscopic_bound_check,
    stroboscopic_deviation,
    braced_switching_term,
)
from .config import ConfigError, ExperimentConfig
from .dynamics import ResetSchedule, evolve_with_resets
from .generators import effective_hamiltonian
from .models import SIGMA_X, SIGMA_Y, SIGMA_Z, number_operator, quadrature_p, quadrature_x
from .qcore import fidelity_pure, trace_norm

EXPERIMENT_KINDS = (
    "effective",
    "simulate",
    "fig1",
    "chernoff",
    "dissipative",
    "strobe",
    "gradual",
    "lie",
)
# analysis kinds default to the small qubit-qubit reduction
QUBIT_DEFAULT_KINDS = frozenset({"chernoff", "dissipative", "strobe", "gradual", "lie"})


class InvariantViolationError(RuntimeError):
    """A run-level invariant (e.g. the Fock-cutoff population flag) tripped."""


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _write_metadata(path: Path, payload: dict):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")


def _base_metadata(cfg: ExperimentConfig, kind: str, gen) -> dict:
    return {
        "kind": kind,
        "config_hash": cfg.config_hash(),
        "version": __version__,
        "warnings": gen.validity_report(),
    }


def _effective_evolver(h_eff: np.ndarray):
    energies, vecs = np.linalg.eigh(h_eff)

    def evolve(t: float, psi0: np.ndarray) -> np.ndarray:
        return (vecs * np.exp(-1j * energies * t)) @ (vecs.conj().T @ psi0)

    return evolve


def _require_pure(psi0, kind: str):
    if psi0 is None:
        raise ConfigError(f"{kind} needs a pure initial system state (coherent or fock)")


def _require_grid(values, minimum: int, field: str):
    if len(values) < minimum or any(v <= 0 for v in values) or len(set(values)) < len(values):
        raise ConfigError(f"{field}: need at least {minimum} distinct positive entries")


# ---------------------------------------------------------------------------
# individual experiment kinds


def _run_effective(cfg, out_dir, quiet):
    _, gen = cfg.model.build()
    rho_a = cfg.states.build_rho_a()
    h_eff = effective_hamiltonian(gen, rho_a).matrix
    rows = [
        (i, j, h_eff[i, j].real, h_eff[i, j].imag)
        for i in range(h_eff.shape[0])
        for j in range(h_eff.shape[1])
    ]
    _write_csv(out_dir / "effective.csv", ("row", "col", "real", "imag"), rows)
    meta = _base_metadata(cfg, "effective", gen)
    meta["dimension"] = h_eff.shape[0]
    _write_metadata(out_dir / "effective.meta.json", meta)
    if not quiet:
        with np.printoptions(precision=6, suppress=True, linewidth=120):
            print("effective Hamiltonian:")
            print(h_eff)
    return 0


def _oscillator_observables(cutoff: int):
    return (
        ("n_mean", number_operator(cutoff)),
        ("x_mean", quadrature_x(cutoff)),
        ("p_mean", quadrature_p(cutoff)),
    )


_QUBIT_OBSERVABLES = (("sx", SIGMA_X), ("sy", SIGMA_Y), ("sz", SIGMA_Z))


def _run_simulate(cfg, out_dir, quiet):
    model, gen = cfg.model.build()
    rho_a = cfg.states.build_rho_a()
    psi0, rho0 = cfg.states.build_initial(model.cutoff)
    f = cfg.schedule.f_list[0]
    n, t_snap = cfg.schedule.snapped_cycles(f)
    schedule = ResetSchedule.uniform(n, t_snap)
    is_oscillator = cfg.model.kind == "oscillator_qubit"
    traj = evolve_with_resets(
        gen,
        rho0,
        rho_a,
        schedule,
        step_tol=cfg.tolerances.step_tol,
        samples_per_cycle=cfg.schedule.samples_per_cycle,
        monitor_top_levels=2 if is_oscillator else None,
    )
    observables = (
        _oscillator_observables(model.cutoff) if is_oscillator else _QUBIT_OBSERVABLES
    )
    evolve_eff = None
    if psi0 is not None:
        evolve_eff = _effective_evolver(effective_hamiltonian(gen, rho_a).matrix)

    header = ("t", "fidelity_eff", "purity") + tuple(name for name, _ in observables)
    rows = []
    for t, state in zip(traj.times, traj.states):
        fid = float("nan")
        if evolve_eff is not None:
            fid = fidelity_pure(state, evolve_eff(t, psi0))
        expectations = [
            float(np.real(np.trace(obs @ state.matrix))) for _, obs in observables
        ]
        rows.append((t, fid, state.purity(), *expectations))
    _write_csv(out_dir / "simulate.csv", header, rows)

    meta = _base_metadata(cfg, "simulate", gen)
    meta["f"] = f
    meta["cycles"] = n
    meta["snapped_time"] = t_snap
    meta["trajectory"] = traj.metadata
    _write_metadata(out_dir / "simulate.meta.json", meta)
    if traj.metadata.get("cutoff_flag"):
        raise InvariantViolationError(
            f"top-two-level population {traj.metadata['top_level_max']:.3e} exceeds limit"
        )
    return 0


def _run_fig1(cfg, out_dir, quiet):
    model, gen = cfg.model.build()
    rho_a = cfg.states.build_rho_a()
    psi0, rho0 = cfg.states.build_initial(model.cutoff)
    _require_pure(psi0, "fig1")
    evolve_eff = _effective_evolver(effective_hamiltonian(gen, rho_a).matrix)
    is_oscillator = cfg.model.kind == "oscillator_qubit"

    rows = []
    per_f_meta = {}
    flagged = False
    for f in cfg.schedule.f_list:
        n, t_snap = cfg.schedule.snapped_cycles(f)
        schedule = ResetSchedule.uniform(n, t_snap)
        traj = evolve_with_resets(
            gen,
            rho0,
            rho_a,
            schedule,
            step_tol=cfg.tolerances.step_tol,
            samples_per_cycle=cfg.schedule.samples_per_cycle,
            monitor_top_levels=2 if is_oscillator else None,
        )
        for t, state in zip(traj.times, traj.states):
            rows.append((t, f, fidelity_pure(state, evolve_eff(t, psi0))))
        per_f_meta[str(f)] = {
            "cycles": n,
            "snapped_time": t_snap,
            "requested_time": cfg.schedule.total_time,
            **traj.metadata,
        }
        flagged = flagged or bool(traj.metadata.get("cutoff_flag"))
        if not quiet:
            print(f"fig1: f={f} done ({n} cycles)")

    _write_csv(out_dir / "fig1.csv", ("t", "f", "fidelity"), rows)
    meta = _base_metadata(cfg, "fig1", gen)
    meta["per_f"] = per_f_meta
    _write_metadata(out_dir / "fig1.meta.json", meta)
    if flagged:
        raise InvariantViolationError("Fock-cutoff population flag tripped; raise the cutoff")
    return 0


def _run_chernoff(cfg, out_dir, quiet):
    _, gen = cfg.model.build()
    rho_a = cfg.states.build_rho_a()
    ns = sorted(cfg.experiment.chernoff_ns)
    t = cfg.experiment.chernoff_time
    _require_grid(ns, 3, "experiment.chernoff_ns")
    if t <= 0:
        raise ConfigError("experiment.chernoff_time: must be positive")
    probes = default_probes(gen.space_S.total_dim)
    devs = [
        chernoff_deviation(gen, rho_a, t, n, probes=probes, map_tol=cfg.tolerances.map_tol)
        for n in ns
    ]
    report = fit_order(ns, devs)
    rows = [(n, dev) for n, dev in zip(ns, devs)]
    rows.append(("fitted_order", report.fitted_order))
    _write_csv(out_dir / "chernoff.csv", ("n", "deviation"), rows)
    meta = _base_metadata(cfg, "chernoff", gen)
    meta["time"] = t
    meta["map_tol"] = cfg.tolerances.map_tol
    meta["probe_count"] = len(probes)
    meta["fitted_order"] = report.fitted_order
    meta["r_squared"] = report.r_squared
    meta["exact"] = report.exact
    _write_metadata(out_dir / "chernoff.meta.json", meta)
    if not quiet:
        print(f"chernoff: fitted order {report.fitted_order}")
    return 0


def _run_dissipative(cfg, out_dir, quiet):
    model, gen = cfg.model.build()
    rho_a = cfg.states.build_rho_a()
    psi0, _ = cfg.states.build_initial(model.cutoff)
    _require_pure(psi0, "dissipative")
    _require_grid(cfg.schedule.f_list, 3, "schedule.f_list")
    _require_grid(cfg.experiment.dissipative_times, 2, "experiment.dissipative_times")
    result = dissipative_scaling(
        gen,
        rho_a,
        psi0,
        cfg.schedule.f_list,
        cfg.experiment.dissipative_times,
        step_tol=cfg.tolerances.step_tol,
    )
    rows = [
        (scan.f, t, dev)
        for scan in result.scans
        for t, dev in zip(scan.times, scan.deviations)
    ]
    _write_csv(out_dir / "dissipative.csv", ("f", "t", "deviation"), rows)
    meta = _base_metadata(cfg, "dissipative", gen)
    meta["per_f"] = {
        str(scan.f): {"slope": scan.fit.slope, "r_squared": scan.fit.r_squared}
        for scan in result.scans
    }
    meta["slope_order"] = result.freq_report.fitted_order
    meta["slope_order_r_squared"] = result.freq_report.r_squared
    meta["exact"] = result.freq_report.exact
    _write_metadata(out_dir / "dissipative.meta.json", meta)
    if not quiet:
        print(f"dissipative: slope-vs-f order {result.freq_report.fitted_order}")
    return 0


def _run_strobe(cfg, out_dir, quiet):
    model, gen = cfg.model.build()
    rho_a = cfg.states.build_rho_a()
    _, rho0 = cfg.states.build_initial(model.cutoff)
    _require_grid(cfg.experiment.strobe_dts, 1, "experiment.strobe_dts")
    fracs = cfg.experiment.strobe_tau_fractions
    if not fracs or any(not 0.0 < f <= 1.0 for f in fracs):
        raise ConfigError("experiment.strobe_tau_fractions: entries must lie in (0, 1]")
    rows = []
    for dt in cfg.experiment.strobe_dts:
        for frac in cfg.experiment.strobe_tau_fractions:
            tau = frac * dt
            braced = braced_switching_term(gen.g, tau, dt)
            bound = 2.0 * gen.g.g_max * (dt - tau) / tau
            ok = stroboscopic_bound_check(gen.g, tau, dt)
            predicted = stroboscopic_deviation(gen, rho_a, rho0, tau, dt).matrix
            measured = measured_stroboscopic_deviation(gen, rho_a, rho0, tau, dt).matrix
            rows.append(
                (
                    dt,
                    tau,
                    braced,
                    bound,
                    ok,
                    trace_norm(predicted),
                    trace_norm(measured),
                    trace_norm(measured - predicted),
                )
            )
    header = (
        "dt",
        "tau",
        "braced",
        "bound",
        "bound_ok",
        "deviation",
        "measured",
        "residual",
    )
    _write_csv(out_dir / "strobe.csv", header, rows)
    meta = _base_metadata(cfg, "strobe", gen)
    meta["all_bounds_hold"] = all(bool(r[4]) for r in rows)
    _write_metadata(out_dir / "strobe.meta.json", meta)
    return 0


def _run_gradual(cfg, out_dir, quiet):
    model, gen = cfg.model.build()
    rho_a = cfg.states.build_rho_a()
    _, rho0 = cfg.states.build_initial(model.cutoff)
    kappas = cfg.experiment.gradual_kappas
    _require_grid(kappas, 2, "experiment.gradual_kappas")
    if cfg.experiment.gradual_time <= 0:
        raise ConfigError("experiment.gradual_time: must be positive")
    devs = gradual_reset_scan(gen, rho_a, rho0, kappas, cfg.experiment.gradual_time)
    _write_csv(out_dir / "gradual.csv", ("kappa", "deviation"), list(zip(kappas, devs)))
    meta = _base_metadata(cfg, "gradual", gen)
    meta["time"] = cfg.experiment.gradual_time
    meta["monotone_decreasing"] = all(b <= a for a, b in zip(devs, devs[1:]))
    _write_metadata(out_dir / "gradual.meta.json", meta)
    if not quiet:
        print(f"gradual: deviations {[float(f'{d:.3e}') for d in devs]}")
    return 0


_NAMED_GENERATORS = {"sigma_x": SIGMA_X, "sigma_y": SIGMA_Y, "sigma_z": SIGMA_Z}


def _parse_generator(name: str) -> np.ndarray:
    total = None
    for token in name.split("+"):
        token = token.strip()
        if token not in _NAMED_GENERATORS:
            raise ConfigError(
                f"experiment.lie_generators: unknown generator {token!r}; "
                f"allowed: {sorted(_NAMED_GENERATORS)} joined with '+'"
            )
        term = _NAMED_GENERATORS[token]
        total = term if total is None else total + term
    if total is None:
        raise ConfigError("experiment.lie_generators: empty generator name")
    return total


def _run_lie(cfg, out_dir, quiet):
    _, gen = cfg.model.build()
    names = cfg.experiment.lie_generators
    mats = [_parse_generator(name) for name in names]
    dim = lie_algebra_dimension(mats)
    _write_csv(out_dir / "lie.csv", ("generators", "dimension"), [("|".join(names), dim)])
    meta = _base_metadata(cfg, "lie", gen)
    meta["generators"] = list(names)
    meta["dimension"] = dim
    _write_metadata(out_dir / "lie.meta.json", meta)
    if not quiet:
        print(f"lie: algebra dimension {dim}")
    return 0


_RUNNERS = {
    "effective": _run_effective,
    "simulate": _run_simulate,
    "fig1": _run_fig1,
    "chernoff": _run_chernoff,
    "dissipative": _run_dissipative,
    "strobe": _run_strobe,
    "gradual": _run_gradual,
    "lie": _run_lie,
}


def run_experiment(cfg: ExperimentConfig, kind: str, out_dir, quiet: bool = False) -> int:
    """Run one experiment kind, writing CSV and metadata into out_dir."""
    if kind not in _RUNNERS:
        raise ConfigError(f"unknown experiment kind {kind!r}; choose from {EXPERIMENT_KINDS}")
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[kind](cfg, out_path, quiet)
