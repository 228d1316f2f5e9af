"""Experiment kinds: one table of runners, one writer.

Each kind is one row of ``KINDS``: a runner that only computes, its CLI
help line, and whether it defaults to the qubit-qubit reduction.
``run_experiment`` writes ``<kind>.csv`` plus a ``<kind>.meta.json``
sidecar holding the config hash, tool version, and convergence
diagnostics, prints the runner's summary unless quiet, and raises on a
tripped invariant. Identical configs produce byte-identical files: no
wall clock, no unseeded randomness.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .analysis import (
    _effective_evolver,  # noqa: F401  (kept importable from here)
    _effective_reference,
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
from .config import ConfigError, ExperimentConfig, _require_grid, default_config, qubit_defaults
from .dynamics import CUTOFF_POPULATION_LIMIT, ResetSchedule, _cycle_count, _reset_blocks
from .generators import effective_hamiltonian
from .models import SIGMA_X, SIGMA_Y, SIGMA_Z, number_operator, quadrature_p, quadrature_x
from .qcore import _fidelities_pure, _purities, trace_norm


class InvariantViolationError(RuntimeError):
    """A run-level invariant (e.g. the Fock-cutoff population flag) tripped."""


@dataclass(frozen=True)
class _Result:
    """What a runner computed; ``run_experiment`` writes, prints and raises."""

    header: tuple
    rows: list
    meta: dict
    summary: Callable[[], str] | None = None  # formatted only when printed
    violation: str | None = None  # message of a tripped run-level invariant


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _require_pure(psi0, kind: str):
    if psi0 is None:
        raise ConfigError(f"{kind} needs a pure initial system state (coherent or fock)")


def _states(cfg, model):
    """The reset state rho_A, then the initial system state as (psi0 or None, rho0)."""
    return (cfg.states.build_rho_a(), *cfg.states.build_initial(model.cutoff))


def _reset_rows(cfg, gen, rho0, rho_a, f, rows_of):
    """Evolve-and-reset at rate f, snapped to whole cycles, reduced to rows block by block.

    ``rows_of(times, states)`` gives the rows of one block of
    ``dynamics._reset_blocks``, so no trajectory is held. Returns
    (cycles, time, rows, metadata, violation), the last the Fock-cutoff
    verdict: None, or the message of a tripped population flag.
    """
    n, t_snap = cfg.schedule.snapped_cycles(f)
    metadata, rows = {}, []
    for times, states in _reset_blocks(
        gen,
        rho0,
        rho_a,
        ResetSchedule.uniform(n, t_snap),
        metadata,
        None,
        cfg.tolerances.step_tol,
        cfg.schedule.samples_per_cycle,
        2 if cfg.model.kind == "oscillator_qubit" else None,
    ):
        rows += rows_of(times, states)
    violation = None
    if metadata.get("cutoff_flag"):
        violation = (
            f"f={f}: top-two-level population {metadata['top_level_max']:.3e} exceeds "
            f"the limit {CUTOFF_POPULATION_LIMIT:.0e}; raise the cutoff"
        )
    return n, t_snap, rows, metadata, violation


# ---------------------------------------------------------------------------
# individual experiment kinds


def _run_effective(cfg, model, gen):
    h_eff = effective_hamiltonian(gen, cfg.states.build_rho_a()).matrix
    rows = [
        (i, j, h_eff[i, j].real, h_eff[i, j].imag)
        for i in range(h_eff.shape[0])
        for j in range(h_eff.shape[1])
    ]

    def summary():
        with np.printoptions(precision=6, suppress=True, linewidth=120):
            return f"effective Hamiltonian:\n{h_eff}"

    return _Result(("row", "col", "real", "imag"), rows, {"dimension": h_eff.shape[0]}, summary)


def _oscillator_observables(cutoff: int):
    return (
        ("n_mean", number_operator(cutoff)),
        ("x_mean", quadrature_x(cutoff)),
        ("p_mean", quadrature_p(cutoff)),
    )


_QUBIT_OBSERVABLES = (("sx", SIGMA_X), ("sy", SIGMA_Y), ("sz", SIGMA_Z))


def _run_simulate(cfg, model, gen):
    rho_a, psi0, rho0 = _states(cfg, model)
    f = cfg.schedule.f_list[0]
    observables = _QUBIT_OBSERVABLES
    if cfg.model.kind == "oscillator_qubit":
        observables = _oscillator_observables(model.cutoff)
    reference = None
    if psi0 is not None:
        reference = _effective_reference(effective_hamiltonian(gen, rho_a).matrix, psi0)

    def rows_of(times, states):
        if reference is None:
            fid = np.full(times.size, np.nan)
        else:
            fid = _fidelities_pure(states, reference(times))
        expectations = [np.einsum("ij,nji->n", obs, states).real for _, obs in observables]
        return zip(times, fid, _purities(states), *expectations)

    n, t_snap, rows, traj_meta, violation = _reset_rows(cfg, gen, rho0, rho_a, f, rows_of)
    header = ("t", "fidelity_eff", "purity") + tuple(name for name, _ in observables)
    meta = {"f": f, "cycles": n, "snapped_time": t_snap, "trajectory": traj_meta}
    return _Result(header, rows, meta, violation=violation)


def _run_fig1(cfg, model, gen):
    rho_a, psi0, rho0 = _states(cfg, model)
    _require_pure(psi0, "fig1")
    reference = _effective_reference(effective_hamiltonian(gen, rho_a).matrix, psi0)

    rows = []
    per_f_meta = {}
    progress = []
    violations = []
    for f in cfg.schedule.f_list:
        n, t_snap, f_rows, traj_meta, violation = _reset_rows(
            cfg, gen, rho0, rho_a, f,
            lambda times, states: zip(times, [f] * times.size,
                                      _fidelities_pure(states, reference(times))),
        )
        rows += f_rows
        per_f_meta[str(f)] = {
            "cycles": n,
            "snapped_time": t_snap,
            "requested_time": cfg.schedule.total_time,
            **traj_meta,
        }
        progress.append((f, n))
        if violation is not None:
            violations.append(violation)
    return _Result(
        ("t", "f", "fidelity"),
        rows,
        {"per_f": per_f_meta},
        lambda: "\n".join(f"fig1: f={f} done ({n} cycles)" for f, n in progress),
        "; ".join(violations) or None,
    )


def _run_chernoff(cfg, model, gen):
    rho_a = cfg.states.build_rho_a()
    ns = sorted(cfg.experiment.chernoff_ns)
    t = cfg.experiment.chernoff_time
    probes = default_probes(gen.space_S.total_dim)
    devs = [
        chernoff_deviation(gen, rho_a, t, n, probes=probes, map_tol=cfg.tolerances.map_tol)
        for n in ns
    ]
    report = fit_order(ns, devs)
    rows = [(n, dev) for n, dev in zip(ns, devs)]
    rows.append(("fitted_order", report.fitted_order))
    meta = {
        "time": t,
        "map_tol": cfg.tolerances.map_tol,
        "probe_count": len(probes),
        "fitted_order": report.fitted_order,
        "r_squared": report.r_squared,
        "exact": report.exact,
    }
    return _Result(
        ("n", "deviation"), rows, meta, lambda: f"chernoff: fitted order {report.fitted_order}"
    )


def _run_dissipative(cfg, model, gen):
    rho_a, psi0, _ = _states(cfg, model)
    _require_pure(psi0, "dissipative")
    _require_grid(cfg.schedule.f_list, 3, "schedule.f_list")
    for f in sorted(cfg.schedule.f_list):
        if len({_cycle_count(f, t) for t in cfg.experiment.dissipative_times}) < 2:
            raise ConfigError(
                f"experiment.dissipative_times: at f={f} every time snaps to the same "
                "cycle count; a slope needs two"
            )
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
    order = result.freq_report.fitted_order
    meta = {
        "per_f": {
            str(scan.f): {"slope": scan.fit.slope, "r_squared": scan.fit.r_squared}
            for scan in result.scans
        },
        "slope_order": order,
        "slope_order_r_squared": result.freq_report.r_squared,
        "exact": result.freq_report.exact,
    }
    return _Result(
        ("f", "t", "deviation"), rows, meta, lambda: f"dissipative: slope-vs-f order {order}"
    )


def _run_strobe(cfg, model, gen):
    rho_a, _, rho0 = _states(cfg, model)
    rows = []
    for dt in cfg.experiment.strobe_dts:
        for frac in cfg.experiment.strobe_tau_fractions:
            tau = frac * dt
            braced = braced_switching_term(gen.g, tau, dt)
            bound = 2.0 * gen.g.g_max * (dt - tau) / tau
            ok = stroboscopic_bound_check(gen.g, tau, dt)
            predicted = stroboscopic_deviation(gen, rho_a, rho0, tau, dt).matrix
            measured = measured_stroboscopic_deviation(
                gen, rho_a, rho0, tau, dt, step_tol=cfg.tolerances.step_tol
            ).matrix
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
    return _Result(header, rows, {"all_bounds_hold": all(bool(r[4]) for r in rows)})


def _run_gradual(cfg, model, gen):
    rho_a, _, rho0 = _states(cfg, model)
    kappas = sorted(cfg.experiment.gradual_kappas)
    t = cfg.experiment.gradual_time
    devs = gradual_reset_scan(gen, rho_a, rho0, kappas, t, step_tol=cfg.tolerances.step_tol)
    meta = {"time": t, "monotone_decreasing": all(b <= a for a, b in zip(devs, devs[1:]))}
    return _Result(
        ("kappa", "deviation"),
        list(zip(kappas, devs)),
        meta,
        lambda: f"gradual: deviations {[float(f'{d:.3e}') for d in devs]}",
    )


def _run_lie(cfg, model, gen):
    dim = lie_algebra_dimension([SIGMA_Z, SIGMA_X])
    return _Result(
        ("generators", "dimension"),
        [("sigma_z|sigma_x", dim)],
        {"generators": ["sigma_z", "sigma_x"], "dimension": dim},
        lambda: f"lie: algebra dimension {dim}",
    )


@dataclass(frozen=True)
class Kind:
    """One experiment kind: its runner, its CLI help line, its default model."""

    run: Callable[..., _Result]
    help: str
    qubit_default: bool = False  # analysis kinds default to the qubit-qubit reduction


KINDS = {
    "effective": Kind(_run_effective, "print and save the effective Hamiltonian for a config"),
    "simulate": Kind(_run_simulate, "trajectory CSV for the first configured reset rate"),
    "fig1": Kind(_run_fig1, "fidelity-vs-time curves for each configured reset rate"),
    "chernoff": Kind(
        _run_chernoff, "deviation of the n-cycle product from the effective exponential", True
    ),
    "dissipative": Kind(
        _run_dissipative, "deviation-vs-time slopes against the reset rate", True
    ),
    "strobe": Kind(_run_strobe, "mid-cycle deviation, its first-order prediction, and bound", True),
    "gradual": Kind(
        _run_gradual, "deviation under damped (non-instantaneous) actuator resets", True
    ),
    "lie": Kind(_run_lie, "dimension of the Lie algebra generated by sigma_z and sigma_x", True),
}


def default_config_for(kind: str) -> ExperimentConfig:
    """The config a kind runs without ``--config``."""
    return qubit_defaults() if KINDS[kind].qubit_default else default_config()


def run_experiment(cfg: ExperimentConfig, kind: str, out_dir, quiet: bool = False) -> int:
    """Run one experiment kind, writing CSV and metadata into out_dir.

    Prints the kind's summary unless quiet; raises
    ``InvariantViolationError`` after writing if the run tripped one.
    """
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}; choose from {tuple(KINDS)}")
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    model, gen = cfg.model.build()
    result = KINDS[kind].run(cfg, model, gen)
    with open(out_path / f"{kind}.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(result.header)
        writer.writerows([_fmt(x) for x in row] for row in result.rows)
    meta = {
        "kind": kind,
        "config_hash": cfg.config_hash(),
        "version": __version__,
        "warnings": gen.validity_report(),
        **result.meta,
    }
    with open(out_path / f"{kind}.meta.json", "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    if not quiet and result.summary is not None:
        print(result.summary())
    if result.violation is not None:
        raise InvariantViolationError(result.violation)
    return 0
