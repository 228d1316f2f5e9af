"""The benchmark's three workloads: seeded inputs, timed operations, checks.

An operation is one CLI kind, called through ``resetctrl.cli.main``, or
one library call sequence. Every operation has a check that runs after
each pass: invariants for every seed, and for seed 0 a comparison with
the seed commit's numbers stored in ``reference_seed0.json``.

Seed 0 reproduces the CLI defaults exactly. Other seeds change only the
physical inputs, never the problem sizes:

* ``closed_oscillator``: the phase of the coherent amplitude alpha;
* ``qubit_analysis``: the direction of the actuator Bloch vector, tilted
  inside a narrow cone (``BLOCH_CONE``) around the default direction;
* ``open_reset``: the draw of the actuator reset jump operators, mixed by
  a random unitary (the dissipator, hence the physics, is unchanged).
"""

from __future__ import annotations

import cmath
import csv
import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from resetctrl import analysis, cli, config, dynamics, generators, models, qcore

REFERENCE_FILE = Path(__file__).resolve().parent / "reference_seed0.json"

STEP_TOL = config.TolerancesSpec().step_tol
MAP_TOL = config.TolerancesSpec().map_tol

# A 0.05 rad tilt keeps every mid-cycle ladder at the seed-0 substep counts
# (74,864 strobe factors); a 0.25 rad tilt moves strobe between 74,864 and
# 81,008 factors, which would mix work changes into the timing spread.
BLOCH_CONE = 0.05

MIN_F10_FIDELITY = 0.99
ORDER_SLACK = 0.05          # |fitted order - predicted order| for the O(1/n), O(t/f) laws
CORRECTED_ORDER_SLACK = 0.1  # second-order residual fit
SERIES_NS = (16, 32, 64, 128, 256, 512)
SERIES_TIME = 1.0

OPEN_KAPPA = 1.0
OPEN_MAP_DT = 0.3
OPEN_TRAJ_CUTOFF = 12
OPEN_TRAJ_DT = 0.15
OPEN_TRAJ_CYCLES = 4
# the program's own tolerances for states built along a trajectory
STATE_TOL_HERM, STATE_TOL_TRACE, STATE_TOL_PSD = 1e-9, 1e-9, 1e-7


def ladder_tol(cycles: int, tol: float) -> float:
    """How far an output over ``cycles`` converged cycles may move.

    A substep ladder stops once two successive levels differ by less than
    ``tol``. For the second-order midpoint rule the accepted level is then
    within tol/3 of the limit, and per-cycle errors add at most linearly,
    so any integrator at least as accurate stays within ``cycles * tol``
    of the seed commit's outputs.
    """
    return cycles * tol


@dataclass
class Op:
    """One timed operation and the check of its result.

    ``check`` returns (values, tolerances, problems): the numbers compared
    with the seed-0 reference, their absolute tolerances (a scalar or one
    per value), and the invariant violations found.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], tuple[dict, dict, list]]


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op]
    heavy: str  # the operation reported as heavy_call_s
    warm_up: Callable[[], object]
    inputs: dict = field(default_factory=dict)
    reference: dict | None = None

    def check(self, op: Op, result) -> tuple[dict, list[str]]:
        values, tols, problems = op.check(result)
        if self.reference is not None:
            problems = problems + compare(self.reference.get(op.name, {}), values, tols)
        return values, problems


def compare(reference: dict, values: dict, tols: dict) -> list[str]:
    problems = []
    for key, got in values.items():
        want = reference.get(key)
        if want is None or len(want) != len(got):
            problems.append(f"{key}: no seed-0 reference of length {len(got)}")
            continue
        excess = np.abs(np.asarray(got) - np.asarray(want)) - np.asarray(tols[key])
        if np.max(excess, initial=-1.0) > 0:
            worst = int(np.argmax(excess))
            problems.append(
                f"{key}[{worst}] = {got[worst]!r} differs from reference {want[worst]!r} "
                f"beyond tolerance {np.broadcast_to(tols[key], len(got))[worst]:.2e}"
            )
    return problems


def _floats(a) -> list[float]:
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return np.concatenate([a.real.ravel(), a.imag.ravel()]).tolist()
    return a.astype(float).ravel().tolist()


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _column(rows, name) -> np.ndarray:
    return np.array([float(r[name]) for r in rows])


def _integer_times(t: np.ndarray) -> np.ndarray:
    """Indices of the rows at whole times 1, 2, ... (the reference grid)."""
    return np.flatnonzero((np.abs(t - np.round(t)) < 1e-9) & (t > 0.5))


def _cli_op(kind: str, out_dir: Path, config_path: Path | None, check) -> Op:
    argv = [kind, "--out", str(out_dir / kind), "--quiet"]
    if config_path is not None:
        argv += ["--config", str(config_path)]

    def checked(rc):
        if rc != 0:
            return {}, {}, [f"exit code {rc}"]
        return check(out_dir / kind)

    # cli.main is looked up at call time so that the tracer's wrapper is seen
    return Op(kind, lambda: cli.main(argv), checked)


def _write_config(cfg: config.ExperimentConfig, out_dir: Path) -> Path:
    path = out_dir / "config.json"
    path.write_text(cfg.dumps() + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# closed_oscillator: effective, simulate, fig1 on the illustration defaults


def _check_effective(cutoff: int):
    def check(out: Path):
        rows = _read_csv(out / "effective.csv")
        h = np.zeros((cutoff, cutoff), dtype=complex)
        for r in rows:
            h[int(r["row"]), int(r["col"])] = float(r["real"]) + 1j * float(r["imag"])
        problems = []
        if len(rows) != cutoff * cutoff:
            problems.append(f"effective.csv has {len(rows)} entries, expected {cutoff * cutoff}")
        asym = float(np.max(np.abs(h - h.conj().T)))
        if asym > 1e-12 * max(1.0, float(np.max(np.abs(h)))):
            problems.append(f"effective Hamiltonian not Hermitian (asymmetry {asym:.2e})")
        # no ladder: only the quadrature of the mean coupling (tol 1e-10) enters
        return {"h_eff": _floats(h)}, {"h_eff": 10 * MAP_TOL}, problems

    return check


def _check_simulate(cutoff: int, cycles: int):
    def check(out: Path):
        rows = _read_csv(out / "simulate.csv")
        t = _column(rows, "t")
        fid = _column(rows, "fidelity_eff")
        purity = _column(rows, "purity")
        n_mean = _column(rows, "n_mean")
        problems = []
        if fid.min() < MIN_F10_FIDELITY or fid.max() > 1.0 + 1e-12:
            problems.append(f"simulate fidelity range [{fid.min():.6f}, {fid.max():.6f}]")
        if purity.min() <= 0.0 or purity.max() > 1.0 + 1e-9:
            problems.append(f"simulate purity range [{purity.min():.6f}, {purity.max():.6f}]")
        if n_mean.min() < -1e-9:
            problems.append(f"negative mean photon number {n_mean.min():.3e}")
        at = _integer_times(t)
        tol = ladder_tol(cycles, STEP_TOL)
        values = {"fidelity": _floats(fid[at]), "n_mean": _floats(n_mean[at])}
        # |tr(N d_rho)| <= ||N|| * ||d_rho||_1 with ||N|| = cutoff - 1
        return values, {"fidelity": tol, "n_mean": 2 * (cutoff - 1) * tol}, problems

    return check


def _check_fig1(cycles_by_f: dict[float, int]):
    def check(out: Path):
        rows = _read_csv(out / "fig1.csv")
        f_col = _column(rows, "f")
        t_col = _column(rows, "t")
        fid = _column(rows, "fidelity")
        problems, values, tols = [], {}, {}
        finals, minima = [], []
        for f in sorted(cycles_by_f, reverse=True):
            mask = np.abs(f_col - f) < 1e-12
            if not mask.any():
                problems.append(f"fig1.csv has no curve for f={f:g}")
                continue
            curve = fid[mask]
            finals.append(curve[-1])
            minima.append(curve.min())
            at = _integer_times(t_col[mask])
            values[f"fidelity_f{f:g}"] = _floats(curve[at])
            tols[f"fidelity_f{f:g}"] = ladder_tol(cycles_by_f[f], STEP_TOL)
        top = max(cycles_by_f)
        if f"fidelity_f{top:g}" in values and minima[0] < MIN_F10_FIDELITY:
            problems.append(f"f={top:g} fidelity falls to {minima[0]:.6f} < {MIN_F10_FIDELITY}")
        if any(b > a for a, b in zip(finals, finals[1:])) or any(
            b > a for a, b in zip(minima, minima[1:])
        ):
            problems.append(f"fidelity curves not ordered in f: finals {finals}, minima {minima}")
        return values, tols, problems

    return check


def closed_oscillator(seed: int, out_dir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    cfg = config.default_config()
    config_path = None
    phase = 0.0
    if seed != 0:
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        alpha = cmath.exp(1j * phase) * complex(*cfg.states.alpha)
        states = dataclasses.replace(cfg.states, alpha=(alpha.real, alpha.imag))
        cfg = dataclasses.replace(cfg, states=states)
        config_path = _write_config(cfg, out_dir)
    model, gen = cfg.model.build()
    cfg.states.build_initial(model.cutoff)
    h_mid = gen.hamiltonian_at(0.5)
    cycles_by_f = {f: cfg.schedule.snapped_cycles(f)[0] for f in cfg.schedule.f_list}
    f_first = cfg.schedule.f_list[0]
    ops = [
        _cli_op("effective", out_dir, config_path, _check_effective(model.cutoff)),
        _cli_op("simulate", out_dir, config_path,
                _check_simulate(model.cutoff, cycles_by_f[f_first])),
        _cli_op("fig1", out_dir, config_path, _check_fig1(cycles_by_f)),
    ]
    return Workload(
        "closed_oscillator", seed, ops, heavy="fig1",
        warm_up=lambda: qcore.mat_exp(-0.01j * h_mid),
        inputs={"alpha_phase": phase, "joint_dim": gen.total_dim},
    )


# ---------------------------------------------------------------------------
# qubit_analysis: the five analysis kinds plus the corrected Chernoff series


def _tilt(r: np.ndarray, cone: float, rng: np.random.Generator) -> np.ndarray:
    """Rotate r by an angle in [-cone, cone] about a random axis normal to r."""
    unit = r / np.linalg.norm(r)
    axis = rng.normal(size=3)
    axis -= axis.dot(unit) * unit
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-cone, cone)
    return r * math.cos(angle) + np.cross(axis, r) * math.sin(angle)


def _check_chernoff(d_s: int):
    def check(out: Path):
        rows = [r for r in _read_csv(out / "chernoff.csv") if r["n"].isdigit()]
        ns = np.array([int(r["n"]) for r in rows])
        order = _read_json(out / "chernoff.meta.json")["fitted_order"]
        problems = []
        if not abs(order + 1.0) <= ORDER_SLACK:
            problems.append(f"chernoff fitted order {order} not near -1")
        tols = (d_s * ns * MAP_TOL).tolist()
        return {"deviation": _floats(_column(rows, "deviation"))}, {"deviation": tols}, problems

    return check


def _check_dissipative(out: Path):
    rows = _read_csv(out / "dissipative.csv")
    order = _read_json(out / "dissipative.meta.json")["slope_order"]
    problems = []
    if not abs(order + 1.0) <= ORDER_SLACK:
        problems.append(f"dissipative slope-vs-f order {order} not near -1")
    cycles = np.round(_column(rows, "f") * _column(rows, "t"))
    tols = [ladder_tol(int(n), STEP_TOL) for n in cycles]
    return {"deviation": _floats(_column(rows, "deviation"))}, {"deviation": tols}, problems


def _check_strobe(out: Path):
    rows = _read_csv(out / "strobe.csv")
    problems = []
    if _read_json(out / "strobe.meta.json")["all_bounds_hold"] is not True:
        problems.append("strobe: switching-function bound violated")
    # one intra-cycle segment; trace norm is twice the trace distance
    tol = 2 * ladder_tol(1, STEP_TOL)
    values = {k: _floats(_column(rows, k)) for k in ("measured", "residual")}
    return values, {k: tol for k in values}, problems


def _check_gradual(out: Path):
    rows = _read_csv(out / "gradual.csv")
    problems = []
    if _read_json(out / "gradual.meta.json")["monotone_decreasing"] is not True:
        problems.append("gradual: deviation not monotone in kappa")
    return {"deviation": _floats(_column(rows, "deviation"))}, {"deviation": 10 * MAP_TOL}, problems


def _check_lie(out: Path):
    dim = _read_json(out / "lie.meta.json")["dimension"]
    problems = [] if dim == 3 else [f"lie algebra dimension {dim}, expected 3"]
    return {"dimension": [float(dim)]}, {"dimension": 0.0}, problems


def _check_series(d_s: int):
    def check(resids):
        problems = []
        order = analysis.fit_order(SERIES_NS, resids).fitted_order
        if not abs(order + 2.0) <= CORRECTED_ORDER_SLACK:
            problems.append(f"corrected residual order {order} not near -2")
        tols = [d_s * n * MAP_TOL for n in SERIES_NS]
        return {"residual": _floats(resids)}, {"residual": tols}, problems

    return check


def qubit_analysis(seed: int, out_dir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    cfg = config.qubit_defaults()
    config_path = None
    if seed != 0:
        bloch = _tilt(np.array(cfg.states.rho_a_bloch), BLOCH_CONE, rng)
        states = dataclasses.replace(cfg.states, rho_a_bloch=tuple(float(x) for x in bloch))
        cfg = dataclasses.replace(cfg, states=states)
        config_path = _write_config(cfg, out_dir)
    _, gen = cfg.model.build()
    rho_a = cfg.states.build_rho_a()
    d_s = gen.space_S.total_dim
    probes = analysis.default_probes(d_s)

    def series():
        # scripts/scaling_study.py: phi2_super -> omega1_super -> corrected deviations
        phi1 = generators.phi1_super(gen, rho_a)
        phi2 = generators.phi2_super(gen, rho_a)
        omega1 = analysis.omega1_super(phi1, phi2, SERIES_TIME)
        return [
            analysis.chernoff_deviation(
                gen, rho_a, SERIES_TIME, n, probes=probes, map_tol=MAP_TOL,
                first_order_correction=omega1,
            )
            for n in SERIES_NS
        ]

    ops = [
        _cli_op("chernoff", out_dir, config_path, _check_chernoff(d_s)),
        _cli_op("dissipative", out_dir, config_path, _check_dissipative),
        _cli_op("strobe", out_dir, config_path, _check_strobe),
        _cli_op("gradual", out_dir, config_path, _check_gradual),
        _cli_op("lie", out_dir, config_path, _check_lie),
        Op("corrected_series", series, _check_series(d_s)),
    ]
    return Workload(
        "qubit_analysis", seed, ops, heavy="strobe",
        warm_up=lambda: qcore.mat_exp(generators.phi1_super(gen, rho_a).matrix),
        inputs={"rho_a_bloch": list(cfg.states.rho_a_bloch), "joint_dim": gen.total_dim},
    )


# ---------------------------------------------------------------------------
# open_reset: dense open cycle map and a matrix-free open trajectory


def _mix_jumps(jumps, rng: np.random.Generator):
    """Mix jump operators by a Haar-random unitary; the dissipator is invariant."""
    k = len(jumps)
    z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    mats = np.array([j.matrix for j in jumps])
    mixed = np.tensordot(u, mats, axes=1)
    return tuple(qcore.Operator(m, jumps[0].space) for m in mixed)


def _check_open_map(d_a: int):
    def check(channel):
        problems = [] if qcore.is_cptp(channel) else ["open cycle map is not CPTP"]
        # max-abs tolerance of the joint propagator, summed over d_a by the reduction
        return {"map": _floats(channel.matrix)}, {"map": d_a * ladder_tol(1, STEP_TOL)}, problems

    return check


def _check_open_traj(traj):
    problems = []
    for k, state in enumerate(traj.states):
        m = state.matrix
        herm = float(np.max(np.abs(m - m.conj().T)))
        trace_err = abs(complex(np.trace(m)) - 1.0)
        min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T))))
        if herm > STATE_TOL_HERM or trace_err > STATE_TOL_TRACE or min_eig < -STATE_TOL_PSD:
            problems.append(
                f"state {k} invalid: asymmetry {herm:.2e}, trace error {trace_err:.2e}, "
                f"min eigenvalue {min_eig:.2e}"
            )
    # max-abs entries are bounded by the trace norm, twice the trace distance
    tol = 2 * ladder_tol(len(traj.states) - 1, STEP_TOL)
    return {"final_state": _floats(traj.states[-1].matrix)}, {"final_state": tol}, problems


def open_reset(seed: int, out_dir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    q = config.qubit_defaults()
    g = q.model.switching.build()
    rho_a = q.states.build_rho_a()
    jumps = analysis.reset_jumps(rho_a, OPEN_KAPPA)
    if seed != 0:
        jumps = _mix_jumps(jumps, rng)
    spec = dict(nu=q.model.nu, omega=q.model.omega, n_vec=q.model.n_vec, g=g)
    small = dataclasses.replace(
        models.build_oscillator_qubit(models.OscillatorQubitModel(cutoff=2, **spec)),
        jumps_A=jumps,
    )
    big = dataclasses.replace(
        models.build_oscillator_qubit(
            models.OscillatorQubitModel(cutoff=OPEN_TRAJ_CUTOFF, **spec)
        ),
        jumps_A=jumps,
    )
    rho0 = qcore.DensityMatrix.pure(
        models.fock_state(0, OPEN_TRAJ_CUTOFF), (OPEN_TRAJ_CUTOFF,)
    )
    schedule = dynamics.ResetSchedule.uniform(OPEN_TRAJ_CYCLES, OPEN_TRAJ_CYCLES * OPEN_TRAJ_DT)
    ops = [
        Op("open_map",
           lambda: dynamics.cycle_map(small, rho_a, OPEN_MAP_DT, tol=STEP_TOL),
           _check_open_map(small.space_A.total_dim)),
        Op("open_traj",
           lambda: dynamics.evolve_with_resets(big, rho0, rho_a, schedule, step_tol=STEP_TOL),
           _check_open_traj),
    ]
    return Workload(
        "open_reset", seed, ops, heavy="open_traj",
        warm_up=lambda: qcore.mat_exp(0.01 * small.free_super.matrix),
        inputs={"kappa": OPEN_KAPPA, "jumps_mixed": seed != 0,
                "map_dim": small.total_dim, "traj_dim": big.total_dim},
    )


WORKLOADS = {
    "closed_oscillator": closed_oscillator,
    "qubit_analysis": qubit_analysis,
    "open_reset": open_reset,
}


def build(name: str, seed: int, out_dir: Path, *, with_reference: bool = True) -> Workload:
    """Build a workload; for seed 0 its checks include the reference values."""
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, out_dir)
    if seed == 0 and with_reference:
        workload.reference = _read_json(REFERENCE_FILE)[name]
    return workload
