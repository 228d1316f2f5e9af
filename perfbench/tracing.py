"""Span tracer that wraps resetctrl's public functions from outside.

Each wrapped function is replaced at every module attribute that binds
it (``resetctrl.qcore.expm_hermitian``, ``resetctrl.dynamics.expm_hermitian``,
...), so calls made inside the package are seen too. Spans live in
memory (parallel arrays: name, parent, start, end) and are written out
once, at the end of the run. A span's self time is its duration minus
the durations of its child spans.

Besides spans the tracer keeps exact work counters:

* ``dynamics.factor_evals``: switching-function evaluations made inside a
  dynamics span; every substep factor on all three propagation paths
  evaluates g exactly once;
* ``dynamics.substeps_settled``, ``kernels_built``, ``cycles``: read from the
  metadata of each returned ``Trajectory`` (the same dictionaries the CLI
  writes to ``<kind>.meta.json``);
* ``generators.hamiltonian_at.calls`` and ``generators.liouvillian_applies``;
* ``quadrature.integrand_evals``: integrand calls made by the quadrature.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array
from collections import Counter

import numpy as np

from resetctrl import cli, generators

SPANNED = {
    "qcore": ("expm_hermitian", "mat_exp", "trace_distance", "partial_trace_matrix"),
    "generators": ("effective_hamiltonian", "phi1_super", "phi2_super"),
    "quadrature": ("integrate_scalar", "integrate_operator"),
    "dynamics": (
        "evolve_with_resets", "cycle_map", "intra_cycle_trajectory",
        "cycle_unitary", "cycle_propagator",
    ),
    "analysis": (
        "chernoff_deviation", "omega1_super", "dissipative_scaling",
        "measured_stroboscopic_deviation", "gradual_reset_scan", "lie_algebra_dimension",
    ),
    "models": ("build_oscillator_qubit", "coherent_state"),
    "config": ("default_config", "qubit_defaults", "load_config"),
    "experiments": ("run_experiment",),
}

# per-layer metric -> (unit, better, the end-to-end metrics it should move)
LAYER_METRICS = {
    "qcore.expm_hermitian.calls": ("count", "lower", "closed_oscillator wall_s, heavy_call_s=fig1_s (LAPACK-bound); qubit_analysis heavy_call_s=strobe_s (overhead-bound)"),
    "qcore.expm_hermitian.self_s": ("s", "lower", "closed_oscillator wall_s, heavy_call_s=fig1_s (LAPACK-bound); qubit_analysis heavy_call_s=strobe_s (overhead-bound)"),
    "qcore.expm_hermitian.wall_share": ("ratio", "lower", "share of the traced wall_s spent in expm_hermitian; on closed_oscillator it checks the ROADMAP's eigh figure"),
    "qcore.mat_exp.calls": ("count", "lower", "open_reset wall_s through open_map_s; no move on closed_oscillator"),
    "qcore.mat_exp.self_s": ("s", "lower", "open_reset wall_s through open_map_s; no move on closed_oscillator"),
    "qcore.trace_distance.calls": ("count", "lower", "qubit_analysis wall_s"),
    "qcore.trace_distance.self_s": ("s", "lower", "qubit_analysis wall_s"),
    "qcore.partial_trace_matrix.calls": ("count", "lower", "qubit_analysis wall_s"),
    "qcore.partial_trace_matrix.self_s": ("s", "lower", "qubit_analysis wall_s"),
    "generators.hamiltonian_at.calls": ("count", "lower", "closed_oscillator wall_s"),
    "generators.liouvillian_applies": ("count", "lower", "open_reset heavy_call_s=open_traj_s"),
    "generators.effective_hamiltonian.self_s": ("s", "lower", "qubit_analysis wall_s"),
    "generators.phi1_super.self_s": ("s", "lower", "qubit_analysis wall_s"),
    "generators.phi2_super.self_s": ("s", "lower", "qubit_analysis wall_s"),
    "quadrature.integrate_scalar.calls": ("count", "lower", "qubit_analysis wall_s only"),
    "quadrature.integrate_scalar.self_s": ("s", "lower", "qubit_analysis wall_s only"),
    "quadrature.integrate_operator.calls": ("count", "lower", "qubit_analysis wall_s only"),
    "quadrature.integrate_operator.self_s": ("s", "lower", "qubit_analysis wall_s only"),
    "quadrature.integrand_evals": ("count", "lower", "qubit_analysis wall_s only"),
    "dynamics.evolve_with_resets.self_s": ("s", "lower", "wall_s on all three workloads"),
    "dynamics.cycle_map.self_s": ("s", "lower", "wall_s on qubit_analysis and open_reset"),
    "dynamics.intra_cycle_trajectory.self_s": ("s", "lower", "qubit_analysis heavy_call_s=strobe_s"),
    "dynamics.cycle_unitary.self_s": ("s", "lower", "qubit_analysis wall_s"),
    "dynamics.cycle_propagator.self_s": ("s", "lower", "open_reset wall_s through open_map_s"),
    "dynamics.substeps_settled": ("count", "lower", "wall_s on all three workloads"),
    "dynamics.factor_evals": ("count", "lower", "wall_s on all three workloads"),
    "dynamics.ladder_efficiency": ("ratio", "higher", "wall_s on all three workloads"),
    "dynamics.kernels_built": ("count", "lower", "wall_s on all three workloads"),
    "dynamics.kernel_reuse": ("ratio", "higher", "wall_s on all three workloads"),
    "analysis.chernoff_deviation.self_s": ("s", "lower", "qubit_analysis wall_s"),
    "analysis.omega1_super.self_s": ("s", "lower", "qubit_analysis wall_s"),
    "analysis.dissipative_scaling.self_s": ("s", "lower", "qubit_analysis wall_s"),
    "analysis.measured_stroboscopic_deviation.self_s": ("s", "lower", "qubit_analysis wall_s"),
    "analysis.gradual_reset_scan.self_s": ("s", "lower", "qubit_analysis wall_s"),
    "analysis.lie_algebra_dimension.self_s": ("s", "lower", "qubit_analysis wall_s"),
    "models.build_oscillator_qubit.self_s": ("s", "lower", "setup_s"),
    "models.coherent_state.self_s": ("s", "lower", "setup_s"),
    "config.load_s": ("s", "lower", "setup_s"),
    "experiments.run_experiment.self_s": ("s", "lower", "wall_s (CSV/metadata writing and fidelity rows)"),
    "cli.exit_nonzero": ("count", "lower", "failed operations"),
    "trace.wall_s": ("s", "lower", "traced wall_s; minus the untraced wall_s gives the overhead"),
    "trace.overhead_s": ("s", "lower", "tracing overhead: traced minus untraced wall_s"),
}

_SPAN_NAMES = {f"{module}.{fname}" for module, fnames in SPANNED.items() for fname in fnames}
_CONFIG_SPANS = ("config.default_config", "config.qubit_defaults", "config.load_config")


class Tracer:
    """Installs wrappers, records spans and counters, summarizes passes."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._dynamics_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # --- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "resetctrl" or n.startswith("resetctrl.")]
        for module_name, functions in SPANNED.items():
            home = sys.modules[f"resetctrl.{module_name}"]
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self._span(f"{module_name}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        self._patch(generators.SwitchingFunction, "__call__",
                    self._counter(generators.SwitchingFunction.__call__, self._count_factor))
        self._patch(generators.CycleGenerator, "hamiltonian_at",
                    self._counter(generators.CycleGenerator.hamiltonian_at,
                                  lambda: self._bump("generators.hamiltonian_at.calls")))
        for method in ("apply_free_liouvillian", "apply_coupling_liouvillian"):
            self._patch(generators.CycleGenerator, method,
                        self._counter(getattr(generators.CycleGenerator, method),
                                      lambda: self._bump("generators.liouvillian_applies")))
        self._patch(cli, "main", self._exit_counter(cli.main))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _bump(self, key: str) -> None:
        self.counts[key] += 1

    def _count_factor(self) -> None:
        if self._dynamics_depth:
            self.counts["dynamics.factor_evals"] += 1

    def _counter(self, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count()
            return fn(*args, **kwargs)

        return wrapper

    def _exit_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rc = fn(*args, **kwargs)
            if rc != 0:
                self.counts["cli.exit_nonzero"] += 1
            return rc

        return wrapper

    def _counting_integrand(self, f):
        def integrand(x):
            self.counts["quadrature.integrand_evals"] += 1
            return f(x)

        return integrand

    def _record_metadata(self, name: str, out) -> None:
        meta = out.metadata
        if name == "dynamics.evolve_with_resets":
            kernels = meta["kernels"].values()
            self.counts["dynamics.substeps_settled"] += sum(k["substeps"] for k in kernels)
            self.counts["dynamics.kernels_built"] += len(kernels)
            self.counts["dynamics.cycles"] += meta["resets"]
        elif name == "dynamics.intra_cycle_trajectory":
            self.counts["dynamics.substeps_settled"] += sum(s["substeps"] for s in meta["segments"])

    def _span(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_ids, parents, starts, ends, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack
        )
        clock = time.perf_counter
        in_dynamics = name.startswith("dynamics.")
        has_metadata = name in ("dynamics.evolve_with_resets", "dynamics.intra_cycle_trajectory")
        counts_integrand = name.startswith("quadrature.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts_integrand:  # the integrand is the first positional argument
                args = (self._counting_integrand(args[0]),) + args[1:]
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            if in_dynamics:
                self._dynamics_depth += 1
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if in_dynamics:
                    self._dynamics_depth -= 1
            if has_metadata:
                self._record_metadata(name, out)
            return out

        return wrapper

    # --- per-pass summaries ---------------------------------------------

    def begin_pass(self) -> int:
        self.counts = Counter()
        return len(self.start)

    def pass_stats(self, first_span: int) -> dict:
        """Counts and per-function self times of spans recorded since ``first_span``."""
        # slicing copies, so no numpy view pins the growing arrays
        ids = np.asarray(self.name_id[first_span:], dtype=np.intp)
        parent = np.asarray(self.parent[first_span:], dtype=np.int64) - first_span
        duration = np.asarray(self.end[first_span:]) - np.asarray(self.start[first_span:])
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested], minlength=ids.size)
        self_time = duration - child_time
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        self_s = np.bincount(ids, weights=self_time, minlength=n)
        return {
            "calls": {name: int(calls[i]) for i, name in enumerate(self.names)},
            "self_s": {name: float(self_s[i]) for i, name in enumerate(self.names)},
            "counts": dict(self.counts),
        }

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.asarray(self.name_id, dtype=np.uint16),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )


def layer_metrics(traced: list[dict], untraced_wall: list[float]) -> dict[str, float]:
    """Per-layer metrics from the traced passes of one run.

    Counts come from the first traced pass (they repeat exactly from pass
    to pass); self times are medians over the traced passes.
    """
    first = traced[0]["layers"]

    def self_s(span: str) -> float:
        return statistics.median(p["layers"]["self_s"].get(span, 0.0) for p in traced)

    counts = Counter(first["counts"])
    metrics: dict[str, float] = {}
    for name in LAYER_METRICS:
        head, _, stat = name.rpartition(".")
        if stat == "self_s":
            metrics[name] = self_s(head)
        elif stat == "calls" and head in _SPAN_NAMES:
            metrics[name] = first["calls"].get(head, 0)
        else:
            metrics[name] = counts[name]
    wall = statistics.median(p["wall"] for p in traced)
    untraced = statistics.median(untraced_wall)
    metrics["qcore.expm_hermitian.wall_share"] = statistics.median(
        p["layers"]["self_s"].get("qcore.expm_hermitian", 0.0) / p["wall"] for p in traced
    )
    metrics["config.load_s"] = sum(self_s(s) for s in _CONFIG_SPANS)
    factor_evals = counts["dynamics.factor_evals"]
    metrics["dynamics.ladder_efficiency"] = (
        counts["dynamics.substeps_settled"] / factor_evals if factor_evals else 0.0
    )
    kernels = counts["dynamics.kernels_built"]
    metrics["dynamics.kernel_reuse"] = counts["dynamics.cycles"] / kernels if kernels else 0.0
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - untraced
    return {name: metrics[name] for name in LAYER_METRICS}
