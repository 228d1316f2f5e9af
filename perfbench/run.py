#!/usr/bin/env python3
"""Run one resetctrl benchmark workload and print its metrics.

    python3 perfbench/run.py --workload closed_oscillator --seed 0 --seconds 35 --trace 0

The workload's operations run in a closed loop, one process, each call
starting when the previous one returns, in passes over all operations
until about ``--seconds`` seconds are used. Checks run after each pass,
outside the timed calls. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, including
the tracing overhead. ``--workload all`` runs every workload, each in a
child process, and prints every end-to-end metric by name and unit.
"""

from __future__ import annotations

import common  # common.prepare() runs before anything imports numpy

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("closed_oscillator", "qubit_analysis", "open_reset")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120
MB = 1024.0  # ru_maxrss is in KiB on Linux

E2E_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "heavy_call_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


# ---------------------------------------------------------------------------
# environment record


def _blas_version() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = common.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": common.BLAS_THREADS,
        "cpu_model": _cpu_model(),
        "seed": seed,
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# measurement


def measure_setup(name: str, seed: int, out_dir: Path) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(out_dir)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=common.ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_pass(workload, tracer) -> dict:
    """Run every operation once, timed; then check the results untraced."""
    first_span = None
    if tracer is not None:
        first_span = tracer.begin_pass()
        tracer.install()
    walls, cpus, results = {}, {}, {}
    try:
        for op in workload.ops:
            wall0, cpu0 = time.perf_counter(), cpu_seconds()
            try:
                results[op.name] = (op.call(), None)
            except Exception as exc:  # an operation failing is a measured outcome
                results[op.name] = (None, "".join(traceback.format_exception_only(exc)).strip())
                traceback.print_exc(file=sys.stderr)
            walls[op.name] = time.perf_counter() - wall0
            cpus[op.name] = cpu_seconds() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    problems, values = {}, {}
    for op in workload.ops:
        result, error = results[op.name]
        if error is None:
            try:
                values[op.name], found = workload.check(op, result)
            except Exception as exc:  # a check that cannot read the output is a failure
                found = ["check raised " + "".join(traceback.format_exception_only(exc)).strip()]
        else:
            found = [error]
        if found:
            problems[op.name] = found
    record = {
        "traced": tracer is not None,
        "wall": sum(walls.values()),
        "cpu": sum(cpus.values()),
        "op_wall": walls,
        "op_cpu": cpus,
        "problems": problems,
        "values": values,
    }
    if tracer is not None:
        record["layers"] = tracer.pass_stats(first_span)
    return record


def run_passes(workload, seconds: float, tracer) -> list[dict]:
    """Passes until the next one would overrun ``seconds``.

    With a tracer, passes alternate untraced/traced, and at least one of
    each runs.
    """
    deadline = time.perf_counter() + seconds
    passes = []
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        began = time.perf_counter()
        passes.append(run_pass(workload, tracer if traced else None))
        took = time.perf_counter() - began
        need_traced = tracer is not None and len(passes) < 2
        if not need_traced and time.perf_counter() + took > deadline:
            return passes


def end_to_end_metrics(workload, passes, setup_samples) -> dict[str, float]:
    return {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / MB,
        "heavy_call_s": statistics.median(p["op_wall"][workload.heavy] for p in passes),
    }


def run_one(args) -> int:
    import tracing
    import workloads

    common.check_imported_from_src()
    out_dir = common.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = environment(args.seed)
    print("environment: " + json.dumps(env, sort_keys=True))

    setup_samples = measure_setup(args.workload, args.seed, out_dir / "setup")
    workload = workloads.build(args.workload, args.seed, out_dir / "run")
    workload.warm_up()
    tracer = tracing.Tracer() if args.trace else None
    passes = run_passes(workload, args.seconds, tracer)

    attempted = len(passes) * len(workload.ops)
    failed = sum(len(p["problems"]) for p in passes)
    for i, p in enumerate(passes):
        for op, found in p["problems"].items():
            for problem in found:
                print(f"FAILED pass {i} {op}: {problem}", file=sys.stderr)

    untraced = [p for p in passes if not p["traced"]]
    per_call = {
        f"{op.name}_s": statistics.median(p["op_wall"][op.name] for p in untraced)
        for op in workload.ops
    }
    print(f"workload {args.workload}: seed {args.seed}, {len(passes)} passes, "
          f"inputs {json.dumps(workload.inputs)}")
    for name, value in per_call.items():
        print(f"  {name} = {value:.4f} s (median over {len(untraced)} untraced passes)")

    if tracer is None:
        metrics = end_to_end_metrics(workload, passes, setup_samples)
        units = E2E_UNITS
    else:
        traced = [p for p in passes if p["traced"]]
        metrics = tracing.layer_metrics(traced, [p["wall"] for p in untraced])
        units = {name: spec[0] for name, spec in tracing.LAYER_METRICS.items()}
        tracer.save(out_dir / "spans.npz")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "environment": env,
        "workload": args.workload,
        "inputs": workload.inputs,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples": setup_samples,
        "per_call_s": per_call,
        "passes": passes,
        "result": result,
    }
    if tracer is not None:
        record["layer_moves"] = {n: spec[2] for n, spec in tracing.LAYER_METRICS.items()}
    (out_dir / "result.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own child process; metrics prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=common.ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        common.prepare()
    except common.MissingSources as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
