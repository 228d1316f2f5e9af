#!/usr/bin/env python3
"""Time and count the reset-trajectory kinds of two source trees, side by side.

    python scripts/bench_trajectories.py --base <tree> [--head <tree>] [--rounds 5]
                                         [--repeats 10] [--out BENCH.json]

Each tree is a checkout of this repository; ``--head`` defaults to the
one holding this script. ``simulate``, ``fig1`` and ``dissipative`` run
on their default configs through ``experiments.run_experiment``, in one
fresh child process per tree and round, the two trees alternating, with
BLAS pinned to one thread. A child reports, per kind:

* ``seconds``: every timed run, ``--repeats`` per round after one warm-up;
* ``tracemalloc_peak_mb``: the traced peak of one run;
* work counts of one run: ``cycles`` (reset cycles scheduled, from every
  ``ResetSchedule`` built), ``states`` and ``check_calls`` (the sampled
  trajectory states, each checked once by ``dynamics``, and the calls of
  ``_check_density`` that checked them), ``states_per_check`` and
  ``density_matrices`` (``DensityMatrix`` objects built, validated or
  not).

Counts do not depend on the machine; seconds do. The output holds each
tree's counts, the median seconds over all rounds, the head/base ratio
of those medians, and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

KINDS = ("simulate", "fig1", "dissipative")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HEAD = Path(__file__).resolve().parents[1]


def _counted(owner, name: str, count):
    """Replace ``owner.name`` by a wrapper that calls ``count(*args)`` first."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        count(*args)
        return original(*args, **kwargs)

    setattr(owner, name, wrapper)


def _install_counters(counts: dict) -> None:
    """Count into ``counts`` from now on in this process."""
    from resetctrl import dynamics, qcore

    def check(m, *_):
        counts["check_calls"] += 1
        counts["states"] += len(m)

    def density(*_):
        counts["density_matrices"] += 1

    def schedule(sched):
        counts["cycles"] += len(sched.reset_times)

    # dynamics' own binding: the trajectory checks, not DensityMatrix validation
    _counted(dynamics, "_check_density", check)
    _counted(qcore.DensityMatrix, "__post_init__", density)
    _counted(dynamics.ResetSchedule, "__post_init__", schedule)


def measure(repeats: int) -> dict:
    """Run every kind in this process; return its seconds, peak and counts."""
    from resetctrl.experiments import default_config_for, run_experiment

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        runs = {
            kind: lambda kind=kind: run_experiment(
                default_config_for(kind), kind, Path(tmp) / kind, quiet=True
            )
            for kind in KINDS
        }
        for kind, run in runs.items():
            run()  # warm-up: lazy generator caches, first-call imports
            seconds = []
            for _ in range(repeats):
                began = time.perf_counter()
                run()
                seconds.append(time.perf_counter() - began)
            tracemalloc.start()
            run()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            out[kind] = {"seconds": seconds, "tracemalloc_peak_mb": peak / 2 ** 20}
        # counters last, so that no timed run pays for them
        counts: dict = {}
        _install_counters(counts)
        for kind, run in runs.items():
            counts.update(cycles=0, states=0, check_calls=0, density_matrices=0)
            run()
            counts["states_per_check"] = counts["states"] / max(1, counts["check_calls"])
            out[kind].update(counts)
    return out


def _child(tree: Path, repeats: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--measure", "--repeats", str(repeats)],
        env=env, capture_output=True, text=True, check=True, cwd=tree,
    )
    return json.loads(proc.stdout)


def _git(tree: Path, *args: str) -> str:
    proc = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def _source(tree: Path) -> dict:
    """The tree's commit and whether its tracked files differ from it."""
    return {
        "git_commit": _git(tree, "rev-parse", "HEAD") or "unknown",
        "uncommitted_changes": bool(_git(tree, "status", "--porcelain", "--untracked-files=no")),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def compare(base: Path, head: Path, rounds: int, repeats: int) -> dict:
    runs = {"base": [], "head": []}
    for _ in range(rounds):
        for side, tree in (("base", base), ("head", head)):
            runs[side].append(_child(tree, repeats))
    sides = {}
    for side, tree in (("base", base), ("head", head)):
        first = runs[side][0]
        sides[side] = {**_source(tree), "kinds": {
            kind: {
                **{k: v for k, v in first[kind].items() if k != "seconds"},
                "median_s": statistics.median(
                    s for run in runs[side] for s in run[kind]["seconds"]
                ),
                "round_medians_s": [statistics.median(run[kind]["seconds"])
                                    for run in runs[side]],
            }
            for kind in KINDS
        }}
    ratios = {
        kind: sides["head"]["kinds"][kind]["median_s"] / sides["base"]["kinds"][kind]["median_s"]
        for kind in KINDS
    }
    import numpy

    return {
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpu_model": _cpu_model(),
            "nproc": os.cpu_count(),
            "blas_threads": 1,
        },
        "rounds": rounds,
        "repeats": repeats,
        "median_ratio_head_over_base": ratios,
        **sides,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, help="tree to compare against")
    parser.add_argument("--head", type=Path, default=HEAD)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--out", type=Path, help="write the JSON here as well")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.repeats)))
        return 0
    if args.base is None:
        parser.error("--base is required")
    result = compare(args.base.resolve(), args.head.resolve(), args.rounds, args.repeats)
    text = json.dumps(result, indent=1) + "\n"
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
