"""Command-line entry point: one subcommand per experiment kind.

Exit codes: 0 success, 1 configuration error, 2 numerical
non-convergence, 3 invariant violation (e.g. the Fock-cutoff
population flag tripped).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import ConfigError, default_config, load_config, qubit_defaults
from .experiments import (
    EXPERIMENT_KINDS, QUBIT_DEFAULT_KINDS, InvariantViolationError, run_experiment,
)
from .qcore import ConvergenceError

_KIND_HELP = {
    "effective": "print and save the effective Hamiltonian for a config",
    "simulate": "trajectory CSV for the first configured reset rate",
    "fig1": "fidelity-vs-time curves for each configured reset rate",
    "chernoff": "deviation of the n-cycle product from the effective exponential",
    "dissipative": "deviation-vs-time slopes against the reset rate",
    "strobe": "mid-cycle deviation, its first-order prediction, and bound",
    "gradual": "deviation under damped (non-instantaneous) actuator resets",
    "lie": "dimension of the Lie algebra generated by a set of Hamiltonians",
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="output directory (default: the config's output.path, else ./out)",
    )
    common.add_argument("--cutoff", type=int, metavar="N", help="override the Fock cutoff")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")

    parser = argparse.ArgumentParser(
        prog="resetctrl",
        description="simulate indirect quantum control through a periodically reset actuator",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in EXPERIMENT_KINDS:
        sub.add_parser(kind, parents=[common], help=_KIND_HELP[kind])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            cfg = load_config(args.config)
        elif args.kind in QUBIT_DEFAULT_KINDS:
            cfg = qubit_defaults()
        else:
            cfg = default_config()
        if args.cutoff is not None:
            cfg = dataclasses.replace(
                cfg, model=dataclasses.replace(cfg.model, cutoff=args.cutoff)
            )
        out_dir = args.out or cfg.output.path or "out"
        return run_experiment(cfg, args.kind, out_dir, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 2
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
