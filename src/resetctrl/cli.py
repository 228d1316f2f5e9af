"""Command-line entry point: one subcommand per experiment kind.

Exit codes: 0 success, 1 configuration error, 2 numerical
non-convergence or an input outside the numerical range, 3 invariant
violation (e.g. the Fock-cutoff population flag tripped).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

from .config import ConfigError, load_config
from .experiments import KINDS, InvariantViolationError, default_config_for, run_experiment
from .qcore import ConvergenceError, NumericalRangeError


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared; callers only parse with it."""
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
    for kind, spec in KINDS.items():
        sub.add_parser(kind, parents=[common], help=spec.help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else default_config_for(args.kind)
        if args.cutoff is not None:
            if cfg.model.kind == "qubit_qubit":
                raise ConfigError("--cutoff: a qubit_qubit model has no Fock cutoff")
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
    except NumericalRangeError as exc:
        print(f"numerical range error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
