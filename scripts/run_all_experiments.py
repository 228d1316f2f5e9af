#!/usr/bin/env python3
"""Run every experiment kind with its default configuration.

Outputs land in out/<kind>/ as CSV plus a metadata sidecar. Pass an
alternative output root as the first argument.
"""

import sys
from pathlib import Path

from resetctrl.experiments import KINDS, default_config_for, run_experiment


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
    for kind in KINDS:
        print(f"== {kind} -> {root / kind}")
        code = run_experiment(default_config_for(kind), kind, root / kind, quiet=False)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
