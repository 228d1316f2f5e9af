"""Time one workload set-up in a fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py <workload> <seed> <out_dir>

Set-up is the import of resetctrl, the config and model/generator build,
and one warm-up call (the first ``mat_exp`` pays for scipy's lazy
set-up). ``run.py`` runs this several times per run and reports the
median as ``setup_s``.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()

import common  # noqa: E402  -- pins BLAS threads before numpy loads

common.prepare()

import workloads  # noqa: E402

common.check_imported_from_src()
name, seed, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
workloads.build(name, seed, Path(out_dir), with_reference=False).warm_up()
print(repr(time.perf_counter() - start))
