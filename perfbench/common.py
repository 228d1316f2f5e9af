"""Process set-up shared by the benchmark's entry points.

Import this module before numpy: it pins the BLAS thread pool and puts
the checkout's own ``src`` directory first on the import path, so the
benchmark always measures the sources next to it, never an installed
copy of resetctrl.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"


class MissingSources(RuntimeError):
    """The checkout has no resetctrl sources to benchmark."""


def prepare() -> None:
    """Pin BLAS threads and make ``import resetctrl`` load ``ROOT/src``."""
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    package = SRC / "resetctrl" / "__init__.py"
    if not package.is_file():
        raise MissingSources(f"no resetctrl sources at {package.parent}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check_imported_from_src() -> None:
    import resetctrl

    if Path(resetctrl.__file__).resolve().parent != (SRC / "resetctrl").resolve():
        raise MissingSources(f"resetctrl was imported from {resetctrl.__file__}, not {SRC}")
