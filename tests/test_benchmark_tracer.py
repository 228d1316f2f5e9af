"""The benchmark tracer finds every name it patches, and puts the originals back."""

import importlib.util
import sys
from pathlib import Path

import resetctrl.cli  # noqa: F401  (imports every module the tracer spans)
from resetctrl import generators

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _bindings():
    owners = [m for n, m in sys.modules.items() if n == "resetctrl" or n.startswith("resetctrl.")]
    owners += [generators.CycleGenerator, generators.SwitchingFunction]
    return {(owner, attr): value for owner in owners for attr, value in list(vars(owner).items())}


def test_tracer_installs_and_uninstalls_every_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        # raises AttributeError if a name the tracer looks up is gone
        tracer.install()
        patched = _bindings()
        assert generators.phi1_super is not before[(generators, "phi1_super")]
        for method in ("hamiltonian_at", "apply_free_liouvillian", "apply_coupling_liouvillian"):
            key = (generators.CycleGenerator, method)
            assert patched[key] is not before[key]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
