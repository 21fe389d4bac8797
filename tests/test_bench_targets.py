# The benchmark's traced run (bench/tracing.py) wraps hspan functions by
# patching (module, attribute) pairs listed in its TARGETS. A rename or a
# removal in hspan would make that run fail only when it is started, so the
# pairs are checked here against the package under test.
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.TARGETS
    for module_name, attr, _, _ in tracing.TARGETS:
        module = importlib.import_module(f"hspan.{module_name}")
        assert callable(getattr(module, attr, None)), f"hspan.{module_name}.{attr}"
