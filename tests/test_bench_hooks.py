"""Every entry point the benchmark's tracer wraps must exist, so that a
refactoring cannot silently drop a traced name."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return [(module, attr) for module, attr, _ in layers.ENTRY_POINTS]


@pytest.mark.parametrize("module, attr", _entry_points())
def test_traced_entry_point_resolves(module, attr):
    mod = importlib.import_module(f"mhmelast.{module}")
    assert callable(getattr(mod, attr, None)), f"mhmelast.{module}.{attr}"
