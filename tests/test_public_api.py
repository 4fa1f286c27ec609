"""The public names: every `__all__` of the package and its modules."""

import importlib
import pkgutil

import mhmelast


def test_every_all_name_resolves_once():
    modules = [mhmelast] + [
        importlib.import_module(f"mhmelast.{info.name}")
        for info in pkgutil.iter_modules(mhmelast.__path__)]
    listed = [m for m in modules if hasattr(m, "__all__")]
    assert {m.__name__ for m in listed} >= {
        "mhmelast", "mhmelast.mesh", "mhmelast.verify"}
    for module in listed:
        names = module.__all__
        assert len(set(names)) == len(names), module.__name__
        missing = [n for n in names if not hasattr(module, n)]
        assert not missing, (module.__name__, missing)
