"""Every entry point the benchmark's tracer wraps must exist, and the
solutions must carry what its samples hash, so that a refactoring cannot
silently drop a traced name or break every sample."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import mhmelast as mh

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


def test_solutions_carry_the_coefficients_the_benchmark_hashes():
    # the benchmark's sample digest reads lam, rho and, per element id in
    # order, the fields' u and p of a two-level solution, and u and p of a
    # single-level one
    problem = mh.BrennerProblem(0.3)
    sol, data = mh.solve_mhm(mh.MHMConfig(n=2, nu=0.3), problem)
    assert isinstance(sol.lam, np.ndarray) and isinstance(sol.rho, np.ndarray)
    assert sol.lam.shape == (data.skeleton.n_dofs,)
    assert sol.rho.shape == (data.partition.n_elements, 3)
    assert sorted(sol.fields) == list(range(data.partition.n_elements))
    for field in sol.fields.values():
        assert isinstance(field.u, np.ndarray) and field.u.ndim == 1
        assert isinstance(field.p, np.ndarray) and field.p.ndim == 1
    single = mh.solve_gals_dirichlet(mh.unit_square_mesh(2), problem.material,
                                     1, problem.f, u_dirichlet=problem.u)
    assert isinstance(single.u, np.ndarray) and isinstance(single.p,
                                                           np.ndarray)
