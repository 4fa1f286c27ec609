"""End-to-end pipeline driver and the command-line interface."""

import json
import os
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from mhmelast import (K_MAX, BrennerProblem, LinearProblem, MHMConfig,
                      MHMError, MaterialField,
                      assemble_local_gals, build_matching_local_mesh,
                      build_structured_triangulation,
                      check_refinement_conditions, compute_errors,
                      congruence_classes, convergence_orders, default_depth,
                      estimate_inverse_constant, fem_core, inverse_constant,
                      refine_skeleton, solve_global, solve_mhm,
                      unit_square_mesh)
from mhmelast import cli, local_solver
from mhmelast.local_solver import LocalSolverError
from mhmelast.mhm_global import GlobalSolverError
from mhmelast.cli import _parse_args, _parse_levels, _read_config_file, main

from conftest import _side_tag, saddle_system


PATCH = LinearProblem([[0.3, 0.1], [-0.2, 0.4]], [0.05, -0.02], nu=0.3)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def test_default_depth_values():
    assert default_depth(1, 0) == 2
    assert default_depth(2, 0) == 1
    assert default_depth(3, 0) == 0
    assert default_depth(4, 0) == 0
    assert default_depth(1, 2) == 4
    assert default_depth(2, 1) == 2


def test_default_depth_meets_the_refinement_conditions():
    # every pair 1 <= ell <= k <= K_MAX passes on its default local meshes;
    # k = ell is case 2, which needs 4 - min(k, 3) interior nodes per segment
    # (the meshes and classes of `solve_mhm`, built once per depth)
    part = build_structured_triangulation(2)
    for level in range(4):
        meshes = {}
        for ell in range(1, K_MAX + 1):
            sk = refine_skeleton(part, level, ell)
            for k in range(ell, K_MAX + 1):
                depth = default_depth(k, level, ell)
                if depth not in meshes:
                    classes = congruence_classes(part, sk, depth)
                    meshes[depth] = classes, [
                        build_matching_local_mesh(part, members[0], sk, depth)
                        for members in classes]
                classes, local = meshes[depth]
                report = check_refinement_conditions(k, ell, local, sk,
                                                     members=classes)
                assert report.ok, (k, ell, level, report.element_status)
        assert default_depth(2, level, 2) == level + 2
        assert default_depth(3, level, 3) == default_depth(K_MAX, level,
                                                           K_MAX) == level + 1
        assert default_depth(1, level, 1) == default_depth(1, level)


@pytest.mark.parametrize("k, ell", [(2, 2), (3, 2), (3, 3)])
def test_higher_trace_degrees_converge_at_order_k(k, ell):
    # the criterion-2 study (n = 4, nu = 0.4999, theta = 0.25, levels 0-3)
    # on the default depths of ell > 1: the last-step H1 order is k to
    # criterion 2's tolerance of 0.15
    problem = BrennerProblem(0.4999)
    h1 = [compute_errors(solve_mhm(MHMConfig(n=4, level=level, k=k, ell=ell,
                                             nu=0.4999, theta=0.25),
                                   problem)[0], problem).h1_u
          for level in range(4)]
    order = convergence_orders(h1)[-1]
    assert abs(order - k) <= 0.15, (k, ell, convergence_orders(h1))


def test_diagnose_runs_at_k_equal_to_ell(tmp_path, capsys):
    rc = main(["diagnose", "--n", "2", "--k", "2", "--ell", "2", "--out",
               str(tmp_path)])
    assert rc == 0
    assert "diagnostics: PASS" in capsys.readouterr().out


def test_diagnose_prints_the_global_problem_size(tmp_path, capsys):
    rc = main(["diagnose", "--n", "2", "--level", "1", "--k", "2", "--out",
               str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    # 2 n^2 = 8 elements; 16 faces of 2 segments with 2 (ell + 1) = 4 dofs
    assert "global unknowns: 152 (128 trace, 24 rigid-mode)" in out
    _, data = solve_mhm(MHMConfig(n=2, level=1, k=2, nu=0.4999),
                        BrennerProblem(0.4999))
    nnz = data.system.matrix.nnz
    assert nnz > 152 and f"saddle matrix nonzeros: {nnz}\n" in out


def test_config_validation():
    with pytest.raises(ValueError):
        MHMConfig(k=0)
    with pytest.raises(ValueError):
        MHMConfig(nu=0.5)
    with pytest.raises(ValueError):
        MHMConfig(kind="mystery")
    for bad in ({"n": 2.5}, {"n": 0}, {"level": -1}, {"depth": -1},
                {"theta": 0.0}, {"theta": 1.0}, {"G": 0.0}, {"G": -1.0},
                {"nu": 0.0}, {"level": 1.5}, {"k": 1.5}, {"ell": 1.5},
                {"depth": 1.5}, {"threads": 0}, {"threads": -2},
                {"threads": 1.5}, {"threads": None}):
        with pytest.raises(ValueError):
            MHMConfig(**bad)
    MHMConfig(n=np.int64(3), depth=None, G=lambda x: 1.0 + x[..., 0])
    MHMConfig(level=np.int64(1), k=2, ell=np.int32(1), depth=3, threads=2)


def test_config_caps_the_degree_at_k_max():
    assert K_MAX == 13
    with pytest.raises(ValueError, match="^k must be at most K_MAX = 13, .*"
                                         "got 14$"):
        MHMConfig(k=14)
    assert MHMConfig(k=np.int64(13)).k == 13


@pytest.mark.parametrize("source", ["command line", "config file"])
def test_cli_rejects_a_degree_above_k_max(tmp_path, capsys, source):
    out = tmp_path / "out"
    for k in (14, 13):
        if source == "config file":
            path = tmp_path / "run.cfg"
            path.write_text(f"k = {k}\n")
            argv = ["diagnose", "--config", str(path)]
        else:
            argv = ["diagnose", "--k", str(k)]
        if k == 13:
            # accepted, and passed on to the solve unchanged
            assert _parse_args(argv + ["--out", str(out)]).k == 13
            continue
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "expected an integer >= 1 and <= 13, " \
            "got '14'" in err
    assert not out.exists()


@pytest.mark.parametrize("bad, match", [
    ({"theta": "x"}, "theta must be a number in \\(0, 1\\), got 'x'"),
    ({"theta": None}, "theta must be a number"),
    ({"G": "1"}, "shear modulus G must be a number in \\(0, inf\\) or a "
                 "callable, got '1'"),
    ({"G": None}, "shear modulus G must be a number"),
    ({"G": [1.0]}, "shear modulus G must be a number"),
    ({"nu": None}, "Poisson ratio nu must be a number in \\(0, 0.5\\) or a "
                   "callable, got None"),
    ({"nu": "0.3"}, "Poisson ratio nu must be a number"),
    ({"nu": float("nan")}, "Poisson ratio nu must be a number"),
    ({"boundary_tag": 3}, "boundary_tag must be a callable or None, got 3"),
    ({"boundary_tag": "neumann"}, "boundary_tag must be a callable"),
])
def test_config_names_a_non_numeric_or_non_callable_field(bad, match):
    with pytest.raises(ValueError, match=f"^{match}"):
        MHMConfig(**bad)


@pytest.mark.parametrize("bad, match", [
    ({"n": True}, "n must be an integer >= 1, got True"),
    ({"level": False}, "level must be an integer >= 0, got False"),
    ({"k": True}, "k must be an integer >= 1, got True"),
    ({"ell": True}, "ell must be an integer >= 1, got True"),
    ({"depth": False}, "depth must be an integer >= 0 or None, got False"),
    ({"threads": True}, "threads must be an integer >= 1, got True"),
    ({"theta": True}, "theta must be a number in \\(0, 1\\), got True"),
    ({"G": True}, "shear modulus G must be a number in \\(0, inf\\) or a "
                  "callable, got True"),
    ({"nu": False}, "Poisson ratio nu must be a number in \\(0, 0.5\\) or a "
                    "callable, got False"),
])
def test_config_rejects_booleans(bad, match):
    # bool is an Integral and a Real, but True is no grid size or modulus
    with pytest.raises(ValueError, match=f"^{match}$"):
        MHMConfig(**bad)


def test_solver_failures_are_mhm_errors(monkeypatch):
    # local: alpha outside its admissible interval
    part = build_structured_triangulation(1)
    sk = refine_skeleton(part, 0, 1)
    lm = build_matching_local_mesh(part, 0, sk, 2)
    with pytest.raises(MHMError, match="outside the admissible interval"):
        assemble_local_gals(part, lm, sk, MaterialField(1.0, 0.3), -1.0, 1,
                            c_inverse=inverse_constant(1))
    # global: a rigid mode coupled to no trace dof
    B = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(MHMError, match="singular global system"):
        solve_global(saddle_system(sp.identity(2), B, np.ones(2),
                                   np.ones(2)))
    # pipeline: local meshes failing the refinement conditions
    with pytest.raises(MHMError, match="refinement conditions"):
        solve_mhm(MHMConfig(n=1, level=0, k=1, ell=1, depth=0), PATCH)
    # inverse constant: a failed or non-positive eigenvalue estimate
    mesh = unit_square_mesh(1)

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(fem_core, "eigh", singular)
    with pytest.raises(MHMError, match="singular mass form"):
        estimate_inverse_constant(1, mesh)
    monkeypatch.setattr(fem_core, "eigh", lambda *a, **k: np.array([-1.0]))
    with pytest.raises(MHMError, match="non-positive"):
        estimate_inverse_constant(1, mesh)
    assert issubclass(LocalSolverError, MHMError)
    assert issubclass(GlobalSolverError, MHMError)
    assert issubclass(MHMError, RuntimeError)


def _nan_above(x):
    x = np.asarray(x, dtype=float)
    return np.where(x[..., 1:] > 0.9, np.nan, 0.1) * np.ones(x.shape)


@pytest.mark.parametrize("f, u, g, message", [
    (lambda x: x[..., 0], PATCH.u, None,
     r"the load f must return one 2-vector per point, shape \([\d, ]+, 2\), "
     r"got shape \([\d, ]+\)$"),
    (_nan_above, PATCH.u, None,
     "the load f must return finite values, got nan at the point "),
    (PATCH.f, _nan_above, None,
     "the Dirichlet data u_dirichlet must return finite values, got nan at "
     "the point "),
    (PATCH.f, PATCH.u, lambda x: np.zeros(np.shape(x)[:-1]),
     r"the traction g must return one 2-vector per point, shape "
     r"\([\d, ]+, 2\), got shape \([\d, ]+\)$"),
    (PATCH.f, PATCH.u, _nan_above,
     "the traction g must return finite values, got nan at the point ")],
    ids=["f shape", "f nan", "u nan", "g shape", "g nan"])
def test_two_level_loads_and_boundary_data_are_checked(f, u, g, message):
    # named where they are sampled, not blamed on the refinement conditions
    # by a failed local residual
    problem = SimpleNamespace(f=f, u=u)
    config = MHMConfig(n=2, nu=0.3, boundary_tag=_side_tag)
    with pytest.raises(ValueError, match=f"^{message}"):
        solve_mhm(config, problem, g=g)


def test_callable_nu_runs():
    problem = BrennerProblem(0.3)
    runs = {}
    for name, nu in (("number", 0.3),
                     ("constant", lambda x: np.full(np.shape(x)[:-1], 0.3)),
                     ("varying", lambda x: 0.3 + 0.1 * x[..., 0])):
        cfg = MHMConfig(n=2, level=0, k=1, ell=1, nu=nu)
        runs[name], _ = solve_mhm(cfg, problem)
    assert np.all(np.isfinite(runs["varying"].lam))
    assert np.abs(runs["varying"].lam - runs["number"].lam).max() > 1e-6
    scale = np.abs(runs["number"].lam).max()
    assert np.abs(runs["constant"].lam - runs["number"].lam).max() \
        <= 1e-9 * scale


def test_run_data_contents():
    cfg = MHMConfig(n=2, level=0, k=1, ell=1, nu=0.3)
    sol, data = solve_mhm(cfg, PATCH)
    assert data.partition.n_elements == 8
    # one record and one local mesh per class, 8 member rows in all
    assert sum(len(c.element_ids) for c in data.caches) == 8
    assert [lm.element_id for lm in data.local_meshes] == \
        [c.element_ids[0] for c in data.caches]
    assert data.refinement.ok
    assert data.config is cfg
    assert all(f.p is not None for f in sol.fields.values())


def test_thread_count_does_not_change_result():
    # the structured grid is one class; the Neumann faces give four
    for n, boundary_tag in ((2, None), (4, _side_tag)):
        sols = [solve_mhm(MHMConfig(n=n, level=0, k=1, ell=1, nu=0.3,
                                    threads=threads,
                                    boundary_tag=boundary_tag), PATCH)[0]
                for threads in (1, 4)]
        assert sols[0].lam.tobytes() == sols[1].lam.tobytes()
        assert sols[0].rho.tobytes() == sols[1].rho.tobytes()


def test_solution_records_the_thread_count():
    for threads in (2, 1):
        cfg = MHMConfig(n=2, level=0, k=1, ell=1, nu=0.3, threads=threads)
        sol, _ = solve_mhm(cfg, PATCH)
        assert sol.threads == threads
    sol, _ = solve_mhm(MHMConfig(n=2, level=0, k=1, ell=1, nu=0.3), PATCH)
    assert sol.threads == 1


def test_threads_estimate_inverse_constant_once(monkeypatch):
    calls = []
    estimate = fem_core.estimate_inverse_constant

    def counting(*args, **kwargs):
        calls.append(args)
        return estimate(*args, **kwargs)

    monkeypatch.setattr(fem_core, "estimate_inverse_constant", counting)
    fem_core.inverse_constant.cache_clear()
    cfg = MHMConfig(n=2, level=0, k=1, ell=1, nu=0.3, threads=2)
    solve_mhm(cfg, PATCH)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------

def test_parse_levels():
    assert _parse_levels("0:3") == [0, 1, 2, 3]
    assert _parse_levels("1,4,2") == [1, 4, 2]


@pytest.mark.parametrize("argv", [
    ["convergence", "--levels", "3:1"],
    ["convergence", "--levels", "0:x"],
    ["convergence", "--levels", "1,,2"],
    ["convergence", "--levels=-1:2"],
    ["nu-sweep", "--methods", "typo"],
    ["nu-sweep", "--methods", "mhm-gals,typo"],
    ["nu-sweep", "--nus", "0.3,x"],
    ["nu-sweep", "--nus", "0.3,0.5"],
    ["nu-sweep", "--nus", "0,0.3"],
    ["nu-sweep", "--nus=nan"],
    ["diagnose", "--nu", "0.7"],
    ["diagnose", "--nu", "0"],
    ["diagnose", "--nu=nan"],
    ["patch-test", "--theta", "2"],
    ["patch-test", "--theta", "0"],
    ["diagnose", "--k", "0"],
    ["diagnose", "--threads", "0"],
    ["patch-test", "--n", "0"],
    ["patch-test", "--n", "1.5"],
    ["diagnose", "--ell", "0"],
    ["diagnose", "--level=-1"],
])
@pytest.mark.parametrize("from_file", [False, True])
def test_bad_levels_and_methods_exit_with_usage(argv, from_file, tmp_path,
                                                capsys):
    command, option = argv[0], argv[1:]
    if from_file:
        key, value = "=".join(option).lstrip("-").split("=", 1)
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {value}\n")
        option = ["--config", str(path)]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, *option, "--out", str(out)])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option", [["--k", "2"], ["--ell", "2"],
                                    ["--nu", "0.4"], ["--level", "1"],
                                    ["--override-wellposedness"]])
@pytest.mark.parametrize("from_file", [False, True])
def test_patch_test_rejects_the_options_it_fixes(option, from_file, tmp_path,
                                                 capsys):
    # the patch test always runs (k, ell) in {(1, 1), (2, 1)}, nu = 0.3 at
    # level 0, so these options would be ignored
    if from_file:
        key = option[0].lstrip("-")
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {option[1] if len(option) > 1 else 'yes'}"
                        "\n")
        option = ["--config", str(path)]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["patch-test", *option, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert ("unknown config key" if from_file else "unrecognized") in err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["export-fields"],
    ["convergence", "--method", "mhm-gals", "--levels", "0"],
    ["nu-sweep", "--methods", "mhm-gals", "--nus", "0.3"]])
def test_failed_solve_leaves_no_output_directory(command, tmp_path):
    # k = 1 < ell = 2 fails the refinement conditions on every local mesh,
    # before any result exists
    out = tmp_path / "d"
    with pytest.raises(MHMError, match="refinement conditions"):
        main(command + ["--n", "2", "--k", "1", "--ell", "2", "--nu", "0.3",
                        "--threads", "1", "--out", str(out)])
    assert not out.exists()


def test_config_file_rejects_bad_choice_and_value(tmp_path, capsys):
    for text, match in (("method = typo", "config key method: invalid "
                         "choice 'typo'"),
                        ("n = x", "config key n: invalid literal"),
                        ("override-wellposedness = ture",
                         "config key override_wellposedness: expected "
                         "1/true/yes/on or 0/false/no/off, got 'ture'")):
        path = tmp_path / "run.cfg"
        path.write_text(text + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["convergence", "--config", str(path)])
        assert exc.value.code == 2
        assert match in capsys.readouterr().err


@pytest.mark.parametrize("text, want", [
    ("1", True), ("TRUE", True), ("Yes", True), ("on", True),
    ("0", False), ("False", False), ("NO", False), ("off", False)])
def test_config_file_switch_values(tmp_path, text, want):
    path = tmp_path / "run.cfg"
    path.write_text(f"override-wellposedness = {text}\n")
    args = _parse_args(["diagnose", "--config", str(path)])
    assert args.override_wellposedness is want


def test_config_file_fills_defaults_only(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nnu = 0.4\nn = 3\noverride-wellposedness = "
                    "true\n")
    vals = _read_config_file(str(path))
    assert vals == {"nu": "0.4", "n": "3", "override_wellposedness": "true"}

    args = _parse_args(["diagnose", "--n", "5", "--config", str(path)])
    assert args.nu == 0.4           # default: filled from file
    assert args.n == 5              # explicit flag wins over the file
    assert args.override_wellposedness is True


@pytest.mark.parametrize("option", [["--threads", "1"], ["--thread", "1"],
                                    ["--threads=1"], ["--thr=1"]])
def test_command_line_beats_config_file_even_abbreviated(tmp_path, option):
    path = tmp_path / "run.cfg"
    path.write_text("threads = 2\nlevel = 3\n")
    args = _parse_args(["diagnose", *option, "--lev", "1", "--config",
                        str(path)])
    assert args.threads == 1 and args.level == 1
    args = _parse_args(["diagnose", "--config", str(path)])
    assert args.threads == 2 and args.level == 3


def test_config_file_values_take_each_option_type(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("threads = 2\nnu = 0.4\nlevels = 0:2\n"
                    "override-wellposedness = yes\n")
    args = _parse_args(["convergence", "--config", str(path)])
    assert args.threads == 2 and type(args.threads) is int
    assert args.nu == 0.4 and args.levels == [0, 1, 2]
    assert args.override_wellposedness is True


@pytest.mark.parametrize("text, match", [
    ("frobnicate = 1", "unknown config key: frobnicate"),
    ("func = cmd_diagnose", "unknown config key: func"),
    ("nu 0.4", "malformed config line: 'nu 0.4'"),
    (None, "No such file or directory"),
])
def test_config_file_rejects_unknown_key(tmp_path, capsys, text, match):
    path = tmp_path / "bad.cfg"
    if text is not None:
        path.write_text(text + "\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["patch-test", "--config", str(path), "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and match in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------------

def test_patch_test_command_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    rc1 = main(["patch-test", "--n", "2", "--out", str(out1)])
    rc2 = main(["patch-test", "--n", "2", "--out", str(out2)])
    assert rc1 == 0 and rc2 == 0
    b1 = (out1 / "patch_test.csv").read_bytes()
    b2 = (out2 / "patch_test.csv").read_bytes()
    assert b1 == b2


def test_convergence_command_writes_artifacts(tmp_path):
    out = tmp_path / "conv"
    rc = main(["convergence", "--method", "mhm-ga", "--k", "1",
               "--levels", "0:1", "--nu", "0.3", "--out", str(out)])
    assert rc == 0
    csv = (out / "convergence_mhm-ga_k1.csv").read_text().splitlines()
    assert csv[0].startswith("H,err_l2,ord_l2")
    assert len(csv) == 3
    # H halves between levels
    h = [float(ln.split(",")[0]) for ln in csv[1:]]
    assert abs(h[0] / h[1] - 2) < 1e-10
    summary = json.loads((out / "summary_mhm-ga_k1.json").read_text())
    assert summary["method"] == "mhm-ga"
    assert summary["levels"] == [0, 1]


def test_convergence_command_without_order_bands(tmp_path):
    # no reference orders exist above k = 3: the study runs and says so
    out = tmp_path / "conv"
    rc = main(["convergence", "--k", "4", "--levels", "0:1", "--out",
               str(out)])
    assert rc == 0
    summary = json.loads((out / "summary_mhm-gals_k4.json").read_text())
    assert summary["order_bands"] is None
    assert summary["bands_note"] == "no order bands exist for k=4"
    assert len(summary["orders_last_step"]) == 4


@pytest.mark.parametrize("command", [
    ["convergence", "--method", "gals", "--levels", "0:1"],
    ["nu-sweep", "--methods", "gals", "--nus", "0.3,0.4"]])
def test_single_level_commands_at_high_degree(tmp_path, command):
    # 2^(5-k) rounds to no cell at k = 6: the mesh keeps one cell a side
    assert main([*command, "--k", "6", "--out", str(tmp_path)]) == 0


def test_diagnose_refuses_a_large_system_before_solving(tmp_path, capsys,
                                                       monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_mhm was called")

    monkeypatch.setattr(cli, "solve_mhm", no_solve)
    rc = main(["diagnose", "--n", "16", "--level", "1", "--out",
               str(tmp_path)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("diagnose: 7936 global unknowns exceed "
                   "SPECTRAL_MAX_UNKNOWNS = 6000\n")
    # the count is the solved system's: 152 at n = 2, level 1, ell = 1
    monkeypatch.setattr(cli, "SPECTRAL_MAX_UNKNOWNS", 151)
    assert main(["diagnose", "--n", "2", "--level", "1", "--k", "2",
                 "--out", str(tmp_path)]) == 2
    assert "152 global unknowns" in capsys.readouterr().err


def test_nan_shear_modulus_region_fails_before_alpha(recwarn):
    # the range check names the fault before the material groups cast the
    # samples to integers and alpha falls outside its interval
    cfg = MHMConfig(n=2, level=0, k=1, nu=0.3, threads=1,
                    G=lambda x: np.where(x[..., 0] < 0.5, 1.0, np.nan))
    with pytest.raises(ValueError, match="^shear modulus must be positive$"):
        solve_mhm(cfg, PATCH)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_diagnose_command(tmp_path, capsys):
    rc = main(["diagnose", "--n", "2", "--nu", "0.3", "--out",
               str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "lambda_min" in out
    assert "PASS" in out


def test_export_fields_command(tmp_path):
    out = tmp_path / "fields"
    rc = main(["export-fields", "--n", "2", "--nu", "0.3", "--out",
               str(out)])
    assert rc == 0
    fields = (out / "fields.csv").read_text().splitlines()
    assert fields[0] == "element,x,y,u1,u2,p,s11,s12,s22"
    assert len(fields) > 1
    traction = (out / "traction.csv").read_text().splitlines()
    assert traction[0] == "segment,component,mode,coefficient"
    # one row per trace dof: 16 faces on the n=2 grid, 4 dofs each
    assert len(traction) == 1 + 4 * 16


def test_export_fields_honours_override_wellposedness(tmp_path):
    # k = 1 < ell = 2 fails the refinement conditions on every local mesh;
    # as for diagnose, the flag forces the solve
    argv = ["export-fields", "--n", "2", "--k", "1", "--ell", "2", "--nu",
            "0.3", "--threads", "1"]
    with pytest.raises(MHMError, match="refinement conditions"):
        main(argv + ["--out", str(tmp_path / "a")])
    out = tmp_path / "b"
    assert main(argv + ["--override-wellposedness", "--out", str(out)]) == 0
    assert (out / "fields.csv").read_text().startswith("element,x,y,")
    assert (out / "traction.csv").exists()


def test_export_fields_identical_across_threads(tmp_path, monkeypatch):
    # one member per chunk: the 8 chunks of the two meshes run in parallel
    monkeypatch.setattr(local_solver, "SAMPLE_POINTS", 1)
    files = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert main(["export-fields", "--n", "2", "--nu", "0.3", "--k", "2",
                     "--threads", threads, "--out", str(out)]) == 0
        files.append([(out / name).read_bytes()
                      for name in ("fields.csv", "traction.csv")])
    assert files[0] == files[1]


@pytest.mark.parametrize("k", [1, 2])
def test_export_fields_corner_values_are_vertex_coefficients(tmp_path, k):
    # at a triangle corner every P_k basis function but the vertex's own
    # vanishes, so the exported fields are the vertex dof coefficients
    out = tmp_path / "fields"
    rc = main(["export-fields", "--n", "2", "--nu", "0.3", "--k", str(k),
               "--threads", "1", "--out", str(out)])
    assert rc == 0
    rows = np.loadtxt(out / "fields.csv", delimiter=",", skiprows=1)
    cfg = MHMConfig(n=2, k=k, nu=0.3, threads=1)
    sol, _ = solve_mhm(cfg, BrennerProblem(0.3))
    expected = []
    for eid in sorted(sol.fields):
        fld = sol.fields[eid]
        vertex_dofs = fld.cache.dofh.loc2glob[:, :3].ravel()
        u = fld.u.reshape(-1, 2)[vertex_dofs]
        expected.append(np.column_stack([
            np.full(len(vertex_dofs), eid),
            fld.cache.dofh.dof_coords[vertex_dofs] @ fld.map[:, :2].T
            + fld.map[:, 2], u,
            fld.p[vertex_dofs]]))
    expected = np.concatenate(expected)
    assert rows.shape[0] == expected.shape[0]
    scale = np.abs(expected).max()
    assert np.abs(rows[:, :6] - expected).max() < 1e-12 * scale


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])
