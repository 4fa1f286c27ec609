"""Command-line experiment runner: convergence studies, incompressibility
sweeps, patch tests, well-posedness diagnostics and field export, emitting
plot-ready CSV artifacts and a machine-readable summary.
"""

import argparse
import json
import os
import sys
from types import SimpleNamespace

import numpy as np

from . import _assembly as asm
from .fem_core import K_MAX
from .mesh import (build_structured_triangulation, refine_skeleton,
                   unit_square_mesh)
from .pipeline import MHMConfig, solve_mhm
from .singlelevel import solve_galerkin_dirichlet, solve_gals_dirichlet
from .verify import (SPECTRAL_MAX_UNKNOWNS, BrennerProblem, LinearProblem,
                     compressibility_residual, compute_errors,
                     convergence_orders, spectral_diagnostics)

CSV_HEADER = "H,err_l2,ord_l2,err_h1,ord_h1,err_sigma,ord_sigma,err_p,ord_p"

# acceptance bands: observed asymptotic orders per degree, minus a 0.25
# margin for parameter and mesh differences
ORDER_BANDS = {
    1: (2.01, 1.00, 1.10, 1.47),
    2: (3.21, 2.11, 1.94, 1.93),
    3: (3.50, 2.50, 2.49, 2.49),
}
BAND_MARGIN = 0.25

MHM_METHODS = {"mhm-gals": "gals", "mhm-ga": "galerkin"}
SINGLE_METHODS = {"gals", "stdgalerkin"}
METHODS = sorted(MHM_METHODS) + sorted(SINGLE_METHODS)


def _fmt(x):
    return f"{x:.16e}"


def _parse_levels(text):
    """The levels of `--levels`, an a:b range or a comma list, as an
    argparse type."""
    a, colon, b = text.partition(":")
    try:
        levels = (list(range(int(a), int(b) + 1)) if colon
                  else [int(t) for t in text.split(",")])
    except ValueError:
        levels = []
    if not levels or min(levels) < 0:
        raise argparse.ArgumentTypeError(
            "expected an a:b range with 0 <= a <= b or a comma list of "
            f"integers >= 0, got {text!r}")
    return levels


def _parse_methods(text):
    """The comma list of `--methods`, as an argparse type."""
    methods = text.split(",")
    unknown = set(methods) - set(METHODS)
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown method {min(unknown)!r} (choose from "
            f"{', '.join(METHODS)})")
    return methods


def _parse_nus(text):
    """The comma list of `--nus`, Poisson ratios in (0, 1/2), as an argparse
    type."""
    try:
        nus = [float(t) for t in text.split(",")]
    except ValueError:
        nus = []
    if not nus or not all(0 < nu < 0.5 for nu in nus):
        raise argparse.ArgumentTypeError(
            "expected a comma list of Poisson ratios in (0, 1/2), got "
            f"{text!r}")
    return nus


def _integer(low, high=None):
    """An argparse type: integers >= low and, if given, <= high."""
    def parse(text):
        value = int(text)
        if value < low or high is not None and value > high:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}"
                f"{'' if high is None else f' and <= {high}'}, got {text!r}")
        return value
    parse.__name__ = "int"          # argparse's "invalid int value" message
    return parse


def _inside(low, high, what):
    """An argparse type: `what`, a float in the open interval (low, high)."""
    def parse(text):
        value = float(text)
        if not low < value < high:  # nan is outside
            raise argparse.ArgumentTypeError(
                f"expected {what} in ({low:g}, {high:g}), got {text!r}")
        return value
    parse.__name__ = "float"
    return parse


def _read_config_file(path):
    out = {}
    with open(path) as f:
        for ln in f:
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            if "=" not in ln:
                raise ValueError(f"malformed config line: {ln!r}")
            key, val = ln.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _flag(text):
    """A switch's config value: 1/true/yes/on or 0/false/no/off, any case."""
    word = text.lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected 1/true/yes/on or 0/false/no/off, got {text!r}")


def _apply_config_file(command, path):
    """Make the values of the config file at `path` defaults of the command
    parser `command`, each converted and checked as its command-line option
    converts it; a malformed line, unknown key or bad value is a usage
    error."""
    try:
        file_vals = _read_config_file(path)
    except (OSError, ValueError) as exc:
        command.error(str(exc))
    actions = {a.dest: a for a in command._actions if a.dest != "help"}
    defaults = {}
    for key, val in file_vals.items():
        action = actions.get(key)
        if action is None:
            command.error(f"unknown config key: {key}")
        try:
            value = (_flag if action.nargs == 0 else action.type or str)(val)
        except (argparse.ArgumentTypeError, ValueError) as exc:
            command.error(f"config key {key}: {exc}")
        if value not in (action.choices or [value]):
            command.error(f"config key {key}: invalid choice {value!r}")
        defaults[key] = value
    command.set_defaults(**defaults)


def _errors_to_rows(Hs, records):
    rows = []
    cols = [np.array([getattr(r, a) for r in records])
            for a in ("l2_u", "h1_u", "l2_sigma", "l2_p")]
    orders = [convergence_orders(c) if len(c) > 1 and np.all(c > 0) else []
              for c in cols]
    for i, H in enumerate(Hs):
        row = [_fmt(H)]
        for c, o in zip(cols, orders):
            row.append(_fmt(c[i]))
            row.append(f"{o[i - 1]:.2f}" if i > 0 and len(o) else "-")
        rows.append(",".join(row))
    return rows, orders


def _solve_single(method, n, k, nu, theta, problem):
    mesh = unit_square_mesh(n)
    if method == "stdgalerkin":
        return solve_galerkin_dirichlet(mesh, problem.material, k, problem.f,
                                        u_dirichlet=problem.u)
    return solve_gals_dirichlet(mesh, problem.material, k, problem.f,
                                u_dirichlet=problem.u, theta=theta)


def _single_mesh_size(k):
    """Cells per side of the level-0 single-level mesh at degree k: 2^(5-k),
    so that h = sqrt(2)/n = 2^(k-4.5), and one from k = 5 on."""
    return max(1, int(round(2 ** (5 - k))))


def _mhm_config(args, **overrides):
    """The MHMConfig of the solve options `args`, with `overrides`."""
    fields = dict(n=args.n, level=args.level, k=args.k, ell=args.ell,
                  nu=args.nu, theta=args.theta, threads=args.threads,
                  override_wellposedness=args.override_wellposedness)
    return MHMConfig(**{**fields, **overrides})


def cmd_convergence(args):
    method = args.method
    problem = BrennerProblem(args.nu)
    levels = args.levels
    records, Hs = [], []
    for level in levels:
        if method in MHM_METHODS:
            sol, data = solve_mhm(_mhm_config(
                args, level=level, kind=MHM_METHODS[method]), problem)
            H = data.skeleton.h_skeleton
        else:
            n = _single_mesh_size(args.k) * 2 ** level
            sol = _solve_single(method, n, args.k, args.nu, args.theta,
                                problem)
            H = sol.dofh.mesh.h_max
        records.append(compute_errors(sol, problem))
        Hs.append(H)
    rows, orders = _errors_to_rows(Hs, records)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, f"convergence_{method}_k{args.k}.csv")
    with open(csv_path, "w") as f:
        f.write(CSV_HEADER + "\n")
        f.write("\n".join(rows) + "\n")

    summary = {"method": method, "k": args.k, "ell": args.ell, "nu": args.nu,
               "levels": levels, "csv": csv_path}
    failed = False
    if method in ("mhm-gals", "gals") and len(levels) > 1:
        measured = [float(o[-1]) for o in orders]
        summary["orders_last_step"] = measured
        if args.k in ORDER_BANDS:
            bands = [b - BAND_MARGIN for b in ORDER_BANDS[args.k]]
            checks = [m >= b for m, b in zip(measured, bands)]
            summary["order_bands"] = bands
            summary["bands_pass"] = checks
            failed = not all(checks)
        else:
            summary["order_bands"] = None
            summary["bands_note"] = f"no order bands exist for k={args.k}"
    with open(os.path.join(args.out, f"summary_{method}_k{args.k}.json"),
              "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
    print("\n".join([CSV_HEADER] + rows))
    return 1 if failed else 0


def cmd_nu_sweep(args):
    methods = args.methods
    nus = args.nus
    results = {}
    for method in methods:
        h1 = []
        for nu in nus:
            problem = BrennerProblem(nu)
            if method in MHM_METHODS:
                sol, _ = solve_mhm(_mhm_config(
                    args, nu=nu, kind=MHM_METHODS[method]), problem)
            else:
                sol = _solve_single(method, _single_mesh_size(args.k), args.k,
                                    nu, args.theta, problem)
            h1.append(compute_errors(sol, problem).h1_u)
        results[method] = h1
    summary = {"nus": nus, "h1_errors": results, "ratios": {}}
    rows = ["method,nu,err_h1"]
    failed = False
    for method, errs in results.items():
        for nu, e in zip(nus, errs):
            rows.append(f"{method},{nu},{_fmt(e)}")
        ratio = float(errs[-1] / errs[0])
        summary["ratios"][method] = ratio
        if method in ("mhm-gals", "gals") and ratio > 3:
            failed = True
        if method == "stdgalerkin" and args.k == 1 and ratio < 5:
            failed = True
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "nu_sweep.csv"), "w") as f:
        f.write("\n".join(rows) + "\n")
    with open(os.path.join(args.out, "summary_nu_sweep.json"), "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
    print("\n".join(rows))
    return 1 if failed else 0


def cmd_patch_test(args):
    problem = LinearProblem([[0.3, 0.1], [-0.2, 0.4]], [0.05, -0.02],
                            nu=0.3)
    scale = max(np.abs(problem.A).max(), 1.0)
    failed = False
    rows = ["k,ell,err_l2,err_h1,err_sigma,err_p"]
    for k, ell in ((1, 1), (2, 1)):
        cfg = MHMConfig(n=args.n, level=0, k=k, ell=ell, nu=0.3,
                        theta=args.theta, threads=args.threads)
        sol, _ = solve_mhm(cfg, problem)
        rec = compute_errors(sol, problem)
        vals = (rec.l2_u, rec.h1_u, rec.l2_sigma, rec.l2_p)
        rows.append(f"{k},{ell}," + ",".join(_fmt(v) for v in vals))
        if max(vals) > 1e-9 * scale:
            failed = True
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "patch_test.csv"), "w") as f:
        f.write("\n".join(rows) + "\n")
    print("\n".join(rows))
    print("patch test:", "FAIL" if failed else "PASS")
    return 1 if failed else 0


def cmd_diagnose(args):
    # refuse before the solve what spectral_diagnostics refuses after it
    part = build_structured_triangulation(args.n)
    n = 3 * part.n_elements + refine_skeleton(part, args.level,
                                              args.ell).n_dofs
    if n > SPECTRAL_MAX_UNKNOWNS:
        print(f"diagnose: {n} global unknowns exceed SPECTRAL_MAX_UNKNOWNS = "
              f"{SPECTRAL_MAX_UNKNOWNS}", file=sys.stderr)
        return 2
    problem = BrennerProblem(args.nu)
    sol, data = solve_mhm(_mhm_config(args), problem)
    spec = spectral_diagnostics(data.system, skeleton=data.skeleton)
    comp = compressibility_residual(sol, problem.material)
    system = data.system
    print(f"refinement conditions: {'pass' if data.refinement.ok else 'FAIL'}")
    print(f"global unknowns: {len(system.order)} ({system.n_lambda} trace, "
          f"{len(system.rhs_rm)} rigid-mode)")
    print(f"saddle matrix nonzeros: {system.matrix.nnz}")
    print(f"lambda_min on ker(B'): {spec.lambda_min:.6e}")
    print(f"lambda_min, deviatoric: {spec.lambda_min_deviatoric:.6e}")
    print(f"smallest singular value of B: {spec.inf_sup:.6e}")
    print(f"|A|_2: {spec.norm_A:.6e}")
    print(f"max |compressibility residual|: {max(map(abs, comp.values())):.3e}")
    print("diagnostics:", "PASS" if spec.ok else "FAIL")
    return 0 if spec.ok else 1


def cmd_export_fields(args):
    problem = BrennerProblem(args.nu)
    sol, data = solve_mhm(_mhm_config(args), problem)
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    def at_corners(dofh):
        # one geometry per local mesh; members are its images
        geo = asm.Geometry(dofh.mesh)
        vals, grads, _ = dofh.ref.tabulate(corners)
        return SimpleNamespace(geo=geo, vals=vals, ref_grads=grads,
                               points=geo.physical_points(corners))

    def chunk(tab, l2g, eids, U, P, maps):
        uh, guh, ph, _ = asm.field_values(tab, l2g, U, P, problem.epsilon,
                                          asm.map_signs(maps))
        sh = asm.stress(problem.G, guh, ph)
        return np.repeat(eids, ph[0].size), np.concatenate([
            asm.map_points(maps, tab.points), uh, ph[..., None],
            sh.reshape(sh.shape[:-2] + (4,))[..., [0, 1, 3]]],
            axis=-1).reshape(-1, 8)

    ids, tables = zip(*sol.map_chunks(chunk, at_corners))
    ids = np.concatenate(ids)
    table = np.concatenate(tables)[np.argsort(ids, kind="stable")]
    rows = [",".join([str(eid)] + [_fmt(v) for v in r])
            for eid, r in zip(np.sort(ids).tolist(), table)]
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "fields.csv"), "w") as f:
        f.write("\n".join(["element,x,y,u1,u2,p,s11,s12,s22"] + rows) + "\n")
    # trace dof d is local dof d % dps of segment d // dps
    sk = data.skeleton
    seg, local = np.divmod(np.arange(sk.n_dofs), sk.dofs_per_segment)
    lam_rows = ["segment,component,mode,coefficient"] + [
        f"{s},{j // (sk.degree + 1)},{j % (sk.degree + 1)},{_fmt(v)}"
        for s, j, v in zip(seg.tolist(), local.tolist(), sol.lam)]
    with open(os.path.join(args.out, "traction.csv"), "w") as f:
        f.write("\n".join(lam_rows) + "\n")
    print(f"wrote {args.out}/fields.csv and {args.out}/traction.csv")
    return 0


def _add_common(p, solve_options=True):
    """The options of the commands; without `solve_options`, only those the
    patch test reads: it fixes k, ell, nu and the level, and never overrides
    the refinement conditions."""
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--threads", type=_integer(1), default=1,
                   help="threads of the error evaluation")
    p.add_argument("--theta", type=_inside(0, 1, "a fraction"), default=0.5)
    p.add_argument("--n", type=_integer(1), default=4)
    if not solve_options:
        return
    p.add_argument("--override-wellposedness", action="store_true",
                   dest="override_wellposedness")
    p.add_argument("--k", type=_integer(1, K_MAX), default=1,
                   help=f"local degree, 1 to {K_MAX}")
    p.add_argument("--ell", type=_integer(1), default=1)
    p.add_argument("--nu", type=_inside(0, 0.5, "a Poisson ratio"),
                   default=0.4999)
    p.add_argument("--level", type=_integer(0), default=0)


def _build_parser():
    parser = argparse.ArgumentParser(prog="mhmelast")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convergence", help="refinement study for one method")
    _add_common(p)
    p.add_argument("--method", default="mhm-gals",
                   choices=METHODS)
    p.add_argument("--levels", default="0:4", type=_parse_levels,
                   help="a:b range or comma list")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("nu-sweep", help="locking comparison across nu")
    _add_common(p)
    p.add_argument("--methods", default="stdgalerkin,mhm-gals",
                   type=_parse_methods)
    p.add_argument("--nus", default="0.3,0.4,0.49,0.499,0.4999,0.49999",
                   type=_parse_nus, help="comma list, each in (0, 1/2)")
    p.set_defaults(func=cmd_nu_sweep)

    p = sub.add_parser("patch-test", help="linear-solution exactness test")
    _add_common(p, solve_options=False)
    p.set_defaults(func=cmd_patch_test)

    p = sub.add_parser("diagnose", help="well-posedness diagnostics")
    _add_common(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("export-fields", help="export sampled solution fields")
    _add_common(p)
    p.set_defaults(func=cmd_export_fields)

    return parser, sub.choices


def _parse_args(argv=None):
    """Command line, then config file.  The file's values become defaults
    of the chosen command and the command line is parsed again, so each
    option given on it wins, abbreviated or not."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        _apply_config_file(commands[args.command], args.config)
        args = parser.parse_args(argv)
    return args


def main(argv=None):
    args = _parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
