"""The per-layer view of an mhmelast solve: which entry points the tracer
wraps, and how their spans and counts become the per-layer metrics."""

MB = 1e6


def _add(key, fn):
    def hook(tracer, result):
        tracer.add(key, fn(result))
    return hook


def _basis_bytes(cache):
    up = cache.Up.nbytes if cache.Up is not None else 0
    return cache.Uu.nbytes + up


def _global_unknowns(tracer, system):
    n = system.A.shape[0] + system.B.shape[1]
    tracer.add("global.unknowns", n)
    tracer.add("global.matrix_bytes", 8 * n * n)    # dense float64 saddle


def _single_dofs(tracer, solution):
    tracer.peak("single.dofs", solution.u.size)


# (module, attribute, result hook); `splu` and `spsolve` are scipy's, traced
# as called from the named module.
ENTRY_POINTS = [
    ("pipeline", "solve_mhm", None),
    ("mesh", "build_structured_triangulation", None),
    ("mesh", "refine_skeleton", None),
    ("mesh", "build_matching_local_mesh",
     _add("mesh.fine_triangles", lambda lm: lm.mesh.n_triangles)),
    ("mesh", "check_refinement_conditions", None),
    ("_assembly", "DofHandler", None),
    ("_assembly", "Tabulation", None),
    ("_assembly", "gals_element_matrices", None),
    ("_assembly", "galerkin_element_matrices", None),
    ("_assembly", "scatter", None),
    ("_assembly", "scatter_vector", None),
    ("local_solver", "build_local_cache",
     _add("local.basis_bytes", _basis_bytes)),
    ("local_solver", "assemble_local_gals", None),
    ("local_solver", "assemble_local_galerkin", None),
    ("local_solver", "splu", _add("local.lu_nnz", lambda lu: lu.nnz)),
    ("local_solver", "solve_local_basis",
     _add("local.rhs_columns", lambda cache: cache.Uu.shape[1])),
    ("mhm_global", "assemble_global_saddle", _global_unknowns),
    ("mhm_global", "solve_global", None),
    ("mhm_global", "postprocess_solution", None),
    ("verify", "compute_errors", None),
    ("singlelevel", "solve_gals_dirichlet", _single_dofs),
    ("singlelevel", "solve_galerkin_dirichlet", _single_dofs),
    ("singlelevel", "spsolve", None),
]

# metric -> span names whose self seconds it sums
SELF_TIME_METRICS = {
    "mesh.coarse_s": ["mesh.build_structured_triangulation",
                      "mesh.refine_skeleton"],
    "mesh.local_s": ["mesh.build_matching_local_mesh"],
    "mesh.check_s": ["mesh.check_refinement_conditions"],
    "assembly.dofhandler_s": ["_assembly.DofHandler"],
    "assembly.tabulation_s": ["_assembly.Tabulation"],
    "assembly.kernel_s": ["_assembly.gals_element_matrices",
                          "_assembly.galerkin_element_matrices"],
    "assembly.scatter_s": ["_assembly.scatter", "_assembly.scatter_vector"],
    "local.alpha_s": ["local_solver.build_local_cache"],
    "local.assemble_s": ["local_solver.assemble_local_gals",
                         "local_solver.assemble_local_galerkin"],
    "local.factor_s": ["local_solver.splu"],
    "local.solve_s": ["local_solver.solve_local_basis"],
    "global.assemble_s": ["mhm_global.assemble_global_saddle"],
    "global.solve_s": ["mhm_global.solve_global"],
    "global.reconstruct_s": ["mhm_global.postprocess_solution"],
    "verify.errors_self_s": ["verify.compute_errors"],
    "single.self_s": ["singlelevel.solve_gals_dirichlet",
                      "singlelevel.solve_galerkin_dirichlet"],
    "single.spsolve_s": ["singlelevel.spsolve"],
}

CALL_METRICS = {
    "mesh.local_calls": "mesh.build_matching_local_mesh",
    "assembly.dofhandler_calls": "_assembly.DofHandler",
    "assembly.tabulation_calls": "_assembly.Tabulation",
    "local.factor_calls": "local_solver.splu",
}

# metric -> (counter, scale)
COUNT_METRICS = {
    "mesh.fine_triangles": ("mesh.fine_triangles", 1),
    "local.lu_nnz": ("local.lu_nnz", 1),
    "local.rhs_columns": ("local.rhs_columns", 1),
    "local.basis_mb": ("local.basis_bytes", 1 / MB),
    "global.unknowns": ("global.unknowns", 1),
    "global.matrix_mb": ("global.matrix_bytes", 1 / MB),
    "single.dofs": ("single.dofs", 1),
}

UNITS = {**{m: "s" for m in SELF_TIME_METRICS},
         **{m: "count" for m in CALL_METRICS},
         **{m: "count" for m in COUNT_METRICS},
         "local.basis_mb": "MB", "global.matrix_mb": "MB",
         "pipeline.local_phase_s": "s", "pipeline.local_busy_ratio": "ratio",
         "pipeline.thread_speedup": "ratio", "trace.overhead_frac": "ratio"}


def layer_metrics(tracer, threads):
    """Per-layer metrics of one traced process.  A metric whose entry points
    the workload never reaches reads 0."""
    summary = tracer.summary()

    def self_s(names):
        return sum(summary.get(n, (0, 0.0, 0.0))[2] for n in names)

    out = {m: self_s(names) for m, names in SELF_TIME_METRICS.items()}
    out.update({m: summary.get(n, (0,))[0] for m, n in CALL_METRICS.items()})
    out.update({m: tracer.counts[key] * scale
                for m, (key, scale) in COUNT_METRICS.items()})

    local = [s for s in tracer.spans
             if s.name == "local_solver.build_local_cache"]
    if local:
        phase = max(s.end for s in local) - min(s.start for s in local)
        busy = sum(s.end - s.start for s in local)
        out["pipeline.local_phase_s"] = phase
        out["pipeline.local_busy_ratio"] = busy / (threads * phase)
    else:
        out["pipeline.local_phase_s"] = 0.0
        out["pipeline.local_busy_ratio"] = 0.0
    return out
