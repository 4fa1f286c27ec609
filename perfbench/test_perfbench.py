"""Tests of the benchmark itself: the tracer on synthetic spans, wrapper
installation on the real package, and a smoke run of every workload.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import ENTRY_POINTS  # noqa: E402
from tracer import Span, Tracer, union_length  # noqa: E402
from workloads import ROOT, SRC  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_union_length_merges_overlaps_and_skips_empty():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 4), (1, 2), (3, 6)]) == 6.0
    assert union_length([(5, 5), (2, 1)]) == 0.0


def test_self_time_subtracts_union_of_parallel_children():
    clock = FakeClock()
    tr = Tracer(clock)
    solve = tr.open("solve")
    # two children on other threads overlap in [3, 4]; their union is 5 s
    for name, start, end, thread in (("a", 1.0, 4.0, 1), ("b", 3.0, 6.0, 2)):
        tr.spans.append(Span(name, start, solve, thread))
        tr.spans[-1].end = end
    clock.now = 10.0
    tr.close(solve)
    selfs = tr.self_times()
    assert selfs == [5.0, 3.0, 3.0]
    summary = tr.summary()
    assert summary["solve"] == (1, 10.0, 5.0)


def test_self_time_never_negative_when_children_cover_parent():
    clock = FakeClock()
    tr = Tracer(clock)
    outer = tr.open("outer")
    for _ in range(3):
        inner = tr.open("inner")
        clock.now += 1.0
        tr.close(inner)
    tr.close(outer)
    assert tr.self_times()[0] == 0.0
    assert tr.summary()["inner"] == (3, 3.0, 3.0)


def test_pool_spans_take_the_open_solve_span_as_parent():
    tr = Tracer()
    barrier = threading.Barrier(4)

    def work():
        barrier.wait(timeout=10)
        with tr.span("task"):
            with tr.span("inner"):
                pass

    with tr.span("solve") as solve:
        workers = [threading.Thread(target=work) for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
    assert not any(w.is_alive() for w in workers)
    tasks = [i for i, s in enumerate(tr.spans) if s.name == "task"]
    assert len(tasks) == 4
    assert all(tr.spans[i].parent == solve for i in tasks)
    inners = [s for s in tr.spans if s.name == "inner"]
    assert sorted(s.parent for s in inners) == sorted(tasks)
    assert all(s >= 0 for s in tr.self_times())


def test_installed_wraps_and_restores_and_lists_absent_entry_points():
    sys.path.insert(0, str(SRC))
    import mhmelast
    from mhmelast import _assembly, local_solver, pipeline

    before = (mhmelast.solve_mhm, pipeline.solve_mhm, local_solver.splu,
              _assembly.Tabulation.__init__)
    tr = Tracer()
    entries = ENTRY_POINTS + [("mesh", "no_such_entry", None),
                              ("no_such_module", "f", None)]
    with tr.installed(entries):
        assert mhmelast.solve_mhm is pipeline.solve_mhm
        assert pipeline.solve_mhm is not before[1]
        assert local_solver.splu is not before[2]
        mesh = mhmelast.unit_square_mesh(2)
        _assembly.Tabulation(mesh, mhmelast.reference_element(1), 2)
    after = (mhmelast.solve_mhm, pipeline.solve_mhm, local_solver.splu,
             _assembly.Tabulation.__init__)
    assert after == before
    assert tr.absent == ["mesh.no_such_entry", "no_such_module.f"]
    # unit_square_mesh is not an entry point, but the mesh builder it calls is
    assert [s.name for s in tr.spans] == [
        "mesh.build_structured_triangulation", "_assembly.Tabulation"]


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_smoke_run_reports_every_end_to_end_metric():
    proc = _run("--workload", "all", "--size", "smoke", "--seconds", "1",
                "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    names = {m["name"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for workload in ("c2-k1", "c3-k3", "wide-varG", "single-ref"):
        for name in names:
            metric = result["metrics"][f"{workload}.{name}"]
            assert metric["value"] > 0


@pytest.mark.parametrize("workload", ["c2-k1", "single-ref"])
def test_smoke_trace_reports_every_per_layer_metric(workload):
    proc = _run("--workload", workload, "--size", "smoke", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"], proc.stdout
    names = [m["name"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    calls = result["metrics"]["assembly.tabulation_calls"]["value"]
    assert calls == (3 * 32 if workload == "c2-k1" else 4)


def test_fails_without_printing_a_result_where_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "c2-k1", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
