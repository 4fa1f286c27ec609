"""Benchmark of the mhmelast two-level solver.

    python3 perfbench/run.py --workload c2-k1 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout, which must hold `src/mhmelast`.  Each sample
is a fresh process (`workloads.py`), so every timed solve is the first of its
configuration in its process.  Samples run one at a time, in a closed loop,
until the next one would end after `--seconds`.

With `--trace 0` the last line of output is a JSON object whose metrics are
the end-to-end ones, each the mean of the run's values: `setup_s`, `solve_s`,
`errors_s` (every `compute_errors` call), `peak_rss_mb` and `h1_err`.  The
host of a small shared machine can run each CPU at one of two speeds, about
1.4x apart, switching within seconds; the median of a few samples jumps
between the two, while the mean follows the mix smoothly.  With `--trace 1`
the run makes one untraced and one traced sample (plus, for the two-level
workloads, a traced sample at the other thread count) and reports the
per-layer metrics.
`--workload all` runs every workload, in an order drawn from the seed, with
`--seconds` each.  See README.md for the metrics and workloads.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import UNITS  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "solve_s": "s", "errors_s": "s",
              "peak_rss_mb": "MB", "h1_err": "1"}
SETUP_ONLY_SAMPLES = 3


def per_layer_names():
    cfg = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in cfg["per_layer"]]


def nproc():
    return len(os.sched_getaffinity(0))


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = git / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload, threads, seed, size):
    import platform
    return {"workload": workload, "seed": seed, "size": size,
            "nproc": nproc(), "threads": threads, "blas_threads": 1,
            "python": platform.python_version(),
            "numpy": _version("numpy"), "scipy": _version("scipy"),
            "commit": commit()}


def _version(dist):
    from importlib.metadata import PackageNotFoundError, version
    try:
        return version(dist)
    except PackageNotFoundError:
        return None


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("MHMELAST_THREADS", None)
    return env


class Sampler:
    """Starts the sample processes of one workload.  Each is killed if it
    would end after the workload's hard deadline, so a run ends within 180 s
    whatever its samples do."""

    def __init__(self, workload, seed, size, hard_seconds=160):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.hard_deadline = time.perf_counter() + hard_seconds

    def run(self, threads, trace=False, setup_only=False):
        """One sample in a fresh process: (record or None, wall, error)."""
        cmd = [sys.executable, str(Path(__file__).with_name("workloads.py")),
               "--workload", self.workload, "--seed", str(self.seed),
               "--size", self.size, "--threads", str(threads)]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        t = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                                  capture_output=True, text=True,
                                  timeout=max(1.0, self.hard_deadline - t))
        except subprocess.TimeoutExpired:
            return None, time.perf_counter() - t, "timed out"
        wall = time.perf_counter() - t
        if proc.returncode != 0:
            return None, wall, (proc.stderr.strip().splitlines() or ["?"])[-1]
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1]), wall, None
        except (json.JSONDecodeError, IndexError) as exc:
            return None, wall, f"unreadable record: {exc}"


class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def sample(self, label, rec, error):
        self.attempted += 1
        if rec is None:
            self.failed += 1
            self.notes.append(f"{label}: process failed: {error}")
            return False
        bad = [c for c in rec.get("checks", []) if not c[1]]
        for name, _, detail in bad:
            self.notes.append(f"{label}: check failed: {name}: {detail}")
        if bad:
            self.failed += 1
        return not bad


def distribution(values):
    """Mean, median, minimum and the highest percentile with at least ten
    samples beyond it, with the sample count."""
    n = len(values)
    text = (f"mean {statistics.fmean(values):.4f}, "
            f"median {statistics.median(values):.4f}, "
            f"min {min(values):.4f} (n={n})")
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100)[p - 1]
            return text + f", p{p} {q:.4f}"
    return text + ", no percentile has ten samples beyond it"


def measure(sampler, seconds, threads, tally, out):
    """Untraced samples until the budget is spent; end-to-end medians."""
    deadline = time.perf_counter() + seconds
    samples, setups, walls = [], [], []
    for _ in range(SETUP_ONLY_SAMPLES):
        rec, _, error = sampler.run(threads, setup_only=True)
        if tally.sample(f"{sampler.workload} setup", rec, error):
            setups.append(rec["setup_s"])
    while True:
        rec, wall, error = sampler.run(threads)
        walls.append(wall)
        tally.sample(sampler.workload, rec, error)
        if rec is not None:
            samples.append(rec)
            setups.append(rec["setup_s"])
            out(f"sample {len(samples)}: " + json.dumps(
                {k: rec[k] for k in END_TO_END} | {"checks": rec["checks"]}))
        if time.perf_counter() + max(walls) > deadline:
            break
    if samples:
        out("info: " + json.dumps(samples[0]["info"]))
    metrics = {}
    values_of = {"setup_s": setups,
                 "errors_s": [t for s in samples for t in s["errors_s"]]}
    for name, unit in END_TO_END.items():
        values = values_of.get(name) or [s[name] for s in samples]
        if not values:
            continue
        metrics[name] = {"value": statistics.fmean(values), "unit": unit}
        out(f"{name} [{unit}]: {distribution(values)}")
    return metrics


def trace(sampler, threads, tally, out):
    """Untraced and traced samples of one seed; per-layer metrics."""
    name = sampler.workload
    plain, _, error = sampler.run(threads)
    tally.sample(f"{name} untraced", plain, error)
    traced, _, error = sampler.run(threads, trace=True)
    if traced is not None and plain is not None:
        same = traced["digest"] == plain["digest"]
        traced["checks"].append(["traced solution equals untraced bitwise",
                                 same, traced["digest"][:16]])
    tally.sample(f"{name} traced", traced, error)
    if traced is None:
        return {}
    layers = dict(traced["layers"])
    layers["trace.overhead_frac"] = (
        (traced["solve_s"] - plain["solve_s"]) / plain["solve_s"]
        if plain is not None else 0.0)
    layers["pipeline.thread_speedup"] = 0.0
    if layers["pipeline.local_phase_s"] > 0:
        other = 1 if threads > 1 else min(2, nproc())
        if other != threads:
            alt, _, error = sampler.run(other, trace=True)
            tally.sample(f"{name} traced threads={other}", alt, error)
            if alt is not None and alt["layers"]["pipeline.local_phase_s"]:
                one, two = ((alt, traced) if other == 1 else (traced, alt))
                layers["pipeline.thread_speedup"] = (
                    one["layers"]["pipeline.local_phase_s"]
                    / two["layers"]["pipeline.local_phase_s"])
    for entry in traced["absent"]:
        out(f"absent entry point: {entry}")
    out(f"spans: {traced['spans_file']}")
    for metric in sorted(layers):
        out(f"{metric} [{UNITS[metric]}]: {layers[metric]:.6g}")
    return {metric: {"value": layers[metric], "unit": UNITS[metric]}
            for metric in per_layer_names() if metric in layers}


def run_workload(workload, args, tally, out):
    threads = min(WORKLOADS[workload]["threads"], nproc())
    env = environment(workload, threads, args.seed, args.size)
    env["loadavg_before"] = loadavg()
    sampler = Sampler(workload, args.seed, args.size)
    if args.trace:
        metrics = trace(sampler, threads, tally, out)
    else:
        metrics = measure(sampler, args.seconds, threads, tally, out)
    env["loadavg_after"] = loadavg()
    out("env: " + json.dumps(env))
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: level-0 and 8x8 problems, for tests")
    args = ap.parse_args(argv)

    if not (SRC / "mhmelast" / "__init__.py").is_file():
        print(f"perfbench: no mhmelast sources under {SRC}", file=sys.stderr)
        return 2

    def out(line):
        print(line, flush=True)

    tally = Tally()
    if args.workload == "all":
        order = sorted(WORKLOADS)
        random.Random(args.seed).shuffle(order)
        metrics = {}
        for workload in order:
            out(f"== {workload}")
            for name, m in run_workload(workload, args, tally, out).items():
                metrics[f"{workload}.{name}"] = m
    else:
        metrics = run_workload(args.workload, args, tally, out)
    for note in tally.notes:
        out(note)
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
