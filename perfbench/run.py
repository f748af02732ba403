"""Benchmark of the nnc experiment path.

Each workload resolves its graph (set-up), then runs ``run_experiment`` and
``emit_results`` repeatedly for ``--seconds`` seconds, the same calls
``nnc experiment`` makes, checks the outputs and prints every metric with
its unit. The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced experiments on the same seeds,
checks that tracing changes no result and reports the per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload school_dense --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # each workload in its own process
    python3 perfbench/run.py --self-test                 # failure accounting and metric names
"""
from __future__ import annotations

import os

# one BLAS/OpenMP thread, pinned before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(ROOT / "src"))
try:
    import numpy as np
    import scipy
    import nnc
    from nnc import harness
    from nnc.harness import ExperimentConfig
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the nnc package from {ROOT / 'src'}: {exc}")
if Path(nnc.__file__).resolve().parent.parent != (ROOT / "src").resolve():
    sys.exit(f"perfbench: imported nnc from {nnc.__file__}, not from {ROOT / 'src'}")

import checks  # noqa: E402  (siblings import nnc, so they follow the path set-up)
import tracing  # noqa: E402
from calibrate import REFERENCE_S, reference_seconds  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def unit_of(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"),
                         ("_mb", "MB"), ("_share", "share")):
        if name.endswith(suffix):
            return unit
    return "count"


def _plain(name, fn, *args):
    return fn(*args)


class Runner:
    """Runs experiments and keeps the failure accounting of one workload.

    An exception from an experiment is counted, by type, and all of its
    trials count as failed; the benchmark carries on with the next one.
    """

    def __init__(self, out_dir: Path):
        self.csv = out_dir / "results.csv"
        self.sidecar = out_dir / "results.json"
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}
        self.problems: list[str] = []

    def experiment(self, cfg: ExperimentConfig, call=_plain):
        """One ``run_experiment`` plus ``emit_results``: (summary or None, wall s)."""
        self.attempted += cfg.trials
        t0 = perf_counter()
        try:
            summary = call("harness.run_experiment", harness.run_experiment, cfg)
            call("harness.emit", harness.emit_results, summary, self.csv, self.sidecar)
        except Exception as exc:  # noqa: BLE001  a bad experiment must not end the run
            wall = perf_counter() - t0
            kind = type(exc).__name__
            self.errors[kind] = self.errors.get(kind, 0) + 1
            self.failed += cfg.trials
            return None, wall
        wall = perf_counter() - t0
        self.failed += summary.n_failed
        self.problems += checks.finite(summary) + checks.emitted_csv(summary, self.csv)
        return summary, wall


def setup(w: Workload, graph_seed: int) -> ExperimentConfig:
    """Graph resolution and configuration, as ``nnc experiment`` does them.

    A regenerating workload draws its graphs inside the trials, so its
    set-up is the configuration alone.
    """
    spec = dict(w.graph, seed=graph_seed)
    graph = spec if w.config.get("regenerate_graph") else harness.resolve_graph(spec)
    return ExperimentConfig(graph=graph, **w.config)


def run_untraced(w: Workload, seed: int, seconds: float, runner: Runner) -> tuple[dict, dict]:
    """End-to-end metrics, with times scaled to the reference machine speed.

    Each set-up batch and each experiment is scaled by the reference
    workload timed right before and right after it (see ``calibrate``).
    """
    stream = w.seed_stream(seed)
    graph_seed = stream.getrandbits(32)
    reference_seconds()  # the first call pays one-off allocation costs
    ref = [statistics.median(reference_seconds() for _ in range(5))]

    def scaled(wall: float, reps: int = 1) -> float:
        # set-up batches are few, so they take the median of a few references
        ref.append(statistics.median(reference_seconds() for _ in range(reps)))
        return wall * REFERENCE_S / (0.5 * (ref[-2] + ref[-1]))

    raw_setup, setup_times = [], []
    for _ in range(w.setup_batches):
        t0 = perf_counter()
        for _ in range(w.setup_reps):
            cfg = setup(w, graph_seed)
        raw_setup.append((perf_counter() - t0) / w.setup_reps)
        setup_times.append(scaled(raw_setup[-1], reps=5))

    raw_walls, walls, failed_walls, summaries = [], [], [], []
    start = perf_counter()
    while True:
        cfg.master_seed = stream.getrandbits(32)
        summary, wall = runner.experiment(cfg)
        if summary is None:
            failed_walls.append(scaled(wall))
        else:
            raw_walls.append(wall)
            walls.append(scaled(wall))
            summaries.append(summary)
        if perf_counter() - start >= seconds:
            break
    runner.problems += checks.completed(summaries) + checks.ht_true_unbiased(summaries)

    setup_s = statistics.median(setup_times)
    experiment_s = statistics.median(walls or failed_walls)
    metrics = {
        "setup_s": setup_s,
        "trials_per_s": w.trials / experiment_s,
        "time_to_result_s": setup_s + experiment_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "completed_trial_share": 1.0 - runner.failed / runner.attempted,
    }
    detail = {
        "raw_setup_s": statistics.median(raw_setup),
        "raw_trials_per_s": w.trials / statistics.median(raw_walls) if raw_walls else 0.0,
        "speed_factor": statistics.median(ref) / REFERENCE_S,
        "setup_times_s": setup_times, "raw_experiment_walls_s": raw_walls,
        "experiment_walls_s": walls, "failed_walls_s": failed_walls,
        "reference_s": ref,
    }
    return metrics, detail


def run_traced(w: Workload, seed: int, seconds: float, runner: Runner) -> tuple[dict, dict]:
    """Per-layer metrics from one traced set-up and pairs of untraced and
    traced experiments on the same seed; times are raw."""
    stream = w.seed_stream(seed)
    graph_seed = stream.getrandbits(32)
    tracer = tracing.Tracer()
    with tracer.installed():
        t0 = perf_counter()
        cfg = tracer.call("harness.setup", setup, w, graph_seed)
        setup_s = perf_counter() - t0

    def traced_experiment(cfg):
        with tracer.installed():
            return runner.experiment(cfg, tracer.call)

    plain_walls, traced_walls, summaries = [], [], []
    start = perf_counter()
    while True:
        cfg.master_seed = stream.getrandbits(32)
        tracer.phase = len(traced_walls)
        # alternate which one runs first, so neither always meets colder caches
        if tracer.phase % 2:
            traced, traced_wall = traced_experiment(cfg)
            plain, plain_wall = runner.experiment(cfg)
        else:
            plain, plain_wall = runner.experiment(cfg)
            traced, traced_wall = traced_experiment(cfg)
        plain_walls.append(plain_wall)
        traced_walls.append(traced_wall)
        if (plain is None) != (traced is None):
            runner.problems.append("tracing changed whether the experiment raised")
        elif plain is not None:
            runner.problems += checks.same_results(plain, traced)
            summaries.append(plain)
        if perf_counter() - start >= seconds:
            break
    runner.problems += checks.completed(summaries) + checks.ht_true_unbiased(summaries)
    runner.problems += trace_accounting(tracer, len(traced_walls))
    metrics = layer_metrics(tracer, w.trials, setup_s, plain_walls, traced_walls)
    detail = {"experiments": len(traced_walls), "plain_walls_s": plain_walls,
              "traced_walls_s": traced_walls, "spans": tracer.dump((-1, 0))}
    return metrics, detail


def trace_accounting(tracer, n_phases: int) -> list[str]:
    """Within each traced experiment, self times sum to the root spans' time."""
    problems = []
    for k in range(n_phases):
        totals = tracer.phase_totals(k)
        roots = sum(
            sum(s.end - s.start for s in totals[name]["spans"] if s.parent is None)
            for name in ("harness.run_experiment", "harness.emit") if name in totals
        )
        busy = sum(row["self_s"] for row in totals.values())
        if abs(busy - roots) > 1e-6 * max(roots, 1e-3):
            problems.append(f"experiment {k}: self times {busy!r} != root time {roots!r}")
    return problems


def layer_metrics(tracer, trials, setup_s, plain_walls, traced_walls) -> dict:
    """Per-layer numbers for one set-up plus one (median) experiment.

    ``<span>_s`` is self time: time in the call minus time in the traced
    calls it makes, so the ``_s`` metrics plus the harness self times sum
    to the traced set-up plus experiment time. Busy times are the set-up's
    plus the median over traced experiments; call counts and the other
    counts come from the set-up and the first experiment and repeat exactly
    at a fixed seed; latency quantiles pool every traced call.
    """
    setup = tracer.phase_totals(-1)
    exps = [tracer.phase_totals(k) for k in range(len(traced_walls))]
    empty = {"calls": 0, "self_s": 0.0, "durations": [], "spans": []}

    def part(totals, name):
        return totals.get(name, empty)

    def exp_self(name):
        return statistics.median(part(e, name)["self_s"] for e in exps)

    m = {}
    experiment_busy = 0.0
    for name in tracing.SPAN_NAMES:
        busy = exp_self(name)
        experiment_busy += busy
        m[f"{name}_s"] = part(setup, name)["self_s"] + busy
        m[f"{name}_calls"] = part(setup, name)["calls"] + part(exps[0], name)["calls"]
        durations_ms = [d * 1e3 for t in [setup, *exps] for d in part(t, name)["durations"]]
        m[f"{name}_p50_ms"] = tracing.quantile(durations_ms, 0.50)
        m[f"{name}_p99_ms"] = tracing.quantile(durations_ms, 0.99)
    m["harness.self_s"] = exp_self("harness.run_experiment")
    m["harness.setup_self_s"] = part(setup, "harness.setup")["self_s"]

    first = [setup, exps[0]]
    builds = [s.info for t in first for s in part(t, "graphs.build")["spans"] if s.info]
    m["graphs.matching_attempts_per_graph"] = _mean([a for a, _ in builds])
    m["graphs.erased_stubs_per_graph"] = _mean([e for _, e in builds])
    edges = [n for s in part(exps[0], "noise.replicate")["spans"] for n in s.info]
    m["noise.observed_edges_per_replicate"] = _mean(edges)
    fits = part(exps[0], "noise_fit.fit")["spans"]
    done = [s.info for s in fits if s.error is None]
    m["noise_fit.fit_iterations_mean"] = _mean([it for it, _ in done])
    m["noise_fit.fit_errors"] = sum(1 for s in fits if s.error is not None)
    m["noise_fit.converged_share"] = _mean([1.0 if ok else 0.0 for _, ok in done])
    m["exposure.levels_calls_per_trial"] = part(exps[0], "exposure.levels")["calls"] / trials
    mme = [s.info for s in part(exps[0], "estimators.mme")["spans"] if s.info]
    seen = sum(n for _, n in mme)
    m["estimators.mme_corrected_share"] = sum(c for c, _ in mme) / seen if seen else 0.0

    experiment_s = statistics.median(traced_walls)
    m["trace.setup_s"] = setup_s
    m["trace.experiment_s"] = experiment_s
    m["trace.untraced_experiment_s"] = statistics.median(plain_walls)
    m["trace.overhead_share"] = experiment_s / statistics.median(plain_walls) - 1.0
    m["trace.accounted_share"] = (
        experiment_busy + m["harness.self_s"]
        + sum(part(setup, n)["self_s"] for n in (*tracing.SPAN_NAMES, "harness.setup"))
    ) / (setup_s + experiment_s)
    return m


def _mean(values) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def git_commit(root: Path) -> str:
    """Commit of a git checkout at ``root``, read from ``.git`` alone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(ROOT),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Run one workload in this process; returns the result and a report."""
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        runner = Runner(Path(tmp))
        measure = run_traced if trace else run_untraced
        metrics, detail = measure(w, seed, seconds, runner)
    correct = not runner.problems
    failed = runner.failed if correct else runner.attempted
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    report = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "errors": runner.errors,
        "problems": runner.problems, "failed_trial_share": failed / runner.attempted,
        "result": result, "detail": detail,
    }
    return result, report


def print_report(report: dict) -> None:
    r = report["result"]
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"env={json.dumps(report['environment'], sort_keys=True)}")
    for name, metric in r["metrics"].items():
        print(f"  {name:42s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_trial_share':42s} {report['failed_trial_share']:.6g} share "
          f"({r['failed']} of {r['attempted']} trials)")
    for name in ("raw_setup_s", "raw_trials_per_s", "speed_factor"):
        if name in report["detail"]:
            print(f"  {name:42s} {report['detail'][name]:.6g}")
    for kind, count in report["errors"].items():
        print(f"  experiments raising {kind}: {count}")
    for problem in report["problems"]:
        print(f"  CHECK FAILED: {problem}")


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in a fresh process of its own; a crash ends only its workload."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        except subprocess.TimeoutExpired:
            results[name] = {"correct": False, "error": "timed out after 900 s"}
            continue
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.stdout.write(proc.stderr)
            results[name] = {"correct": False, "exit_code": proc.returncode}
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def self_test() -> int:
    """Failure accounting on a 6-vertex graph with alpha=0, beta=0.9, then a
    traced and an untraced run of a small workload whose metric names must
    match ``BENCHMARK.json``."""
    problems = []
    graph = nnc.Graph(6, [0, 1, 2, 3, 4, 0], [1, 2, 3, 4, 5, 5])
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        runner = Runner(Path(tmp))
        bad = ExperimentConfig(graph=graph, alpha=0.0, beta=0.9, p=0.5,
                               trials=50, bootstrap_b=50)
        summary, _ = runner.experiment(bad)
        if summary is not None or runner.failed != 50 or sum(runner.errors.values()) != 1:
            problems.append(f"6-vertex case not counted as failed: {runner.errors}")
        good = ExperimentConfig(graph=graph, alpha=0.05, beta=0.1, p=0.5, trials=20,
                                bootstrap_b=50, noise_known=True)
        summary, _ = runner.experiment(good)
        if summary is None or (runner.attempted, runner.failed) != (70, 50):
            problems.append(f"run did not continue: {runner.attempted=} {runner.failed=}")
    print(f"  6-vertex case: errors {runner.errors}, {runner.failed} of "
          f"{runner.attempted} trials failed")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    school = WORKLOADS["school_dense"]
    small = dataclasses.replace(school, config={**school.config, "trials": 30}, setup_reps=2)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, report = run_workload(small, seed=0, seconds=0.2, trace=trace)
        problems += [f"trace {trace}: {p}" for p in report["problems"]]
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in spec[key]}
        if got != want:
            problems.append(f"trace {trace} metrics differ from BENCHMARK.json {key}: "
                            f"{sorted(set(got) ^ set(want))}")
    for p in problems:
        print(f"  FAIL: {p}")
    print("self-test", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result, report = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print_report(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
