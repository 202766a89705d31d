"""specfilt benchmark: whole CLI runs, timed end to end or traced per layer.

Usage (from the repository root)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: each run is a fresh ``python3 bench/child.py``
process, started only after the previous one has ended, that imports
``specfilt.cli`` from ``src/`` and calls ``main(argv)`` once.  Runs repeat
until ``--seconds`` have passed; every run's output files are checked
against an independent numpy reference outside the timed region.

``--trace 0`` reports the end-to-end metrics (``run_s``, ``setup_s``,
``peak_rss_mb``).  ``--trace 1`` alternates untraced and traced runs and
reports the per-layer metrics, taken from spans recorded at the layer
boundaries.  The last line of standard output is one JSON object; a
fuller result file, with the run record, every sample and the spans, is
written to ``bench/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"
OUT = WORK / "out"

SEED_MAX = 2**64
MIN_RUNS = 4  # in traced mode: two untraced and two traced, to repeat the counts
CHILD_TIMEOUT_S = 120
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: on the 2-CPU reference machine a second thread makes
# the n=500 sweeps no faster (it doubles CPU time spinning) and gains
# about 10% on the n=2000 solves, while its barrier waits make every
# run depend on what else the host's CPUs are doing.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
KINDS = ("raw", "normalized")

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# span group -> metric holding its total duration
SPAN_TIME = {
    "ensembles.sample": "ensembles.sample_s",
    "ensembles.distance": "ensembles.distance_s",
    "filtration.build": "filtration.build_s",
    "filtration.snapshot": "filtration.snapshot_s",
    "spectra.laplacian": "spectra.laplacian_s",
    "spectra.eigensolve": "spectra.eigensolve_s",
    "spectra.stat": "spectra.stat_s",
    "output.read": "output.read_s",
    "output.write": "output.write_s",
}
# counts computed from the spans' arguments and results; they repeat exactly
COMPUTED_COUNTS = {
    "filtration.snapshots": "count",
    "filtration.edges_materialized": "count",
    "filtration.builds": "count",
    "filtration.pairs_sorted": "count",
    "spectra.eigensolves": "count",
    "spectra.disconnected_solves": "count",
    "spectra.eigensolve_gflop": "GFLOP",
    "output.bytes_read": "B",
    "output.bytes_written": "B",
}
PER_LAYER = {
    **{name: "s" for name in SPAN_TIME.values()},
    "curves.self_s": "s",
    "cli.self_s": "s",
    "trace.run_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
    **COMPUTED_COUNTS,
}


def _gap_sweep(n, seed):
    filtration = ref.Filtration(n, ref.wishart_upper(n, seed))
    xs = ref.grid(n, 50, refined=False)
    argv = ["gap-curve", "--ensemble", "wishart-rank1", "--n", str(n),
            "--kind", "both", "--grid", "uniform:50"]
    return argv, {f"gap-curve-wishart-rank1-{kind}": ref.CurveCheck(
        filtration, kind, "gap", xs) for kind in KINDS}


def _std_refined(n, seed):
    filtration = ref.Filtration(n, ref.gaussian_upper(n, seed))
    xs = ref.grid(n, 50, refined=True)
    argv = ["std-curve", "--ensemble", "gaussian", "--n", str(n), "--kind", "both"]
    return argv, {f"std-curve-gaussian-{kind}": ref.CurveCheck(
        filtration, kind, "std", xs) for kind in KINDS}


def _snapshot_large(n, seed):
    filtration = ref.Filtration(n, ref.torus_upper(n, seed))
    argv = ["density", "--ensemble", "torus", "--n", str(n), "--p", "0.2",
            "--kind", "both"]
    return argv, {f"density-torus-{kind}": ref.HistogramCheck(filtration, kind, 0.2)
                  for kind in KINDS}


def _matrix_ingest(n, seed):
    dense = ref.circle_distances(n, seed)
    path = WORK / f"matrix-n{n}-seed{seed}.csv"
    if not path.exists():
        # written once per seed, outside any timing, by the harness itself,
        # so every commit compared reads the same bytes; repr round-trips
        # exactly, so the reference can use the matrix it wrote
        for old in WORK.glob("matrix-*.csv"):
            old.unlink()
        partial = WORK / "matrix.partial"
        with open(partial, "w", encoding="utf-8") as fh:
            fh.writelines(",".join(map(repr, row)) + "\n" for row in dense.tolist())
        partial.replace(path)
    filtration = ref.Filtration(n, dense[np.triu_indices(n, k=1)])
    argv = ["density", "--ensemble", "matrix-file", "--matrix", str(path),
            "--p", "0.05", "--kind", "raw"]
    return argv, {"density-matrix-file-raw": ref.HistogramCheck(filtration, "raw", 0.05)}


# name -> (vertex count, function of (n, seed) giving CLI args and output checks)
WORKLOADS = {
    "gap-sweep": (500, _gap_sweep),
    "std-refined": (500, _std_refined),
    "snapshot-large": (2000, _snapshot_large),
    "matrix-ingest": (2000, _matrix_ingest),
}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SPECFILT_OUTPUT", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def launch(run_id: int, trace: bool, cli_args: list[str], env: dict) -> dict:
    """Start one child, wait for it, and return its record.

    ``setup_s`` runs from just before the process is started to the end
    of ``import specfilt.cli`` inside it (both on CLOCK_MONOTONIC).
    """
    result = WORK / "child.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(result), str(int(trace)),
           str(run_id), *cli_args]
    started = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"run_id": run_id, "problems": [f"timed out after {CHILD_TIMEOUT_S} s"]}
    if not result.exists():
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"run_id": run_id,
                "problems": [f"exit {proc.returncode}, no result: {' | '.join(tail)}"]}
    record = json.loads(result.read_text(encoding="utf-8"))
    record["setup_s"] = (record.pop("ready_ns") - started) / 1e9
    record["problems"] = []
    if proc.returncode != 0:
        record["problems"].append(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    # a renamed or removed function would silently zero its layer's metrics
    for name in record.pop("untraced_functions", []):
        record["problems"].append(f"cannot trace {name}: not found")
    record["run_s"] = record.pop("run_ns") / 1e9
    return record


def typical_s(runs: list) -> float:
    """Median wall time, start to exit, of the runs so far."""
    return statistics.median(r.get("run_s", 0.0) + r.get("setup_s", 0.0) for r in runs)


def verify(checks: dict) -> list[str]:
    problems = []
    for stem, check in checks.items():
        csv, svg = OUT / f"{stem}.csv", OUT / f"{stem}.svg"
        if not csv.is_file():
            problems.append(f"{csv.name} missing")
            continue
        try:
            problems += check.problems(csv)
        except ValueError as exc:
            problems.append(f"{csv.name} unreadable: {exc}")
        if not svg.is_file() or svg.stat().st_size == 0:
            problems.append(f"{svg.name} missing or empty")
    return problems


def layer_metrics(spans: list) -> dict:
    """Per-layer times and computed counts of one traced run."""
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for name in COMPUTED_COUNTS:
        metrics[name] = 0
    covered = defaultdict(int)
    for _, parent, _, _, start, end, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    for span_id, _, group, _, start, end, counts in spans:
        duration = (end - start) / 1e9
        own = duration - covered[span_id] / 1e9
        if group == "cli":
            metrics["trace.run_s"] += duration
            metrics["cli.self_s"] += own
        elif group == "curves":
            metrics["curves.self_s"] += own
        else:
            metrics[SPAN_TIME[group]] += duration
        if group == "filtration.build":
            metrics["filtration.builds"] += 1
            metrics["filtration.pairs_sorted"] += counts["pairs"]
        elif group == "filtration.snapshot" and "edges" in counts:
            metrics["filtration.snapshots"] += 1
            metrics["filtration.edges_materialized"] += counts["edges"]
        elif group == "spectra.eigensolve":
            metrics["spectra.eigensolves"] += 1
            metrics["spectra.disconnected_solves"] += counts["disconnected"]
            metrics["spectra.eigensolve_gflop"] += 4 * counts["n"] ** 3 / 3 / 1e9
        elif group == "output.read":
            metrics["output.bytes_read"] += counts["bytes"]
        elif group == "output.write":
            metrics["output.bytes_written"] += counts["bytes"]
    metrics["trace.coverage"] = 1.0 - metrics["cli.self_s"] / metrics["trace.run_s"]
    return metrics


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "count": len(values)}


def git_state() -> tuple[str | None, bool | None]:
    """HEAD and whether tracked files differ from it; (None, None) outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=60)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return None, None
        sha = git("rev-parse", "HEAD").stdout.strip() or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, dirty


def run_record(seed: int, env: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha, dirty = git_state()
    return {
        "seed": seed,
        "nproc": NPROC,
        "blas_threads": {var: env[var] for var in THREAD_VARS},
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": sha,
        "git_dirty": dirty,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            n: int | None = None) -> dict:
    """Run one benchmark invocation and return its full result."""
    size, build = WORKLOADS[workload]
    n = size if n is None else n
    WORK.mkdir(parents=True, exist_ok=True)
    cli_args, checks = build(n, seed)
    cli_args += ["--seed", str(seed), "--output", str(OUT)]
    env = child_env()

    # warm-up, untimed: compiles specfilt's bytecode and loads the
    # interpreter, numpy and BLAS into the page cache
    subprocess.run([sys.executable, "-c", "import specfilt.cli"], env=env, cwd=ROOT,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=CHILD_TIMEOUT_S)

    runs = []
    deadline = time.monotonic() + seconds
    # a run starts only if it should end less than half a run past the
    # deadline, so a window lasts about --seconds on average
    while len(runs) < MIN_RUNS or time.monotonic() + typical_s(runs) / 2 <= deadline:
        traced = trace and len(runs) % 2 == 1
        shutil.rmtree(OUT, ignore_errors=True)
        record = launch(len(runs), traced, cli_args, env)
        if "run_s" in record:
            record["problems"] += verify(checks)
        runs.append(record)

    traced_runs = [r for r in runs if r.get("traced") and "run_s" in r]
    for r in traced_runs:
        r["layers"] = layer_metrics(r["spans"])
    if traced_runs:
        first = {k: traced_runs[0]["layers"][k] for k in COMPUTED_COUNTS}
        for r in traced_runs[1:]:
            counts = {k: r["layers"][k] for k in COMPUTED_COUNTS}
            if counts != first:
                diff = sorted(k for k in first if counts[k] != first[k])
                r["problems"].append(f"computed counts differ from the first "
                                     f"traced run: {', '.join(diff)}")

    timed = [r for r in runs if "run_s" in r]
    plain = [r for r in timed if not r.get("traced")]
    if not plain or (trace and not traced_runs):
        raise RuntimeError(f"no run finished: {runs[0]['problems']}")
    failed = sum(1 for r in runs if r["problems"])
    run_s = summary([r["run_s"] for r in plain])
    setup_s = summary([r["setup_s"] for r in timed])
    if trace:
        # computed counts are identical across traced runs (checked above)
        layers = {k: traced_runs[0]["layers"][k] if k in COMPUTED_COUNTS
                  else statistics.median(r["layers"][k] for r in traced_runs)
                  for k in PER_LAYER}
        layers["trace.overhead_s"] = (
            statistics.median(r["run_s"] for r in traced_runs) - run_s["median"])
        metrics = {k: {"value": layers[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
    else:
        rss = statistics.median(r["maxrss_kb"] / 1024 for r in plain)
        values = {"run_s": run_s["median"], "setup_s": setup_s["median"],
                  "peak_rss_mb": rss}
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
    return {
        "workload": workload,
        "n": n,
        "seconds": seconds,
        "trace": trace,
        "argv": cli_args,
        "record": run_record(seed, env),
        "run_s": run_s,
        "setup_s": setup_s,
        "error_rate": failed / len(runs),
        "attempted": len(runs),
        "failed": failed,
        "computed_counts": sorted(COMPUTED_COUNTS),
        "metrics": metrics,
        "runs": runs,
    }


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < SEED_MAX:
        parser.error("--seed must be an unsigned 64-bit integer")
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "specfilt" / "cli.py").is_file():
        print(f"bench: no specfilt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    for r in result["runs"]:
        for problem in r["problems"]:
            print(f"run {r['run_id']}: {problem}", file=sys.stderr)
    rs = result["run_s"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['attempted']} runs, error_rate {result['error_rate']:g}; "
          f"untraced run_s median {rs['median']:.4f} s "
          f"[q1 {rs['q1']:.4f}, q3 {rs['q3']:.4f}, {rs['count']} samples]")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  result file: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
