"""Fast self-test of the benchmark harness; it makes no timing assertions.

Runs every workload at n=40, untraced and traced, with output
verification on, and checks that:

* ``BENCHMARK.json`` names exactly the workloads and metrics the
  harness reports, with the same units;
* the independent reference samplers reproduce specfilt's matrices
  bit for bit (otherwise verification would compare different inputs);
* every run passes verification, and each mode reports exactly its
  metrics, with computed counts that match the workload;
* verification rejects a tampered curve and a tampered histogram;
* the harness refuses to run without the specfilt sources.

Usage, from the repository root::

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np

import reference as ref
import run

N = 40
SEED = 5


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest: FAIL: {message}")


def benchmark_json_matches() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    _check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads")
    for key, metrics in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        _check({m["name"]: m["unit"] for m in spec[key]} == metrics,
               f"BENCHMARK.json {key} metrics")


def reference_matches_program() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    import specfilt as sf
    pairs = {
        "gaussian": (ref.gaussian_upper(N, SEED), sf.sample_gaussian_symmetric(N, SEED)),
        "wishart": (ref.wishart_upper(N, SEED), sf.sample_wishart_rank_one(N, SEED)),
        "torus": (ref.torus_upper(N, SEED),
                  sf.distance_matrix(sf.sample_noisy_torus(N, 2.0, 1.0, 0.1, SEED))),
    }
    for name, (upper, matrix) in pairs.items():
        _check(np.array_equal(upper, matrix.offdiagonal_upper()),
               f"reference {name} sampler differs from specfilt")
    circle = sf.distance_matrix(sf.sample_noisy_circle(N, 0.1, SEED))
    _check(np.array_equal(ref.circle_distances(N, SEED), circle.dense),
           "reference circle sampler differs from specfilt")


def expected_counts(workload: str) -> dict:
    pairs = N * (N - 1) // 2
    if workload in ("gap-sweep", "std-refined"):
        xs = ref.grid(N, 50, refined=workload == "std-refined")
        edges = 2 * sum(ref.edge_count(N, float(p)) for p in xs)
        return {"filtration.builds": 2, "filtration.pairs_sorted": 2 * pairs,
                "filtration.snapshots": 2 * xs.size, "spectra.eigensolves": 2 * xs.size,
                "filtration.edges_materialized": edges}
    kinds = 2 if workload == "snapshot-large" else 1
    p = 0.2 if workload == "snapshot-large" else 0.05
    return {"filtration.builds": kinds, "filtration.pairs_sorted": kinds * pairs,
            "filtration.snapshots": kinds, "spectra.eigensolves": kinds,
            "filtration.edges_materialized": kinds * ref.edge_count(N, p)}


def workloads_pass() -> None:
    for workload in run.WORKLOADS:
        for trace in (False, True):
            result = run.measure(workload, SEED, 0, trace, n=N)
            label = f"{workload} trace={int(trace)}"
            problems = [p for r in result["runs"] for p in r["problems"]]
            _check(not problems, f"{label}: {problems}")
            wanted = run.PER_LAYER if trace else run.END_TO_END
            _check(list(result["metrics"]) == list(wanted), f"{label}: metric names")
            if not trace:
                continue
            values = {k: m["value"] for k, m in result["metrics"].items()}
            for name, count in expected_counts(workload).items():
                _check(values[name] == count, f"{label}: {name} {values[name]} != {count}")
            _check(0.0 < values["trace.coverage"] <= 1.0, f"{label}: coverage")
            _check(sum(r.get("traced", False) for r in result["runs"]) >= 2,
                   f"{label}: computed counts were not repeated")


def verification_rejects_tampering() -> None:
    out = run.OUT
    for workload, tamper in (("gap-sweep", "curve"), ("snapshot-large", "histogram")):
        shutil.rmtree(out, ignore_errors=True)
        cli_args, checks = run.WORKLOADS[workload][1](N, SEED)
        record = run.launch(0, False, cli_args + ["--seed", str(SEED), "--output",
                                                  str(out)], run.child_env())
        _check(not record["problems"] and not run.verify(checks), f"{workload}: clean run")
        stem = next(iter(checks))
        path = out / f"{stem}.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        if tamper == "curve":
            p, value = lines[-1].split(",")
            lines[-1] = f"{p},{float(value) * 1.01!r}"
        else:
            # move one eigenvalue to the next bin: the sum stays n
            full = next(k for k in range(1, len(lines) - 1)
                        if int(lines[k].split(",")[2]) > 0)
            for k, step in ((full, -1), (full + 1, 1)):
                lo, hi, count = lines[k].split(",")
                lines[k] = f"{lo},{hi},{int(count) + step}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        _check(bool(run.verify(checks)), f"{workload}: tampered {tamper} accepted")


def refuses_without_sources() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "gap-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    _check(proc.returncode != 0 and not proc.stdout.strip(),
           "harness ran without the specfilt sources")


def main() -> int:
    benchmark_json_matches()
    reference_matches_program()
    workloads_pass()
    verification_rejects_tampering()
    refuses_without_sources()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
