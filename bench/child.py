"""One benchmark run: a fresh process that imports specfilt and calls the CLI.

Usage::

    python3 bench/child.py RESULT.json TRACE RUN_ID CLI_ARGS...

The process imports ``specfilt.cli`` and calls ``specfilt.cli.main`` on
CLI_ARGS once.  ``specfilt`` must be importable (the harness sets
``PYTHONPATH=src``).

The result file holds the CLOCK_MONOTONIC reading taken when the import
finished (the parent subtracts its own reading taken before it started
this process), the wall time of ``main``, the CLI exit status, the peak
resident set size and, with TRACE=1, the recorded spans.

Tracing replaces public functions in the namespace of the module that
calls them (``specfilt.cli`` and ``specfilt.curves``), so each span sits
on a layer boundary.  Spans are kept in memory and written at the end.
"""

import json
import os
import resource
import sys
import time

import specfilt.cli
from specfilt import curves, spectra

READY_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

# caller module -> {function name: span group}, for every public function
# the benchmark workloads reach; the group names the layer that does the
# work and the per-layer metric the span feeds.  A name that is not found
# is reported, and the harness fails the run.
PATCHES = {
    specfilt.cli: {
        "sample_gaussian_symmetric": "ensembles.sample",
        "sample_wishart_rank_one": "ensembles.sample",
        "sample_noisy_torus": "ensembles.sample",
        "distance_matrix": "ensembles.distance",
        "read_matrix_csv": "output.read",
        "write_csv": "output.write",
        "write_svg": "output.write",
        "gap_curve": "curves",
        "std_curve": "curves",
        "density_snapshot": "curves",
    },
    curves: {
        "build_filtration": "filtration.build",
        "graph_at_density": "filtration.snapshot",
        "stream_prefixes": "filtration.snapshot",
        "laplacian": "spectra.laplacian",
        "eigenvalues": "spectra.eigensolve",
        "spectral_gap": "spectra.stat",
        "spectrum_std": "spectra.stat",
        "spectrum_histogram": "spectra.stat",
    },
}


# span group -> function of (args, result) giving the counts a span carries
COUNTS = {
    "filtration.build": lambda args, res: {"pairs": res.total_pairs},
    "filtration.snapshot": lambda args, res: {"edges": res.edge_count},
    "spectra.eigensolve": lambda args, res: {
        "n": res.n, "disconnected": int(spectra.zero_multiplicity(res) >= 2)},
    "output.read": lambda args, res: {"bytes": os.path.getsize(args[0])},
    "output.write": lambda args, res: {"bytes": os.path.getsize(args[1])},
}


class Tracer:
    """Records spans [id, parent, group, function, start_ns, end_ns, counts]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.missing = []

    def open(self, group, fn):
        span = [len(self.spans), self.stack[-1] if self.stack else None,
                group, fn, time.perf_counter_ns(), None, {}]
        self.spans.append(span)
        self.stack.append(span[0])
        return span

    def close(self, span):
        span[5] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, group, name, fn, counts=None):
        def traced(*args, **kwargs):
            span = self.open(group, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counts is not None:
                span[6] = counts(args, result)
            return result

        return traced

    def wrap_lazy(self, group, name, fn):
        # stream_prefixes validates eagerly and then yields lazily, so the
        # snapshot work happens inside each next(), not inside the call
        call = self.wrap(group, name, fn)
        counts = COUNTS[group]

        def traced(*args, **kwargs):
            inner = call(*args, **kwargs)

            def pull():
                while True:
                    span = self.open(group, "next")
                    try:
                        graph = next(inner, None)
                    finally:
                        self.close(span)
                    if graph is None:
                        self.spans.pop()
                        return
                    span[6] = counts(args, graph)
                    yield graph

            return pull()

        return traced

    def install(self):
        for module, table in PATCHES.items():
            for name, group in table.items():
                fn = getattr(module, name, None)
                if fn is None:
                    self.missing.append(f"{module.__name__}.{name}")
                    continue
                if name == "stream_prefixes":
                    setattr(module, name, self.wrap_lazy(group, name, fn))
                else:
                    setattr(module, name, self.wrap(group, name, fn, COUNTS.get(group)))


def main(argv) -> int:
    result_path, trace, run_id = argv[0], argv[1] == "1", int(argv[2])
    cli_args = argv[3:]
    record = {"run_id": run_id, "ready_ns": READY_NS, "traced": trace}
    if trace:
        tracer = Tracer()
        tracer.install()
        root = tracer.open("cli", "main")
    start = time.perf_counter_ns()
    try:
        code = specfilt.cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    end = time.perf_counter_ns()
    if trace:
        tracer.close(root)
        root[4], root[5] = start, end
        record["spans"] = tracer.spans
        record["untraced_functions"] = tracer.missing
    record["run_ns"] = end - start
    record["exit"] = code
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
