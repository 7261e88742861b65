"""One fresh process of the benchmark: set up a workload, run its jobs once, check them.

run.py starts it as

    python3 perfbench/worker.py WORKLOAD SEED MODE SPAWNED_AT WORKDIR

where MODE is `setup` (set up and stop), `round` (run every job once) or
`traced` (the same with spans installed, then the largest build once more
under tracemalloc), SPAWNED_AT is the CLOCK_MONOTONIC time at which run.py started
the process, and WORKDIR an empty directory for the workload's files.  The last
line of standard output is one JSON object.  Only `sys`, `os` and `time` are
imported before `import sumrips` is timed, so the import carries its own cost.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def run_jobs(workload, jobs) -> tuple[list, int, float, list[float]]:
    """Run every job once: results (None for a failed job), failures, wall time
    and each job's time.  A job that raises or reports failure counts as failed."""
    import traceback

    results, failed, times = [], 0, []
    start = time.perf_counter()
    for job in jobs:
        job_start = time.perf_counter()
        try:
            result = job()
        except Exception:
            traceback.print_exc()
            result = None
        if result is None or workload.failed(result):
            failed += 1
            result = None
        results.append(result)
        times.append(time.perf_counter() - job_start)
    return results, failed, time.perf_counter() - start, times


def layer_metrics(tracer, spans) -> dict[str, float]:
    layers = tracer.layer_times()

    def self_s(name: str) -> float:
        return layers.get(name, {}).get("self_s", 0.0)

    def total_s(name: str) -> float:
        return layers.get(name, {}).get("total_s", 0.0)

    cells = tracer.cells_built
    build_s, reduce_s = self_s(spans.BUILD), self_s(spans.REDUCE)
    return {
        "complexes.build_s": build_s,
        "complexes.cells": cells,
        "complexes.us_per_cell": 1e6 * build_s / cells if cells else 0.0,
        "complexes.share_at_radius": 100.0 * tracer.cells_at_radius / cells if cells else 0.0,
        "persistence.reduce_s": reduce_s,
        "persistence.us_per_cell":
            1e6 * reduce_s / tracer.cells_reduced if tracer.cells_reduced else 0.0,
        "kunneth.predict_s": total_s(spans.PREDICT),
        "kunneth.bottleneck_s": total_s(spans.BOTTLENECK),
        "kunneth.compare_self_s": self_s(spans.COMPARE),
        "io.s": sum(total_s(f"io.{name}") for name in spans.IO_CALLS),
        "cli.self_s": self_s(spans.CLI_MAIN),
    }


def memory_metrics(probe: dict[str, int]) -> dict[str, float]:
    return {
        "complexes.peak_bytes_per_cell": probe["peak_bytes"] / probe["cells"],
        "complexes.retained_bytes_per_cell": probe["retained_bytes"] / probe["cells"],
    }


def main(argv: list[str]) -> int:
    name, seed, mode, spawned_at, workdir = argv
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import sumrips
    import_s = time.perf_counter() - start
    if os.path.dirname(os.path.abspath(sumrips.__file__)) != os.path.join(SRC, "sumrips"):
        print(f"error: sumrips was imported from {sumrips.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    import json
    import resource
    from pathlib import Path

    import spans
    import workloads

    workload = workloads.WORKLOADS[name](int(seed), Path(workdir))
    jobs = workload.jobs()
    out = {"setup_s": time.monotonic() - float(spawned_at), "import_s": import_s}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = spans.Tracer() if mode == "traced" else None
    restore = spans.install(spans.BINDINGS, tracer.wrap) if tracer else None
    results, failed, wall_s, job_s = run_jobs(workload, jobs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.update(wall_s=wall_s, job_s=job_s, peak_rss_mb=peak_rss_mb, attempted=len(jobs),
               failed=failed, problems=workload.check(results))
    if tracer is not None:
        restore()
        _, args, kwargs = tracer.largest_build
        probe = spans.probe_build(sumrips.complexes.vietoris_rips, args, kwargs)
        out.update(metrics={**layer_metrics(tracer, spans), **memory_metrics(probe)},
                   largest_build=probe, layers=tracer.layer_times(),
                   cells_by_dim=dict(sorted(tracer.cells_by_dim.items())),
                   bars_by_degree=dict(sorted(tracer.bars_by_degree.items())),
                   spans=tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
