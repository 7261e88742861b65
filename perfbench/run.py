"""The sumrips benchmark.

    python3 perfbench/run.py --workload products|hamming_split|cli_f3 \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; sumrips is imported from its `src/`.
Every set-up and every round of jobs runs in a fresh single-threaded worker
process (worker.py).  With --trace 0 the run makes SETUPS set-up-only workers,
then runs rounds of all the workload's jobs until S seconds have passed (at
least MIN_ROUNDS), and reports the end-to-end metrics as medians over them.
With --trace 1 it runs one plain round and one round with spans installed,
followed by the largest build once more under tracemalloc, and reports the
per-layer metrics.  Every round checks its outputs.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; result and trace files go to perfbench/results/.  See README.md for
the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("products", "hamming_split", "cli_f3")
SETUPS = 5
MIN_ROUNDS = 2
TIME_LIMIT_S = 175.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "setup.import_s": "s",
    "complexes.build_s": "s",
    "complexes.cells": "count",
    "complexes.us_per_cell": "us",
    "complexes.peak_bytes_per_cell": "B",
    "complexes.retained_bytes_per_cell": "B",
    "complexes.share_at_radius": "%",
    "persistence.reduce_s": "s",
    "persistence.us_per_cell": "us",
    "kunneth.predict_s": "s",
    "kunneth.bottleneck_s": "s",
    "kunneth.compare_self_s": "s",
    "io.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
# One process, one thread: keep the BLAS pools of numpy/scipy at one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})

    def spawn(self, mode: str) -> dict:
        """Start one worker, wait for it, and return its JSON report."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a worker")
        workdir = tempfile.mkdtemp(prefix=f"{self.workload}-", dir=RESULTS)
        try:
            spawned_at = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), self.workload, str(self.seed),
                 mode, repr(spawned_at), workdir],
                cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker did not finish in time") from exc
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with code {proc.returncode}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        for problem in report.get("problems", []):
            print(f"{self.workload} {mode}: {problem}", file=sys.stderr)
        return report


def measure(runner: Runner, seconds: float) -> tuple[dict[str, list[dict]], dict]:
    """Set-ups and untraced rounds; the end-to-end metrics are their medians."""
    runner.spawn("setup")  # warm-up: byte code and page cache, not measured
    setups = [runner.spawn("setup") for _ in range(SETUPS)]
    rounds: list[dict] = []
    start = time.monotonic()
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start < seconds:
        rounds.append(runner.spawn("round"))
    metrics = {
        "setup_s": median(r["setup_s"] for r in setups + rounds),
        "wall_s": median(r["wall_s"] for r in rounds),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in rounds),
    }
    return {"setups": setups, "rounds": rounds}, metrics


def trace(runner: Runner) -> tuple[dict[str, list[dict]], dict]:
    """One plain and one traced round; per-layer metrics."""
    runner.spawn("setup")  # warm-up
    plain, traced = runner.spawn("round"), runner.spawn("traced")
    metrics = {**traced["metrics"],
               "setup.import_s": median(r["import_s"] for r in (plain, traced)),
               "trace.overhead_s": traced["wall_s"] - plain["wall_s"]}
    return {"rounds": [plain], "traced": [traced]}, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "sumrips" / "__init__.py").is_file():
        print(f"error: no sumrips sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed, deadline)
    try:
        if args.trace:
            workers, values = trace(runner)
            units = PER_LAYER_UNITS
        else:
            workers, values = measure(runner, args.seconds)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    reports = [r for group in workers.values() for r in group if "attempted" in r]
    result = {
        "correct": all(not r["problems"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    kind = "trace" if args.trace else "result"
    out = RESULTS / f"{kind}-{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps({"args": vars(args), "result": result, **workers}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
