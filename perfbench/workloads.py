"""The three workloads: seeded inputs, the jobs that run them, and their checks.

A workload is built from a seed (this is the set-up: inputs are generated,
validated and, for the CLI, written to files) and then yields a list of jobs,
each one call into sumrips.  Jobs look sumrips functions up on their modules
at call time, so the spans that `spans.py` installs see every call.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path
from typing import Any, Callable

import checks
from sumrips import cli, complexes, kunneth, persistence
from sumrips.metric import validate

# Seed of the product corpus in tests/corpus.py.  Every seed keeps that
# corpus's factor sizes, so the cell count of a round does not depend on the
# seed; this seed reproduces the corpus itself.
CORPUS_SEED = 20260816
CORPUS_PAIRS = 50
MAXN = 3
CUBE_SPLITS = (3, 4, 5)
FULL_CUBE = 4
# Each size combination six times: the reduction cost of one 6 x 5 pair varies
# by up to a factor of two with its distances, and six draws average that out.
CLI_SIZES = tuple((nx, ny) for _ in range(6) for nx in range(3, 7) for ny in range(3, 6))
CLI_BOTTLENECK_DOCS = 4
CLI_DEGREES = (0, 1, 2)


def random_matrix(rng: random.Random, lo: int, hi: int, size: int | None = None,
                  max_dist: int = 8) -> list[list[float]]:
    """The recipe of tests/corpus.py: n points, symmetric integer distances in
    [0, max_dist], zero diagonal.  `size` overrides the drawn n after the draw,
    so the random stream is the recipe's whenever the two agree."""
    n = rng.randint(lo, hi)
    if size is not None:
        n = size
    m = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = float(rng.randint(0, max_dist))
    return m


def corpus_sizes() -> list[tuple[int, int]]:
    rng = random.Random(CORPUS_SEED)
    return [(len(random_matrix(rng, 2, 6)), len(random_matrix(rng, 2, 5)))
            for _ in range(CORPUS_PAIRS)]


def hamming_matrix(k: int, rng: random.Random) -> list[list[float]]:
    """The k-bit Hamming cube with its 2^k points listed in a seeded order."""
    points = list(range(2 ** k))
    rng.shuffle(points)
    return [[float(bin(a ^ b).count("1")) for b in points] for a in points]


def _late(module: Any, name: str, *args: Any) -> Callable[[], Any]:
    """A job that looks module.name up when it runs, so installed spans see it."""
    return lambda: getattr(module, name)(*args)


def bars(code) -> list[tuple[float, float]]:
    return [(bar.birth, bar.death) for bar in code]


def report_summary(report) -> dict[str, Any]:
    return {"degrees": [{"predicted": bars(d.predicted), "actual": bars(d.actual),
                         "bottleneck": d.bottleneck} for d in report.dims]}


class Workload:
    """Built from a seed (the set-up); `jobs()` lists one round, `check()` its results."""

    def failed(self, result: Any) -> bool:
        """Whether a job that returned failed; a job that raises always fails."""
        return False


class Products(Workload):
    """compare_product(x, y, 3) over F_2 on 50 seeded pairs."""

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.matrices = [(random_matrix(rng, 2, 6, nx), random_matrix(rng, 2, 5, ny))
                         for nx, ny in corpus_sizes()]
        self.spaces = [(validate(x), validate(y)) for x, y in self.matrices]

    def jobs(self) -> list[Callable[[], Any]]:
        return [_late(kunneth, "compare_product", x, y, MAXN) for x, y in self.spaces]

    def check(self, results: list) -> list[str]:
        problems = []
        for i, ((x, y), report) in enumerate(zip(self.matrices, results)):
            if report is not None:
                problems += [f"pair {i}: {p}"
                             for p in checks.product_report(x, y, report_summary(report))]
        return problems


class HammingSplit(Workload):
    """The paper's splitting {0,1}^k = {0,1}^(k-1) x {0,1} for k = 3, 4, 5,
    plus the full Rips complex of the 4-cube, over F_2."""

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        interval = validate(hamming_matrix(1, rng))
        self.splits = [(validate(hamming_matrix(k - 1, rng)), interval) for k in CUBE_SPLITS]
        self.cube = validate(hamming_matrix(FULL_CUBE, rng))

    def jobs(self) -> list[Callable[[], Any]]:
        full = len(self.cube) - 1
        return ([_late(kunneth, "compare_product", x, y, MAXN) for x, y in self.splits]
                + [lambda: persistence.reduce(complexes.vietoris_rips(self.cube, full))])

    def check(self, results: list) -> list[str]:
        problems = []
        for k, report in zip(CUBE_SPLITS, results):
            if report is not None:
                problems += checks.hamming_split_report(k, report_summary(report))
        if results[-1] is not None:
            problems += checks.full_cube4({n: bars(code) for n, code in results[-1].items()})
        return problems


def _csv(matrix: list[list[float]]) -> str:
    return "".join(",".join(repr(v) for v in row) + "\n" for row in matrix)


def _read_doc(path: Path) -> dict[str, Any]:
    return json.loads(path.read_text())


def _doc_bars(rows: list) -> list[tuple[float, float]]:
    return sorted((float(b), math.inf if d == "inf" else float(d)) for b, d in rows)


class CliF3(Workload):
    """sumrips.cli.main in-process over F_3: kunneth and vr on 72 seeded pairs,
    then bottleneck between the first vr documents."""

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.workdir = workdir
        self.pairs = []
        for nx, ny in CLI_SIZES:
            x, y = random_matrix(rng, 3, 6, nx), random_matrix(rng, 3, 5, ny)
            self.pairs.append((x, y, checks.product_matrix(x, y)))
        for i, (x, y, p) in enumerate(self.pairs):
            for tag, matrix in (("x", x), ("y", y), ("p", p)):
                (workdir / f"{tag}{i}.csv").write_text(_csv(matrix))

    def _path(self, name: str) -> str:
        return str(self.workdir / name)

    def commands(self) -> list[list[str]]:
        common = ["--field", "3", "--format", "json", "--output"]
        out = []
        for i in range(len(self.pairs)):
            out.append(["kunneth", "--x", self._path(f"x{i}.csv"), "--y", self._path(f"y{i}.csv"),
                        "--maxn", "2", *common, self._path(f"k{i}.json")])
        for i in range(len(self.pairs)):
            out.append(["vr", "--input", self._path(f"p{i}.csv"), "--maxdim", "3",
                        *common, self._path(f"v{i}.json")])
        for a in range(CLI_BOTTLENECK_DOCS):
            for b in range(CLI_BOTTLENECK_DOCS):
                if a != b:
                    for n in CLI_DEGREES:
                        out.append(["bottleneck", "--a", self._path(f"v{a}.json"),
                                    "--b", self._path(f"v{b}.json"), "--dim", str(n),
                                    *common, self._path(f"b{a}-{b}-{n}.json")])
        return out

    def jobs(self) -> list[Callable[[], Any]]:
        return [_late(cli, "main", argv) for argv in self.commands()]

    def failed(self, result: Any) -> bool:
        """A command fails when it exits with a code other than 0."""
        return result != 0

    def check(self, results: list) -> list[str]:
        problems = []
        npairs = len(self.pairs)
        kunneth_ok, vr_ok = results[:npairs], results[npairs:2 * npairs]
        for i, (x, y, p) in enumerate(self.pairs):
            if kunneth_ok[i] == 0:
                doc = _read_doc(self.workdir / f"k{i}.json")
                if doc["ok"] is not True:
                    problems.append(f"kunneth {i}: report is not ok")
                report = {"degrees": [{"predicted": _doc_bars(d["predicted"]),
                                       "actual": _doc_bars(d["actual"]),
                                       "bottleneck": math.inf if d["bottleneck"] == "inf"
                                       else float(d["bottleneck"])} for d in doc["dims"]]}
                problems += [f"kunneth {i}: {msg}" for msg in checks.product_report(x, y, report)]
            if vr_ok[i] == 0:
                doc = _read_doc(self.workdir / f"v{i}.json")
                code = {int(n): _doc_bars(rows) for n, rows in doc["dims"].items()}
                problems += [f"vr {i}: {msg}" for msg in checks.vr_barcode(p, code)]
        if all(r == 0 for r in results[2 * npairs:]):
            for n in CLI_DEGREES:
                table = {}
                for a in range(CLI_BOTTLENECK_DOCS):
                    for b in range(CLI_BOTTLENECK_DOCS):
                        if a != b:
                            value = _read_doc(self.workdir / f"b{a}-{b}-{n}.json")["distance"]
                            table[a, b] = math.inf if value == "inf" else float(value)
                problems += [f"bottleneck degree {n}: {msg}"
                             for msg in checks.bottleneck_table(table)]
        return problems


WORKLOADS = {"products": Products, "hamming_split": HammingSplit, "cli_f3": CliF3}
