"""Tests of the benchmark itself: seeded inputs repeat, checks are not vacuous,
spans account for time correctly.  Run with `python -m pytest perfbench/tests`."""

import copy
import json
import math
import sys
from pathlib import Path

import pytest

import checks
import run
import spans
import workloads
from sumrips import complexes, kunneth, persistence
from sumrips.metric import validate

INF = math.inf
ROOT = Path(__file__).resolve().parents[2]


def moved(bars, i):
    """Bar i with its death (its birth, if essential) half a unit later."""
    birth, death = bars[i]
    bar = (birth + 0.5, INF) if death == INF else (birth, death + 0.5)
    return sorted(bars[:i] + [bar] + bars[i + 1:])


def dropped(bars, i):
    return bars[:i] + bars[i + 1:]


def mutations(bars):
    for i in range(len(bars)):
        yield moved(bars, i)
        yield dropped(bars, i)


def rejects_every_mutation(check, data, path):
    """Every one-bar move or drop of the barcode at `path` inside `data` fails `check`."""
    bars = data
    for key in path:
        bars = bars[key]
    assert bars, f"nothing to mutate at {path}"
    for mutant in mutations(bars):
        changed = copy.deepcopy(data)
        target = changed
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = mutant
        assert check(changed), f"mutation {mutant} at {path} passed"


# -- seeded inputs ---------------------------------------------------------

def test_products_inputs_repeat_for_a_seed(tmp_path):
    a = workloads.Products(7, tmp_path)
    b = workloads.Products(7, tmp_path)
    assert a.matrices == b.matrices
    assert workloads.Products(8, tmp_path).matrices != a.matrices


def test_products_sizes_do_not_depend_on_the_seed(tmp_path):
    sizes = [(len(x), len(y)) for x, y in workloads.Products(1, tmp_path).matrices]
    assert sizes == [(len(x), len(y)) for x, y in workloads.Products(2, tmp_path).matrices]
    assert sizes == workloads.corpus_sizes()


def test_corpus_seed_reproduces_the_test_corpus(tmp_path):
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        import corpus
    finally:
        sys.path.pop(0)
    ours = workloads.Products(workloads.CORPUS_SEED, tmp_path).matrices
    theirs = corpus.product_corpus()
    assert [(x, y) for x, y in ours] == [(sx.dist.tolist(), sy.dist.tolist()) for sx, sy in theirs]


def test_hamming_inputs_repeat_for_a_seed(tmp_path):
    a = workloads.HammingSplit(3, tmp_path)
    b = workloads.HammingSplit(3, tmp_path)
    assert all(x1 == x2 for (x1, _), (x2, _) in zip(a.splits, b.splits))
    assert a.cube == b.cube
    assert workloads.HammingSplit(4, tmp_path).cube != a.cube


def test_cli_inputs_repeat_for_a_seed(tmp_path):
    first, second, other = (tmp_path / name for name in ("a", "b", "c"))
    for path in (first, second, other):
        path.mkdir()
    workloads.CliF3(5, first)
    workloads.CliF3(5, second)
    workloads.CliF3(6, other)
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert len(names) == 3 * len(workloads.CLI_SIZES)
    assert all((first / n).read_bytes() == (second / n).read_bytes() for n in names)
    assert any((first / n).read_bytes() != (other / n).read_bytes() for n in names)


# -- independent computations ----------------------------------------------

def test_union_find_ph0_handles_late_vertices():
    m = [[0.0, 2.0, 5.0], [2.0, 3.0, 1.0], [5.0, 1.0, 0.0]]
    # vertex 1 enters at 3 and joins 0 and 2 at once; one of their classes dies.
    assert checks.union_find_ph0(m) == [(0.0, 3.0), (0.0, INF)]
    code = persistence.reduce(complexes.vietoris_rips(validate(m), 1))
    assert workloads.bars(code[0]) == checks.union_find_ph0(m)


def test_cube_closed_forms():
    assert [checks.betti3_cube(k) for k in (2, 3, 4, 5)] == [0, 1, 9, 49]
    assert [checks.betti1_cube(k) for k in (1, 2, 3, 4)] == [0, 1, 5, 17]


# -- every check accepts real output and rejects one bar moved or dropped ----

@pytest.fixture(scope="module")
def small_products(tmp_path_factory):
    wl = workloads.Products(1, tmp_path_factory.mktemp("products"))
    chosen = [(i, s) for i, s in enumerate(wl.spaces) if len(s[0]) * len(s[1]) <= 12][:6]
    return [(wl.matrices[i], workloads.report_summary(kunneth.compare_product(x, y, 3)))
            for i, (x, y) in chosen]


def test_product_check_accepts_and_rejects(small_products):
    assert len(small_products) >= 3
    for (x, y), report in small_products:
        def fails(r, x=x, y=y):
            return bool(checks.product_report(x, y, r))
        assert not fails(report)
        rejects_every_mutation(fails, report, ["degrees", 0, "actual"])
        rejects_every_mutation(fails, report, ["degrees", 0, "predicted"])
        for side in ("actual", "predicted"):
            if report["degrees"][1][side]:
                rejects_every_mutation(fails, report, ["degrees", 1, side])
        too_far = copy.deepcopy(report)
        too_far["degrees"][3]["bottleneck"] = min(checks.diameter(x), checks.diameter(y)) + 1
        assert fails(too_far)


def test_domination_check_rejects_a_moved_or_dropped_bar(small_products):
    (x, y), report = small_products[0]
    report = copy.deepcopy(report)
    report["degrees"][2]["predicted"] = [(2.0, 3.0)]
    report["degrees"][2]["actual"] = [(2.0, 3.0)]
    report["degrees"][2]["bottleneck"] = 0.0
    assert not checks.product_report(x, y, report)
    late = copy.deepcopy(report)
    late["degrees"][2]["actual"] = moved(report["degrees"][2]["actual"], 0)
    assert checks.product_report(x, y, late)
    gone = copy.deepcopy(report)
    gone["degrees"][2]["predicted"] = dropped(report["degrees"][2]["predicted"], 0)
    assert checks.product_report(x, y, gone)


def test_essential_bar_check():
    code = {0: [(0.0, 1.0), (0.0, INF)], 1: [(1.0, INF)]}
    assert checks.vr_barcode([[0.0, 1.0], [1.0, 0.0]], code)


@pytest.fixture(scope="module")
def hamming_reports(tmp_path_factory):
    wl = workloads.HammingSplit(1, tmp_path_factory.mktemp("hamming"))
    return {k: workloads.report_summary(kunneth.compare_product(x, y, 3))
            for k, (x, y) in zip(workloads.CUBE_SPLITS[:2], wl.splits[:2])}


def test_hamming_split_check_accepts_and_rejects(hamming_reports):
    for k, report in hamming_reports.items():
        def fails(r, k=k):
            return bool(checks.hamming_split_report(k, r))
        assert not fails(report)
        for n, entry in enumerate(report["degrees"]):
            for side in ("actual", "predicted"):
                if entry[side]:
                    rejects_every_mutation(fails, report, ["degrees", n, side])


def test_full_cube_check_accepts_and_rejects(tmp_path):
    cube = workloads.HammingSplit(1, tmp_path).cube
    code = persistence.reduce(complexes.vietoris_rips(cube, len(cube) - 1))
    bars = {n: workloads.bars(c) for n, c in code.items()}
    assert not checks.full_cube4(bars)
    for n in (0, 1, 3, 7):
        rejects_every_mutation(lambda c: bool(checks.full_cube4(c)), bars, [n])


def test_vr_check_accepts_and_rejects(tmp_path):
    wl = workloads.CliF3(1, tmp_path)
    _, _, p = wl.pairs[0]
    code = persistence.reduce(complexes.vietoris_rips(validate(p), 3), 3)
    bars = {n: workloads.bars(c) for n, c in code.items()}
    assert not checks.vr_barcode(p, bars)
    rejects_every_mutation(lambda c: bool(checks.vr_barcode(p, c)), bars, [0])


def test_bottleneck_table_check():
    docs = range(3)
    table = {(a, b): float(abs(a - b)) for a in docs for b in docs if a != b}
    assert not checks.bottleneck_table(table)
    lopsided = {**table, (0, 1): 0.5}
    assert checks.bottleneck_table(lopsided)
    detour = {**table, (0, 2): 3.0, (2, 0): 3.0}
    assert checks.bottleneck_table(detour)


def test_cli_round_passes_its_checks(tmp_path):
    wl = workloads.CliF3(2, tmp_path)
    results = [job() for job in wl.jobs()]
    assert results == [0] * len(results)
    assert wl.check(results) == []
    doc = json.loads((tmp_path / "v0.json").read_text())
    doc["dims"]["0"].pop()
    (tmp_path / "v0.json").write_text(json.dumps(doc))
    assert wl.check(results)


# -- spans -----------------------------------------------------------------

def test_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    layers = tracer.layer_times()
    assert layers["inner"]["calls"] == 3
    assert layers["outer"]["self_s"] == pytest.approx(
        layers["outer"]["total_s"] - layers["inner"]["total_s"])
    assert [s["parent"] for s in tracer.spans] == [None, 0, 0, 0]


def test_install_restores_every_binding():
    before = [getattr(m, a) for m, a, _ in spans.BINDINGS]
    restore = spans.install(spans.BINDINGS, spans.Tracer().wrap)
    assert all(getattr(m, a) is not f for (m, a, _), f in zip(spans.BINDINGS, before))
    restore()
    assert [getattr(m, a) for m, a, _ in spans.BINDINGS] == before


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
