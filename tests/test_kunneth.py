"""Product predictions, comparison reports, and the bottleneck distance."""

import math
import random

import numpy as np
import pytest

import corpus
import oracle
from sumrips import (
    Bar,
    Barcode,
    InputError,
    bottleneck,
    compare_product,
    diameter,
    hamming_cube,
    kunneth_predict,
    reduce,
    vietoris_rips,
)
from sumrips.kunneth import VERDICT_DOMINATED, VERDICT_EQUAL, VERDICT_VIOLATED, _covers

INF = math.inf
INTERVAL = hamming_cube(1)
SQUARE = hamming_cube(2)


def _ph(space, maxdim=3):
    return reduce(vietoris_rips(space, maxdim))


def test_predict_interval_squared():
    ph_i = _ph(INTERVAL)
    assert kunneth_predict(ph_i, ph_i, 0) == Barcode([Bar(0, 1)] * 3 + [Bar(0, INF)])
    assert kunneth_predict(ph_i, ph_i, 1) == Barcode([Bar(1, 2)])
    assert kunneth_predict(ph_i, ph_i, 2) == Barcode()
    with pytest.raises(InputError):
        kunneth_predict(ph_i, ph_i, -1)


def test_predict_interval_times_square():
    ph_i, ph_sq = _ph(INTERVAL), _ph(SQUARE)
    assert kunneth_predict(ph_i, ph_sq, 2) == Barcode([Bar(2, 3)])
    assert kunneth_predict(ph_i, ph_sq, 3) == Barcode()


def test_predict_graded_collects_all_degrees():
    ph_i, ph_sq = _ph(INTERVAL), _ph(SQUARE)
    assert [len(kunneth_predict(ph_i, ph_sq, n)) for n in range(4)] == [8, 5, 1, 0]


def test_compare_interval_squared_all_equal():
    report = compare_product(INTERVAL, INTERVAL, 2)
    assert [d.verdict for d in report.dims] == [VERDICT_EQUAL] * 3
    assert all(d.bottleneck == 0.0 for d in report.dims)
    assert report.diameter_bound == 1.0
    assert report.ok and report.verdicts_ok and report.bounds_ok


def test_compare_interval_times_square_degreewise():
    report = compare_product(INTERVAL, SQUARE, 3)
    assert [d.verdict for d in report.dims] == [
        VERDICT_EQUAL, VERDICT_EQUAL, VERDICT_DOMINATED, VERDICT_VIOLATED]
    two = report.dims[2]
    assert two.predicted == Barcode([Bar(2, 3)]) and two.actual == Barcode()
    assert two.bottleneck == 0.5 and two.diameter_bound == 1.0 and two.bound_ok
    three = report.dims[3]
    assert three.predicted == Barcode() and len(three.actual) == 1
    assert not three.asserted and three.verdict_ok  # recorded, not asserted
    assert report.ok  # a degree-3 violation does not fail the report


def test_compare_is_symmetric():
    x = corpus.random_space(random.Random(17), 3, 4)
    y = corpus.random_space(random.Random(18), 2, 3)
    a = compare_product(x, y, 2)
    b = compare_product(y, x, 2)
    for da, db in zip(a.dims, b.dims):
        assert da.verdict == db.verdict
        assert da.predicted == db.predicted
        assert da.actual == db.actual
        assert da.bottleneck == db.bottleneck


def test_compare_maxn_cap():
    with pytest.raises(InputError, match="cap"):
        compare_product(INTERVAL, INTERVAL, 8)
    report = compare_product(INTERVAL, INTERVAL, 8, maxn_cap=None)
    assert len(report.dims) == 9
    with pytest.raises(InputError):
        compare_product(INTERVAL, INTERVAL, -1)


def test_interleaving_bound_on_cube_pairs():
    report = compare_product(INTERVAL, SQUARE, 3)
    assert report.bounds_ok
    assert report.diameter_bound == min(diameter(INTERVAL), diameter(SQUARE))


# ----------------------------------------------------------------- bottleneck

def test_bottleneck_frozen_examples():
    assert bottleneck(Barcode([Bar(2, 3)]), Barcode()) == 0.5
    assert bottleneck(Barcode([Bar(0, 2)]), Barcode([Bar(0, 3)])) == 1.0
    code = Barcode([Bar(0, 2), Bar(1, INF)])
    assert bottleneck(code, code) == 0.0
    assert bottleneck(Barcode(), Barcode()) == 0.0


def test_bottleneck_essentials():
    assert bottleneck(Barcode([Bar(0, INF)]), Barcode([Bar(2, INF)])) == 2.0
    # essential count mismatch is an infinite distance
    assert bottleneck(Barcode([Bar(0, INF)]), Barcode()) == INF
    assert bottleneck(Barcode([Bar(0, INF)]), Barcode([Bar(0, 5)])) == INF
    # sorted matching: crossing assignments are never better
    a = Barcode([Bar(0, INF), Bar(10, INF)])
    b = Barcode([Bar(1, INF), Bar(11, INF)])
    assert bottleneck(a, b) == 1.0


def test_bottleneck_prefers_diagonal_when_cheaper():
    # matching the two bars would cost 4; retiring both costs max(1, 0.5)
    a = Barcode([Bar(0, 2)])
    b = Barcode([Bar(4, 5)])
    assert bottleneck(a, b) == 1.0


def test_bottleneck_matches_bruteforce():
    rng = random.Random(515)
    for max_bars in (3, 5):
        for _ in range(120):
            a = corpus.random_barcode(rng, max_bars=max_bars)
            b = corpus.random_barcode(rng, max_bars=max_bars)
            assert bottleneck(a, b) == oracle.bottleneck_bruteforce(a, b), (a, b)


def test_covers_agrees_with_halls_condition():
    """Every 0/1 matrix of 3 x 3, 3 x 4 and 4 x 3, covering all rows or all
    but the first."""
    for shape in ((3, 3), (3, 4), (4, 3)):
        cells = shape[0] * shape[1]
        masks = [np.ones(shape[0], dtype=bool), np.arange(shape[0]) > 0]
        for bits in range(2 ** cells):
            edges = np.array([bits >> k & 1 for k in range(cells)], dtype=bool).reshape(shape)
            for rows in masks:
                assert _covers(edges, rows) == oracle.covers_by_hall(edges, rows), (edges, rows)


def test_bottleneck_on_long_augmenting_paths():
    """1,001 finite bars per side, where the only cover at the optimum needs
    an augmenting path through every bar.

    A_i = [0, 10 + 2i) and B_j = [0, 9 + 2j) for i < 1000 and j <= 1000, plus
    X = [1, 9) in A.  Births are integers and the deaths of A_i and B_j differ
    in parity, so every pair is at least 1 apart, and every bar is at least 4
    from the diagonal; X -> B_0 and A_i -> B_(i+1) are all exactly 1 apart, so
    the distance is 1.  At that threshold A_i is next to B_i and B_(i+1) only,
    and X, which sorts last, next to B_0 only: after each A_i takes B_i, X
    reaches a free bar only through all of them, deeper than Python's default
    recursion limit.
    """
    n = 1000
    a = Barcode([Bar(0, 10 + 2 * i) for i in range(n)] + [Bar(1, 9)])
    b = Barcode([Bar(0, 9 + 2 * j) for j in range(n + 1)])
    assert len(a.finite()) == len(b.finite()) == n + 1
    assert bottleneck(a, b) == 1.0
    assert bottleneck(b, a) == 1.0


def test_bottleneck_is_a_pseudometric_on_samples():
    rng = random.Random(616)
    for _ in range(60):
        a, b, c = (corpus.random_barcode(rng, max_bars=3) for _ in range(3))
        dab, dbc, dac = bottleneck(a, b), bottleneck(b, c), bottleneck(a, c)
        assert dab == bottleneck(b, a)
        assert bottleneck(a, a) == 0.0
        if dab < INF and dbc < INF:
            assert dac <= dab + dbc
