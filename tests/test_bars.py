"""Bar arithmetic: construction rules, tensor/Tor formulas, barcode containers.

Derived expected values are frozen as literals and cross-checked against the
independent grid oracles in oracle.py; the algebraic laws get seeded random
sweeps here and a larger sweep in the acceptance suite.
"""

import math
import random

import pytest

import corpus
import oracle
from sumrips import (
    Bar,
    Barcode,
    GradedBarcode,
    tensor_bar,
    tensor_barcodes,
    tor1_bar,
    tor1_barcodes,
)

INF = math.inf
UNIT = Bar(0, INF)


# ---------------------------------------------------------------- construction

@pytest.mark.parametrize("birth,death", [(1, 1), (2, 1), (-0.5, 1), (INF, INF),
                                         (float("nan"), 1), (0, float("nan"))])
def test_bar_rejects_invalid_intervals(birth, death):
    with pytest.raises(ValueError):
        Bar(birth, death)


def test_bar_rejects_bool_endpoints():
    """JSON would write them as true and false, which no barcode reader takes."""
    for birth, death in [(False, True), (False, 1.0), (0.0, True)]:
        with pytest.raises(TypeError):
            Bar(birth, death)


def test_bar_basic_properties():
    b = Bar(1.0, 3.5)
    assert b.persistence == 2.5
    assert not b.is_essential
    e = Bar(2.0, INF)
    assert e.is_essential and e.persistence == INF
    assert str(b) == "[1,3.5)" and str(e) == "[2,inf)"


# ------------------------------------------------------------- tensor and Tor

def test_tensor_frozen_examples():
    assert tensor_bar(Bar(0, 1), Bar(0, 1)) == Bar(0, 1)
    assert tensor_bar(Bar(0, 1), Bar(1, 2)) == Bar(1, 2)
    assert tensor_bar(Bar(1, 3), Bar(2, 4)) == Bar(3, 5)
    assert tensor_bar(Bar(0, 1), Bar(0, INF)) == Bar(0, 1)
    assert tensor_bar(Bar(2, INF), Bar(3, INF)) == Bar(5, INF)
    for bar in [Bar(0, 1), Bar(2, 5), Bar(1, INF)]:
        assert tensor_bar(UNIT, bar) == bar
        assert tensor_bar(bar, UNIT) == bar


def test_tor_frozen_examples():
    assert tor1_bar(Bar(0, 1), Bar(0, 1)) == Bar(1, 2)
    assert tor1_bar(Bar(0, 1), Bar(1, 2)) == Bar(2, 3)
    assert tor1_bar(Bar(1, 3), Bar(2, 4)) == Bar(5, 7)
    assert tor1_bar(Bar(0, 1), Bar(0, INF)) is None
    assert tor1_bar(Bar(0, INF), Bar(0, 1)) is None
    assert tor1_bar(UNIT, UNIT) is None


def test_tensor_matches_grid_oracle():
    rng = random.Random(999)
    for _ in range(150):
        x, y = corpus.random_bar(rng), corpus.random_bar(rng)
        got = tensor_bar(x, y)
        for quarter in range(0, 80):
            t = quarter / 4
            assert int(got.birth <= t < got.death) == oracle.tensor_dim_at(x, y, t, 0.25), \
                (x, y, t)


def test_tor_matches_resolution_oracle():
    rng = random.Random(998)
    for _ in range(300):
        x, y = corpus.random_bar(rng), corpus.random_bar(rng)
        got = tor1_bar(x, y)
        for quarter in range(0, 80):
            t = quarter / 4
            want = oracle.tor1_dim_at(x, y, t)
            assert int(got is not None and got.birth <= t < got.death) == want, (x, y, t)


def test_algebraic_laws_seeded():
    rng = random.Random(corpus.BAR_LAWS_SEED)
    for _ in range(500):
        x, y, z = (corpus.random_bar(rng) for _ in range(3))
        assert tensor_bar(x, y) == tensor_bar(y, x)
        assert tensor_bar(tensor_bar(x, y), z) == tensor_bar(x, tensor_bar(y, z))
        assert tensor_bar(x, UNIT) == x
        assert tor1_bar(x, y) == tor1_bar(y, x)
        assert tensor_bar(x, y).persistence == min(x.persistence, y.persistence)
        t = tor1_bar(x, y)
        if t is not None:
            assert t.persistence == min(x.persistence, y.persistence)
            assert tensor_bar(x, y).death <= t.birth


# -------------------------------------------------------------------- barcodes

def test_barcode_canonical_order_and_equality():
    a = Barcode([Bar(1, 2), Bar(0, INF), Bar(0, 1), Bar(0, 1)])
    assert [str(b) for b in a] == ["[0,1)", "[0,1)", "[0,inf)", "[1,2)"]
    assert a == Barcode([Bar(0, 1), Bar(1, 2), Bar(0, 1), Bar(0, INF)])
    assert a != Barcode([Bar(0, 1), Bar(1, 2), Bar(0, INF)])  # multiplicity matters
    assert len(a) == 4 and bool(a)
    assert not Barcode() and len(Barcode()) == 0


def test_barcode_rejects_non_bars():
    with pytest.raises(TypeError):
        Barcode([(0, 1)])


def test_dim_at_half_open():
    code = Barcode([Bar(0, 1), Bar(0, INF)])
    assert code.dim_at(0) == 2
    assert code.dim_at(0.5) == 2
    assert code.dim_at(1) == 1  # death is excluded
    assert code.dim_at(100.0) == 1
    assert Barcode().dim_at(0) == 0


def test_barcode_shift_and_split_helpers():
    code = Barcode([Bar(0, 1), Bar(2, INF)])
    assert code.essentials() == (Bar(2, INF),)
    assert code.finite() == (Bar(0, 1),)
    assert code.endpoints() == (0.0, 1.0, 2.0)


def test_tensor_barcodes_two_interval_example():
    ph0 = Barcode([Bar(0, 1), Bar(0, INF)])
    assert tensor_barcodes(ph0, ph0) == Barcode([Bar(0, 1)] * 3 + [Bar(0, INF)])
    assert tor1_barcodes(ph0, ph0) == Barcode([Bar(1, 2)])
    assert tensor_barcodes(ph0, Barcode()) == Barcode()
    assert tor1_barcodes(Barcode(), ph0) == Barcode()


def test_graded_barcode_semantics():
    code = GradedBarcode({0: Barcode([Bar(0, INF)]), 1: Barcode()})
    assert code.dims() == (0, 1)
    assert code[1] == Barcode() and code[7] == Barcode()
    # semantic equality: a stored empty dimension equals a missing one
    assert code == GradedBarcode({0: Barcode([Bar(0, INF)])})
    assert hash(code) == hash(GradedBarcode({0: Barcode([Bar(0, INF)])}))
    assert code != GradedBarcode({0: Barcode([Bar(0, 1)])})


def test_graded_barcode_rejects_bad_keys():
    with pytest.raises(ValueError):
        GradedBarcode({-1: Barcode()})
    with pytest.raises(TypeError):
        GradedBarcode({0: [Bar(0, 1)]})
    with pytest.raises(ValueError):
        GradedBarcode([(0, Barcode()), (0, Barcode())])


def test_graded_barcode_rejects_bool_keys():
    """JSON would write True as the dimension key "True", which no barcode
    reader takes."""
    for key in (True, False):
        with pytest.raises(ValueError):
            GradedBarcode({key: Barcode()})
