"""Metric-space validation, products, cubes, diameters, and caps."""

import numpy as np
import pytest

from sumrips import (CapExceeded, diameter, enclosing_radius, hamming_cube, product_sum,
                     validate)
from sumrips.metric import ValidationError


def test_validate_accepts_generalized_metrics():
    # no triangle inequality, positive diagonal, zero off-diagonal: all legal
    space = validate([[1.0, 0.0], [0.0, 0.0]], ["a", "b"])
    assert len(space) == 2
    assert space.dist[0, 0] == 1.0
    assert space.labels == ("a", "b")


def test_validate_default_labels():
    space = validate([[0, 2], [2, 0]])
    assert space.labels == ("0", "1")


def test_validate_rejects_non_square():
    with pytest.raises(ValidationError, match="square"):
        validate([[0, 1, 2], [1, 0, 2]])


def test_validate_rejects_empty():
    with pytest.raises(ValidationError, match="empty"):
        validate(np.zeros((0, 0)))


def test_validate_names_offending_indices():
    with pytest.raises(ValidationError, match=r"dist\[0,2\].*negative"):
        validate([[0, 1, -3], [1, 0, 1], [-3, 1, 0]])
    with pytest.raises(ValidationError, match=r"dist\[1,2\].*not finite"):
        validate([[0, 1, 1], [1, 0, float("nan")], [1, float("nan"), 0]])
    with pytest.raises(ValidationError, match=r"dist\[0,1\].*dist\[1,0\]"):
        validate([[0, 1], [2, 0]])


def test_validate_prints_offending_values_as_plain_floats():
    cases = [([[0, float("nan")], [float("nan"), 0]], "dist[0,1] = nan is not finite"),
             ([[0, -1], [-1, 0]], "dist[0,1] = -1.0 is negative"),
             ([[0, 1], [2, 0]], "matrix is not symmetric: dist[0,1] = 1.0 but dist[1,0] = 2.0")]
    for matrix, message in cases:
        with pytest.raises(ValidationError) as info:
            validate(matrix)
        assert str(info.value) == message


def test_validate_rejects_bad_labels():
    with pytest.raises(ValidationError, match="2 labels for 3 points"):
        validate(np.zeros((3, 3)), ["a", "b"])
    with pytest.raises(ValidationError, match="duplicate label 'a'"):
        validate(np.zeros((2, 2)), ["a", "a"])


def test_space_is_immutable():
    space = validate([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        space.dist[0, 1] = 5.0
    with pytest.raises(AttributeError):
        space.labels = ("x", "y")


def test_point_cap():
    with pytest.raises(CapExceeded):
        validate(np.zeros((300, 300)))
    assert len(validate(np.zeros((300, 300)), point_cap=None)) == 300


def test_hamming_cube_small():
    square = hamming_cube(2)
    assert square.labels == ("00", "01", "10", "11")
    want = [[0, 1, 1, 2], [1, 0, 2, 1], [1, 2, 0, 1], [2, 1, 1, 0]]
    assert np.array_equal(square.dist, np.array(want, dtype=float))


def test_hamming_cube_popcount_distances():
    cube = hamming_cube(3)
    assert cube.dist[0b000, 0b111] == 3
    assert cube.dist[0b101, 0b110] == 2
    assert cube.labels[5] == "101"


def test_hamming_cube_bounds():
    from sumrips import InputError
    with pytest.raises(InputError):
        hamming_cube(0)
    with pytest.raises(CapExceeded):
        hamming_cube(9)
    assert len(hamming_cube(9, point_cap=None)) == 512


def test_product_sum_is_row_major_with_sum_distances():
    interval = hamming_cube(1)
    tri = validate([[0, 3, 4], [3, 0, 5], [4, 5, 0]], ["a", "b", "c"])
    prod = product_sum(interval, tri)
    assert prod.labels == ("(0,a)", "(0,b)", "(0,c)", "(1,a)", "(1,b)", "(1,c)")
    # d((0,a),(1,b)) = d(0,1) + d(a,b) = 1 + 3
    assert prod.dist[0, 4] == 4.0
    assert prod.dist[2, 2] == 0.0
    assert prod.dist[1, 5] == 1.0 + 5.0


def test_product_sum_matches_hamming_cube():
    interval = hamming_cube(1)
    square = product_sum(interval, interval)
    assert np.array_equal(square.dist, hamming_cube(2).dist)
    cube = product_sum(interval, hamming_cube(2))
    assert np.array_equal(cube.dist, hamming_cube(3).dist)


def test_product_cap():
    big = validate(np.zeros((17, 17)))
    other = validate(np.zeros((16, 16)))
    with pytest.raises(CapExceeded):
        product_sum(big, other)
    assert len(product_sum(big, other, point_cap=None)) == 272


def test_diameter_includes_diagonal():
    assert diameter(validate([[2.0]])) == 2.0
    assert diameter(hamming_cube(3)) == 3.0
    x = validate([[0, 1], [1, 0]])
    y = validate([[0, 4], [4, 0]])
    assert diameter(product_sum(x, y)) == diameter(x) + diameter(y)


def test_enclosing_radius_single_point():
    assert enclosing_radius(validate([[0.0]])) == 0.0
    assert enclosing_radius(validate([[2.5]])) == 2.5


def test_enclosing_radius_duplicate_points():
    assert enclosing_radius(validate([[0, 0], [0, 0]])) == 0.0
    # 0 and 1 coincide; either one reaches the far point 2 within 3
    assert enclosing_radius(validate([[0, 0, 3], [0, 0, 3], [3, 3, 0]])) == 3.0


def test_enclosing_radius_is_at_most_diameter():
    path = validate([[abs(i - j) for j in range(4)] for i in range(4)])
    assert enclosing_radius(path) == 2.0 < diameter(path) == 3.0
    assert enclosing_radius(hamming_cube(3)) == diameter(hamming_cube(3)) == 3.0


def test_enclosing_radius_positive_diagonal_off_centre():
    # centre 0 reaches everything within 1; point 2 enters only at 3 > R
    space = validate([[0, 1, 1], [1, 0, 2], [1, 2, 3]])
    assert enclosing_radius(space) == 1.0
    # a late centre candidate counts its own diagonal
    assert enclosing_radius(validate([[5, 1], [1, 0]])) == 1.0
    assert enclosing_radius(validate([[5, 1], [1, 6]])) == 5.0
