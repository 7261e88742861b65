"""Finite generalized metric spaces: symmetric nonnegative distance matrices.

Neither the triangle inequality nor a zero diagonal is required; a point may
sit at positive distance from itself, in which case it only enters the Rips
filtration at that value.  Distances are float64 and all comparisons are exact.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceeded, InputError

DEFAULT_POINT_CAP = 256


class ValidationError(InputError):
    """Distance matrix or labels violate the metric-space contract."""


class FiniteMetricSpace:
    """Labelled point set with a validated symmetric nonnegative matrix.

    Instances are immutable: the matrix is copied and marked read-only.
    """

    __slots__ = ("labels", "dist")

    def __init__(self, dist: np.ndarray, labels: tuple[str, ...]) -> None:
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FiniteMetricSpace is immutable")

    def __len__(self) -> int:
        return self.dist.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteMetricSpace):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.dist, other.dist)

    def __hash__(self) -> int:
        return hash((self.labels, self.dist.tobytes()))

    def __repr__(self) -> str:
        return f"FiniteMetricSpace(n={len(self)}, diameter={diameter(self):g})"


def validate(matrix, labels=None, point_cap: int | None = DEFAULT_POINT_CAP) -> FiniteMetricSpace:
    """Check a distance matrix and wrap it; errors name the offending entries.

    Parameters
    ----------
    matrix : array-like, shape (n, n)
        Symmetric, nonnegative, finite.  Zero diagonal is not required.
    labels : sequence of str, optional
        Unique point names; defaults to "0", "1", ...
    point_cap : int or None
        Soft guard on n; pass None to disable.
    """
    dist = np.asarray(matrix, dtype=np.float64)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValidationError(f"distance matrix must be square, got shape {dist.shape}")
    n = dist.shape[0]
    if n == 0:
        raise ValidationError("empty metric space (0 points)")
    if point_cap is not None and n > point_cap:
        raise CapExceeded(f"{n} points exceeds the point cap {point_cap}")

    bad = np.argwhere(~np.isfinite(dist))
    if bad.size:
        i, j = bad[0]
        raise ValidationError(f"dist[{i},{j}] = {float(dist[i, j])!r} is not finite")
    bad = np.argwhere(dist < 0.0)
    if bad.size:
        i, j = bad[0]
        raise ValidationError(f"dist[{i},{j}] = {float(dist[i, j])!r} is negative")
    bad = np.argwhere(dist != dist.T)
    if bad.size:
        i, j = bad[0]
        raise ValidationError(
            f"matrix is not symmetric: dist[{i},{j}] = {float(dist[i, j])!r} "
            f"but dist[{j},{i}] = {float(dist[j, i])!r}"
        )

    if labels is None:
        names = tuple(str(i) for i in range(n))
    else:
        names = tuple(str(x) for x in labels)
        if len(names) != n:
            raise ValidationError(f"{len(names)} labels for {n} points")
        seen: dict[str, int] = {}
        for i, name in enumerate(names):
            if name in seen:
                raise ValidationError(f"duplicate label {name!r} at indices {seen[name]} and {i}")
            seen[name] = i

    dist = dist.copy()
    dist.setflags(write=False)
    return FiniteMetricSpace(dist, names)


def diameter(space: FiniteMetricSpace) -> float:
    """Largest distance over all ordered pairs, diagonal included."""
    return float(space.dist.max())


def enclosing_radius(space: FiniteMetricSpace) -> float:
    """R = min over v of max over u of d(v, u), diagonal included.

    Above R the Rips filtration is a cone: let v attain the minimum.  For
    t >= R every simplex s alive at t has s + {v} alive at t, because each
    d(u, v) and d(v, v) is at most R.  So the complex at t is acyclic apart
    from one essential degree-0 bar, and no cell entering after R changes the
    barcode (Bauer, Ripser, arXiv:1908.02518).  Taking the max over the whole
    row makes this hold for generalized metrics too.
    """
    return float(space.dist.max(axis=1).min())


def product_sum(x: FiniteMetricSpace, y: FiniteMetricSpace,
                point_cap: int | None = DEFAULT_POINT_CAP) -> FiniteMetricSpace:
    """Product space X x Y under the sum metric d((x,y),(x',y')) = dx + dy.

    Points are ordered x-major: index (i, j) maps to i * len(y) + j, and labels
    combine as "(lx,ly)".
    """
    nx, ny = len(x), len(y)
    if point_cap is not None and nx * ny > point_cap:
        raise CapExceeded(f"product has {nx * ny} points, exceeding the point cap {point_cap}")
    n = nx * ny
    dist = np.add.outer(x.dist, y.dist).transpose(0, 2, 1, 3).reshape(n, n).copy()
    dist.setflags(write=False)
    labels = tuple(f"({lx},{ly})" for lx in x.labels for ly in y.labels)
    return FiniteMetricSpace(dist, labels)


def hamming_cube(k: int, point_cap: int | None = DEFAULT_POINT_CAP) -> FiniteMetricSpace:
    """The k-bit Hamming cube: 2^k bit vectors, distance = differing coordinates.

    Points are in lexicographic bit-vector order and labelled by their bit
    strings, so index i has label format(i, "0kb").
    """
    if k < 1:
        raise InputError(f"cube dimension must be >= 1, got {k}")
    n = 1 << k
    if point_cap is not None and n > point_cap:
        raise CapExceeded(f"2^{k} = {n} points exceeds the point cap {point_cap}")
    ids = np.arange(n, dtype=np.uint32)
    dist = np.bitwise_count(np.bitwise_xor.outer(ids, ids)).astype(np.float64)
    dist.setflags(write=False)
    labels = tuple(format(i, f"0{k}b") for i in range(n))
    return FiniteMetricSpace(dist, labels)
