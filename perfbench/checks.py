"""Correctness checks that do not use sumrips.

A barcode here is a sorted list of (birth, death) float pairs; an essential bar
has death math.inf.  Every check returns a list of problems, empty when the
output is correct.  The expected values come from computations made here
(single-linkage merge heights, bar arithmetic, closed forms for Hamming cubes)
or from properties the method must have (domination, the diameter bound, the
metric axioms of the bottleneck distance), never from stored output.
"""

from __future__ import annotations

import math
from itertools import permutations

INF = math.inf


def diameter(matrix: list[list[float]]) -> float:
    return max(max(row) for row in matrix)


def product_matrix(x: list[list[float]], y: list[list[float]]) -> list[list[float]]:
    """Sum metric on X x Y, points ordered x-major: (i, j) is index i * |Y| + j."""
    ny = len(y)
    points = [(i, j) for i in range(len(x)) for j in range(ny)]
    return [[x[i][k] + y[j][l] for k, l in points] for i, j in points]


def union_find_ph0(matrix: list[list[float]]) -> list[tuple[float, float]]:
    """Degree-0 barcode of the Rips filtration from single-linkage merges.

    A vertex enters at its diagonal entry and an edge at the largest of its
    length and its endpoints' entries.  When an edge joins two components, the
    younger one (later entry) dies; zero-length bars are dropped.
    """
    n = len(matrix)
    parent = list(range(n))
    born = [matrix[v][v] for v in range(n)]

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    edges = sorted((max(matrix[u][v], born[u], born[v]), u, v)
                   for u in range(n) for v in range(u + 1, n))
    bars = []
    for height, u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        young, old = (ru, rv) if born[ru] >= born[rv] else (rv, ru)
        if height > born[young]:
            bars.append((born[young], height))
        parent[young] = old
    bars.extend((born[r], INF) for r in range(n) if find(r) == r)
    return sorted(bars)


def tensor_bar(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    return (a[0] + b[0], min(a[0] + b[1], a[1] + b[0]))


def kunneth_degree0(bx: list, by: list) -> list[tuple[float, float]]:
    """Predicted PH_0 of a product: every pair of factor bars, no torsion term."""
    return sorted(tensor_bar(a, b) for a in bx for b in by)


def alive(bars: list, t: float) -> int:
    return sum(1 for birth, death in bars if birth <= t < death)


def dominates(big: list, small: list) -> bool:
    """Pointwise: at every parameter, at least as many bars of big are alive."""
    points = {b for b, _ in big + small} | {d for _, d in big + small if d < INF}
    return all(alive(big, t) >= alive(small, t) for t in points)


def betti1_cube(k: int) -> int:
    """Number of PH_1 bars [1, 2) of the k-cube."""
    return k * 2 ** (k - 1) - (2 ** k - 1)


def betti3_cube(k: int) -> int:
    """Number of PH_3 bars [2, 3) of the k-cube: 1, 9, 49 for k = 3, 4, 5.

    c_k = sum over 0 <= j < i < k of (j + 1)(2^(k-2) - 2^(i-1)), from
    Adamaszek and Adams, Vietoris-Rips complexes of hypercube graphs.
    """
    return sum((j + 1) * (2 ** (k - 2) - 2 ** (i - 1)) for i in range(1, k) for j in range(i))


def _expect(problems: list[str], where: str, got, want) -> None:
    if got != want:
        problems.append(f"{where}: got {got}, expected {want}")


def product_report(x: list, y: list, report: dict) -> list[str]:
    """Checks on one compare_product report of X x Y.

    report: {"degrees": [{"predicted": bars, "actual": bars, "bottleneck": float}, ...]}
    with one entry per degree 0..maxn.
    """
    problems: list[str] = []
    degrees = report["degrees"]
    for n in (0, 1):
        _expect(problems, f"degree {n} prediction", degrees[n]["predicted"], degrees[n]["actual"])
    if len(degrees) > 2 and not dominates(degrees[2]["predicted"], degrees[2]["actual"]):
        problems.append("degree 2: the prediction does not dominate the computed barcode")
    bound = min(diameter(x), diameter(y))
    for n, entry in enumerate(degrees):
        if not entry["bottleneck"] <= bound:
            problems.append(f"degree {n}: bottleneck {entry['bottleneck']} exceeds "
                            f"min(diam X, diam Y) = {bound}")
        if entry["predicted"] == entry["actual"] and entry["bottleneck"] != 0:
            problems.append(f"degree {n}: equal barcodes at bottleneck {entry['bottleneck']}")
    _expect(problems, "PH_0 against union-find", degrees[0]["actual"],
            union_find_ph0(product_matrix(x, y)))
    _expect(problems, "predicted PH_0 against factor union-find",
            degrees[0]["predicted"], kunneth_degree0(union_find_ph0(x), union_find_ph0(y)))
    essential = [(n, bar) for n, entry in enumerate(degrees)
                 for bar in entry["actual"] if bar[1] == INF]
    if len(essential) != 1 or essential[0][0] != 0:
        problems.append(f"essential bars {essential}: expected exactly one, in degree 0")
    return problems


def hamming_split_report(k: int, report: dict) -> list[str]:
    """Closed forms for compare_product(cube(k - 1), cube(1), 3)."""
    problems: list[str] = []
    degrees = report["degrees"]
    actual = [entry["actual"] for entry in degrees]
    predicted = [entry["predicted"] for entry in degrees]
    _expect(problems, f"k={k} PH_0", actual[0], [(0.0, 1.0)] * (2 ** k - 1) + [(0.0, INF)])
    _expect(problems, f"k={k} PH_1", actual[1], [(1.0, 2.0)] * betti1_cube(k))
    _expect(problems, f"k={k} PH_2", actual[2], [])
    _expect(problems, f"k={k} PH_3", actual[3], [(2.0, 3.0)] * betti3_cube(k))
    for n in (0, 1):
        _expect(problems, f"k={k} predicted PH_{n}", predicted[n], actual[n])
    _expect(problems, f"k={k} predicted PH_2", predicted[2], [(2.0, 3.0)] * betti1_cube(k - 1))
    _expect(problems, f"k={k} predicted PH_3", predicted[3],
            [(2.0, 3.0)] * (2 * betti3_cube(k - 1)))
    distances = [entry["bottleneck"] for entry in degrees]
    _expect(problems, f"k={k} bottlenecks", distances, [0.0, 0.0, 0.5, 0.5])
    if not all(d <= 1.0 for d in distances):
        problems.append(f"k={k} bottlenecks {distances} exceed min(diam X, diam Y) = 1")
    return problems


def full_cube4(code: dict[int, list]) -> list[str]:
    """The full Rips complex of the 4-cube: degrees 0..15, nonzero in 0, 1, 3, 7.

    At scale 3 every pair but the 8 antipodal ones is joined, so the complex is
    the boundary of the 8-dimensional cross-polytope, a 7-sphere, which the full
    simplex fills at scale 4.
    """
    problems: list[str] = []
    _expect(problems, "4-cube degrees", sorted(code), list(range(16)))
    counts = [len(code.get(n, [])) for n in range(8)]
    _expect(problems, "4-cube counts in degrees 0..7", counts, [16, 17, 0, 9, 0, 0, 0, 1])
    expected = {0: [(0.0, 1.0)] * 15 + [(0.0, INF)], 1: [(1.0, 2.0)] * 17,
                3: [(2.0, 3.0)] * 9, 7: [(3.0, 4.0)]}
    for n in range(16):
        _expect(problems, f"4-cube PH_{n}", code.get(n, []), expected.get(n, []))
    return problems


def vr_barcode(matrix: list, code: dict[int, list]) -> list[str]:
    """A Rips barcode built past degree 1: PH_0 from union-find, one essential bar."""
    problems: list[str] = []
    _expect(problems, "PH_0 against union-find", code.get(0), union_find_ph0(matrix))
    essential = [(n, bar) for n, bars in code.items() for bar in bars if bar[1] == INF]
    if len(essential) != 1 or essential[0][0] != 0:
        problems.append(f"essential bars {essential}: expected exactly one, in degree 0")
    return problems


def bottleneck_table(distance: dict[tuple[int, int], float]) -> list[str]:
    """Symmetry and the triangle inequality over every ordered pair and triple."""
    problems: list[str] = []
    docs = sorted({a for a, _ in distance})
    for a, b in permutations(docs, 2):
        if distance[a, b] != distance[b, a]:
            problems.append(f"d({a},{b}) = {distance[a, b]} but d({b},{a}) = {distance[b, a]}")
    for a, b, c in permutations(docs, 3):
        if distance[a, c] > distance[a, b] + distance[b, c]:
            problems.append(f"d({a},{c}) = {distance[a, c]} > d({a},{b}) + d({b},{c})")
    return problems
