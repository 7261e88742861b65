"""Seeded random inputs shared across the suites.

All draws are integer or quarter-integer valued so that sums, minima, and
comparisons are exact in float64: the suites assert exact equality, never
approximate.  Seeds are fixed constants; the corpora are part of the contract.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

import oracle
from sumrips import Bar, Barcode, FilteredComplex, FiniteMetricSpace, validate
from sumrips import vietoris_rips
from sumrips.complexes import _flag_dims, rips_cell_count

PRODUCT_CORPUS_SEED = 20260816
SMALL_PAIRS_SEED = 977
BAR_LAWS_SEED = 40961
COMPLEX_CORPUS_SEED = 4441


def random_space(rng: random.Random, min_points: int, max_points: int,
                 max_dist: int = 8, allow_diagonal: bool = False) -> FiniteMetricSpace:
    """Symmetric integer distances in [0, max_dist]; generalized on purpose.

    Zero off-diagonal distances are allowed (points can glue), and with
    allow_diagonal some points get positive self-distance, delaying their birth.
    """
    n = rng.randint(min_points, max_points)
    m = [[0.0] * n for _ in range(n)]
    for i in range(n):
        if allow_diagonal and rng.random() < 0.25:
            m[i][i] = float(rng.randint(1, 3))
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = float(rng.randint(0, max_dist))
    return validate(m)


def random_float_space(rng: random.Random, min_points: int, max_points: int,
                       signed_zero_rate: float = 0.3) -> FiniteMetricSpace:
    """Generalized distances beyond the dyadic grid: non-dyadic floats such as
    0.1 + 0.2 and 1/3, ties, zero off-diagonal entries and positive
    diagonals; with probability `signed_zero_rate` some zeros are -0.0."""
    n = rng.randint(min_points, max_points)
    ties = (0.0, 0.1 + 0.2, 0.3, 1 / 3, 0.7, 1.0, 2.0)
    m = [[0.0] * n for _ in range(n)]
    for i in range(n):
        if rng.random() < 0.25:
            m[i][i] = rng.choice((0.1, 0.1 + 0.2, 0.5))
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = rng.choice(ties) if rng.random() < 0.5 else rng.random()
    if rng.random() < signed_zero_rate:
        for i in range(n):
            for j in range(i, n):
                if m[i][j] == 0.0 and rng.random() < 0.5:
                    m[i][j] = m[j][i] = -0.0
    return validate(m)


def product_corpus(count: int = 50, seed: int = PRODUCT_CORPUS_SEED):
    """The pairs corpus for product comparisons: |X| <= 6, |Y| <= 5."""
    rng = random.Random(seed)
    return [(random_space(rng, 2, 6), random_space(rng, 2, 5)) for _ in range(count)]


def small_pairs(count: int = 20, seed: int = SMALL_PAIRS_SEED):
    """Pairs of small spaces (<= 4 points) for chain-level product checks."""
    rng = random.Random(seed)
    return [(random_space(rng, 2, 4), random_space(rng, 2, 4)) for _ in range(count)]


def cycle_graph(n: int) -> FiniteMetricSpace:
    """The cycle graph C_n with its shortest-path metric: d(i, j) is the
    shorter way round, min(|i - j|, n - |i - j|)."""
    return validate([[float(min(abs(i - j), n - abs(i - j))) for j in range(n)]
                     for i in range(n)])


def rp2_subdivision() -> FiniteMetricSpace:
    """The shortest-path metric on the barycentric subdivision of the
    six-vertex projective plane, the antipodal quotient of the icosahedron:
    31 points (6 vertices, 15 edges, 10 triangles), one edge per face
    relation, diameter 3.  The subdivision is flag, so its Rips complex at 1
    is the subdivided RP^2, whose homology depends on the field."""
    triangles = [(0, 1, 3), (0, 1, 5), (0, 2, 4), (0, 2, 5), (0, 3, 4),
                 (1, 2, 3), (1, 2, 4), (1, 4, 5), (2, 3, 5), (3, 4, 5)]
    edges = sorted({pair for t in triangles for pair in itertools.combinations(t, 2)})
    faces = [frozenset([v]) for v in range(6)] + [frozenset(e) for e in edges] + \
        [frozenset(t) for t in triangles]
    n = len(faces)
    inf = float("inf")
    dist = [[0.0 if i == j else 1.0 if faces[i] < faces[j] or faces[j] < faces[i] else inf
             for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                dist[i][j] = min(dist[i][j], dist[i][k] + dist[k][j])
    return validate(dist)


def random_bar(rng: random.Random, infinite_rate: float = 0.15) -> Bar:
    """Quarter-grid bar: birth in [0, 6], persistence in [0.25, 6] or infinite."""
    birth = rng.randint(0, 24) / 4
    if rng.random() < infinite_rate:
        return Bar(birth, float("inf"))
    return Bar(birth, birth + rng.randint(1, 24) / 4)


def random_barcode(rng: random.Random, max_bars: int = 4) -> Barcode:
    return Barcode(random_bar(rng) for _ in range(rng.randint(0, max_bars)))


def random_complexes(count: int = 30, seed: int = COMPLEX_CORPUS_SEED,
                     max_cells: int = 200) -> list[FilteredComplex]:
    """Mixed Rips and tensor complexes, each within the cell budget.

    Every fifth complex is a chain-level product of two tiny Rips complexes so
    the Koszul signs face the rank-nullity oracle too.
    """
    rng = random.Random(seed)
    out: list[FilteredComplex] = []
    while len(out) < count:
        if len(out) % 5 == 4:
            left = vietoris_rips(random_space(rng, 2, 3, allow_diagonal=True), 2)
            right = vietoris_rips(random_space(rng, 2, 3, allow_diagonal=True), 2)
            cx = oracle.tensor_complex(left, right, 3)
        else:
            space = random_space(rng, 3, 7, allow_diagonal=True)
            maxdim = rng.randint(1, 5)
            if rips_cell_count(len(space), maxdim) > max_cells:
                continue
            cx = vietoris_rips(space, maxdim)
        if len(cx) <= max_cells:
            out.append(cx)
    return out


def stored_top(cx: FilteredComplex, space: FiniteMetricSpace) -> FilteredComplex:
    """The barcode-only Rips complex `cx` of `space` with its top dimension
    stored: the library's per-dimension pipeline run up to top_dim on the
    graph that cx keeps to enumerate that dimension.  Its other dimensions
    are cx's, bit for bit.  A complex that stores its top dimension is
    returned as it is."""
    if cx.cofaces is None:
        return cx
    vertices = np.sort(cx.dims[0].vertices[:, 0])
    dims = _flag_dims(cx.cofaces.near, [space.dist], vertices, cx.top_dim)
    return FilteredComplex(dims, cx.complete, cx.source)


def space_to_csv(space: FiniteMetricSpace, header: bool = False) -> str:
    """Render a space in the CSV format the CLI reads."""
    lines = []
    if header:
        lines.append(",".join(space.labels))
    for row in space.dist:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"
