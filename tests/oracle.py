"""Independent brute-force oracles the suites pin library output against.

Nothing here reuses the library's arithmetic: graded tensor dimensions come
from explicit generator/relation matrices on a discretized grid, Tor from the
two-step free resolution mechanics, Betti numbers from dense Gaussian
elimination on boundary matrices, bottleneck distances from exhaustive
matching enumeration, bipartite covers from Hall's condition, the edge
collapse from each level's neighbourhoods recomputed as sets, Rips cells from
every subset of points, and the product filtration bounds from every pair of
each cell's projected points, and a complex's invariants from its cells one
at a time.
Deliberately slow and simple; feed small inputs only.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from sumrips import Bar, Barcode, FilteredComplex

INF = math.inf


def gf_rank(matrix, p: int) -> int:
    """Rank over F_p by dense Gaussian elimination (small primes only)."""
    assert 2 <= p < 2 ** 15, "oracle supports small primes only"
    a = np.asarray(matrix, dtype=np.int64) % p
    if a.size == 0:
        return 0
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        piv = r + int(hits[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            a[others] = (a[others] - a[others, c][:, None] * a[r][None, :]) % p
        r += 1
        if r == rows:
            break
    return r


def critical_values(cx: FilteredComplex) -> list[float]:
    """The distinct filtration values of the cells of cx, ascending."""
    return sorted({cell.filtration for cell in cx.cells})


def complex_violations(cx: FilteredComplex) -> list[str]:
    """Each broken invariant of cx, named by its kind.

    The arrays are checked first, so that building `cx.cells` cannot fail:
    each dimension is in filtration order, has one boundary offset per cell
    plus one, and names faces inside the dimension below.  Then every cell
    has no zero coefficient, ascending faces, no face entering after it, and
    a boundary whose boundary is zero over Z.
    """
    bad = []
    for d, dim in enumerate(cx.dims):
        filt = dim.filtration.tolist()
        below = len(cx.dims[d - 1].filtration) if d else 0
        if filt != sorted(filt):
            bad.append(f"dimension {d}: not in filtration order")
        if len(dim.indptr) != len(filt) + 1:
            bad.append(f"dimension {d}: indptr does not have one entry per cell plus one")
        if any(not 0 <= f < below for f in dim.indices.tolist()):
            bad.append(f"dimension {d}: face out of range")
    if bad:
        return bad
    cells = cx.cells
    for j, cell in enumerate(cells):
        faces = [f for f, _ in cell.boundary]
        square = Counter()
        for f, c in cell.boundary:
            for g, e in cells[f].boundary:
                square[g] += c * e
        for kind, broken in (("zero coefficient", any(c == 0 for _, c in cell.boundary)),
                             ("faces not ascending", faces != sorted(set(faces))),
                             ("late face", any(cells[f].filtration > cell.filtration
                                               for f in faces)),
                             ("nonzero boundary of boundary", any(square.values()))):
            if broken:
                bad.append(f"cell {j}: {kind}")
    return bad


def filtration_sandwich_violations(product: FilteredComplex, x, y) -> list[int]:
    """Ids of the cells of a Rips complex of X x Y whose filtration l breaks
    max(l_X, l_Y) <= l <= l_X + l_Y.

    Point x_i y_j of the product has index i * len(y) + j.  l_X and l_Y are
    the filtrations of the cell's projections: the largest distance over every
    pair of projected points, diagonal included.
    """
    ny, dx, dy = len(y), x.dist.tolist(), y.dist.tolist()

    def diameter(dist: list[list[float]], points: set[int]) -> float:
        return max(dist[a][b] for a in points for b in points)

    bad = []
    for j, cell in enumerate(product.cells):
        lx = diameter(dx, {v // ny for v in cell.vertices})
        ly = diameter(dy, {v % ny for v in cell.vertices})
        if not max(lx, ly) <= cell.filtration <= lx + ly:
            bad.append(j)
    return bad


def _boundary_matrix_at(cx: FilteredComplex, n: int, t: float):
    """Dense integer matrix of the degree-n boundary on the subcomplex at time t."""
    rows = [j for j, c in enumerate(cx.cells) if c.dim == n - 1 and c.filtration <= t]
    cols = [j for j, c in enumerate(cx.cells) if c.dim == n and c.filtration <= t]
    row_index = {gid: k for k, gid in enumerate(rows)}
    mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for k, gid in enumerate(cols):
        for face, coeff in cx.cells[gid].boundary:
            mat[row_index[face], k] = coeff
    return mat


def betti_at(cx: FilteredComplex, p: int, n: int, t: float) -> int:
    """dim H_n of the subcomplex of cells with filtration <= t, over F_p."""
    n_cells = sum(1 for c in cx.cells if c.dim == n and c.filtration <= t)
    rank_n = gf_rank(_boundary_matrix_at(cx, n, t), p) if n >= 1 else 0
    rank_up = gf_rank(_boundary_matrix_at(cx, n + 1, t), p)
    return n_cells - rank_n - rank_up


def standard_barcode(cx: FilteredComplex, p: int) -> dict[int, Barcode]:
    """Barcodes in degrees 0..reliable_dim by the standard algorithm: reduce
    the dense boundary matrix of the whole complex, in global order, column by
    column from left to right, with no clearing and no cohomology."""
    cells = cx.cells
    mat = np.zeros((len(cells), len(cells)), dtype=np.int64)
    for j, cell in enumerate(cells):
        for face, coeff in cell.boundary:
            mat[face, j] = coeff % p
    owner: dict[int, int] = {}
    paired = set()
    bars: dict[int, list[Bar]] = {n: [] for n in range(cx.reliable_dim + 1)}
    for j in range(len(cells)):
        col = mat[:, j]
        while col.any():
            low = int(np.flatnonzero(col)[-1])
            if low not in owner:
                owner[low] = j
                paired.update((low, j))
                birth, death = cells[low].filtration, cells[j].filtration
                if birth != death and cells[low].dim in bars:
                    bars[cells[low].dim].append(Bar(birth, death))
                break
            other = mat[:, owner[low]]
            col[:] = (col - col[low] * pow(int(other[low]), p - 2, p) * other) % p
    for j, cell in enumerate(cells):
        if j not in paired and cell.dim in bars:
            bars[cell.dim].append(Bar(cell.filtration, INF))
    return {n: Barcode(b) for n, b in bars.items()}


def collapse_reference(near: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """The `near` mask `complexes._collapse` leaves, from the rule it states.

    The edges uv (near both ways, u != v) are walked from latest to earliest
    entry max(d(u, v), d(u, u), d(v, v)), ties in reverse row-major order.
    The graph at level s holds the edges not dropped that enter at or below
    s.  uv, entering at t, is dropped when one w != u, v has, at t and at
    every later entry of some uy or vy, a closed neighbourhood holding
    N[u] & N[v] (so w lies in N[u] & N[v] at t).  Each neighbourhood is
    rebuilt from the edges left.
    """
    m = len(dist)
    d = dist.tolist()
    enter = {(u, v): max(d[u][v], d[u][u], d[v][v])
             for u in range(m) for v in range(u + 1, m) if near[u, v] and near[v, u]}
    adj: list[dict[int, float]] = [{} for _ in range(m)]
    for (u, v), t in enter.items():
        adj[u][v] = adj[v][u] = t

    def nbhd(x: int, s: float) -> set[int]:
        return {x} | {y for y, t in adj[x].items() if t <= s}

    for (u, v), t in sorted(enter.items(), key=lambda item: (item[1], item[0]), reverse=True):
        levels = {t} | {s for s in (*adj[u].values(), *adj[v].values()) if s > t}
        common = {s: nbhd(u, s) & nbhd(v, s) for s in levels}
        if any(all(common[s] <= nbhd(w, s) for s in levels) for w in common[t] - {u, v}):
            del adj[u][v], adj[v][u]
    out = near.copy()
    for u, v in enter:
        if v not in adj[u]:
            out[u, v] = out[v, u] = False
    return out


def rips_rows(dist: np.ndarray, maxdim: int, near: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per dimension d up to min(maxdim, points - 1), the int32 vertex rows
    and float64 filtration of the flag complex of the graph `near`.

    Every (d + 1)-subset whose ordered pairs, u = v included, are all near is
    a cell.  Its filtration is its largest distance, diagonal included; at 0
    all its distances are zeros, and it takes the sign of its last point's
    d(v, v).  Cells are sorted by (filtration, vertices).
    """
    m, d = len(dist), dist.tolist()
    rows = []
    for k in range(1, min(maxdim, m - 1) + 2):
        cells = []
        for s in itertools.combinations(range(m), k):
            if all(near[u, v] for u in s for v in s):
                f = max(d[u][v] for u in s for v in s)
                cells.append((f if f else d[s[-1]][s[-1]], s))
        cells.sort()
        rows.append((np.array([s for _, s in cells], dtype=np.int32).reshape(-1, k),
                     np.array([f for f, _ in cells], dtype=np.float64)))
    return rows


def _alive(bar: Bar, u: float) -> bool:
    return bar.birth <= u < bar.death


def tensor_dim_at(x: Bar, y: Bar, t: float, step: float) -> int:
    """Degree-t dimension of the graded tensor product, by grid linear algebra.

    All endpoints and t must be multiples of `step`.  Generators are pairs
    m_u (x) n_v with u + v = t; relations identify (T^step m_u) (x) n_v with
    m_u (x) (T^step n_v) for u + v = t - step, terms dropped where a factor is
    dead.  Each relation row has at most two entries, +1 and -1 (a signed
    incidence matrix, totally unimodular), so the rank and hence the dimension
    is the same over every field; F_2 is used for convenience.
    """
    steps = int(round(t / step))
    grid = [k * step for k in range(steps + 1)]
    gens = [(u, t - u) for u in grid if _alive(x, u) and _alive(y, t - u)]
    index = {g: k for k, g in enumerate(gens)}
    rel_rows = []
    for u in grid:
        v = (t - step) - u
        if v < 0 or not (_alive(x, u) and _alive(y, v)):
            continue
        row = [0] * len(gens)
        if _alive(x, u + step) and _alive(y, v):
            row[index[(u + step, v)]] += 1
        if _alive(x, u) and _alive(y, v + step):
            row[index[(u, v + step)]] -= 1
        rel_rows.append(row)
    if not gens:
        return 0
    if not rel_rows:
        return len(gens)
    return len(gens) - gf_rank(rel_rows, 2)


def tor1_dim_at(x: Bar, y: Bar, t: float) -> int:
    """Degree-t dimension of Tor_1, read off the free resolution of x.

    Resolve x as 0 -> F(x.death) -> F(x.birth) -> x -> 0, where F(s) is free on
    one generator of degree s and the map is multiplication by T^(death-birth).
    Tensoring with y and taking the kernel of the left map: the source in
    degree t is y at degree t - x.death, the map lands in y at degree
    t - x.birth, and multiplication on an interval module is injective exactly
    where the target is still alive.  A free x has no relation module at all.
    """
    if x.death == INF:
        return 0
    if not _alive(y, t - x.death):
        return 0
    return 0 if _alive(y, t - x.birth) else 1


def bottleneck_bruteforce(a: Barcode, b: Barcode) -> float:
    """Exhaustive bottleneck distance for tiny barcodes.

    Essential bars are matched by trying every permutation; finite bars by
    trying every partial injection, with unmatched bars paying half their
    persistence.  Exponential, so keep inputs below ~6 bars per side.
    """
    ess_a = [bar.birth for bar in a.essentials()]
    ess_b = [bar.birth for bar in b.essentials()]
    if len(ess_a) != len(ess_b):
        return INF
    if ess_a:
        ess_cost = min(
            max(abs(p - q) for p, q in zip(ess_a, perm))
            for perm in itertools.permutations(ess_b)
        )
    else:
        ess_cost = 0.0

    fa = list(a.finite())
    fb = list(b.finite())

    def best(i: int, used: frozenset[int]) -> float:
        if i == len(fa):
            return max((fb[j].persistence / 2 for j in range(len(fb)) if j not in used),
                       default=0.0)
        bar = fa[i]
        candidates = [max(best(i + 1, used), bar.persistence / 2)]
        for j in range(len(fb)):
            if j in used:
                continue
            cost = max(abs(bar.birth - fb[j].birth), abs(bar.death - fb[j].death))
            candidates.append(max(cost, best(i + 1, used | {j})))
        return min(candidates)

    return max(ess_cost, best(0, frozenset()))


def covers_by_hall(edges: np.ndarray, rows: np.ndarray) -> bool:
    """Whether some matching of the bipartite graph `edges` covers the rows in
    the mask `rows`, by Hall's theorem: every set S of those rows has at least
    |S| columns next to it.  Exponential in the rows; keep them few."""
    chosen = np.flatnonzero(rows)
    return all(np.count_nonzero(edges[list(subset)].any(axis=0)) >= k
               for k in range(1, len(chosen) + 1)
               for subset in itertools.combinations(chosen, k))
