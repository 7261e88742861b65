"""Independent brute-force oracles the suites pin library output against.

Nothing here reuses the library's arithmetic: graded tensor dimensions come
from explicit generator/relation matrices on a discretized grid, Tor from the
two-step free resolution mechanics, Betti numbers from Gaussian elimination
on boundary matrices (Python-int bitset columns over F_2, dense matrices
over other fields), bottleneck distances from exhaustive
matching enumeration, bipartite covers from Hall's condition, the edge
collapse from each level's neighbourhoods recomputed as sets, Rips cells from
every subset of points, the chains of a product order from every subset of
its points, and the product filtration bounds from every pair of each
cell's projected points, a complex's invariants from its boundary arrays
with numpy code of its own, the per-cell view (`cells`) from the arrays by a
global order sorted here, and the Koszul tensor product of two complexes
(`tensor_complex`) pair by pair from their per-cell views.
Deliberately slow and simple; feed small inputs only.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from sumrips import Bar, Barcode, FilteredComplex, InputError
from sumrips.complexes import Dimension

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


@dataclass(frozen=True)
class Cell:
    """One cell of `cells`: boundary holds (face id, coefficient) pairs by
    global id, in stored order; `vertices` (Rips) or `factors` (tensor: global
    ids in the two factors) is set, whichever its dimension carries."""

    dim: int
    filtration: float
    boundary: tuple[tuple[int, int], ...]
    label: str
    vertices: tuple[int, ...] | None = None
    factors: tuple[int, int] | None = None


def _global_ids(cx: FilteredComplex) -> list[list[int]]:
    """Per dimension, each cell's id in the order by (filtration, dimension,
    stored position)."""
    filt = np.concatenate([dim.filtration for dim in cx.dims])
    ids = np.empty(len(filt), dtype=np.int64)
    ids[np.argsort(filt, kind="stable")] = np.arange(len(filt))
    return [part.tolist() for part in
            np.split(ids, np.cumsum([len(dim.filtration) for dim in cx.dims])[:-1])]


# betti_at reads the view once per (degree, value), so the last few are kept.
@functools.lru_cache(maxsize=8)
def cells(cx: FilteredComplex) -> tuple[Cell, ...]:
    """Every cell of cx by global id, with its boundary, label and key.

    A label is the cell's point labels joined by commas (Rips), or its factor
    cells' labels joined by '|' (tensor), as the complex dump prints it."""
    ids = _global_ids(cx)
    if isinstance(cx, TensorComplex):
        left, right = ([c.label for c in cells(factor)] for factor in cx.source)
    out: list[Cell] = [None] * len(cx)  # type: ignore[list-item]
    for d, dim in enumerate(cx.dims):
        ptr, coeffs = dim.indptr.tolist(), dim.data.tolist()
        faces = [ids[d - 1][i] for i in dim.indices.tolist()]
        keys = (dim.vertices if dim.vertices is not None else cx.factors[d]).tolist()
        for r, (f, key) in enumerate(zip(dim.filtration.tolist(), keys)):
            boundary = tuple(zip(faces[ptr[r]:ptr[r + 1]], coeffs[ptr[r]:ptr[r + 1]]))
            if dim.vertices is not None:
                label = ",".join(cx.source[v] for v in key)
                out[ids[d][r]] = Cell(d, f, boundary, label, vertices=tuple(key))
            else:
                label = f"{left[key[0]]}|{right[key[1]]}"
                out[ids[d][r]] = Cell(d, f, boundary, label, factors=tuple(key))
    return tuple(out)


def dump_lines(cx: FilteredComplex) -> list[str]:
    """The lines `FilteredComplex.dump_lines` prints, rendered from `cells`:
    id, dimension, filtration, boundary as face:coefficient pairs or '-',
    and label."""
    return [f"{g} {c.dim} {c.filtration!r} "
            f"{','.join(f'{i}:{k}' for i, k in c.boundary) or '-'} {c.label}"
            for g, c in enumerate(cells(cx))]


@dataclass(frozen=True, eq=False)
class TensorComplex(FilteredComplex):
    """A tensor product of two complexes, `source`, with each cell's factor
    pair beside it: per dimension, one row of global ids (s, t) per cell."""

    factors: tuple[np.ndarray, ...] = ()


def tensor_complex(cx: FilteredComplex, cy: FilteredComplex,
                   maxdim: int | None = None) -> TensorComplex:
    """The chain-level product of two filtered complexes, pair by pair.

    Its cells are the pairs (s, t) of cells, of total dimension up to maxdim
    (all by default), entering at l(s) + l(t), with the Koszul boundary
    d(s x t) = ds x t + (-1)^dim(s) s x dt.  Each dimension is sorted by
    (filtration, s, t), s and t by global id.  A truncated factor would
    silently lose product cells of low dimension, so it must carry every
    dimension up to maxdim or be complete; otherwise InputError.
    """
    full = cx.top_dim + cy.top_dim
    top = full if maxdim is None else min(maxdim, full)
    for name, factor in (("left", cx), ("right", cy)):
        if not factor.complete and factor.top_dim < top:
            raise InputError(f"{name} factor is truncated at dim {factor.top_dim} < {top}")
    left, right = cells(cx), cells(cy)
    pairs = [sorted((a.filtration + b.filtration, s, t) for s, a in enumerate(left)
                    for t, b in enumerate(right) if a.dim + b.dim == n)
             for n in range(top + 1)]
    dims, row = [], {}
    for n, cells_n in enumerate(pairs):
        ptr, faces, coeffs = [0], [], []
        for _, s, t in cells_n:
            sign = -1 if left[s].dim % 2 else 1
            boundary = sorted([(row[f, t], c) for f, c in left[s].boundary]
                              + [(row[s, g], sign * c) for g, c in right[t].boundary])
            faces += [f for f, _ in boundary]
            coeffs += [c for _, c in boundary]
            ptr.append(len(faces))
        dims.append(Dimension(np.array([f for f, _, _ in cells_n], dtype=np.float64),
                              np.array(ptr, dtype=np.int32), np.array(faces, dtype=np.int32),
                              np.array(coeffs, dtype=np.int8)))
        row = {(s, t): r for r, (_, s, t) in enumerate(cells_n)}
    factors = tuple(np.array([(s, t) for _, s, t in cells_n], dtype=np.int64).reshape(-1, 2)
                    for cells_n in pairs)
    return TensorComplex(tuple(dims), cx.complete and cy.complete and top == full,
                         source=(cx, cy), factors=factors)


def critical_values(cx: FilteredComplex) -> list[float]:
    """The distinct filtration values of the cells of cx, ascending."""
    return sorted({f for dim in cx.dims for f in dim.filtration.tolist()})


def _square_is_nonzero(cx: FilteredComplex, d: int) -> np.ndarray:
    """Per cell of dimension d >= 2, whether its boundary's boundary is
    nonzero over Z.  Each entry (cell, face, c) expands into the entries
    (face, g, e) of its face, and the products c * e are summed per
    (cell, g)."""
    dim, below, n_below = cx.dims[d], cx.dims[d - 1], len(cx.dims[d - 2].filtration)
    cell = np.repeat(np.arange(len(dim.filtration)), np.diff(dim.indptr))
    starts = below.indptr.astype(np.int64)
    width = np.diff(starts)[dim.indices]
    offset = np.cumsum(width) - width
    entry = np.repeat(starts[dim.indices] - offset, width) + np.arange(width.sum())
    keys, where = np.unique(np.repeat(cell, width) * n_below + below.indices[entry],
                            return_inverse=True)
    sums = np.zeros(len(keys), dtype=np.int64)
    np.add.at(sums, where, np.repeat(dim.data.astype(np.int64), width) * below.data[entry])
    nonzero = np.zeros(len(dim.filtration), dtype=bool)
    nonzero[keys[sums != 0] // n_below] = True
    return nonzero


def complex_violations(cx: FilteredComplex) -> list[str]:
    """Each broken invariant of cx, named by its kind.

    The arrays are checked first, so that the per-cell checks can index them:
    each dimension is in filtration order, has one boundary offset per cell
    plus one, running up from 0 to its number of faces, and names faces
    inside the dimension below.  Then every cell has no zero coefficient,
    ascending faces, no face entering after it, and a boundary whose boundary
    is zero over Z; these are named by the cell's global id.
    """
    bad = []
    for d, dim in enumerate(cx.dims):
        filt, ptr = dim.filtration, dim.indptr
        below = len(cx.dims[d - 1].filtration) if d else 0
        if np.any(filt[1:] < filt[:-1]):
            bad.append(f"dimension {d}: not in filtration order")
        if (len(ptr) != len(filt) + 1 or ptr[0] != 0 or np.any(ptr[1:] < ptr[:-1])
                or ptr[-1] != len(dim.indices) or len(dim.data) != len(dim.indices)):
            bad.append(f"dimension {d}: indptr does not have one entry per cell plus one")
        if np.any((dim.indices < 0) | (dim.indices >= below)):
            bad.append(f"dimension {d}: face out of range")
    if bad:
        return bad
    ids, found = _global_ids(cx), []
    for d, dim in enumerate(cx.dims[1:], 1):
        cell = np.repeat(np.arange(len(dim.filtration)), np.diff(dim.indptr))
        faces, same = dim.indices, cell[1:] == cell[:-1]
        kinds = {
            "zero coefficient": np.unique(cell[dim.data == 0]),
            "faces not ascending": np.unique(cell[1:][same & (faces[1:] <= faces[:-1])]),
            "late face": np.unique(cell[cx.dims[d - 1].filtration[faces]
                                        > dim.filtration[cell]]),
            "nonzero boundary of boundary": (np.flatnonzero(_square_is_nonzero(cx, d))
                                             if d >= 2 else []),
        }
        for k, (kind, broken) in enumerate(kinds.items()):
            found += [(ids[d][c], k, kind) for c in np.asarray(broken).tolist()]
    return [f"cell {j}: {kind}" for j, _, kind in sorted(found)]


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
    for j, cell in enumerate(cells(product)):
        lx = diameter(dx, {v // ny for v in cell.vertices})
        ly = diameter(dy, {v % ny for v in cell.vertices})
        if not max(lx, ly) <= cell.filtration <= lx + ly:
            bad.append(j)
    return bad


def _at(cx: FilteredComplex, n: int, t: float) -> list[int]:
    """The cells of dimension n with filtration <= t, by stored position."""
    return np.flatnonzero(cx.dims[n].filtration <= t).tolist() if 0 <= n <= cx.top_dim else []


# Entries of the largest dense matrix `_boundary_matrix_at` fills: 512 MiB of int64.
DENSE_ENTRIES = 2**26


def _boundary_matrix_at(cx: FilteredComplex, n: int, t: float):
    """Dense integer matrix of the degree-n boundary on the subcomplex at time
    t: a row per cell of dimension n - 1 there, a column per cell of
    dimension n, each dimension's cells in stored order, which is the global
    order.  A matrix of more than DENSE_ENTRIES entries is refused."""
    rows, cols = _at(cx, n - 1, t), _at(cx, n, t)
    assert len(rows) * len(cols) <= DENSE_ENTRIES, \
        f"a dense {len(rows)} x {len(cols)} boundary matrix exceeds {DENSE_ENTRIES} entries"
    row_index = {r: k for k, r in enumerate(rows)}
    mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
    if cols:
        dim = cx.dims[n]
        ptr, faces, coeffs = dim.indptr.tolist(), dim.indices.tolist(), dim.data.tolist()
        for k, c in enumerate(cols):
            for e in range(ptr[c], ptr[c + 1]):
                mat[row_index[faces[e]], k] = coeffs[e]
    return mat


def _f2_rank_at(cx: FilteredComplex, n: int, t: float) -> int:
    """Rank over F_2 of the degree-n boundary on the subcomplex at time t.

    Each column is a Python-int bitset of its faces' stored rows, reduced
    left to right against the columns kept so far by its highest set bit.
    No clearing, no cohomology and no apparent pairs; nothing dense."""
    dim, kept = cx.dims[n], {}
    ptr, faces, coeffs = dim.indptr.tolist(), dim.indices.tolist(), dim.data.tolist()
    for c in _at(cx, n, t):
        col = 0
        for e in range(ptr[c], ptr[c + 1]):
            col ^= (coeffs[e] % 2) << faces[e]
        while col and col.bit_length() - 1 in kept:
            col ^= kept[col.bit_length() - 1]
        if col:
            kept[col.bit_length() - 1] = col
    return len(kept)


def _rank_at(cx: FilteredComplex, p: int, n: int, t: float) -> int:
    """Rank over F_p of the degree-n boundary on the subcomplex at time t:
    by bitsets over F_2, by dense elimination over any other field."""
    if not 1 <= n <= cx.top_dim:
        return 0
    return _f2_rank_at(cx, n, t) if p == 2 else gf_rank(_boundary_matrix_at(cx, n, t), p)


def betti_at(cx: FilteredComplex, p: int, n: int, t: float) -> int:
    """dim H_n of the subcomplex of cells with filtration <= t, over F_p."""
    return len(_at(cx, n, t)) - _rank_at(cx, p, n, t) - _rank_at(cx, p, n + 1, t)


def standard_barcode(cx: FilteredComplex, p: int) -> dict[int, Barcode]:
    """Barcodes in degrees 0..reliable_dim by the standard algorithm: reduce
    the dense boundary matrix of the whole complex, in global order, column by
    column from left to right, with no clearing and no cohomology."""
    all_cells = cells(cx)
    mat = np.zeros((len(all_cells), len(all_cells)), dtype=np.int64)
    for j, cell in enumerate(all_cells):
        for face, coeff in cell.boundary:
            mat[face, j] = coeff % p
    owner: dict[int, int] = {}
    paired = set()
    bars: dict[int, list[Bar]] = {n: [] for n in range(cx.reliable_dim + 1)}
    for j in range(len(all_cells)):
        col = mat[:, j]
        while col.any():
            low = int(np.flatnonzero(col)[-1])
            if low not in owner:
                owner[low] = j
                paired.update((low, j))
                birth, death = all_cells[low].filtration, all_cells[j].filtration
                if birth != death and all_cells[low].dim in bars:
                    bars[all_cells[low].dim].append(Bar(birth, death))
                break
            other = mat[:, owner[low]]
            col[:] = (col - col[low] * pow(int(other[low]), p - 2, p) * other) % p
    for j, cell in enumerate(all_cells):
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
    """Per dimension d up to min(maxdim, points - 1), the vertex rows and
    float64 filtration of the flag complex of the graph `near`.  The rows are
    uint8 up to 256 points, uint16 up to 65,536 and uint32 above, the
    smallest unsigned width whose range reaches the last point.

    Every (d + 1)-subset whose ordered pairs, u = v included, are all near is
    a cell.  Its filtration is its largest distance, diagonal included; at 0
    all its distances are zeros, and it takes the sign of its last point's
    d(v, v).  Cells are sorted by (filtration, vertices).
    """
    m, d = len(dist), dist.tolist()
    point = next(t for t in (np.uint8, np.uint16, np.uint32) if m <= np.iinfo(t).max + 1)
    rows = []
    for k in range(1, min(maxdim, m - 1) + 2):
        cells = []
        for s in itertools.combinations(range(m), k):
            if all(near[u, v] for u in s for v in s):
                f = max(d[u][v] for u in s for v in s)
                cells.append((f if f else d[s[-1]][s[-1]], s))
        cells.sort()
        rows.append((np.array([s for _, s in cells], dtype=point).reshape(-1, k),
                     np.array([f for f, _ in cells], dtype=np.float64)))
    return rows


def ordered_rows(x, y, maxdim: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per dimension d up to min(maxdim, |X| + |Y| - 2), the vertex rows and
    float64 filtration of the chains of the product order on X x Y, point
    (i, j) at index i * |Y| + j, in the point dtypes of `rips_rows`.

    Every (d + 1)-subset of points whose j, listed by index, never decreases
    is a chain (i never does).  Its filtration g is l_X + l_Y: each the
    largest distance over every pair of the chain's projected points,
    diagonal included, or, at 0, the projection's last point's d(v, v).
    Chains are sorted by (g, vertices).
    """
    nx, ny = len(x), len(y)
    m, dx, dy = nx * ny, x.dist.tolist(), y.dist.tolist()
    point = next(t for t in (np.uint8, np.uint16, np.uint32) if m <= np.iinfo(t).max + 1)

    def filtration(d: list[list[float]], points: set[int]) -> float:
        f = max(d[u][v] for u in points for v in points)
        return f if f else d[max(points)][max(points)]

    rows = []
    for k in range(1, min(maxdim, nx + ny - 2) + 2):
        cells = []
        for s in itertools.combinations(range(m), k):
            if all(u % ny <= v % ny for u, v in zip(s, s[1:])):
                cells.append((filtration(dx, {v // ny for v in s})
                              + filtration(dy, {v % ny for v in s}), s))
        cells.sort()
        rows.append((np.array([s for _, s in cells], dtype=point).reshape(-1, k),
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
