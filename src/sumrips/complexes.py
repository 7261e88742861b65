"""Filtered chain complexes and their two constructors.

`vietoris_rips` builds the flag complex of a finite generalized metric space:
a subset enters at the largest pairwise distance among its points, diagonal
entries included, so a point with d(v, v) > 0 is born late.  `tensor_complex`
builds the chain-level product of two filtered complexes with the usual Koszul
sign, filtered by the sum of the factor filtrations; its persistent homology is
exactly the algebraically predicted module for the sum-metric product.

Cells are globally ordered by (filtration, dimension, construction key), where
the construction key is the ascending vertex tuple for Rips cells and the pair
of factor ids for tensor cells.  Ids are positions in that order, so boundaries
always point at strictly smaller ids and the order is reproducible bit for bit.

Storage is one `Dimension` of arrays per dimension, sorted by (filtration,
key), so the global order is a stable merge by filtration, computed only on
request (`global_ids`), as is the per-cell `cells` view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import CapExceeded, InputError
from .metric import FiniteMetricSpace, enclosing_radius

# Building and reducing over F_2 the 242,824-cell Rips complex of the 5-cube at
# maxdim 4 grows the resident set by about 97 B per cell (CPython 3.11, numpy
# 2.4, x86-64), of which the build takes about 80 B; for the 251,175 cells of
# 50 random points in the unit cube at maxdim 3 it is 85 and 72 B.  The
# largest boundary's transpose takes 21 B per cell of output and 7 B per cell
# beyond it; one argsort of all its entries took 63 B.
# The figure below is the 760 B per cell that a homology reduction with bitset
# columns took, kept so that the default cap admits no complex it refused
# before.
BYTES_PER_CELL = 800
# The default cap keeps a build and its reduction within about 4 GB.
DEFAULT_CELL_CAP = 4 * 10**9 // BYTES_PER_CELL


@dataclass(frozen=True, slots=True)
class Cell:
    """One cell as rendered by `FilteredComplex.cells`.

    boundary holds (face id, integer coefficient) pairs in ascending id order.
    `vertices` (Rips: point indices, ascending) or `factors` (tensor: ids in
    the two factor complexes) is set, whichever its `Dimension` carries.
    """

    dim: int
    filtration: float
    boundary: tuple[tuple[int, int], ...]
    label: str
    vertices: tuple[int, ...] | None = None
    factors: tuple[int, int] | None = None


class Dimension(NamedTuple):
    """The cells of one dimension d, sorted by (filtration, construction key).

    The boundary into dimension d - 1 is three arrays: the faces of cell j are
    the rows `indices[indptr[j]:indptr[j + 1]]`, ascending, with the int8
    coefficients at the same places of `data`.  Rips cells carry `vertices`
    (one ascending row of point indices per cell), tensor cells `factors`
    (global ids in the left and right factor complexes).
    """

    filtration: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    vertices: np.ndarray | None = None
    factors: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class FilteredComplex:
    """Per-dimension cell arrays plus the truncation bookkeeping reduction relies on.

    top_dim, the last stored dimension, is the largest the construction allowed;
    `complete` says the untruncated object holds nothing above it.  Homology is
    trustworthy up to `reliable_dim`: top_dim when complete, else top_dim - 1,
    because cycles in the cut dimension can never be paired with the missing
    cofaces.  `source` is what construction keys refer to, read only for labels:
    the point labels of a Rips complex, or the two factors of a tensor complex.
    """

    dims: tuple[Dimension, ...]
    complete: bool
    source: tuple | None = None

    @property
    def top_dim(self) -> int:
        return len(self.dims) - 1

    def __len__(self) -> int:
        return sum(len(dim.filtration) for dim in self.dims)

    @property
    def reliable_dim(self) -> int:
        return self.top_dim if self.complete else self.top_dim - 1

    def dim_counts(self) -> dict[int, int]:
        return {d: len(dim.filtration) for d, dim in enumerate(self.dims) if len(dim.filtration)}

    def global_ids(self) -> list[np.ndarray]:
        """Per dimension, each cell's position in the global order."""
        sizes = [len(dim.filtration) for dim in self.dims]
        order = np.argsort(np.concatenate([dim.filtration for dim in self.dims]), kind="stable")
        return np.split(np.argsort(order), np.cumsum(sizes)[:-1])

    def _labels(self, dim: Dimension) -> list[str]:
        """Point labels joined by commas (Rips) or factor labels joined by '|'."""
        if dim.vertices is not None:
            return [",".join([self.source[v] for v in row]) for row in dim.vertices.tolist()]
        if dim.factors is not None:
            left, right = ([cell.label for cell in factor.cells] for factor in self.source)
            return [f"{left[i]}|{right[j]}" for i, j in dim.factors.tolist()]
        return [""] * len(dim.filtration)

    @cached_property
    def cells(self) -> tuple[Cell, ...]:
        """Read-only `Cell` per global id, built on first access for tests and
        debugging; the builders and the reduction never read it."""
        ids = self.global_ids()
        cells: list[Cell] = [None] * len(self)  # type: ignore[list-item]
        for d, dim in enumerate(self.dims):
            faces = ids[d - 1][dim.indices].tolist() if d else []
            coeffs, ptr = dim.data.tolist(), dim.indptr.tolist()
            keys = [[None] * len(dim.filtration) if a is None else list(map(tuple, a.tolist()))
                    for a in (dim.vertices, dim.factors)]
            for g, f, label, lo, hi, v, ij in zip(ids[d].tolist(), dim.filtration.tolist(),
                                                  self._labels(dim), ptr, ptr[1:], *keys):
                cells[g] = Cell(d, f, tuple(zip(faces[lo:hi], coeffs[lo:hi])), label, v, ij)
        return tuple(cells)

    def dump_lines(self) -> list[str]:
        """Debug format, one cell per line: id dim filtration boundary label."""
        out = []
        for j, cell in enumerate(self.cells):
            pairs = ",".join(f"{i}:{c}" for i, c in cell.boundary) or "-"
            out.append(f"{j} {cell.dim} {cell.filtration!r} {pairs} {cell.label}")
        return out

    def __repr__(self) -> str:
        return (f"FilteredComplex(cells={len(self)}, top_dim={self.top_dim}, "
                f"complete={self.complete})")


def _check_cap(what: str, needed: int, cell_cap: int) -> None:
    if needed > cell_cap:
        raise CapExceeded(f"{what} needs {needed} cells, about "
                          f"{needed * BYTES_PER_CELL / 1e6:.1f} MB to build and reduce, "
                          f"exceeding the cap {cell_cap}")


def rips_cell_count(n_points: int, maxdim: int) -> int:
    """Number of cells vietoris_rips would build; cheap cap pre-check."""
    top = min(maxdim, n_points - 1)
    return sum(math.comb(n_points, s) for s in range(1, top + 2))


def _extend(subsets: np.ndarray, filt: np.ndarray, near: np.ndarray,
            dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every extension of each subset by a larger point near all of its points,
    with its filtration.  Listed in lexicographic order when the subsets are."""
    m, k = len(dist), subsets.shape[1]
    grow = np.arange(m) > subsets[:, -1:]
    for col in subsets.T:
        grow &= near[col]
    # One index per extension, row * m + point: the two index arrays of
    # np.nonzero share one buffer, so neither could be freed before the other.
    parent = np.flatnonzero(grow)
    del grow
    rows = np.empty((len(parent), k + 1), dtype=subsets.dtype)
    rows[:, k] = parent % m
    parent //= m
    filt = filt[parent]
    for i in range(k):
        rows[:, i] = subsets[parent, i]
    del parent
    # The diagonal comes last: np.maximum returns the later of two equal values,
    # so a subset at zero takes the sign of its last point's d(v, v).
    new = rows[:, k]
    for col in rows.T:
        np.maximum(filt, dist[col, new], out=filt)
    return rows, filt


def _rips_boundary(binom: np.ndarray, verts: np.ndarray,
                   faces: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boundary (indptr, indices, data) of the k-subset rows `verts` into the
    (k-1)-subset rows `faces`, by row number in `faces`."""
    k = verts.shape[1]
    # Entries of cut faces stay -1: no kept subset has a cut face.
    row_of_rank = np.full(binom[-1, k - 1], -1, dtype=np.int32)
    row_of_rank[sum(binom[faces[:, i], i + 1] for i in range(k - 1))] = np.arange(len(faces))
    # Column pos of `keys` holds 2 * row + pos % 2 for the face without vertex
    # pos, whose colex rank sums C(c_i, i + 1) over the points before pos and
    # C(c_i, i) over those after it, which move one place down.  Sorting each
    # cell's keys orders its faces and keeps the parity of pos, the sign
    # (-1)^pos, in the low bit.  Each step works in place, which keeps the
    # build's peak low.
    keys = np.empty(verts.shape, dtype=_index_dtype(2 * len(faces)))
    before = sum(binom[verts[:, i], i + 1] for i in range(k - 1))
    after = 0
    for pos in reversed(range(k)):
        keys[:, pos] = row_of_rank[before + after]
        keys[:, pos] *= 2
        keys[:, pos] += pos % 2
        if pos:
            before -= binom[verts[:, pos - 1], pos]
            after += binom[verts[:, pos], pos]
    keys.sort(axis=1)
    keys = keys.ravel()
    data = keys.astype(np.int8)  # the low bit survives the cast
    data &= 1
    data *= -2
    data += 1
    keys >>= 1
    return np.arange(0, keys.size + 1, k, dtype=_index_dtype(keys.size)), keys, data


def _bits(mask: int):
    """The positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _collapse(near: np.ndarray, dist: np.ndarray) -> None:
    """Clear from `near` the edges whose removal keeps every barcode.

    The edges of the graph `near` describes (both points and the edge at or
    below the radius) are walked from latest to earliest entry, an edge uv
    entering at max(d(u, v), d(u, u), d(v, v)).  It is dropped when, in the
    graph left by the edges walked before it, one w != u, v dominates it at
    its entry t and at every level above: N[u] & N[v] is a subset of N[w],
    closed neighbourhoods at that level.  N[w] only grows, and a point y joins
    N[u] & N[v] at the larger of the entries of uy and vy, so that holds
    exactly when w dominates uv at t and each point of `joins` (N[u] & N[v]
    at infinity) that N[w] misses at t joins N[w] no later than N[u] & N[v].

    `cur[x]` is N[x] at the entry t of the walked edge: x, its neighbours by
    edges not yet walked (all entering at or before t), and its neighbours by
    kept edges entering exactly at t.  A dropped edge leaves `cur` when it is
    walked; a kept edge stays in it until the walk drops below its entry, and
    then leaves it, once.  `every[x]` is N[x] at infinity: x and its
    neighbours by the edges not dropped.
    """
    diag = np.diagonal(dist)
    enter = np.maximum(dist, np.maximum(diag[:, None], diag))
    closed = near & near.T
    np.fill_diagonal(closed, True)
    us, vs = np.nonzero(closed)
    upper = us < vs
    us, vs = us[upper], vs[upper]
    order = np.argsort(enter[us, vs], kind="stable")[::-1]
    rows = np.packbits(closed, axis=1, bitorder="little")
    cur = [int.from_bytes(row.tobytes(), "little") for row in rows]
    every = cur.copy()
    enter = enter.tolist()

    level, kept, dropped = math.inf, [], []
    for u, v in zip(us[order].tolist(), vs[order].tolist()):
        t = enter[u][v]
        if t != level:
            for a, b in kept:
                cur[a] ^= 1 << b
                cur[b] ^= 1 << a
            level, kept = t, []
        bu, bv = 1 << u, 1 << v
        common, joins = cur[u] & cur[v], every[u] & every[v]
        rest = common & ~(bu | bv)
        while rest:
            w = (rest & -rest).bit_length() - 1
            rest ^= 1 << w
            missing = joins & ~cur[w]
            now = missing & common
            if now:
                # A point dominating uv at t is adjacent to those w misses there.
                rest &= cur[(now & -now).bit_length() - 1]
            elif not missing & ~every[w] and all(
                    enter[w][y] <= max(enter[u][y], enter[v][y]) for y in _bits(missing)):
                cur[u] ^= bv
                cur[v] ^= bu
                every[u] ^= bv
                every[v] ^= bu
                dropped.append((u, v))
                break
        else:
            kept.append((u, v))
    if dropped:
        du, dv = np.array(dropped).T
        near[du, dv] = near[dv, du] = False


def _index_dtype(bound: int) -> type:
    """int32 if it holds every index up to `bound`, else int64."""
    return np.int32 if bound < 2**31 else np.int64


def _no_boundary(n_cells: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The empty boundary (indptr, indices, data) of n_cells cells of dimension 0."""
    return np.zeros(n_cells + 1, dtype=np.int32), np.empty(0, np.int32), np.empty(0, np.int8)


def vietoris_rips(space: FiniteMetricSpace, maxdim: int, cell_cap: int = DEFAULT_CELL_CAP,
                  *, barcode_only: bool = False) -> FilteredComplex:
    """Flag complex of all subsets of size <= maxdim + 1.

    The filtration value of a subset is the max of d over all ordered pairs of
    its points, including d(v, v): the diagonal can delay a vertex.  Faces never
    enter after cofaces because the max is monotone under inclusion.

    With `barcode_only`, only the cells a barcode needs are built, in two
    steps; `top_dim`, `complete`, `reliable_dim` and the cap pre-check stay
    those of the whole flag complex.  First, only subsets with filtration <=
    the enclosing radius R (`metric.enclosing_radius`) are stored.  Above R
    the complex is a cone on the point v attaining R: sigma + {v} has
    dimension at most one more than sigma, so every degree below top_dim is
    acyclic from R on (degree 0 keeps one class), and so is the top degree
    when the complex is complete.  Every reliable degree therefore has the
    barcode of the uncut complex.

    Subsets of each size are enumerated in lexicographic order, each subset
    extended only by the larger points within R of all of its points
    (Zomorodian, "Fast construction of the Vietoris-Rips complex", 2010), and
    stably sorted by filtration.  A face is found through its colex rank,
    from the combinatorial number system (Bauer, Ripser, arXiv:1908.02518,
    sec. 3): the k-subset c_0 < ... < c_(k-1) has rank sum_i C(c_i, i + 1),
    one of 0 ... C(m, k) - 1 for m points.  A rank-indexed table maps it to
    its row; a superset of a cut subset is cut too, so every face of a kept
    subset has a row.  Once a dimension has no cells, neither has any above
    it; those are stored empty without being enumerated, and no empty
    dimension gets a boundary computed.  Each has the dtypes and shapes an
    enumerated empty dimension had: a float64 filtration, int32 `indptr` [0]
    and `indices`, int8 `data` and a (0, d + 1) int32 vertex matrix.

    Second, dominated edges leave the graph before it is expanded
    (`_collapse`).  A point w != u, v dominates the edge uv when N[u] & N[v]
    is a subset of N[w], closed neighbourhoods; the flag complex then
    strong-collapses onto that of the graph without uv (Boissonnat & Pritam,
    "Edge collapse and persistence of flag complexes", SoCG 2020).  An edge
    is dropped only when one w dominates it in the graph left so far at its
    entry and at every later level; as N[w] never shrinks, that is w
    dominating it at the entry and each point that joins N[u] & N[v] later
    joining N[w] no later.  Each level's flag complex then includes into the
    uncollapsed one as a homotopy equivalence, and these inclusions commute
    with the inclusions between levels, so the persistence modules are
    isomorphic: every barcode is unchanged over every field (Glisse &
    Pritam, "Swap, shift and trim to edge collapse a filtration", SoCG
    2022), and the cut at maxdim keeps the reliable degrees as before.
    Points are never removed.  Equal values print alike except 0.0 and
    -0.0, and which of the two a bar born at zero gets depends on the cells
    that are left, so a matrix holding -0.0 is not collapsed.  Nor is a
    complex whose top dimension is below 2: it has no triangles to save.
    """
    if maxdim < 0:
        raise InputError(f"maxdim must be >= 0, got {maxdim}")
    m = len(space)
    top = min(maxdim, m - 1)
    _check_cap("Rips complex", rips_cell_count(m, maxdim), cell_cap)

    # Only columns k <= top are used, so every entry is at most a cell count.
    binom = np.array([[math.comb(a, k) for k in range(top + 1)] for a in range(m + 1)],
                     dtype=np.int64)
    radius = enclosing_radius(space) if barcode_only else math.inf
    dist, dims = space.dist, []
    diag = np.diagonal(dist)
    # near[u, v]: the edge uv and the point v both enter at or below the radius.
    near = (dist <= radius) & (diag <= radius)
    if barcode_only and top >= 2 and not np.signbit(dist).any():
        _collapse(near, dist)
    # Point indices and face rows are int32, like the `indices` of a boundary.
    subsets = np.flatnonzero(diag <= radius).astype(np.int32)[:, None]
    filt = diag[subsets[:, 0]]
    # _extend and _rips_boundary free their temporaries on return, and the top
    # dimension's lexicographic rows go before its boundary is built: under
    # tracemalloc a build peaks at about 1.3 times what its complex retains
    # (72 and 55 B per cell on the whole 5-cube at maxdim 4, 66 and 47 B on
    # 50 random points in the unit cube at maxdim 3).
    for d in range(top + 1):
        if d and len(filt):
            subsets, filt = _extend(subsets, filt, near, dist)
        if not len(filt):
            # No subset has d + 1 points, so none has more.
            dims.append(Dimension(np.empty(0), *_no_boundary(0),
                                  vertices=np.empty((0, d + 1), dtype=np.int32)))
            continue
        order = np.argsort(filt, kind="stable")
        verts, filt_sorted = subsets[order], filt[order]
        del order
        if d == top:
            # Nothing extends the top dimension: its lexicographic rows and
            # unsorted filtration go before its boundary is built.
            del subsets, filt
        boundary = (_rips_boundary(binom, verts, dims[-1].vertices) if d
                    else _no_boundary(len(verts)))
        dims.append(Dimension(filt_sorted, *boundary, vertices=verts))
    return FilteredComplex(tuple(dims), maxdim >= m - 1, source=space.labels)


def tensor_cell_count(cx: FilteredComplex, cy: FilteredComplex, maxdim: int | None) -> int:
    by_x, by_y = cx.dim_counts(), cy.dim_counts()
    full = cx.top_dim + cy.top_dim
    top = full if maxdim is None else min(maxdim, full)
    return sum(nx * ny
               for dx, nx in by_x.items() if dx <= top
               for dy, ny in by_y.items() if dx + dy <= top)


def _part_starts(cx: FilteredComplex, cy: FilteredComplex, n: int) -> dict[int, int]:
    """Per dim a of the left cell, where the pairs (s, t) with dim s = a start
    in dimension n of the tensor complex before sorting; each part is s-major."""
    starts, at = {}, 0
    for a in range(max(0, n - cy.top_dim), min(n, cx.top_dim) + 1):
        starts[a] = at
        at += len(cx.dims[a].filtration) * len(cy.dims[n - a].filtration)
    return starts


def _koszul_boundary(cx: FilteredComplex, cy: FilteredComplex, n: int, order: np.ndarray,
                     below_order: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boundary (indptr, indices, data) of dimension n >= 1 of the tensor
    complex, whose cells and faces are sorted by `order` and `below_order`.

    d(s x t) = ds x t + (-1)^a s x dt for dim s = a: a face f of s gives the
    face (f, t) in part a - 1 of dimension n - 1, and a face g of t the face
    (s, g) in part a, with the sign (-1)^a.
    """
    cols, rows, data = [], [], []
    col_at, row_at = _part_starts(cx, cy, n), _part_starts(cx, cy, n - 1)
    for a, start in col_at.items():
        x, y = cx.dims[a], cy.dims[n - a]
        nx, ny = len(x.filtration), len(y.filtration)
        if a:
            s = np.repeat(np.arange(nx), np.diff(x.indptr))[:, None]
            t = np.arange(ny)
            cols.append((start + s * ny + t).ravel())
            rows.append((row_at[a - 1] + x.indices[:, None].astype(np.int64) * ny + t).ravel())
            data.append(np.repeat(x.data, ny))
        if a < n:
            s = np.arange(nx)[:, None]
            t = np.repeat(np.arange(ny), np.diff(y.indptr))
            cols.append((start + s * ny + t).ravel())
            rows.append((row_at[a] + s * len(cy.dims[n - a - 1].filtration) + y.indices).ravel())
            data.append(np.tile(-y.data if a % 2 else y.data, nx))
    col = np.argsort(order)[np.concatenate(cols)]
    row = np.argsort(below_order)[np.concatenate(rows)]
    by_cell = np.argsort(col * len(below_order) + row)
    indptr = np.zeros(len(order) + 1, dtype=_index_dtype(len(col)))
    np.cumsum(np.bincount(col, minlength=len(order)), out=indptr[1:])
    return indptr, row[by_cell].astype(np.int32), np.concatenate(data)[by_cell]


def tensor_complex(cx: FilteredComplex, cy: FilteredComplex, maxdim: int | None = None,
                   cell_cap: int = DEFAULT_CELL_CAP) -> FilteredComplex:
    """Chain-level product: cells (s, t), filtration l(s) + l(t), Koszul signs.

    d(s x t) = ds x t + (-1)^dim(s) s x dt.  Keeping all pairs with total
    dimension <= maxdim requires each factor to carry every cell up to maxdim
    itself (or be complete); otherwise low product dimensions would silently
    lose cells, so that is rejected rather than repaired.
    """
    full = cx.top_dim + cy.top_dim
    if maxdim is not None and maxdim < 0:
        raise InputError(f"maxdim must be >= 0, got {maxdim}")
    top = full if maxdim is None else min(maxdim, full)
    for name, factor in (("left", cx), ("right", cy)):
        if not factor.complete and factor.top_dim < top:
            raise InputError(
                f"{name} factor is truncated at dim {factor.top_dim} < {top}; "
                f"build it at least to dim {top} for a faithful product"
            )
    _check_cap("tensor complex", tensor_cell_count(cx, cy, maxdim), cell_cap)

    gx, gy = cx.global_ids(), cy.global_ids()
    dims: list[Dimension] = []
    for n in range(top + 1):
        parts = _part_starts(cx, cy, n)
        filt = np.concatenate([np.add.outer(cx.dims[a].filtration, cy.dims[n - a].filtration)
                               .ravel() for a in parts])
        factors = np.concatenate([np.stack(np.meshgrid(gx[a], gy[n - a], indexing="ij"),
                                           -1).reshape(-1, 2) for a in parts])
        order = np.lexsort((factors[:, 1], factors[:, 0], filt))
        boundary = (_koszul_boundary(cx, cy, n, order, below_order) if n
                    else _no_boundary(len(filt)))
        dims.append(Dimension(filt[order], *boundary, factors=factors[order]))
        below_order = order
    complete = cx.complete and cy.complete and top == full
    return FilteredComplex(tuple(dims), complete, source=(cx, cy))
