"""Filtered chain complexes and their two constructors, both flag complexes.

`vietoris_rips` builds the flag complex of a finite generalized metric space:
a subset enters at the largest pairwise distance among its points, diagonal
entries included, so a point with d(v, v) > 0 is born late.  `ordered_product`
builds the chain-level product of the Rips filtrations of two spaces: the
flag complex of the product order, whose cells are its chains, each entering
at the sum of the Rips filtrations of its two projections.  Its persistent
homology is exactly the algebraically predicted module for the sum-metric
product.  Both share one pipeline per dimension (`_flag_dims`).

Cells are globally ordered by (filtration, dimension, vertex row).  Ids are
positions in that order, so boundaries always point at strictly smaller ids
and the order is reproducible bit for bit.

Storage is one `Dimension` of arrays per dimension, sorted by (filtration,
vertex row), so the global order is a stable merge by filtration, computed
only on request (`global_ids`, `cells`, `dump_lines`); no cell is an object.
A flag complex's d-cell has exactly d + 1 faces, the face without its i-th
vertex with the sign (-1)^i, so a dimension stores its boundary as a face
matrix with one column per vertex and no coefficients, as Ripser does
(Bauer, arXiv:1908.02518).
The dump streams its lines a chunk of global ids at a time, so the cap's price
per cell, `BYTES_PER_CELL`, covers building, reducing and dumping alike.  A
barcode-only Rips build whose top dimension can hold more than `CHUNK` cells
does not store it: it keeps the graph and the ranks of the distances
(`Cofaces`), from which `reduce` enumerates that dimension as the cofaces of
the one below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from typing import Iterator, NamedTuple

import numpy as np

from .errors import CapExceeded, InputError
from .metric import FiniteMetricSpace, enclosing_radius, product_sum

# The resident set grows, per cell of the uncut complex (ru_maxrss in a fresh
# process, CPython 3.11, numpy 2.4, x86-64), by 60-62 B to build and reduce a
# whole Rips complex (62 on the 5-cube at maxdim 4, 60 on 60 random points
# in the unit cube and on 80 points on a circle at maxdim 3), by 59 B to
# build, reduce and dump the whole 6-cube at maxdim 4, and by 68 B to build
# and reduce the ordered product cube(5) x cube(1) at maxdim 4 (1,569,192
# cells), with or without its dump.  Barcode-only builds take 2-24 B: 12 on
# the 6-cube, 24 on the 5-cube (both at maxdim 4) and 9 on the circle, whose
# top dimensions are enumerated, not stored, and 2 on the random points.
# The price leaves 1.9 times headroom on the largest.
BYTES_PER_CELL = 128
# The default cap keeps a build, its reduction and its dump within about 4 GB.
DEFAULT_CELL_CAP = 4 * 10**9 // BYTES_PER_CELL
# Global ids that `FilteredComplex.dump_lines` renders at a time.
DUMP_CHUNK = 2**10
# Entries a pass of the reduction handles at a time: face matrix entries, in
# whole cells, that `persistence._transpose` sorts, and (cells x points)
# coface ranks that `implicit.reduce_top` enumerates.  Against 2^16 this
# takes about 0.9 MB off the peak resident set of reducing the 5-cube as a
# product at maxdim 4.  2^14 took 0.7 MB more off it, but added about 0.25
# MB to runs whose largest boundary holds between 2^14 and 2^15 entries.  A
# barcode-only Rips build stores a top dimension that can hold at most CHUNK
# cells (`vietoris_rips`).
CHUNK = 2**15


class Cell(NamedTuple):
    """The dimension and filtration of one cell, as `FilteredComplex.cells`
    lists them by global id: a Python int and float."""

    dim: int
    filtration: float


class Dimension(NamedTuple):
    """The cells of one dimension d, sorted by (filtration, construction key).

    Every cell of a flag complex has d + 1 faces: the boundary into dimension
    d - 1 is the (cells x (d + 1)) matrix `faces`, whose column i holds the
    row of the face without vertex i, with the sign (-1)^i.  Dimension 0 has
    no faces, a (cells x 0) matrix.  Built cells carry `vertices`, one
    ascending row of point indices per cell, in the narrowest unsigned dtype
    that holds the largest point index: uint8 up to 256 points, uint16 up to
    65,536.

    A built dimension's `faces` are int16 when dimension d - 1 has at most
    2^15 cells, else int32, or int64 from 2^31 cells on; dimension 0 and
    empty dimensions have int32 `faces`.
    """

    filtration: np.ndarray
    faces: np.ndarray
    vertices: np.ndarray | None = None


class Cofaces(NamedTuple):
    """What enumerating a top dimension that is not stored takes: the flag
    complex's graph `near` (m x m booleans) and each distance's rank among
    `values`, the sorted distinct distances (0.0 and -0.0 are one value), in
    the narrowest unsigned dtype that also holds len(values).

    The cells of the top dimension are the subsets of top_dim + 1 points
    pairwise in `near`, each entering at its largest rank, diagonal included;
    a cell j + {w} of the stored rows j has the sign (-1)^pos as a coface of
    j, pos the place of w in its vertex row, as in a stored face matrix.
    """

    near: np.ndarray
    ranks: np.ndarray
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class FilteredComplex:
    """Per-dimension cell arrays plus the truncation bookkeeping reduction relies on.

    top_dim is the largest dimension the construction allowed; `complete`
    says the untruncated object holds nothing above it.  Homology is
    trustworthy up to `reliable_dim`: top_dim when complete, else top_dim - 1,
    because cycles in the cut dimension can never be paired with the missing
    cofaces.  `source` holds the labels of the points the vertex rows index,
    read only for labels.

    `dims` stores dimensions 0 to top_dim, or, when `cofaces` is given, 0 to
    top_dim - 1: the top dimension is then only enumerated, by `reduce`, as
    the cofaces of the last stored one.  Counts, the global order, `cells`
    and the dump cover the stored dimensions.
    """

    dims: tuple[Dimension, ...]
    complete: bool
    source: tuple | None = None
    cofaces: Cofaces | None = None

    @property
    def top_dim(self) -> int:
        return len(self.dims) - (self.cofaces is None)

    def __len__(self) -> int:
        return sum(len(dim.filtration) for dim in self.dims)

    @property
    def reliable_dim(self) -> int:
        return self.top_dim if self.complete else self.top_dim - 1

    def dim_counts(self) -> dict[int, int]:
        return {d: len(dim.filtration) for d, dim in enumerate(self.dims) if len(dim.filtration)}

    def _order(self) -> np.ndarray:
        """The global order, as positions in the concatenated dimensions."""
        filt = np.concatenate([np.empty(0), *(dim.filtration for dim in self.dims)])
        return np.argsort(filt, kind="stable")

    def global_ids(self) -> list[np.ndarray]:
        """Per dimension, each cell's position in the global order, in `_index_dtype`."""
        ids, ends = _inverse(self._order()), np.cumsum([len(dim.filtration) for dim in self.dims])
        return [ids[end - len(dim.filtration):end] for dim, end in zip(self.dims, ends)]

    def _labels(self, dim: Dimension, lo: int, hi: int) -> list[str]:
        """Labels of the cells lo to hi - 1 of `dim`: their points' labels
        joined by commas, or empty without vertex rows."""
        if dim.vertices is None:
            return [""] * (hi - lo)
        return [",".join([self.source[v] for v in row]) for row in dim.vertices[lo:hi].tolist()]

    @cached_property
    def cells(self) -> tuple[Cell, ...]:
        """`Cell` (dim, filtration) per global id, built on first access for
        tests and tracing; the builders and the reduction never read it."""
        order = self._order()
        dims = np.repeat(np.arange(len(self.dims)), [len(dim.filtration) for dim in self.dims])
        filt = np.concatenate([np.empty(0), *(dim.filtration for dim in self.dims)])
        return tuple(map(Cell, dims[order].tolist(), filt[order].tolist()))

    def dump_lines(self) -> Iterator[str]:
        """Debug format, one cell per line: id dim filtration boundary label,
        the boundary as face:coefficient pairs by global id, or '-'.

        Lines are yielded in global order, rendered `DUMP_CHUNK` ids at a time.
        Each dimension's global ids ascend, so a run of ids is one slice of
        each dimension.  A cell's faces are printed by ascending id, each
        with the sign of its column.  Only one chunk's lines, faces and
        labels are held as Python objects at a time."""
        ids = self.global_ids()
        for lo in range(0, len(self), DUMP_CHUNK):
            out = [""] * (min(lo + DUMP_CHUNK, len(self)) - lo)
            for d, dim in enumerate(self.dims):
                a, b = np.searchsorted(ids[d], (lo, lo + DUMP_CHUNK)).tolist()
                faces = ids[d - 1][dim.faces[a:b]] if d else dim.faces[a:b]
                column = faces.argsort(axis=1)
                faces = np.take_along_axis(faces, column, axis=1)
                # Flat lists, read `width` pairs per cell, hold fewer objects
                # than a list per cell.
                width = faces.shape[1]
                pairs = zip(faces.ravel().tolist(), (1 - 2 * (column % 2)).ravel().tolist())
                for g, f, label in zip(ids[d][a:b].tolist(), dim.filtration[a:b].tolist(),
                                       self._labels(dim, a, b)):
                    boundary = ",".join([f"{i}:{c}" for i, c in islice(pairs, width)]) or "-"
                    out[g - lo] = f"{g} {d} {f!r} {boundary} {label}"
            yield from out

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


def _extend(subsets: np.ndarray, maxima: list[np.ndarray], near: np.ndarray,
            dists: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Every extension of each subset by a larger point near all of its points,
    with its largest entry of each matrix of `dists` over its ordered pairs of
    points, which `maxima` holds for the subsets.  Listed in lexicographic
    order when the subsets are."""
    m, k = len(near), subsets.shape[1]
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
    maxima = [filt[parent] for filt in maxima]
    for i in range(k):
        rows[:, i] = subsets[parent, i]
    del parent
    # The diagonal comes last: np.maximum returns the later of two equal values,
    # so a maximum at zero takes the sign of its last point's d(v, v).
    new = rows[:, k]
    for filt, dist in zip(maxima, dists):
        for col in rows.T:
            np.maximum(filt, dist[col, new], out=filt)
    return rows, maxima


def _rips_boundary(binom: np.ndarray, verts: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """The face matrix of the k-subset rows `verts` in the (k-1)-subset rows
    `faces`: column pos holds the row of the face without vertex pos.  Rows
    are int16 up to 2^15 faces, else `_index_dtype`."""
    k = verts.shape[1]
    dtype = np.int16 if len(faces) <= 2**15 else _index_dtype(len(faces))
    # Entries of cut faces stay -1: no kept subset has a cut face.
    row_of_rank = np.full(binom[-1, k - 1], -1, dtype=dtype)
    row_of_rank[sum(binom[faces[:, i], i + 1] for i in range(k - 1))] = np.arange(len(faces))
    # The face without vertex pos has the colex rank that sums C(c_i, i + 1)
    # over the points before pos and C(c_i, i) over those after it, which
    # move one place down.
    rows = np.empty(verts.shape, dtype=dtype)
    before = sum(binom[verts[:, i], i + 1] for i in range(k - 1))
    after = 0
    for pos in reversed(range(k)):
        rows[:, pos] = row_of_rank[before + after]
        if pos:
            before -= binom[verts[:, pos - 1], pos]
            after += binom[verts[:, pos], pos]
    return rows


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


@lru_cache(maxsize=256)
def _binomials(m: int, top: int) -> np.ndarray:
    """C(a, k) for a = 0 to m and k = 0 to top, built once per (m, top) and
    read-only, since every caller shares it.  C(m, k) is the largest entry
    of column k, so every colex rank of k points and its partial sums take
    the table's dtype: int32 unless its largest entry needs more.  A round
    of the benchmark's workloads asks for fewer than 100 tables."""
    table = [[math.comb(a, k) for k in range(top + 1)] for a in range(m + 1)]
    binom = np.array(table, dtype=_index_dtype(max(table[-1])))
    binom.setflags(write=False)
    return binom


def _flag_dims(near: np.ndarray, dists: list[np.ndarray], vertices: np.ndarray,
               top: int, skip_top_above: float = math.inf) -> tuple[Dimension, ...]:
    """Dimensions 0 to top of the flag complex of the graph `near` on the
    points `vertices` (ascending, in the point dtype of `Dimension.vertices`),
    or 0 to top - 1 when dimension top - 1 holds more than `skip_top_above`
    cells: dimension top is then neither enumerated nor stored.

    A subset's filtration is the sum, over the matrices of `dists`, of each
    one's largest entry over the subset's ordered pairs of points, d(v, v)
    included: the largest distance for one matrix.  A sum of maxima is
    monotone under inclusion, so faces never enter after cofaces.

    Subsets of each size are enumerated in lexicographic order, each subset
    extended only by the larger points near all of its points (Zomorodian,
    "Fast construction of the Vietoris-Rips complex", 2010), and stably sorted
    by filtration.  A face is found through its colex rank, from the
    combinatorial number system (Bauer, Ripser, arXiv:1908.02518, sec. 3):
    the k-subset c_0 < ... < c_(k-1) has rank sum_i C(c_i, i + 1), one of 0
    ... C(m, k) - 1 for m points.  A rank-indexed table maps it to its row;
    a flag complex holds every face of its subsets, so each has a row.  Once
    a dimension has no cells, neither has any above it; those are stored
    empty without being enumerated, and no empty dimension gets a boundary
    computed.  Each has a float64 filtration, an int32 (0, d + 1) face
    matrix ((0, 0) for dimension 0) and a (0, d + 1) vertex matrix in the
    point dtype.
    """
    binom = _binomials(len(near), top)
    subsets, maxima = vertices[:, None], [dist[vertices, vertices] for dist in dists]
    dims: list[Dimension] = []
    # _extend and _rips_boundary free their temporaries on return, and the last
    # dimension's lexicographic rows go before its boundary is built: under
    # tracemalloc a Rips build peaks at 1.4 to 1.7 times what its complex
    # retains (45 and 31 B per cell on the whole 5-cube at maxdim 4, 36 and 23
    # B on 50 random points in the unit cube at maxdim 3, 38 and 22 B on the
    # 5-cube as a product at maxdim 4 with the graph of its barcode-only
    # build, whose 34,563 stored cells take 34 and 20 B).
    for d in range(top + 1):
        if d and len(subsets):
            subsets, maxima = _extend(subsets, maxima, near, dists)
        last = d == top or (d == top - 1 and len(subsets) > skip_top_above)
        if not len(subsets):
            # No subset has d + 1 points, so none has more.
            dims.append(Dimension(np.empty(0), np.empty((0, d + 1 if d else 0), np.int32),
                                  np.empty((0, d + 1), dtype=vertices.dtype)))
        else:
            # One matrix's maximum is the filtration itself, not a copy.
            filt = maxima[0] if len(maxima) == 1 else np.add(*maxima)
            order = np.argsort(filt, kind="stable")
            verts, filt = subsets[order], filt[order]
            del order
            if last:
                # Nothing extends the last dimension: its lexicographic rows
                # and unsorted maxima go before its boundary is built.
                del subsets, maxima
            faces = (_rips_boundary(binom, verts, dims[-1].vertices) if d
                     else np.empty((len(verts), 0), np.int32))
            dims.append(Dimension(filt, faces, verts))
        if last:
            break
    return tuple(dims)


def vietoris_rips(space: FiniteMetricSpace, maxdim: int, cell_cap: int = DEFAULT_CELL_CAP,
                  *, barcode_only: bool = False) -> FilteredComplex:
    """Flag complex of all subsets of size <= maxdim + 1 (`_flag_dims`).

    The filtration value of a subset is the max of d over all ordered pairs of
    its points, including d(v, v): the diagonal can delay a vertex.  Faces never
    enter after cofaces because the max is monotone under inclusion.

    With `barcode_only`, only the cells a barcode needs are built, in two
    steps; `top_dim`, `complete`, `reliable_dim` and the cap pre-check stay
    those of the whole flag complex.  First, only subsets with filtration <=
    the enclosing radius R (`metric.enclosing_radius`) are stored: the graph
    holds the points and edges entering at or below R, and a superset of a
    cut subset is cut too.  Above R the complex is a cone on the point v
    attaining R: sigma + {v} has dimension at most one more than sigma, so
    every degree below top_dim is acyclic from R on (degree 0 keeps one
    class), and so is the top degree when the complex is complete.  Every
    reliable degree therefore has the barcode of the uncut complex.

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

    Third, from top_dim 2 on, a top dimension that can hold more than
    `CHUNK` cells is not stored: each of its cells has top_dim + 1 faces of
    dimension top_dim - 1, each of which has at most m - top_dim cofaces.
    It is never reduced, only paired with the dimension below as its
    cofaces, and it held most of the cells (143,416 of the 177,979 of the
    5-cube as a product at maxdim 4, where the bound reads 165,424).  The
    complex then stores dimensions 0 to top_dim - 1 and keeps in `cofaces`
    what `reduce` enumerates the top dimension from: the cut and collapsed
    graph, and each distance's rank among the sorted distinct distances.
    Its length, counts, `cells` and dump cover the stored dimensions.  A
    smaller top dimension is stored, as enumerating it costs more numpy
    calls than the cells it saves: building and reducing the barcode-only
    complexes of a round of the CLI and of the product benchmarks (at most
    30 points, all below the bound) took 180 and 77 ms with their top
    dimensions stored, 212 and 87 ms enumerated, and the 5-cube split 95
    and 86 ms.  A build whose top_dim is below 2 stores every dimension, as
    the union-find pairing of the vertices walks the stored edges, and so
    does one whose top cells' keys (`implicit._coface_keys`) would not
    fit in an int64.
    """
    if maxdim < 0:
        raise InputError(f"maxdim must be >= 0, got {maxdim}")
    m = len(space)
    top = min(maxdim, m - 1)
    _check_cap("Rips complex", rips_cell_count(m, maxdim), cell_cap)

    radius = enclosing_radius(space) if barcode_only else math.inf
    dist = space.dist
    diag = np.diagonal(dist)
    # near[u, v]: the edge uv and the point v both enter at or below the radius.
    near = (dist <= radius) & (diag <= radius)
    if barcode_only and top >= 2 and not np.signbit(dist).any():
        _collapse(near, dist)
    # Point indices take the narrowest unsigned dtype that holds m - 1, as
    # `Dimension.vertices` says; `_extend` keeps it.
    vertices = np.flatnonzero(diag <= radius).astype(np.min_scalar_type(m - 1))
    skip_top_above = math.inf
    if barcode_only and top >= 2:
        # `reduce` keys each top cell by its distance rank times C(m, top + 1)
        # plus its lexicographic rank, in one int64; there are at most m * m
        # ranks, and sorting the distances is left for where that overflows.
        keys = math.comb(m, top + 1)
        if m * m * keys < 2**63 or len(_distinct(dist)) * keys < 2**63:
            # A top cell has top + 1 faces, each with at most m - top cofaces.
            skip_top_above = (top + 1) * CHUNK // (m - top)
    dims = _flag_dims(near, [dist], vertices, top, skip_top_above)
    if len(dims) > top:
        return FilteredComplex(dims, maxdim >= m - 1, source=space.labels)
    values = _distinct(dist)
    ranks = values.searchsorted(dist).astype(np.min_scalar_type(len(values)))
    return FilteredComplex(dims, maxdim >= m - 1, source=space.labels,
                           cofaces=Cofaces(near, ranks, values))


def _distinct(dist: np.ndarray) -> np.ndarray:
    """The distinct values of `dist`, ascending; 0.0 and -0.0 are one."""
    # np.unique would import numpy.ma, 0.5 MB and 11 ms on first use.
    values = np.sort(dist, axis=None)
    return values[np.concatenate([[True], values[1:] != values[:-1]])]


def ordered_cell_count(nx: int, ny: int, maxdim: int) -> int:
    """Number of cells ordered_product builds for factors of nx and ny
    points; cheap cap pre-check.

    A chain of k points with i distinct first and j distinct second
    coordinates is a path of k - 1 steps: s = i + j - 1 - k of them move
    both coordinates, i - 1 - s the first only and j - 1 - s the second
    only.  So there are C(nx, i) C(ny, j) (k - 1)! / (s! (i-1-s)! (j-1-s)!)
    of them.
    """
    return sum(math.comb(nx, i) * math.comb(ny, j)
               * math.comb(k - 1, s) * math.comb(k - 1 - s, i - 1 - s)
               for k in range(1, min(maxdim, nx + ny - 2) + 2)
               for i in range(1, min(k, nx) + 1)
               for j in range(1, min(k, ny) + 1)
               if 0 <= (s := i + j - 1 - k) < min(i, j))


def ordered_product(x: FiniteMetricSpace, y: FiniteMetricSpace, maxdim: int,
                    cell_cap: int = DEFAULT_CELL_CAP) -> FilteredComplex:
    """The chain-level product of the Rips filtrations of x and y, up to maxdim.

    The points are those of `product_sum(x, y)`, with its labels and point
    cap: (i, j) has index i * len(y) + j.  The cells are the chains of the
    product order, the subsets whose points have i and j both nondecreasing
    along the vertex row: the flag complex of the order's comparability graph
    (`_flag_dims`).  A chain enters at g = l_X + l_Y, the Rips filtrations of
    its projections, diagonal included: the largest d_X and the largest d_Y
    over its ordered pairs of points.  At zero each takes the sign of d(v, v)
    at the projection of the chain's last point.  Nothing is cut or
    collapsed.  The longest chain has len(x) + len(y) - 1 points, so the
    complex is complete from maxdim len(x) + len(y) - 2 on.

    The chains are the nondegenerate simplices of the product simplicial set
    VR(X) x VR(Y), filtered as the paper filters it, so by its Kunneth
    formula for filtered simplicial sets the barcode is `kunneth_predict` in
    every reliable degree.  g is at least the sum-metric diameter of the chain, so the
    complex at t is a subcomplex of the Rips complex of `product_sum(x, y)`
    at t.
    """
    if maxdim < 0:
        raise InputError(f"maxdim must be >= 0, got {maxdim}")
    space = product_sum(x, y)
    m, nx, ny = len(space), len(x), len(y)
    top = min(maxdim, nx + ny - 2)
    # `_rips_boundary` looks faces up in a table of C(m, d) entries of at most
    # four bytes per dimension d.  A Rips complex has more cells than that,
    # but chains can have far fewer (C(72, 8) entries, 48 GB, for the 19.8
    # million chains of 9 x 8 points at maxdim 8), so the largest table is
    # priced as cells too, at four bytes per entry.
    table = 4 * max(math.comb(m, d) for d in range(top + 1)) // BYTES_PER_CELL
    _check_cap("ordered product", ordered_cell_count(nx, ny, maxdim) + table, cell_cap)
    i, j = np.divmod(np.arange(m), ny)
    near = ((i[:, None] <= i) & (j[:, None] <= j)) | ((i[:, None] >= i) & (j[:, None] >= j))
    dists = [x.dist[i[:, None], i], y.dist[j[:, None], j]]
    vertices = np.arange(m).astype(np.min_scalar_type(m - 1))
    return FilteredComplex(_flag_dims(near, dists, vertices, top), maxdim >= nx + ny - 2,
                           source=space.labels)


def _inverse(order: np.ndarray) -> np.ndarray:
    """The permutation that undoes `order`, in `_index_dtype`."""
    inverse = np.empty(len(order), dtype=_index_dtype(len(order)))
    inverse[order] = np.arange(len(order), dtype=inverse.dtype)
    return inverse
