"""Product predictions from factor barcodes, and how they compare to reality.

For the sum metric on X x Y, the degree-n prediction is the bar multiset

    sum_{i+j=n} PH_i(X) (x) PH_j(Y)   +   sum_{i+j=n-1} Tor_1(PH_i(X), PH_j(Y)),

computed barwise from the factor barcodes.  When d(u, u) <= d(u, v) holds in
each factor, as in every metric space, the prediction provably matches the
product's persistent homology in degrees 0 and 1 and dominates it in degree 2;
from degree 3 on it can genuinely differ, so comparisons return structured
verdicts instead of raising.  Without that hypothesis degrees 0 and 1 can fail
too (X = [[0,3],[3,0]], Y = [[2,0],[0,1]] violates degree 1), so a comparison
checks it and, where a factor breaks it, asserts no degree and names the
factor and one offending pair; `sumrips kunneth` then exits 0 on that input.
Predicted and actual modules are always within interleaving distance
min(diam X, diam Y) of each other, which bounds their bottleneck distance;
every report carries that bound next to the exact bottleneck value so the
theorem stays machine-checked on real inputs.

The bottleneck distance here is exact: the optimum is always one of finitely
many candidate values (pairwise max-costs and half-persistences), found by
binary search.  A threshold is feasible when the bars within it of each other
have one matching that covers every bar of A longer than twice the threshold
and another that covers every such bar of B; by the Mendelsohn-Dulmage
theorem (1958) the two then merge into one matching that covers both, and
every bar it leaves out goes to the diagonal.  Each one-sided matching is
found by Kuhn's augmenting paths (`_covers`), searched with an explicit stack
so that a path may run through every bar.  Essential bars may only match
essential bars; a count mismatch makes the distance infinite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bars import INF, Barcode, GradedBarcode, tensor_barcodes, tor1_barcodes
from .complexes import DEFAULT_CELL_CAP, vietoris_rips
from .errors import InputError
from .metric import FiniteMetricSpace, diameter, product_sum
from .persistence import DEFAULT_FIELD, _check_field, reduce

VERDICT_EQUAL = "equal"
VERDICT_DOMINATED = "dominated"
VERDICT_VIOLATED = "violated"


def kunneth_predict(bx: GradedBarcode, by: GradedBarcode, n: int) -> Barcode:
    """Degree-n prediction for the product from two factor barcodes."""
    if n < 0:
        raise InputError(f"degree must be >= 0, got {n}")
    bars = []
    for i in range(n + 1):
        bars.extend(tensor_barcodes(bx[i], by[n - i]))
    for i in range(n):
        bars.extend(tor1_barcodes(bx[i], by[n - 1 - i]))
    return Barcode(bars)


def _covers(edges: np.ndarray, rows: np.ndarray) -> bool:
    """Whether the bipartite graph of boolean matrix `edges` has a matching
    that covers every row in the mask `rows`.

    Kuhn's augmenting paths, one search per row with an explicit stack: the
    row scans its own columns first, so it takes a free one next to it if it
    has one (a greedy start), and otherwise the first free column that an
    alternating path reaches, flipping the path.  A row that reaches no free
    column stays unmatched in every maximum matching, so the answer is no at
    once.
    """
    adjacent = [np.flatnonzero(row).tolist() for row in edges[rows]]
    row_of: dict[int, int] = {}  # column -> the row matched to it
    col_of: dict[int, int] = {}  # row -> the column matched to it
    for root in range(len(adjacent)):
        came: dict[int, int] = {}  # column -> the row the search reached it from
        stack, free = [root], None
        while stack and free is None:
            r = stack.pop()
            for c in adjacent[r]:
                if c not in came:
                    came[c] = r
                    if c not in row_of:
                        free = c
                        break
                    stack.append(row_of[c])
        if free is None:
            return False
        # Flip the path back to the root, the one row on it without a column.
        c = free
        while c is not None:
            r = came[c]
            prev = col_of.get(r)
            row_of[c], col_of[r] = r, c
            c = prev
    return True


def bottleneck(a: Barcode, b: Barcode) -> float:
    """Exact bottleneck distance between two barcodes of the same degree.

    Finite bars may match each other (cost max of endpoint differences) or the
    diagonal (cost persistence / 2).  A threshold delta is feasible when the
    pairs of cost <= delta have two one-sided matchings, one covering every bar
    of A with persistence / 2 > delta and one covering every such bar of B,
    which Mendelsohn and Dulmage (1958) show merge into one; `_covers` finds
    each by Kuhn's augmenting paths, without recursion.  Essential bars
    match essential bars by sorted births, the optimal assignment for a
    max-metric on a line; a count mismatch returns inf.  Equal barcodes, the
    usual case in a product comparison, return 0.0 without a search.
    """
    if a == b:
        return 0.0
    ess_a = sorted(bar.birth for bar in a.essentials())
    ess_b = sorted(bar.birth for bar in b.essentials())
    if len(ess_a) != len(ess_b):
        return INF
    d_ess = max((abs(p - q) for p, q in zip(ess_a, ess_b)), default=0.0)

    # (birth, death) rows; an empty side makes an (m, 0) or (0, n) cost matrix.
    fin_a, fin_b = (np.array([(bar.birth, bar.death) for bar in code.finite()]).reshape(-1, 2)
                    for code in (a, b))
    if not len(fin_a) and not len(fin_b):
        return d_ess
    half_a, half_b = ((fin[:, 1] - fin[:, 0]) / 2 for fin in (fin_a, fin_b))
    costs = np.abs(fin_a[:, None] - fin_b[None]).max(axis=2)

    candidates = sorted(set(half_a.tolist()) | set(half_b.tolist()) | set(costs.ravel().tolist()))
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        delta = candidates[mid]
        edges = costs <= delta
        if _covers(edges, half_a > delta) and _covers(edges.T, half_b > delta):
            hi = mid
        else:
            lo = mid + 1
    return max(d_ess, candidates[lo])


def _dominates(big: Barcode, small: Barcode) -> bool:
    """Pointwise dim_at(big, t) >= dim_at(small, t); both are step functions."""
    for t in sorted({*big.endpoints(), *small.endpoints()}):
        if big.dim_at(t) < small.dim_at(t):
            return False
    return True


def _verdict(predicted: Barcode, actual: Barcode) -> str:
    if predicted == actual:
        return VERDICT_EQUAL
    if _dominates(predicted, actual):
        return VERDICT_DOMINATED
    return VERDICT_VIOLATED


@dataclass(frozen=True, slots=True)
class DimensionComparison:
    """Prediction vs computation in one degree, with its interleaving bound."""

    n: int
    predicted: Barcode
    actual: Barcode
    verdict: str
    asserted: bool
    verdict_ok: bool
    bottleneck: float
    diameter_bound: float

    @property
    def bound_ok(self) -> bool:
        return self.bottleneck <= self.diameter_bound


@dataclass(frozen=True, slots=True)
class HypothesisBreak:
    """Points u, v of one factor ("X" or "Y"), by label, with d(u, u) > d(u, v)."""

    factor: str
    u: str
    v: str


@dataclass(frozen=True, slots=True)
class ComparisonReport:
    """Full product comparison: one entry per degree 0..maxn.

    `hypothesis_break` is set when a factor breaks d(u, u) <= d(u, v); then
    no degree is asserted.
    """

    field: int
    diameter_bound: float
    dims: tuple[DimensionComparison, ...]
    hypothesis_break: HypothesisBreak | None = None

    @property
    def verdicts_ok(self) -> bool:
        return all(d.verdict_ok for d in self.dims)

    @property
    def bounds_ok(self) -> bool:
        return all(d.bound_ok for d in self.dims)

    @property
    def ok(self) -> bool:
        return self.verdicts_ok and self.bounds_ok


def _hypothesis_break(x: FiniteMetricSpace, y: FiniteMetricSpace) -> HypothesisBreak | None:
    """The first pair, X before Y and then in row-major order, with d(u, u) > d(u, v)."""
    for factor, space in (("X", x), ("Y", y)):
        bad = np.argwhere(np.diagonal(space.dist)[:, None] > space.dist)
        if bad.size:
            u, v = bad[0].tolist()
            return HypothesisBreak(factor, space.labels[u], space.labels[v])
    return None


def _assertion(n: int, verdict: str, hypothesis: bool) -> tuple[bool, bool]:
    """(asserted, ok): under the hypothesis, degrees 0,1 must be equal and
    degree 2 at worst dominated; nothing is asserted without it."""
    if not hypothesis:
        return False, True
    if n <= 1:
        return True, verdict == VERDICT_EQUAL
    if n == 2:
        return True, verdict in (VERDICT_EQUAL, VERDICT_DOMINATED)
    return False, True


def compare_product(x: FiniteMetricSpace, y: FiniteMetricSpace, maxn: int,
                    p: int = DEFAULT_FIELD,
                    cell_cap: int = DEFAULT_CELL_CAP) -> ComparisonReport:
    """Compare predicted and computed barcodes of the sum-metric product.

    Builds Rips complexes to dimension maxn + 1 (factors and product alike) so
    every reported degree is reliable, then fills one DimensionComparison per
    degree.  Each complex is built `barcode_only`: cut at its enclosing radius
    and from its graph with the dominated edges collapsed, which leaves every
    reliable barcode unchanged, and, from top dimension 2 on, with a top
    dimension that can hold more than `complexes.CHUNK` cells left for
    `reduce` to enumerate instead of stored.  The cell cap still counts the
    whole complexes, so it admits exactly the inputs the whole build did;
    it is the only bound on maxn.  Violations become verdicts, never exceptions: in degrees >= 3 they are
    expected on some inputs and merely recorded.  Degrees 0 to 2 are asserted
    only where the theorem behind them applies, d(u, u) <= d(u, v) in each
    factor.  Where a positive diagonal breaks that, as in X = [[0,3],[3,0]],
    Y = [[2,0],[0,1]], whose degree 1 is violated, the report asserts no
    degree, keeps every verdict and bottleneck value, and names the factor
    and one offending pair in `hypothesis_break`.
    """
    if maxn < 0:
        raise InputError(f"maxn must be >= 0, got {maxn}")
    p = _check_field(p)
    bx, by, actual = (reduce(vietoris_rips(space, maxn + 1, cell_cap=cell_cap,
                                           barcode_only=True), p)
                      for space in (x, y, product_sum(x, y)))
    bound = min(diameter(x), diameter(y))
    broken = _hypothesis_break(x, y)

    entries = []
    for n in range(maxn + 1):
        predicted_n = kunneth_predict(bx, by, n)
        actual_n = actual[n]
        verdict = _verdict(predicted_n, actual_n)
        asserted, verdict_ok = _assertion(n, verdict, broken is None)
        entries.append(DimensionComparison(
            n=n,
            predicted=predicted_n,
            actual=actual_n,
            verdict=verdict,
            asserted=asserted,
            verdict_ok=verdict_ok,
            bottleneck=bottleneck(predicted_n, actual_n),
            diameter_bound=bound,
        ))
    return ComparisonReport(field=p, diameter_bound=bound, dims=tuple(entries),
                            hypothesis_break=broken)

