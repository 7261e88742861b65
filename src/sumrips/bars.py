"""Interval modules over a real-graded coefficient ring, and their bar arithmetic.

A bar (a, b) stands for the graded module that is one-dimensional exactly on the
half-open interval [a, b) and zero elsewhere; b = inf is allowed and marks a free
(essential) summand.  Finitely presented persistence modules over the monoid ring
k[R>=0] decompose into finite multisets of such bars, so the tensor product and
its first derived functor reduce to closed formulas on pairs of bars:

    tensor:  (a, b) (x) (c, d) = (a + c, min(a + d, b + c))
    Tor_1:   (a, b), (c, d)   -> (max(a + d, b + c), b + d)    if b, d < inf
             Tor_1 vanishes when either factor is free; higher Tor vanishes always.

Float comparisons are exact float64 everywhere: every producer in this package
shares the same arithmetic, so no epsilon tolerance is applied.  Infinite deaths
use math.inf, never NaN, and degenerate intervals are rejected at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

INF = math.inf


@dataclass(frozen=True, slots=True, order=True)
class Bar:
    """Half-open interval [birth, death) with 0 <= birth < death <= inf."""

    birth: float
    death: float

    def __post_init__(self) -> None:
        # NaN fails both comparisons, so it is rejected by the same checks.
        if not 0.0 <= self.birth < INF:
            raise ValueError(f"bar birth must be finite and nonnegative, got {self.birth!r}")
        if not self.birth < self.death:
            raise ValueError(f"bar must satisfy birth < death, got ({self.birth!r}, {self.death!r})")

    @property
    def persistence(self) -> float:
        return self.death - self.birth

    @property
    def is_essential(self) -> bool:
        return self.death == INF

    def contains(self, t: float) -> bool:
        """Whether the module is alive at parameter t (birth <= t < death)."""
        return self.birth <= t < self.death

    def shifted(self, s: float) -> "Bar":
        return Bar(self.birth + s, self.death + s)

    def __str__(self) -> str:
        death = "inf" if self.death == INF else f"{self.death:g}"
        return f"[{self.birth:g},{death})"


def tensor_bar(x: Bar, y: Bar) -> Bar:
    """Tensor product of two bars: (a+c, min(a+d, b+c)).

    The result is never degenerate: both candidate deaths strictly exceed a+c.
    With an infinite death on either side, inf arithmetic gives the right answer
    (the free factor acts like a shifted copy of the ring).
    """
    return Bar(x.birth + y.birth, min(x.birth + y.death, x.death + y.birth))


def tor1_bar(x: Bar, y: Bar) -> Bar | None:
    """First torsion product of two bars, or None when it vanishes.

    Free modules are flat here, so an infinite death on either side kills the
    torsion.  Otherwise the result is (max(a+d, b+c), b+d), again never
    degenerate because a < b and c < d.
    """
    if x.death == INF or y.death == INF:
        return None
    return Bar(max(x.birth + y.death, x.death + y.birth), x.death + y.death)


class Barcode:
    """Immutable finite multiset of bars in canonical (birth, death) order.

    Equality is multiset equality.  An empty barcode is the zero module.
    """

    __slots__ = ("_bars",)

    def __init__(self, bars: Iterable[Bar] = ()) -> None:
        entries = tuple(bars)
        for b in entries:
            if not isinstance(b, Bar):
                raise TypeError(f"barcode entries must be Bar, got {type(b).__name__}")
        self._bars = tuple(sorted(entries, key=lambda b: (b.birth, b.death)))

    @property
    def bars(self) -> tuple[Bar, ...]:
        return self._bars

    def __iter__(self) -> Iterator[Bar]:
        return iter(self._bars)

    def __len__(self) -> int:
        return len(self._bars)

    def __bool__(self) -> bool:
        return bool(self._bars)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Barcode):
            return NotImplemented
        return self._bars == other._bars

    def __hash__(self) -> int:
        return hash(self._bars)

    def __repr__(self) -> str:
        return f"Barcode([{', '.join(str(b) for b in self._bars)}])"

    def dim_at(self, t: float) -> int:
        """Pointwise dimension at parameter t: number of bars with birth <= t < death."""
        return sum(1 for b in self._bars if b.birth <= t < b.death)

    def shift(self, s: float) -> "Barcode":
        """Shift every bar by s (s may be negative if no birth goes below zero)."""
        return Barcode(b.shifted(s) for b in self._bars)

    def essentials(self) -> tuple[Bar, ...]:
        return tuple(b for b in self._bars if b.death == INF)

    def finite(self) -> tuple[Bar, ...]:
        return tuple(b for b in self._bars if b.death < INF)

    def endpoints(self) -> tuple[float, ...]:
        """Sorted distinct finite endpoints; the dimension function only changes here."""
        pts = {b.birth for b in self._bars} | {b.death for b in self._bars if b.death < INF}
        return tuple(sorted(pts))


_EMPTY = Barcode()


def tensor_barcodes(a: Barcode, b: Barcode) -> Barcode:
    """Barwise tensor product: every pair contributes one bar."""
    return Barcode(tensor_bar(x, y) for x in a for y in b)


def tor1_barcodes(a: Barcode, b: Barcode) -> Barcode:
    """Barwise Tor_1: pairs with any free factor contribute nothing."""
    out = []
    for x in a:
        if x.death == INF:
            continue
        for y in b:
            t = tor1_bar(x, y)
            if t is not None:
                out.append(t)
    return Barcode(out)


class GradedBarcode:
    """Barcodes indexed by homological dimension.

    Only finitely many dimensions are stored; lookups outside them return the
    empty barcode.  A stored empty barcode is meaningful for serialization (the
    dimension was computed and found empty), but equality is semantic: a missing
    dimension and a stored empty one compare equal.
    """

    __slots__ = ("_by_dim",)

    def __init__(self, by_dim: Mapping[int, Barcode] | Iterable[tuple[int, Barcode]] = ()) -> None:
        items = by_dim.items() if isinstance(by_dim, Mapping) else by_dim
        store: dict[int, Barcode] = {}
        for n, code in items:
            if not isinstance(n, int) or n < 0:
                raise ValueError(f"homological dimension must be a nonnegative int, got {n!r}")
            if not isinstance(code, Barcode):
                raise TypeError(f"dimension {n} entry must be a Barcode, got {type(code).__name__}")
            if n in store:
                raise ValueError(f"dimension {n} given twice")
            store[n] = code
        self._by_dim = dict(sorted(store.items()))

    def __getitem__(self, n: int) -> Barcode:
        return self._by_dim.get(n, _EMPTY)

    def dims(self) -> tuple[int, ...]:
        """Dimensions explicitly stored, ascending (empty ones included)."""
        return tuple(self._by_dim)

    def items(self) -> Iterator[tuple[int, Barcode]]:
        return iter(self._by_dim.items())

    def nonempty_dims(self) -> tuple[int, ...]:
        return tuple(n for n, code in self._by_dim.items() if code)

    def total_bars(self) -> int:
        return sum(len(code) for code in self._by_dim.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedBarcode):
            return NotImplemented
        for n in set(self._by_dim) | set(other._by_dim):
            if self[n] != other[n]:
                return False
        return True

    def __hash__(self) -> int:
        return hash(frozenset((n, code) for n, code in self._by_dim.items() if code))

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}: {code!r}" for n, code in self._by_dim.items())
        return f"GradedBarcode({{{inner}}})"
