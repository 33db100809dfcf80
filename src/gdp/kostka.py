"""Partitions, dominance order, and common reducibility of Kostka pairs.

A *Kostka pair* is a pair of partitions (lambda, mu) of equal size fitting in
``r`` rows with lambda dominating mu.  Such a pair is *commonly reducible*
when some proper nonempty set of columns C of the Young diagrams splits it:
restricting both partitions to C and to the complementary columns must give
two valid pairs again.

The bridge to lattice walks: the column vector x_j = mu'_j - lambda'_j
(conjugates, 1 <= j <= lambda_1) sums to zero, and its prefix sums are
nonnegative exactly when lambda dominates mu.  A zero column already splits
the pair on its own; otherwise the column vector is a signed list whose
decompositions are exactly the column splits, so the reducer decides the
question constructively.

Costs, for a partition with largest part lambda_1 and l rows and a column
set C: a conjugate takes O(lambda_1 + l); restricting to C, and so checking
a column split, takes O((|C| + l) log |C|) and does not depend on lambda_1.
``conjugate``, the only step that builds data of size lambda_1, refuses
partitions wider than ``MAX_COLUMNS`` columns.  ``Partition.parse`` reads
text by the token rule of signed lists, ``catalan.parse_ints``.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import ge, sub, index as _as_int

from .catalan import BudgetExceededError, SignedList, parse_ints
from .reducer import Irreducible, reduce

MAX_COLUMNS = 2**20  # largest part (column vector width) conjugate takes


@dataclass(frozen=True, slots=True)
class Partition:
    """Weakly decreasing nonnegative integers; trailing zeros are accepted
    at construction and stripped."""

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        parts = tuple(map(_as_int, self.parts))
        if not (all(map(ge, parts, parts[1:])) and (not parts or parts[-1] >= 0)):
            for i, v in enumerate(parts):
                if v < 0:
                    raise ValueError(f"part {i + 1} is negative")
                if i and parts[i - 1] < v:
                    raise ValueError(f"parts must be weakly decreasing (part {i + 1})")
        if parts and not parts[-1]:
            parts = parts[: len(parts) - parts.count(0)]
        object.__setattr__(self, "parts", parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        """Number of nonzero parts."""
        return len(self.parts)

    @property
    def first(self) -> int:
        """Largest part (0 for the empty partition)."""
        return self.parts[0] if self.parts else 0

    def row(self, i: int) -> int:
        """i-th part, 1-based, 0 beyond the last nonzero part."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def padded(self, n: int) -> tuple[int, ...]:
        return self.parts + (0,) * (n - len(self.parts))

    def rectangle(self) -> tuple[int, int] | None:
        """(rows, columns) when all nonzero parts are equal, else None."""
        if not self.parts or any(v != self.parts[0] for v in self.parts):
            return None
        return (len(self.parts), self.parts[0])

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse comma- or whitespace-separated parts."""
        return parse_ints(cls, text, "a partition", "part")

    def format(self) -> str:
        return ",".join(str(v) for v in self.parts) if self.parts else "0"


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram: row j of the result counts the parts
    of size at least j, so the value i fills p_i - p_(i+1) rows.  A largest
    part above ``MAX_COLUMNS`` is refused before anything is built."""
    if p.first > MAX_COLUMNS:
        raise BudgetExceededError(f"{p.first} columns exceed the budget {MAX_COLUMNS}")
    rows = []
    below = 0
    for i in range(len(p.parts), 0, -1):
        rows += [i] * (p.parts[i - 1] - below)
        below = p.parts[i - 1]
    return Partition(tuple(rows))


def dominates(a: Partition, b: Partition) -> bool:
    """True iff every prefix sum of ``a`` is at least that of ``b``.

    Only defined for equal sizes (ValueError otherwise).  Comparing the
    first min(len(a), len(b)) suffices: past len(a) the sums of ``a`` are the
    size, and at len(b) < len(a) those of ``b`` already are.
    """
    if a.size != b.size:
        raise ValueError("dominance compares partitions of equal size")
    return all(map(ge, accumulate(a.parts), accumulate(b.parts)))


@dataclass(frozen=True, slots=True)
class KostkaPair:
    """A dominance-ordered pair of equal-size partitions in ``r`` rows.

    ``r`` defaults to the larger of the two lengths.
    """

    lam: Partition
    mu: Partition
    r: int | None = None

    def __post_init__(self) -> None:
        r = self.r
        if r is None:
            r = max(self.lam.length, self.mu.length)
        else:
            r = _as_int(r)
        object.__setattr__(self, "r", r)
        if self.lam.length > r or self.mu.length > r:
            raise ValueError(f"pair does not fit in {r} rows")
        if self.lam.size != self.mu.size:
            raise ValueError("partitions must have equal size")
        if not dominates(self.lam, self.mu):
            raise ValueError("first partition must dominate the second")

    @property
    def size(self) -> int:
        return self.lam.size

    def format(self) -> str:
        return f"{self.lam.format()} / {self.mu.format()}"


@dataclass(frozen=True, slots=True)
class ColumnSplit:
    """Columns C witnessing common reducibility: both (lambda, mu) restricted
    to C and to the complement are valid nontrivial pairs."""

    columns: frozenset[int]


@dataclass(frozen=True, slots=True)
class KostkaIrreducible:
    """Certificate that no column split exists, and its grounds.

    When the pair satisfies lambda_1 >= length(mu) this forces both
    partitions to be rectangles with coprime widths; the rectangle fields
    are (rows, columns), or None when a partition is not a rectangle.
    ``basis`` is ``"single-column"`` when lambda_1 = 1, and otherwise the
    column vector's :class:`Irreducible` basis: ``"coprime"`` or
    ``"search"``.
    """

    alpha1: int | None
    beta1: int | None
    lam_rect: tuple[int, int] | None
    mu_rect: tuple[int, int] | None
    basis: str


def column_vector(kp: KostkaPair) -> tuple[int, ...]:
    """Per-column conjugate differences mu'_j - lambda'_j for j in [lambda_1].

    Sums to zero; all prefix sums are nonnegative (zeros may occur).  A pair
    wider than ``MAX_COLUMNS`` columns is refused by :func:`conjugate`."""
    n = kp.lam.first
    lc = conjugate(kp.lam).padded(n)
    mc = conjugate(kp.mu).padded(n)
    return tuple(m - l for l, m in zip(lc, mc))


def _column_rows(parts: tuple[int, ...], cols: list[int]) -> tuple[int, ...]:
    """Row counts over a sorted column list: row i counts the chosen columns
    of width at most p_i; columns wider than the partition simply contribute
    no cells."""
    return tuple(bisect_right(cols, v) for v in parts)


def restrict_columns(p: Partition, columns) -> Partition:
    """Partition formed by the given columns: row i counts the chosen columns
    of width at most p_i."""
    cols = frozenset(_as_int(c) for c in columns)
    for c in cols:
        if not 1 <= c <= p.first:
            raise ValueError(f"column {c} out of range for largest part {p.first}")
    return Partition(_column_rows(p.parts, sorted(cols)))


def _sides(kp: KostkaPair, columns) -> tuple[KostkaPair, KostkaPair] | None:
    """The pairs that the columns and the other columns of [lambda_1] form,
    or None when the columns are not a proper nonempty subset of [lambda_1]
    or either side is not a valid pair.

    Every column of [lambda_1] holds a cell of lambda, so neither side of a
    proper nonempty subset is empty; as mu_1 <= lambda_1, the other columns
    hold exactly the cells of each row that the chosen ones leave.
    """
    cols = sorted(frozenset(_as_int(c) for c in columns))
    n = kp.lam.first
    if not cols or len(cols) >= n or cols[0] < 1 or cols[-1] > n:
        return None
    lam_in, mu_in = _column_rows(kp.lam.parts, cols), _column_rows(kp.mu.parts, cols)
    lam_out = tuple(map(sub, kp.lam.parts, lam_in))
    mu_out = tuple(map(sub, kp.mu.parts, mu_in))
    try:
        return (
            KostkaPair(Partition(lam_in), Partition(mu_in), kp.r),
            KostkaPair(Partition(lam_out), Partition(mu_out), kp.r),
        )
    except ValueError:
        return None


def verify_column_split(kp: KostkaPair, columns) -> bool:
    """True iff the columns split the pair into two valid nontrivial pairs.

    Columns live in [lambda_1]; the narrower partition is unaffected by its
    empty columns.
    """
    return _sides(kp, columns) is not None


def split_pair(kp: KostkaPair, columns) -> tuple[KostkaPair, KostkaPair]:
    """Both restricted pairs for a valid column split (ValueError otherwise)."""
    sides = _sides(kp, columns)
    if sides is None:
        raise ValueError("columns do not form a valid split of the pair")
    return sides


def common_reduce(kp: KostkaPair) -> ColumnSplit | KostkaIrreducible:
    """Find a column split of a nonempty pair, or certify none exists.

    A zero column of the column vector splits on its own (the lowest such
    column is returned).  Otherwise the column vector is a zero-free signed
    list whose decompositions are exactly the column splits, and the reducer
    settles it.  A split always exists when lambda_1 > length(mu), and when
    lambda_1 = length(mu) unless both partitions are rectangles with coprime
    widths.  BudgetExceededError is raised, by :func:`conjugate`, for a pair
    wider than ``MAX_COLUMNS`` columns, and passes through from the reducer
    when the column vector's search table would be too large.
    """
    if kp.size < 1:
        raise ValueError("the pair must have at least one cell")
    if kp.lam.first == 1:
        # Single-column pairs (lambda = mu, one column) have no proper
        # nonempty column subset.
        return KostkaIrreducible(
            None, None, kp.lam.rectangle(), kp.mu.rectangle(), "single-column"
        )
    vec = column_vector(kp)
    zero = next((j for j, v in enumerate(vec, 1) if v == 0), None)
    if zero is not None:
        columns = frozenset({zero})
    else:
        outcome = reduce(SignedList(vec))
        if isinstance(outcome, Irreducible):
            return KostkaIrreducible(
                outcome.alpha1,
                outcome.beta1,
                kp.lam.rectangle(),
                kp.mu.rectangle(),
                outcome.basis,
            )
        columns = outcome.part  # zero-free: positions are columns
    if not verify_column_split(kp, columns):
        raise RuntimeError(
            f"internal error: columns {sorted(columns)} do not split {kp.format()}"
        )
    return ColumnSplit(columns)
