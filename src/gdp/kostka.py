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
decompositions are exactly the column splits, which ``reducer._decide``
finds: :class:`KostkaPair` has validated the vector, and ``_sides`` checks
the split.

Costs, for a partition with largest part lambda_1 and l rows and a column
set C: a conjugate takes O(lambda_1 + l); restricting to C, and so checking
a column split, takes O((|C| + l) log |C|) and does not depend on lambda_1;
a pair is validated with one sum and one prefix-sum pass per partition.
The private conjugate kernel, ``_conjugate_parts``, is the only step that
builds data of size lambda_1 and the one home of the ``MAX_COLUMNS`` guard:
``conjugate`` wraps its tuple in a :class:`Partition`, and
``column_vector`` subtracts two such tuples without building one.
``Partition.parse`` reads text by the token rule of signed lists,
``catalan.parse_ints``.
"""
from __future__ import annotations

from bisect import bisect_right
from functools import partial
from itertools import accumulate
from operator import ge, sub, index as _as_int

from .catalan import BudgetExceededError, _Value, parse_ints
from .reducer import Irreducible, _decide

MAX_COLUMNS = 2**20  # largest part (column vector width) conjugate takes


class Partition(_Value):
    """Weakly decreasing nonnegative integers; trailing zeros are accepted
    at construction and stripped."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()) -> None:
        parts = tuple(map(_as_int, parts))
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


def _conjugate_parts(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Parts of the conjugate of a partition's parts: part j counts the
    parts of size at least j, so the value i fills p_i - p_(i+1) of them.
    The one home of the ``MAX_COLUMNS`` guard: a largest part above it is
    refused before anything is built."""
    if parts and parts[0] > MAX_COLUMNS:
        raise BudgetExceededError(f"{parts[0]} columns exceed the budget {MAX_COLUMNS}")
    rows = []
    below = 0
    for i in range(len(parts), 0, -1):
        rows += [i] * (parts[i - 1] - below)
        below = parts[i - 1]
    return tuple(rows)


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram (see :func:`_conjugate_parts`); a
    largest part above ``MAX_COLUMNS`` is refused."""
    return Partition(_conjugate_parts(p.parts))


def _prefix_dominates(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """True iff every prefix sum of the parts ``a`` is at least that of
    ``b``, for parts of equal total.  Comparing the first min(len(a),
    len(b)) sums suffices: past len(a) the sums of ``a`` are the total, and
    at len(b) < len(a) those of ``b`` already are."""
    return all(map(ge, accumulate(a), accumulate(b)))


def dominates(a: Partition, b: Partition) -> bool:
    """True iff every prefix sum of ``a`` is at least that of ``b``.

    Only defined for equal sizes (ValueError otherwise).
    """
    if a.size != b.size:
        raise ValueError("dominance compares partitions of equal size")
    return _prefix_dominates(a.parts, b.parts)


class KostkaPair(_Value):
    """A dominance-ordered pair of equal-size partitions in ``r`` rows.

    ``r`` defaults to the larger of the two lengths.
    """

    __slots__ = ("lam", "mu", "r")

    def __init__(self, lam: Partition, mu: Partition, r: int | None = None) -> None:
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        lp, mp = lam.parts, mu.parts
        if r is None:
            r = max(len(lp), len(mp))
        else:
            r = _as_int(r)
        object.__setattr__(self, "r", r)
        if len(lp) > r or len(mp) > r:
            raise ValueError(f"pair does not fit in {r} rows")
        if sum(lp) != sum(mp):
            raise ValueError("partitions must have equal size")
        if not _prefix_dominates(lp, mp):
            raise ValueError("first partition must dominate the second")

    @property
    def size(self) -> int:
        return self.lam.size

    def format(self) -> str:
        return f"{self.lam.format()} / {self.mu.format()}"


class ColumnSplit(_Value):
    """Columns C witnessing common reducibility: both (lambda, mu) restricted
    to C and to the complement are valid nontrivial pairs.

    ``sides`` holds those two pairs, C's first, as :func:`split_pair` gives
    them; equality and hashing depend on ``columns`` alone.
    """

    __slots__ = ("columns", "sides")
    columns: frozenset[int]
    sides: tuple[KostkaPair, KostkaPair]

    def _key(self) -> tuple:
        return (self.columns,)


class KostkaIrreducible(_Value):
    """Certificate that no column split exists, and its grounds.

    When the pair satisfies lambda_1 >= length(mu) this forces both
    partitions to be rectangles with coprime widths; the rectangle fields
    are (rows, columns), or None when a partition is not a rectangle.
    ``basis`` is ``"single-column"`` when lambda_1 = 1, and otherwise the
    column vector's :class:`Irreducible` basis: ``"coprime"`` or
    ``"search"``.
    """

    __slots__ = ("alpha1", "beta1", "lam_rect", "mu_rect", "basis")
    alpha1: int | None
    beta1: int | None
    lam_rect: tuple[int, int] | None
    mu_rect: tuple[int, int] | None
    basis: str


def column_vector(kp: KostkaPair) -> tuple[int, ...]:
    """Per-column conjugate differences mu'_j - lambda'_j for j in [lambda_1].

    Sums to zero; all prefix sums are nonnegative (zeros may occur).  A pair
    wider than ``MAX_COLUMNS`` columns is refused by
    :func:`_conjugate_parts`."""
    lc = _conjugate_parts(kp.lam.parts)  # lambda_1 parts
    mc = _conjugate_parts(kp.mu.parts)  # mu_1 <= lambda_1 parts
    return tuple(map(sub, mc + (0,) * (len(lc) - len(mc)), lc))


def _column_rows(parts: tuple[int, ...], cols: list[int]) -> tuple[int, ...]:
    """Row counts over a sorted column list: row i counts the chosen columns
    of width at most p_i; columns wider than the partition simply contribute
    no cells."""
    return tuple(map(partial(bisect_right, cols), parts))


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
    cols = sorted(set(map(_as_int, columns)))
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
    list whose decompositions are exactly the column splits, and the
    reducer's core ``_decide`` settles it; the pair's dominance check has
    validated it.  :func:`_sides` builds the split's two sides once, as the
    one check of the split, and the returned :class:`ColumnSplit` carries
    them; RuntimeError is raised when the check fails.  A split always
    exists when lambda_1 > length(mu), and when lambda_1 = length(mu) unless
    both partitions are rectangles with coprime widths.  BudgetExceededError
    is raised, by the conjugate kernel, for a pair wider than ``MAX_COLUMNS``
    columns, and passes through from the reducer when the column vector's
    search table would be too large.
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
    if 0 in vec:
        columns = frozenset({vec.index(0) + 1})
    else:
        outcome = _decide(vec)
        if isinstance(outcome, Irreducible):
            return KostkaIrreducible(
                outcome.alpha1,
                outcome.beta1,
                kp.lam.rectangle(),
                kp.mu.rectangle(),
                outcome.basis,
            )
        columns = outcome.part  # zero-free: positions are columns
    sides = _sides(kp, columns)
    if sides is None:
        raise RuntimeError(
            f"internal error: columns {sorted(columns)} do not split {kp.format()}"
        )
    return ColumnSplit(columns, sides)
