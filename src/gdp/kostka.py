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
set C: a conjugate takes O(lambda_1 + l); the column vector's blocks take
O(l) (:func:`_column_blocks`), so a zero column is found without building
anything of size lambda_1; restricting to C, and so checking a column split,
takes O((|C| + l) log |C|) and does not depend on lambda_1; a pair is
validated with one sum and one prefix-sum pass per partition.  Only
:func:`_expand` builds data of size lambda_1, and it is the one home of the
``MAX_COLUMNS`` guard: ``column_vector`` expands the column vector's
blocks, ``conjugate`` those of (lambda, empty) negated, and
``common_reduce`` those of a zero-free pair only.
``Partition.parse`` reads text by the token rule of signed lists,
``catalan.parse_ints``.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from functools import partial
from itertools import accumulate
from operator import ge, sub, index as _as_int

from .catalan import BudgetExceededError, _decimal, _Value, parse_ints
from .reducer import Irreducible, _check_certificate, _decide

MAX_COLUMNS = 2**20  # widest conjugate or column vector that is built


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


def _expand(blocks, width: int) -> tuple[int, ...]:
    """The values of (value, multiplicity) blocks spanning ``width``
    columns, one per column.  The one home of the ``MAX_COLUMNS`` guard: a
    wider span is refused before anything is built."""
    if width > MAX_COLUMNS:
        raise BudgetExceededError(
            f"{_decimal(width)} columns exceed the budget {MAX_COLUMNS}"
        )
    out = []
    for value, count in blocks:
        out += [value] * count
    return tuple(out)


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


def _column_blocks(lam_parts: tuple[int, ...], mu_parts: tuple[int, ...]):
    """The column vector of a pair as (value, multiplicity) blocks, lowest
    columns first, in O(r): one merge over the distinct part values, taken
    from the smallest.  Between consecutive values v < w the columns
    v+1..w each hold the i parts of lambda and the k parts of mu that are at
    least w, so they carry the value k - i.  Needs mu_1 <= lambda_1, which
    dominance gives."""
    blocks = []
    i, k, below = len(lam_parts), len(mu_parts), 0
    while i:
        top = lam_parts[i - 1]
        if k and mu_parts[k - 1] < top:
            top = mu_parts[k - 1]
        blocks.append((k - i, top - below))
        below = top
        while i and lam_parts[i - 1] == top:
            i -= 1
        while k and mu_parts[k - 1] == top:
            k -= 1
    return blocks


def column_vector(kp: KostkaPair) -> tuple[int, ...]:
    """Per-column conjugate differences mu'_j - lambda'_j for j in [lambda_1].

    Sums to zero; all prefix sums are nonnegative (zeros may occur).  The
    expansion of :func:`_column_blocks`, so a pair wider than
    ``MAX_COLUMNS`` columns is refused."""
    return _expand(_column_blocks(kp.lam.parts, kp.mu.parts), kp.lam.first)


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram.  Part j of lambda' counts the parts
    of size at least j: the column vector of the pair (lambda, ()) negated,
    so it expands those blocks; a largest part above ``MAX_COLUMNS`` is
    refused."""
    blocks = _column_blocks(p.parts, ())
    return Partition(_expand([(-v, c) for v, c in blocks], p.first))


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


def _unchecked_pair(lam_parts, mu_parts, r: int) -> KostkaPair:
    """The pair of two part tuples in ``r`` rows, built without a check:
    the caller vouches for it.  Trailing zeros are stripped."""
    new, put = object.__new__, object.__setattr__
    pair = new(KostkaPair)
    for name, parts in (("lam", lam_parts), ("mu", mu_parts)):
        if parts and not parts[-1]:
            parts = parts[: len(parts) - parts.count(0)]
        p = new(Partition)
        put(p, "parts", parts)
        put(pair, name, p)
    put(pair, "r", r)
    return pair


def _sides(kp: KostkaPair, columns) -> tuple[KostkaPair, KostkaPair] | None:
    """The pairs that the columns and the other columns of [lambda_1] form,
    or None when the columns are not a proper nonempty subset of [lambda_1]
    or either side is not a valid pair.

    Every column of [lambda_1] holds a cell of lambda, so neither side of a
    proper nonempty subset is empty; as mu_1 <= lambda_1, the other columns
    hold exactly the cells of each row that the chosen ones leave.  Only
    sizes and dominance are checked, since the rest holds by construction:
    row counts over a sorted column set are weakly decreasing and
    nonnegative when the parts are, and so are the counts of the other
    columns, the ones at most p_i left out; both sides fit in the pair's
    rows; and the other side's sizes are equal once the chosen side's are.
    """
    cols = sorted(set(map(_as_int, columns)))
    n = kp.lam.first
    if not cols or len(cols) >= n or cols[0] < 1 or cols[-1] > n:
        return None
    lam, mu = kp.lam.parts, kp.mu.parts
    lam_in, mu_in = _column_rows(lam, cols), _column_rows(mu, cols)
    lam_out, mu_out = tuple(map(sub, lam, lam_in)), tuple(map(sub, mu, mu_in))
    if not (
        sum(lam_in) == sum(mu_in)
        and _prefix_dominates(lam_in, mu_in)
        and _prefix_dominates(lam_out, mu_out)
    ):
        return None
    return _unchecked_pair(lam_in, mu_in, kp.r), _unchecked_pair(lam_out, mu_out, kp.r)


def split_pair(kp: KostkaPair, columns) -> tuple[KostkaPair, KostkaPair]:
    """Both restricted pairs for a valid column split (ValueError otherwise)."""
    sides = _sides(kp, columns)
    if sides is None:
        raise ValueError("columns do not form a valid split of the pair")
    return sides


def common_reduce(kp: KostkaPair) -> ColumnSplit | KostkaIrreducible:
    """Find a column split of a nonempty pair, or certify none exists.

    A zero column of the column vector splits on its own, and the lowest
    one is found in the vector's blocks (:func:`_column_blocks`), in O(r)
    whatever lambda_1 is.  Otherwise the blocks are expanded into the
    column vector, a zero-free signed list whose decompositions are exactly
    the column splits, and the reducer's core ``_decide`` settles it; the
    pair's dominance check has validated it.  :func:`_sides` builds the
    split's two sides once, as the one check of the split, and the returned
    :class:`ColumnSplit` carries them.  A split always exists when
    lambda_1 > length(mu), and when lambda_1 = length(mu) unless both
    partitions are rectangles with coprime widths; a certificate is checked
    against that, and a ``"coprime"`` one against its grounds in the column
    vector.  RuntimeError is raised when a check fails.  BudgetExceededError
    is raised for a zero-free pair wider than ``MAX_COLUMNS`` columns, and
    passes through from the reducer when the column vector's search table
    would be too large.
    """
    if kp.size < 1:
        raise ValueError("the pair must have at least one cell")
    if kp.lam.first == 1:
        # Single-column pairs (lambda = mu, one column) have no proper
        # nonempty column subset.
        return _checked_irreducible(kp, None, None, "single-column")
    blocks = _column_blocks(kp.lam.parts, kp.mu.parts)
    column = 1
    for value, count in blocks:
        if not value:
            columns = frozenset({column})
            break
        column += count
    else:
        vec = _expand(blocks, kp.lam.first)
        outcome = _decide(vec)
        if isinstance(outcome, Irreducible):
            _check_certificate(vec, outcome, kp, "the column vector of ")
            return _checked_irreducible(kp, outcome.alpha1, outcome.beta1, outcome.basis)
        columns = outcome.part  # zero-free: positions are columns
    sides = _sides(kp, columns)
    if sides is None:
        raise RuntimeError(
            f"internal error: columns {sorted(columns)} do not split {kp.format()}"
        )
    return ColumnSplit(columns, sides)


def _checked_irreducible(kp: KostkaPair, alpha1, beta1, basis: str) -> KostkaIrreducible:
    """The certificate for a pair that no column split was found for, after
    the paper's theorem: when lambda_1 >= length(mu), both partitions must be
    rectangles with coprime widths (RuntimeError otherwise)."""
    lam_rect, mu_rect = kp.lam.rectangle(), kp.mu.rectangle()
    if kp.lam.first >= kp.mu.length and not (
        lam_rect and mu_rect and math.gcd(lam_rect[1], mu_rect[1]) == 1
    ):
        raise RuntimeError(
            f"internal error: {kp.format()} was found irreducible ({basis}), but "
            "lambda_1 >= length(mu) and it is not a pair of coprime rectangles"
        )
    return KostkaIrreducible(alpha1, beta1, lam_rect, mu_rect, basis)
