"""Greedy reorderings of a signed list that keep bookkeeping for splitting.

Two closely related constructions are provided, both bijections of [t]
written in one-line notation:

``build_pi``
    Walks the list taking the next unused negative entry whenever the running
    sum would stay nonnegative, otherwise the next unused positive entry.
    The reordered list is always generalized Catalan, and the reordering
    preserves relative order among positives, among negatives, and never
    moves a positive entry ahead of an earlier negative one (the three
    order-transfer clauses).

``build_sigma``
    Same greedy flavour but the branch looks at the current running sum
    rather than ahead: take the next negative entry while the running sum is
    nonnegative, otherwise the next positive one.  Defined for any list with
    zero total; the running sums may go negative.  Used for the single-peak
    equality case of the reducer.
"""
from __future__ import annotations

from dataclasses import dataclass

from .catalan import SignedList, require_catalan


@dataclass(frozen=True, slots=True)
class GreedyPermutation:
    """A bijection of [t] in one-line notation plus the reordered list.

    ``one_line[q-1]`` is the original 1-based position visited at step q;
    ``running_sums[q-1]`` is the sum of the first q reordered entries.
    """

    one_line: tuple[int, ...]
    reordered: SignedList
    running_sums: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.one_line)

    def one_line_text(self) -> str:
        return "(" + " ".join(str(p) for p in self.one_line) + ")"


def _signed_positions(entries):
    negs = [i for i, e in enumerate(entries) if e < 0]
    poss = [i for i, e in enumerate(entries) if e > 0]
    return negs, poss


def build_pi(xs: SignedList) -> GreedyPermutation:
    """Greedy reordering of a generalized Catalan list.

    Step 1 takes position 1.  Each later step takes the least unused
    negative position if adding its entry keeps the running sum nonnegative
    (and one exists), else the least unused positive position.  The result
    reorders the list into another generalized Catalan list.

    Raises ValueError unless the input is nonempty and generalized Catalan.
    """
    require_catalan(xs)
    return _greedy_pi(xs)


def _greedy_pi(xs: SignedList) -> GreedyPermutation:
    """:func:`build_pi` on a list already known to be nonempty and Catalan."""
    entries = xs.entries
    t = len(entries)
    negs, poss = _signed_positions(entries)
    one_line = [1]
    running = entries[0]
    sums = [running]
    ni, pi = 0, 1  # position 1 is poss[0] since a Catalan list starts positive
    for _ in range(t - 1):
        if ni < len(negs) and running + entries[negs[ni]] >= 0:
            nxt = negs[ni]
            ni += 1
        else:
            nxt = poss[pi]
            pi += 1
        running += entries[nxt]
        one_line.append(nxt + 1)
        sums.append(running)
    reordered = SignedList(tuple(entries[p - 1] for p in one_line))
    return GreedyPermutation(tuple(one_line), reordered, tuple(sums))


def build_sigma(xs: SignedList) -> GreedyPermutation:
    """Greedy reordering of any zero-sum list, branching on the current sum.

    Step 1 takes position 1.  Each later step takes the least unused
    negative position when the running sum so far is nonnegative, else the
    least unused positive position.  Zero total guarantees the wanted side
    is never exhausted.  Raises ValueError on empty or nonzero-sum input.
    """
    entries = xs.entries
    t = len(entries)
    if t == 0:
        raise ValueError("cannot reorder an empty list")
    if sum(entries) != 0:
        raise ValueError("input list must have zero total sum")
    negs, poss = _signed_positions(entries)
    ni, pi = 0, 0
    if entries[0] > 0:
        pi = 1
    else:
        ni = 1
    one_line = [1]
    running = entries[0]
    sums = [running]
    for _ in range(t - 1):
        if running >= 0:
            nxt = negs[ni]
            ni += 1
        else:
            nxt = poss[pi]
            pi += 1
        running += entries[nxt]
        one_line.append(nxt + 1)
        sums.append(running)
    reordered = SignedList(tuple(entries[p - 1] for p in one_line))
    return GreedyPermutation(tuple(one_line), reordered, tuple(sums))
