"""The greedy reordering of a generalized Catalan list, a bijection of [t]
written in one-line notation.

``build_pi`` walks the list taking the next unused negative entry whenever
the running sum would stay nonnegative, otherwise the next unused positive
entry.  The reordered list is always generalized Catalan, and the
reordering preserves relative order among positives, among negatives, and
never moves a positive entry ahead of an earlier negative one (the three
order-transfer clauses).  Its private kernel, ``_greedy_order``, serves the
reducer's phase split.
"""
from __future__ import annotations

from operator import sub

from .catalan import SignedList, _Value, require_catalan


class GreedyPermutation(_Value):
    """A bijection of [t] in one-line notation plus the reordered list.

    ``one_line[q-1]`` is the original 1-based position visited at step q;
    ``running_sums[q-1]`` is the sum of the first q reordered entries.
    """

    __slots__ = ("one_line", "reordered", "running_sums")
    one_line: tuple[int, ...]
    reordered: SignedList
    running_sums: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.one_line)

    def one_line_text(self) -> str:
        return "(" + " ".join(str(p) for p in self.one_line) + ")"


def build_pi(xs: SignedList) -> GreedyPermutation:
    """Greedy reordering of a generalized Catalan list.

    Step 1 takes position 1.  Each later step takes the least unused
    negative position if adding its entry keeps the running sum nonnegative
    (and one exists), else the least unused positive position.  The result
    reorders the list into another generalized Catalan list.

    Raises ValueError unless the input is nonempty and generalized Catalan.
    """
    require_catalan(xs)
    order, sums = _greedy_order(xs.entries)
    running_sums = tuple(sums[1:])
    steps = tuple(map(sub, running_sums, sums))  # step h: sums[h] - sums[h - 1]
    return GreedyPermutation(tuple(order), SignedList(steps), running_sums)


def _greedy_order(entries):
    """The greedy walk of :func:`build_pi` over entries already known to be
    nonempty and Catalan: the positions, 1-based, in visiting order, and
    the running sums, ``sums[h]`` after h steps (``sums[0] = 0``).

    No step finds the negatives used up: once they are, the running sum is
    nonnegative and the total is zero, so no positive is left either.
    """
    negs = [pos for pos, e in enumerate(entries, 1) if e < 0]
    poss = [pos for pos, e in enumerate(entries, 1) if e > 0]
    ext = (0,) + entries  # ext[pos]: the entry at 1-based position pos
    order = [1]  # position 1 is poss[0] since a Catalan list starts positive
    sums = [0, entries[0]]
    running = entries[0]
    ni, pi = 0, 1
    for _ in range(len(entries) - 1):
        nxt = negs[ni]
        if running + ext[nxt] >= 0:
            ni += 1
        else:
            nxt = poss[pi]
            pi += 1
        running += ext[nxt]
        order.append(nxt)
        sums.append(running)
    return order, sums
