"""Exhaustive ground-truth engines for small instances.

Everything here trades speed for transparent correctness: plain enumerations
in a fixed deterministic (lexicographic) order, guarded by fixed limits.

The signed-list half scans position sets.  The Kostka half rests on one
partition enumerator, :func:`partitions_of`, and one pair difference: the
brute force looks for a pair q that leaves a valid pair p - q, and the
Hilbert basis keeps a pair when no smaller member does (the subtraction
test, see :func:`enumerate_hilbert_basis`).
"""
from __future__ import annotations

from operator import sub

from .catalan import BudgetExceededError, Decomposition, SignedList, _decimal
from .kostka import KostkaPair, Partition, dominates


# Hard limits for the exhaustive searches: the widest list searched, and the
# largest pair size (also the largest size bound of the Hilbert basis).
MAX_WIDTH = 24
MAX_PAIR_SIZE = 12


def _catalan_sets(xs: SignedList):
    """Every nonempty position set whose sublist is generalized Catalan, as
    an increasing tuple, in lexicographic order.

    Sets whose chosen prefix already dips below zero are skipped along with
    their extensions; that cannot hide one since such a prefix invalidates
    every superset.
    """
    t = len(xs)
    if t > MAX_WIDTH:
        raise BudgetExceededError(f"width {t} exceeds the budget {MAX_WIDTH}")
    entries = xs.entries

    def walk(start, running, chosen):
        for nxt in range(start, t + 1):
            s = running + entries[nxt - 1]
            if s < 0:
                continue
            chosen.append(nxt)
            if s == 0:
                yield tuple(chosen)
            if nxt < t:
                yield from walk(nxt + 1, s, chosen)
            chosen.pop()

    return walk(1, 0, [])


def reducible_bruteforce(xs: SignedList):
    """First valid decomposition in lexicographic order of position sets,
    or None when the list is irreducible.  The complement is checked here,
    so the oracle does not rest on ``catalan.is_valid_decomposition``.
    """
    entries = xs.entries
    t = len(entries)

    def complement_ok(part):
        chosen = set(part)
        s = 0
        for pos, e in enumerate(entries, 1):
            if pos not in chosen:
                s += e
                if s < 0:
                    return False
        return s == 0

    for part in _catalan_sets(xs):
        if len(part) < t and complement_ok(part):
            return Decomposition(frozenset(part))
    return None


def partitions_of(n, max_len):
    """All partitions of n with at most max_len parts, as tuples, in
    decreasing lexicographic order."""
    out = []

    def rec(remaining, bound, length, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        if length == max_len:
            return
        for v in range(min(bound, remaining), 0, -1):
            acc.append(v)
            rec(remaining - v, v, length + 1, acc)
            acc.pop()

    rec(n, n, 0, [])
    return out


def _dominance_pairs(n, rows, r):
    """Every pair of size n whose partitions have at most ``rows`` parts, in
    ``r`` rows, in lexicographic order of (lambda, mu) decreasing."""
    shapes = [Partition(p) for p in partitions_of(n, rows)]
    return [KostkaPair(lam, mu, r) for lam in shapes for mu in shapes if dominates(lam, mu)]


def _minus(a: Partition, b: Partition) -> Partition:
    """Componentwise a - b over the longer of the two part tuples;
    ValueError when that is not a partition."""
    n = max(a.length, b.length)
    return Partition(tuple(map(sub, a.padded(n), b.padded(n))))


def _difference(p: KostkaPair, q: KostkaPair) -> KostkaPair | None:
    """p - q as a pair in ``p.r`` rows, or None when it is not a valid pair."""
    try:
        return KostkaPair(_minus(p.lam, q.lam), _minus(p.mu, q.mu), p.r)
    except ValueError:
        return None


def kostka_reducible_bruteforce(kp: KostkaPair):
    """First componentwise decomposition of the pair into two valid
    nontrivial pairs, or None.

    Unlike a column split, the two summands need not come from a common set
    of columns; this is the weaker notion used for the Hilbert basis.  The
    first summand q runs over the pairs of each size 1..n-1 in turn, in the
    order of :func:`_dominance_pairs` (a summand has no more rows than the
    pair), and the first q that leaves a valid pair p - q is returned with it.
    """
    n = kp.size
    if n > MAX_PAIR_SIZE:
        raise BudgetExceededError(
            f"size {_decimal(n)} exceeds the budget {MAX_PAIR_SIZE}"
        )
    for m in range(1, n):
        for q in _dominance_pairs(m, kp.mu.length, kp.r):
            rest = _difference(kp, q)
            if rest is not None:
                return q, rest
    return None


def enumerate_hilbert_basis(r: int, n_max: int) -> list[KostkaPair]:
    """All componentwise-irreducible pairs in r rows with size up to n_max,
    sorted lexicographically.

    Grounds, the subtraction test: a pair p is reducible exactly when some
    smaller member b leaves a valid pair p - b.  If p = q + q', write q as a
    sum of members that includes b; then p - b = (q - b) + q' is a pair,
    since sums of pairs are pairs.  So sizes go in increasing order and each
    pair is tested against the members found so far.

    Desk-scale only: r is capped at 4 and n_max at ``MAX_PAIR_SIZE``.  A row
    bound below 1 is a ValueError.
    """
    if r < 1:
        raise ValueError(f"row bound {_decimal(r)} is below 1")
    if r > 4:
        raise BudgetExceededError("row bound must be between 1 and 4")
    if n_max > MAX_PAIR_SIZE:
        raise BudgetExceededError(
            f"size bound {_decimal(n_max)} exceeds the budget {MAX_PAIR_SIZE}"
        )
    basis = []
    for n in range(1, n_max + 1):
        # Built in full before it extends the basis: a member of the same
        # size would leave the empty pair.
        basis += [
            p for p in _dominance_pairs(n, r, r)
            if all(_difference(p, b) is None for b in basis)
        ]
    basis.sort(key=lambda kp: (kp.lam.parts, kp.mu.parts))
    return basis
