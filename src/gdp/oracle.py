"""Exhaustive ground-truth engines for small instances.

Everything here trades speed for transparent correctness: plain enumerations
in a fixed deterministic (lexicographic) order, guarded by fixed limits.
"""
from __future__ import annotations

from .catalan import BudgetExceededError, Decomposition, SignedList
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


def all_catalan_subsets(xs: SignedList) -> list[tuple[int, ...]]:
    """Every position set (including the empty one) whose sublist is
    generalized Catalan, in lexicographic order."""
    return [(), *_catalan_sets(xs)]


def _subpartitions(parts):
    """All componentwise-bounded weakly decreasing tuples, lexicographic."""
    out = []

    def rec(i, prev, acc):
        if i == len(parts):
            out.append(tuple(acc))
            return
        for v in range(0, min(parts[i], prev) + 1):
            acc.append(v)
            rec(i + 1, v, acc)
            acc.pop()

    rec(0, parts[0] if parts else 0, [])
    return out


def kostka_reducible_bruteforce(kp: KostkaPair):
    """First componentwise decomposition of the pair into two valid
    nontrivial pairs, or None.

    Unlike a column split, the two summands need not come from a common set
    of columns; this is the weaker notion used for the Hilbert basis.
    """
    n = kp.size
    if n > MAX_PAIR_SIZE:
        raise BudgetExceededError(f"size {n} exceeds the budget {MAX_PAIR_SIZE}")
    lam, mu, r = kp.lam.parts, kp.mu.parts, kp.r

    mu_subs_by_size: dict[int, list[tuple[int, ...]]] = {}
    for ms in _subpartitions(mu):
        rest = tuple(a - b for a, b in zip(mu, ms))
        if any(rest[i] < rest[i + 1] for i in range(len(rest) - 1)):
            continue
        mu_subs_by_size.setdefault(sum(ms), []).append(ms)

    for ls in _subpartitions(lam):
        s = sum(ls)
        if s == 0 or s == n:
            continue
        lam_rest = tuple(a - b for a, b in zip(lam, ls))
        if any(lam_rest[i] < lam_rest[i + 1] for i in range(len(lam_rest) - 1)):
            continue
        for ms in mu_subs_by_size.get(s, ()):
            left_lam, left_mu = Partition(ls), Partition(ms)
            if not dominates(left_lam, left_mu):
                continue
            rest_lam = Partition(lam_rest)
            rest_mu = Partition(tuple(a - b for a, b in zip(mu, ms)))
            if not dominates(rest_lam, rest_mu):
                continue
            return (
                KostkaPair(left_lam, left_mu, r),
                KostkaPair(rest_lam, rest_mu, r),
            )
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


def enumerate_hilbert_basis(r: int, n_max: int) -> list[KostkaPair]:
    """All componentwise-irreducible pairs in r rows with size up to n_max,
    sorted lexicographically.

    Desk-scale only: r is capped at 4 and n_max at ``MAX_PAIR_SIZE``.  A row
    bound below 1 is a ValueError.
    """
    if r < 1:
        raise ValueError(f"row bound {r} is below 1")
    if r > 4:
        raise BudgetExceededError("row bound must be between 1 and 4")
    if n_max > MAX_PAIR_SIZE:
        raise BudgetExceededError(
            f"size bound {n_max} exceeds the budget {MAX_PAIR_SIZE}"
        )
    basis = []
    for n in range(1, n_max + 1):
        shapes = [Partition(p) for p in partitions_of(n, r)]
        for lam in shapes:
            for mu in shapes:
                if not dominates(lam, mu):
                    continue
                pair = KostkaPair(lam, mu, r)
                if kostka_reducible_bruteforce(pair) is None:
                    basis.append(pair)
    basis.sort(key=lambda kp: (kp.lam.parts, kp.mu.parts))
    return basis
