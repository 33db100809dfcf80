"""Computations made apart from gdp, used to check its answers.

Nothing here imports gdp.  Lists are plain tuples of ints; partitions are
weakly decreasing tuples of positive ints; positions and columns are 1-based.
"""
from __future__ import annotations

import math


def is_catalan(values) -> bool:
    """Zero total and no negative prefix sum."""
    s = 0
    for v in values:
        s += v
        if s < 0:
            return False
    return s == 0


def cost(values) -> int:
    """Sum over the maximal constant-sign runs of each run's largest |entry|."""
    total = 0
    peak = 0
    prev_up = None
    for v in values:
        up = v > 0
        if up != prev_up:
            total += peak
            peak = 0
            prev_up = up
        peak = max(peak, abs(v))
    return total + peak


def is_primitive(values) -> bool:
    """No prefix sum returns to zero before the end."""
    s = 0
    for v in values[:-1]:
        s += v
        if s == 0:
            return False
    return True


def ref_reducible(values) -> bool:
    """Exact decider: does some proper nonempty set of positions split the list?

    With S_q the list's prefix sums and s_q the sum of the chosen entries up
    to q, the chosen sublist has prefix sums s_q and the rest S_q - s_q, so a
    set is a decomposition exactly when 0 <= s_q <= S_q for every q and
    s_t = 0.  The pass keeps, for each combination of the flags "something
    chosen" and "something left out", the reachable values of s_q as the
    bits of a Python int.  The list must be generalized Catalan.
    """
    none, chosen, left, both = 1, 0, 0, 0
    total = 0
    for x in values:
        total += x
        if total < 0:
            raise ValueError("not a generalized Catalan list")
        mask = (1 << (total + 1)) - 1
        if x > 0:
            t_none, t_chosen, t_left, t_both = none << x, chosen << x, left << x, both << x
        else:
            t_none, t_chosen, t_left, t_both = none >> -x, chosen >> -x, left >> -x, both >> -x
        none, chosen, left, both = (
            0,
            (t_none | t_chosen) & mask,
            (none | left) & mask,
            (t_left | t_both | chosen | both) & mask,
        )
    if total != 0:
        raise ValueError("not a generalized Catalan list")
    return bool(both & 1)


def part_error(values, part) -> str | None:
    """Why ``part`` is not a decomposition of ``values``, or None if it is.

    Recomputes the prefix sums of both sublists."""
    t = len(values)
    chosen = set(part)
    if len(chosen) != len(part):
        return "repeated position"
    if not chosen or len(chosen) >= t:
        return "part is empty or the whole list"
    if any(not (isinstance(p, int) and 1 <= p <= t) for p in chosen):
        return "position out of range"
    inside = [v for q, v in enumerate(values, 1) if q in chosen]
    outside = [v for q, v in enumerate(values, 1) if q not in chosen]
    if not is_catalan(inside):
        return "part is not generalized Catalan"
    if not is_catalan(outside):
        return "rest is not generalized Catalan"
    return None


def conjugate(parts) -> tuple[int, ...]:
    """Transpose of a Young diagram."""
    if not parts:
        return ()
    return tuple(sum(1 for v in parts if v >= j) for j in range(1, parts[0] + 1))


def dominates(a, b) -> bool:
    """Equal sizes and every prefix sum of ``a`` at least that of ``b``."""
    if sum(a) != sum(b):
        return False
    sa = sb = 0
    for i in range(max(len(a), len(b))):
        sa += a[i] if i < len(a) else 0
        sb += b[i] if i < len(b) else 0
        if sa < sb:
            return False
    return True


def column_vector(lam, mu) -> tuple[int, ...]:
    """mu'_j - lambda'_j for j in 1..lambda_1."""
    n = lam[0]
    lc = conjugate(lam)
    mc = conjugate(mu) + (0,) * n
    return tuple(mc[j] - lc[j] for j in range(n))


def restrict(parts, columns) -> tuple[int, ...]:
    """The partition formed by the given columns of a Young diagram."""
    rows = tuple(sum(1 for c in columns if c <= v) for v in parts)
    return tuple(v for v in rows if v)


def is_rectangle(parts) -> bool:
    return bool(parts) and all(v == parts[0] for v in parts)


def split_error(lam, mu, columns, left=None, right=None) -> str | None:
    """Why ``columns`` is not a column split of (lam, mu), or None if it is.

    Rebuilds both restricted pairs and checks their sizes and dominance.
    When ``left`` and ``right`` are given as (lambda, mu) tuples they must
    equal the rebuilt pairs."""
    n = lam[0]
    cols = set(columns)
    if len(cols) != len(columns):
        return "repeated column"
    if any(not (isinstance(c, int) and 1 <= c <= n) for c in cols):
        return "column out of range"
    if not cols or len(cols) >= n:
        return "column set is empty or every column"
    rest = set(range(1, n + 1)) - cols
    rebuilt = []
    for side in (cols, rest):
        side_lam, side_mu = restrict(lam, side), restrict(mu, side)
        if sum(side_lam) == 0 or sum(side_lam) != sum(side_mu):
            return "restricted pair is empty or of unequal sizes"
        if not dominates(side_lam, side_mu):
            return "restricted pair breaks dominance"
        rebuilt.append((side_lam, side_mu))
    if left is not None and (tuple(left[0]), tuple(left[1])) != rebuilt[0]:
        return "returned part differs from the rebuilt one"
    if right is not None and (tuple(right[0]), tuple(right[1])) != rebuilt[1]:
        return "returned rest differs from the rebuilt one"
    return None


def kostka_certificate_error(lam, mu) -> str | None:
    """Why (lam, mu) is not irreducible, or None if no column split exists.

    Runs the reference decider on the column vector and checks the Width
    Bound property: if lambda_1 >= length(mu), both partitions are
    rectangles with coprime widths."""
    n = lam[0]
    if n > 1:
        vec = column_vector(lam, mu)
        if 0 in vec:
            return "a zero column splits the pair"
        if ref_reducible(vec):
            return "the column vector is reducible"
    if n >= len(mu):
        if not (is_rectangle(lam) and is_rectangle(mu)):
            return "irreducible with lambda_1 >= length(mu) but not two rectangles"
        if math.gcd(lam[0], mu[0]) != 1:
            return "irreducible rectangles whose widths are not coprime"
    return None
