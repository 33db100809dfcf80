"""Corpus generation, fast subset kernels and lemma predicates for the
exhaustive sweeps.

The property suite walks every generalized Catalan list with small width and
bounded entries.  Corpus sizes reach the half-million range, so generation
and the per-list all-subsets check run vectorised in numpy, one step at a
time across all rows of a width; everything else calls the library
directly.  The kernels are cross-checked against a plain recursive
enumeration and the library's own subset enumeration in the test suite.

The predicates below state the lemmas of the greedy reordering (order
transfer, restriction transfer, the phase invariants) as checks that return
a bool, so a sweep can count their failures under ``python -O`` as well.
The phases they check are read straight from their definitions
(:func:`definitional_phases`).
"""
from __future__ import annotations

import itertools

import numpy as np

from gdp.catalan import is_generalized_catalan, sublist
from gdp.kostka import KostkaPair, Partition, dominates
from gdp.oracle import _catalan_sets, partitions_of


def all_catalan_subsets(xs) -> list[tuple[int, ...]]:
    """Every position set (including the empty one) whose sublist is
    generalized Catalan, in lexicographic order: the oracle's scan, which
    refuses a list wider than ``oracle.MAX_WIDTH``."""
    return [(), *_catalan_sets(xs)]


def count_catalan_lists(t: int, lo: int = -3, hi: int = 3) -> int:
    """Number of Catalan lists of width t with nonzero entries in [lo, hi],
    by dynamic programming over prefix sums (no list is materialized)."""
    dp = {0: 1}
    for step in range(t):
        rem = t - step - 1
        nxt: dict[int, int] = {}
        for s, c in dp.items():
            for e in range(lo, hi + 1):
                if e == 0:
                    continue
                s2 = s + e
                if s2 < 0 or s2 > -lo * rem:
                    continue
                nxt[s2] = nxt.get(s2, 0) + c
        dp = nxt
    return dp.get(0, 0)


def _catalan_rows(t: int, lo: int, hi: int) -> np.ndarray:
    """All Catalan lists of width t, built one step at a time: each prefix
    is tried with every candidate entry in ascending order, and a step is
    dropped when its prefix sum goes negative or can no longer return to
    zero.  Parents stay in order and children follow their parent, so the
    rows come out in lexicographic order."""
    cands = np.array([e for e in range(lo, hi + 1) if e != 0], dtype=np.int64)
    rows = np.zeros((1, 0), dtype=np.int64)
    sums = np.zeros(1, dtype=np.int64)
    for q in range(t):
        s2 = (sums[:, None] + cands).ravel()
        keep = np.flatnonzero((s2 >= 0) & (s2 <= -lo * (t - q - 1)))
        parent, pick = np.divmod(keep, len(cands))
        rows = np.column_stack((rows[parent], cands[pick]))
        sums = s2[keep]
    return rows


def catalan_corpus(max_t: int = 10, lo: int = -3, hi: int = 3):
    """Every Catalan list with width 2..max_t and entries in [lo, hi], as a
    dict mapping width to an int64 array of shape (count, width).

    Rows come out in lexicographic entry order; the generator must agree with
    the counting DP exactly, which doubles as a generator self-check.
    """
    corpus = {}
    for t in range(2, max_t + 1):
        expected = count_catalan_lists(t, lo, hi)
        if expected == 0:
            continue
        arr = _catalan_rows(t, lo, hi)
        if len(arr) != expected:
            raise AssertionError(
                f"generator produced {len(arr)} lists at width {t}, DP says {expected}"
            )
        corpus[t] = arr
    return corpus


# Rows per chunk of the subset kernel.  Over the width 2-10 corpus, chunks of
# 2,000 rows took about a third less time than chunks of 20,000 (2-core x86
# host, numpy 2.4): the smaller frontier stays in cache.
_CHUNK_ROWS = 2_000


def restriction_transfer_sweep(entries, perms):
    """Exhaustive restriction-transfer check over a batch of lists.

    ``entries[n]`` is an original list and ``perms[n]`` its greedy
    reordering as 0-based positions.  For every subset of reordering steps
    whose chosen-prefix sums stay nonnegative and end at zero (a Catalan
    subset of the reordered list), the mapped original positions must carry
    a Catalan sublist as well.

    Returns (violations, catalan_subsets_seen); the second count includes
    the empty subset once per list, matching the library enumeration.

    The Catalan subsets are grown as a frontier of states (row, chosen
    original positions as a bitmask, running sum), one reordered step at a
    time.  A state is dropped once its sum is negative, or larger than the
    negative steps still ahead can bring back to zero, so only Catalan
    subsets survive the last step.  Their original-order prefix sums are
    then checked in one vectorised pass, ``_CHUNK_ROWS`` rows at a time.
    """
    n_rows, t = entries.shape
    if t > 63:
        raise ValueError(f"width {t} does not fit a 64-bit position mask")
    bad = 0
    total = 0
    for first in range(0, n_rows, _CHUNK_ROWS):
        e = entries[first : first + _CHUNK_ROWS]
        pm = perms[first : first + _CHUNK_ROWS]
        w = np.take_along_axis(e, pm, axis=1)
        bit = np.left_shift(1, pm)
        # reach[:, h]: how far the reordered steps h.. can lower a sum
        reach = np.zeros((len(e), t + 1), dtype=np.int64)
        reach[:, :t] = np.cumsum(np.maximum(-w, 0)[:, ::-1], axis=1)[:, ::-1]

        row = np.arange(len(e))
        mask = np.zeros(len(e), dtype=np.int64)
        ssum = np.zeros(len(e), dtype=np.int64)
        for h in range(t):
            limit = reach[:, h + 1][row]
            took = ssum + w[:, h][row]
            skip = ssum <= limit
            take = (took >= 0) & (took <= limit)
            row, mask, ssum = (
                np.concatenate((row[skip], row[take])),
                np.concatenate((mask[skip], mask[take] | bit[:, h][row[take]])),
                np.concatenate((ssum[skip], took[take])),
            )
        total += len(row)  # reach[:, t] is zero, so every survivor ends at zero
        running = np.zeros(len(row), dtype=np.int64)
        ok = np.ones(len(row), dtype=bool)
        for pos in range(t):
            running += ((mask >> pos) & 1) * e[:, pos][row]
            ok &= running >= 0
        bad += int(np.count_nonzero(~ok))
    return bad, total


def dominance_pairs(max_size, rows, r=None):
    """Every dominance pair of size 1..max_size in at most ``rows`` rows, by
    size, then lambda, then mu, each in ``partitions_of`` order; ``r`` is
    the pairs' row bound, by default the larger of the two lengths.  Kept
    apart from ``oracle._dominance_pairs``, which the tests check against
    it."""
    for n in range(1, max_size + 1):
        shapes = [Partition(p) for p in partitions_of(n, rows)]
        for lam, mu in itertools.product(shapes, repeat=2):
            if dominates(lam, mu):
                yield KostkaPair(lam, mu, r)


def random_kostka_pairs(rng, count, max_size, max_rows, require=None):
    """Random valid pairs: draw a row bound and size, then a dominating pair
    of shapes, optionally filtered by ``require``."""
    pairs = []
    while len(pairs) < count:
        r = rng.randint(1, max_rows)
        n = rng.randint(1, max_size)
        shapes = [Partition(p) for p in partitions_of(n, r)]
        lam = rng.choice(shapes)
        mu = rng.choice([m for m in shapes if dominates(lam, m)])
        kp = KostkaPair(lam, mu, r)
        if require is None or require(kp):
            pairs.append(kp)
    return pairs


def random_catalan(t: int, rng, lo: int = -3, hi: int = 3) -> tuple[int, ...]:
    """A random Catalan list of width t: each step draws uniformly from the
    nonzero entries that keep the prefix nonnegative and the ending at zero
    reachable.  Every width >= 2 admits at least one choice at every step."""
    if t < 2:
        raise ValueError("no Catalan list of width below 2 exists")
    vals = []
    s = 0
    for q in range(t):
        rem = t - q - 1
        cands = []
        for e in range(lo, hi + 1):
            if e == 0:
                continue
            s2 = s + e
            if s2 < 0 or s2 > -lo * rem:
                continue
            if rem == 1 and s2 == 0:
                continue  # the final step could only be zero
            cands.append(e)
        e = rng.choice(cands)
        s += e
        vals.append(e)
    if s != 0:
        raise AssertionError(f"random list {vals} ends at {s}, not 0")
    return tuple(vals)


def _bounded_parts(rng, total, n, cap):
    """n random parts in [1, cap], one of them cap, summing to total, for
    cap + n - 1 <= total <= cap * n; each part draws from what keeps the
    rest reachable."""
    parts = [cap] + [1] * (n - 1)
    rest = total - cap - (n - 1)
    for i in range(1, n):
        add = rng.randint(max(0, rest - (cap - 1) * (n - 1 - i)), min(cap - 1, rest))
        parts[i] += add
        rest -= add
    rng.shuffle(parts)
    return parts


def random_single_peak(rng, max_width: int) -> tuple[int, ...]:
    """A random single-peak list with cost = width, of width 2..max_width:
    draw the run maxima alpha + beta = t and the up-run length, then an
    up-run and a down-run with those maxima and one common sum."""
    while True:
        t = rng.randint(2, max_width)
        alpha, n_up = rng.randint(1, t - 1), rng.randint(1, t - 1)
        beta, n_down = t - alpha, t - n_up
        lo = max(alpha + n_up - 1, beta + n_down - 1)
        hi = min(alpha * n_up, beta * n_down)
        if lo <= hi:
            total = rng.randint(lo, hi)
            ups = _bounded_parts(rng, total, n_up, alpha)
            downs = _bounded_parts(rng, total, n_down, beta)
            return tuple(ups) + tuple(-v for v in downs)


def reference_sigma(entries):
    """Literal transcription of the current-sum greedy rule on a zero-sum
    list: step 1 takes position 1, and each later step scans for the least
    unused negative position while the running sum is nonnegative, else the
    least unused positive position.  Returns the positions in visiting
    order."""
    t = len(entries)
    used = [False] * (t + 1)
    order = [1]
    used[1] = True
    running = entries[0]
    for _ in range(t - 1):
        wanted_negative = running >= 0
        nxt = next(
            i
            for i in range(1, t + 1)
            if not used[i] and (entries[i - 1] < 0) == wanted_negative
        )
        used[nxt] = True
        order.append(nxt)
        running += entries[nxt - 1]
    return tuple(order)


def check_order_transfer(xs, p) -> bool:
    """Check the three order-transfer clauses of the greedy reordering.

    For original positions i < j the permutation must visit i before j when
    (I) both entries are positive, (II) both are negative, or (III) the
    earlier one is negative and the later one positive.  It returns True for
    every valid greedy reordering.
    """
    entries = xs.entries
    # negs_before[k] = number of negative entries among the first k positions
    negs_before = [0] * (len(entries) + 1)
    for k, e in enumerate(entries):
        negs_before[k + 1] = negs_before[k] + (1 if e < 0 else 0)
    last_pos = last_neg = 0
    negs_seen = 0
    for pos in p.one_line:
        if entries[pos - 1] > 0:
            if pos < last_pos:
                return False  # clause I
            last_pos = pos
            if negs_seen < negs_before[pos - 1]:
                return False  # clause III: an earlier negative is still unused
        else:
            if pos < last_neg:
                return False  # clause II
            last_neg = pos
            negs_seen += 1
    return True


def restrict_through(xs, p, steps) -> frozenset[int]:
    """Map a set of step indices with Catalan reordered sublist back to
    original positions.

    Requires the reordered list restricted to ``steps`` to be generalized
    Catalan (ValueError otherwise); the returned original positions then
    carry a generalized Catalan sublist of ``xs`` as well.
    """
    chosen = frozenset(steps)
    if not is_generalized_catalan(sublist(p.reordered, chosen)):
        raise ValueError(
            "the reordered list restricted to the given steps is not generalized Catalan"
        )
    return frozenset(p.one_line[h - 1] for h in chosen)


def phase_invariants_ok(xs, p, prof) -> bool:
    """Structural checks on the phases of ``p = build_pi(xs)``, for
    ``prof = run_profile(xs)``, as :func:`definitional_phases` reads them.

    The up-phases tile [t] and the down-phases tile {0} + [t-1]; the counts
    satisfy u_1 + ... + u_y + d_1 + ... + d_y = t; and inside up-phase i
    (down-phase j) the walk after each negative step (before each positive
    step) stays in [0, alpha_i) (in [0, beta_j)).
    """
    t = len(xs)
    entries = xs.entries
    _, _, up_phases, down_phases, u_counts, d_counts = definitional_phases(p, prof)
    walk = (0,) + p.running_sums  # walk[h]: running sum after h steps
    up = [h for lo, hi in up_phases for h in range(lo, hi + 1)]
    if up != list(range(1, t + 1)):
        return False
    down = [h for lo, hi in down_phases for h in range(lo, hi + 1)]
    if down != list(range(0, t)):
        return False
    if sum(u_counts) + sum(d_counts) != t:
        return False
    for (lo, hi), alpha in zip(up_phases, prof.alphas, strict=True):
        for h in range(lo, hi + 1):
            if entries[p.one_line[h - 1] - 1] < 0 and not 0 <= walk[h] < alpha:
                return False
    for (lo, hi), beta in zip(down_phases, prof.betas, strict=True):
        for h in range(lo, hi + 1):
            if entries[p.one_line[h] - 1] > 0 and not 0 <= walk[h] < beta:
                return False
    return True


def definitional_phases(p, prof):
    """The phases of the greedy reordering ``p = build_pi(xs)``, for
    ``prof = run_profile(xs)``, straight from the definitions: the tuples
    (gammas, deltas, up_phases, down_phases, u_counts, d_counts).  gamma_i
    is the least step over up-run i's positions and delta_j the greatest
    step over down-run j's; the windows, inclusive (lo, hi) ranges, follow
    the reducer's module docstring; u_i counts the negative steps of
    up-phase i, and d_j the positive steps that follow a step of down-phase
    j.  The one phase reference of the tests: ``reducer._phase_window``
    reads the same windows off the run endpoints instead."""
    t = len(p.one_line)
    step_of = {pos: step for step, pos in enumerate(p.one_line, 1)}
    runs = [range(lo, hi + 1) for _, lo, hi in prof.runs]
    gammas = tuple(min(step_of[q] for q in run) for run in runs[0::2])
    deltas = tuple(max(step_of[q] for q in run) for run in runs[1::2])
    y = len(gammas)
    up = tuple((gammas[i], gammas[i + 1] - 1 if i + 1 < y else t) for i in range(y))
    down = tuple((deltas[j - 1] if j else 0, deltas[j] - 1) for j in range(y))
    steps = p.reordered.entries
    u = tuple(sum(steps[h - 1] < 0 for h in range(lo, hi + 1)) for lo, hi in up)
    d = tuple(sum(steps[h] > 0 for h in range(lo, hi + 1)) for lo, hi in down)
    return gammas, deltas, up, down, u, d
