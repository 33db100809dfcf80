"""Constructive decomposition of generalized Catalan lists.

A list is *reducible* when its positions split into two nonempty parts whose
sublists are both generalized Catalan.  Writing ``cost`` for the sum of the
per-run maxima and ``width`` for the length, the decision procedure is:

  * cost < width: always reducible; a witness comes out of a pigeonhole
    argument over the phases of the greedy reordering (:func:`reduce_strict`).
  * cost = width, more than one peak: always reducible; either the reordered
    walk returns to zero inside the first up-phase, or the same pigeonhole
    fires (:func:`reduce_equality`).
  * cost = width, single peak: reducible unless every entry is the up-run
    maximum or the negated down-run maximum and those maxima are coprime;
    the constructive search sorts the up-run, walks it greedily and pigeonholes
    the running sums (:func:`reduce_y1`).
  * cost > width: no structural criterion; a search over (position, chosen
    prefix sum) settles it in O(t * H) for width t and largest prefix sum H
    (:func:`reduce`).

Phases: with gamma_i the first step visiting up-run i and delta_j the last
step visiting down-run j, the i-th up-phase is [gamma_i, gamma_{i+1}) (the
last one ends at t) and the j-th down-phase is [delta_{j-1}, delta_j) (the
first one starts at 0).  Up-phases tile [t]; down-phases tile {0} + [t-1].
Counting negative steps per up-phase (u_i) and positive follow-ups per
down-phase (d_j) gives u_1 + ... + u_y + d_1 + ... + d_y = t, which forces a
phase to overflow its run maximum whenever cost < width.

Each public decider validates its input and builds the run profile once,
then passes both to one private path per regime.  Every decomposition is
checked before it is returned, by code that also runs under ``python -O``;
a failed check raises RuntimeError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Union

from .catalan import (
    BudgetExceededError,
    Decomposition,
    RunProfile,
    SignedList,
    is_valid_decomposition,
    require_catalan,
    run_profile,
)
from .staircase import GreedyPermutation, _greedy_pi, build_sigma

# The cost > width search keeps two bitsets of at most H + 1 bits for each of
# the t positions; wider tables are refused before any is built.
MAX_SEARCH_BITS = 1 << 26


@dataclass(frozen=True, slots=True)
class Irreducible:
    """Certificate that no decomposition exists, and its grounds.

    ``basis`` is ``"coprime"`` for the single-peak equality case: all entries
    are either ``alpha1`` or ``-beta1`` with gcd(alpha1, beta1) = 1.  It is
    ``"search"`` when the cost > width search found no decomposition; the
    fields then simply record the first-run maxima of the input.
    """

    alpha1: int
    beta1: int
    basis: str


ReduceOutcome = Union[Decomposition, Irreducible]


@dataclass(frozen=True, slots=True)
class PhaseProfile:
    """Phase windows of the greedy reordering and their step counts.

    ``up_phases``/``down_phases`` are inclusive (lo, hi) ranges; see the
    module docstring for the definitions and the counting identity.
    """

    gammas: tuple[int, ...]
    deltas: tuple[int, ...]
    up_phases: tuple[tuple[int, int], ...]
    down_phases: tuple[tuple[int, int], ...]
    u_counts: tuple[int, ...]
    d_counts: tuple[int, ...]


def phase_profile(p: GreedyPermutation, prof: RunProfile) -> PhaseProfile:
    """Compute the phase windows and counts for ``p = build_pi(xs)``, given
    ``prof = run_profile(xs)``."""
    t = len(p)
    y = prof.y
    step_of = [0] * t  # step_of[pos - 1]: the step that visits position pos
    for step, pos in enumerate(p.one_line, 1):
        step_of[pos - 1] = step
    # gamma_i: first step visiting up-run i; delta_j: last step visiting down-run j
    gammas = [min(step_of[lo - 1 : hi]) for sign, lo, hi in prof.runs if sign > 0]
    deltas = [max(step_of[lo - 1 : hi]) for sign, lo, hi in prof.runs if sign < 0]
    up_phases = [
        (gammas[i], gammas[i + 1] - 1 if i + 1 < y else t) for i in range(y)
    ]
    down_phases = [
        (deltas[j - 1] if j > 0 else 0, deltas[j] - 1) for j in range(y)
    ]
    # negs[h]: negative steps among steps 1..h
    negs = list(accumulate((e < 0 for e in p.reordered.entries), initial=0))
    return PhaseProfile(
        gammas=tuple(gammas),
        deltas=tuple(deltas),
        up_phases=tuple(up_phases),
        down_phases=tuple(down_phases),
        u_counts=tuple(negs[hi] - negs[lo - 1] for lo, hi in up_phases),
        # positive steps among lo+1..hi+1, the follow-ups of steps lo..hi
        d_counts=tuple(
            hi - lo + 1 - (negs[hi + 1] - negs[lo]) for lo, hi in down_phases
        ),
    )


def _lex_least_equal_pair(keyed):
    """Lexicographically least (h1, h2), h1 < h2, with equal keys.

    ``keyed`` is an iterable of (h, key) with strictly increasing h.  Every
    caller holds a pigeonhole argument that two keys are equal, so finding
    none is an internal error.
    """
    first = {}
    best = None
    for h, k in keyed:
        if k in first:
            cand = (first[k], h)
            if best is None or cand < best:
                best = cand
        else:
            first[k] = h
    if best is None:
        raise RuntimeError("internal error: the pigeonhole found no equal pair")
    return best


def _walk(p, h):
    return 0 if h == 0 else p.running_sums[h - 1]


def _split_between(p, h1, h2):
    """Part carried by steps h1+1..h2 of the reordering, as original positions."""
    return Decomposition(frozenset(p.one_line[h1:h2]))


def _overfull_phase_split(p, prof, phases):
    """Pigeonhole split from the first phase exceeding its run maximum."""
    steps = p.reordered.entries
    for i, (lo, hi) in enumerate(phases.up_phases):
        if phases.u_counts[i] > prof.alphas[i]:
            pair = _lex_least_equal_pair(
                (h, _walk(p, h)) for h in range(lo, hi + 1) if steps[h - 1] < 0
            )
            return _split_between(p, *pair)
    for j, (lo, hi) in enumerate(phases.down_phases):
        if phases.d_counts[j] > prof.betas[j]:
            pair = _lex_least_equal_pair(
                (h, _walk(p, h)) for h in range(lo, hi + 1) if steps[h] > 0
            )
            return _split_between(p, *pair)
    return None


def _checked(xs, outcome):
    """Return a decider's outcome after a check that also runs under
    ``python -O``: anything but an irreducibility certificate must be a
    valid decomposition."""
    if isinstance(outcome, Irreducible):
        return outcome
    if outcome is None or not is_valid_decomposition(xs, outcome.part):
        raise RuntimeError(
            f"internal error: the decider gave {outcome} for {xs.format()}, "
            "which is not a valid decomposition"
        )
    return outcome


def _catalan_profile(xs):
    """Validate a decider's input once and analyse its runs."""
    require_catalan(xs)
    return run_profile(xs)


def _phase_split(xs, prof):
    """Witness for cost < width, where the counting identity forces an
    overfull phase, or for cost = width with more than one peak."""
    p = _greedy_pi(xs)
    phases = phase_profile(p, prof)
    d = _overfull_phase_split(p, prof, phases)
    if d is not None:
        return d
    # Every phase is exactly full.  If the reordered walk returns to zero
    # inside the first up-phase, cut there; the cut is proper because the
    # first up-phase ends before step t when there is a second up-run.
    lo, hi = phases.up_phases[0]
    for h in range(lo, hi + 1):
        if _walk(p, h) == 0:
            return _split_between(p, 0, h)
    # Otherwise the u_1 = alpha_1 negative steps of the first up-phase have
    # running sums inside (0, alpha_1): one value short, so two collide.
    steps = p.reordered.entries
    pair = _lex_least_equal_pair(
        (h, _walk(p, h)) for h in range(lo, hi + 1) if steps[h - 1] < 0
    )
    return _split_between(p, *pair)


def reduce_strict(xs: SignedList) -> Decomposition:
    """Decompose a generalized Catalan list with cost < width."""
    prof = _catalan_profile(xs)
    if prof.cost >= len(xs):
        raise ValueError("cost must be strictly less than width")
    return _checked(xs, _phase_split(xs, prof))


def reduce_equality(xs: SignedList) -> Decomposition:
    """Decompose a generalized Catalan list with cost = width and > 1 peak."""
    prof = _catalan_profile(xs)
    if prof.cost != len(xs):
        raise ValueError("cost must equal width")
    if prof.y <= 1:
        raise ValueError("the list must have more than one up-run")
    return _checked(xs, _phase_split(xs, prof))


def _y1_zero_multisets(ups, downs):
    """Find a proper nonempty zero-sum value multiset of a single-peak list.

    ``ups`` are the up-run values (some strictly below their maximum) and
    ``downs`` the down-run values in order.  Sorts the up-run ascending,
    reorders greedily, and splits either at a zero running sum or at the
    first repeated running sum.  Returns (positive values, negative values).
    """
    arranged = SignedList(tuple(sorted(ups)) + tuple(downs))
    t = len(arranged)
    sig = build_sigma(arranged)
    sums = sig.running_sums
    chosen = None
    for q in range(1, t):  # running sums M_1 .. M_{t-1}
        if sums[q - 1] == 0:
            chosen = [arranged.entries[pos - 1] for pos in sig.one_line[:q]]
            break
    if chosen is None:
        # t-1 sums over t-2 possible values must collide.
        q1, q2 = _lex_least_equal_pair((q, sums[q - 1]) for q in range(1, t))
        chosen = [arranged.entries[pos - 1] for pos in sig.one_line[q1:q2]]
    return [v for v in chosen if v > 0], [v for v in chosen if v < 0]


def _leftmost_positions(xs, values):
    """Positions realizing a multiset of values, leftmost occurrences first."""
    need = {}
    for v in values:
        need[v] = need.get(v, 0) + 1
    part = set()
    for pos, e in enumerate(xs.entries, 1):
        if need.get(e, 0) > 0:
            need[e] -= 1
            part.add(pos)
    return frozenset(part)


def _single_peak(xs, prof):
    """Witness or certificate for cost = width with one peak (see
    :func:`reduce_y1`)."""
    entries = xs.entries
    ups = [entries[pos - 1] for pos in prof.up_runs[0]]
    downs = [entries[pos - 1] for pos in prof.down_runs[0]]
    alpha, beta = prof.alphas[0], prof.betas[0]

    if any(v < alpha for v in ups):
        pos_vals, neg_vals = _y1_zero_multisets(ups, downs)
    elif any(v > -beta for v in downs):
        # Mirror the list (reverse and negate): its up-run is the negated
        # down-run, whose minimum is now below the maximum.
        mirror_ups = [-v for v in reversed(downs)]
        mirror_downs = [-v for v in reversed(ups)]
        mirror_pos, mirror_neg = _y1_zero_multisets(mirror_ups, mirror_downs)
        pos_vals = [-v for v in mirror_neg]
        neg_vals = [-v for v in mirror_pos]
    else:
        # All entries are alpha or -beta; cost = width then forces exactly
        # beta positive and alpha negative entries.
        g = math.gcd(alpha, beta)
        if g == 1:
            return Irreducible(alpha, beta, "coprime")
        pos_vals = [alpha] * (beta // g)
        neg_vals = [-beta] * (alpha // g)

    return Decomposition(_leftmost_positions(xs, pos_vals + neg_vals))


def reduce_y1(xs: SignedList) -> ReduceOutcome:
    """Decide a generalized Catalan list with cost = width and a single peak.

    Any sublist of a single-peak list keeps all positives before all
    negatives, so being generalized Catalan is the same as having zero sum;
    decompositions are therefore value multisets and position choices inside
    each run are free (leftmost occurrences are used).
    """
    prof = _catalan_profile(xs)
    if prof.cost != len(xs):
        raise ValueError("cost must equal width")
    if prof.y != 1:
        raise ValueError("the list must have exactly one up-run")
    return _checked(xs, _single_peak(xs, prof))


def _search(xs, prof):
    """Lexicographically least decomposition of a list, or a certificate
    that there is none; the same witness as ``oracle.reducible_bruteforce``.

    A proper nonempty position set splits the list exactly when its running
    sums s_q satisfy 0 <= s_q <= S_q at every q and s_t = 0, where S_q are
    the list's prefix sums.  Going backward, bit s of ``reach[q]`` says that
    some choice among positions q+1..t completes a part whose sum after q is
    s, and bit s of ``reach_gap[q]`` that some such choice leaves a position
    out.  Going forward, each position is taken whenever a completion
    remains, and the walk stops at the first return to zero.
    """
    entries = xs.entries
    t = len(entries)
    sums = list(accumulate(entries, initial=0))
    height = max(sums)
    if t * (height + 1) > MAX_SEARCH_BITS:
        raise BudgetExceededError(
            f"the search table for width {t} and height {height} exceeds "
            f"{MAX_SEARCH_BITS} bits"
        )
    reach = [0] * (t + 1)
    reach_gap = [0] * (t + 1)
    reach[t] = 1
    for q in range(t, 1, -1):
        x, done, gap = entries[q - 1], reach[q], reach_gap[q]
        took, took_gap = (done >> x, gap >> x) if x > 0 else (done << -x, gap << -x)
        keep = (2 << sums[q - 1]) - 1  # sums 0..S_{q-1}
        reach[q - 1] = (took | done) & keep
        reach_gap[q - 1] = (took_gap | done) & keep

    part, s, left_out = [], 0, False
    for q, x in enumerate(entries, 1):
        if part and s == 0:
            break
        if s + x >= 0 and (reach if left_out else reach_gap)[q] >> (s + x) & 1:
            part.append(q)
            s += x
        else:
            left_out = True
    if part:
        return Decomposition(frozenset(part))
    return Irreducible(prof.alphas[0], prof.betas[0], "search")


def reduce(xs: SignedList) -> ReduceOutcome:
    """Decide reducibility of a nonempty generalized Catalan list.

    Dispatches on cost versus width.  The cost > width regime has no
    structural criterion and is settled by a search in O(t * H) time and
    bits, for width t and largest prefix sum H; BudgetExceededError is
    raised, before any table is built, when t * (H + 1) exceeds
    ``MAX_SEARCH_BITS``.
    """
    prof = _catalan_profile(xs)
    c, w = prof.cost, len(xs)
    if c < w:
        return _checked(xs, _phase_split(xs, prof))
    if c == w:
        decide = _phase_split if prof.y > 1 else _single_peak
        return _checked(xs, decide(xs, prof))
    return _checked(xs, _search(xs, prof))
