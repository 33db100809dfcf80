"""Constructive decomposition of generalized Catalan lists.

A list is *reducible* when its positions split into two nonempty parts whose
sublists are both generalized Catalan.  Writing ``cost`` for the sum of the
per-run maxima and ``width`` for the length, the decision procedure is:

  * cost < width: always reducible; a witness comes out of a pigeonhole
    argument over the phases of the greedy reordering (:func:`_phase_split`).
  * cost = width, more than one peak: always reducible; when no phase
    overflows, the same pigeonhole fires over the first up-phase with step 0
    counted in, so a return to zero is one of its collisions
    (:func:`_phase_split`).
  * cost = width, single peak: reducible unless every entry is the up-run
    maximum or the negated down-run maximum and those maxima are coprime;
    the constructive search sorts the up-run, walks it greedily and pigeonholes
    the running sums from step 0 (:func:`_single_peak`).
  * cost > width: no structural criterion; a search over (position, chosen
    prefix sum) settles it in O(t * H) for width t and largest prefix sum H
    (:func:`_search`).  Its first-block rule answers a list whose prefix sums
    return to zero before position t with the block {1..q0} up to that
    return, the witness the search would find, without building a table;
    the table-size guard still comes first.

Phases: with gamma_i the first step visiting up-run i and delta_j the last
step visiting down-run j, the i-th up-phase is [gamma_i, gamma_{i+1}) (the
last one ends at t) and the j-th down-phase is [delta_{j-1}, delta_j) (the
first one starts at 0).  Up-phases tile [t]; down-phases tile {0} + [t-1].
Counting negative steps per up-phase (u_i) and positive follow-ups per
down-phase (d_j) gives u_1 + ... + u_y + d_1 + ... + d_y = t, which forces a
phase to overflow its run maximum whenever cost < width.  The deciders
read the phases off the finished greedy walk one at a time, and stop at the
first that settles the pigeonhole (:func:`_phase_window`).

One private core, :func:`_decide`, runs the run kernel ``catalan._runs``
once, names the regime and passes the entries, runs and run maxima to that
regime's private path, which walks ``staircase._greedy_order`` or, for a
single peak, its own values; so no decider builds a record but its
outcome, and a decomposition is built from the decider's own frozenset of
positions with no copy (``catalan._unchecked_decomposition``).
:func:`reduce` validates the list, decides it and checks the outcome by
code that also runs under ``python -O`` (a failed check raises
RuntimeError): a decomposition by the witness kernel ``catalan._splits``
on that same set, or the grounds of a certificate
(:func:`_check_certificate`).
``kostka.common_reduce`` calls :func:`_decide` and
:func:`_check_certificate`.
"""
from __future__ import annotations

import math
from itertools import accumulate

from .catalan import (
    BudgetExceededError,
    Decomposition,
    SignedList,
    _decimal,
    _runs,
    _splits,
    _unchecked_decomposition,
    _Value,
    require_catalan,
)
from .staircase import _greedy_order

# The cost > width search keeps one table: a bitset of at most H + 1 bits for
# each of the t positions; wider tables are refused before any is built.
MAX_SEARCH_BITS = 1 << 26


class Irreducible(_Value):
    """Certificate that no decomposition exists, and its grounds.

    ``basis`` is ``"coprime"`` for the single-peak equality case: all entries
    are either ``alpha1`` or ``-beta1`` with gcd(alpha1, beta1) = 1.  It is
    ``"search"`` when the cost > width search found no decomposition; the
    fields then simply record the first-run maxima of the input.
    """

    __slots__ = ("alpha1", "beta1", "basis")
    alpha1: int
    beta1: int
    basis: str


ReduceOutcome = Decomposition | Irreducible


def _lex_least_equal_pair(keyed):
    """Lexicographically least (h1, h2), h1 < h2, with equal keys.

    ``keyed`` is an iterable of (h, key) with strictly increasing h.  A
    caller that also cuts at a return to zero starts it with step 0,
    ``(0, 0)``: a return to zero is then a collision with step 0, and the
    least pair is ``(0, h)`` at the first zero when there is one, else the
    least collision.  Every caller holds a pigeonhole argument that two keys
    are equal, so finding none is an internal error.
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


def _phase_window(order, runs, alphas, betas):
    """The window that :func:`_phase_split` pigeonholes, read off the
    visiting order of ``staircase._greedy_order`` given the list's runs and
    run maxima: the first up-phase with u_i > alpha_i; else the first
    down-phase with d_j > beta_j; else the first up-phase from step 0.

    It is ``(lo, hi, side)``: step h of lo..hi counts when the walk's
    running sums have ``sums[h] < sums[h + side]``, that is when step h is
    negative (side -1) or step h + 1 positive (side 1); step 0 always
    counts.

    gamma_i, the first step visiting up-run i, is the step of the run's
    first position, and delta_j, the last step visiting down-run j, that of
    the run's last position: the greedy reordering keeps positives in order
    and negatives in order (order transfer), so no other position of a run
    is visited earlier, or later.  Likewise the steps that a phase does not
    count are exactly its run's entries, so each count is the window's
    length less its run's.
    """
    t, y = len(order), len(alphas)
    # ``order.index`` finds gamma_{i+1} - 1 and delta_j - 1, each resuming
    # at the previous bound: O(t) for all phases of one side.
    lo = 1  # gamma_1: step 1 visits position 1
    for i, alpha in enumerate(alphas):
        _, a, b = runs[2 * i]
        hi = order.index(runs[2 * i + 2][1], lo) if i + 1 < y else t
        if hi - lo - (b - a) > alpha:
            return lo, hi, -1
        if not i:
            first_hi = hi
        lo = hi + 1
    lo = 0
    for (_, a, b), beta in zip(runs[1::2], betas):
        hi = order.index(b, lo)
        if hi - lo - (b - a) > beta:
            return lo, hi, 1
        lo = hi + 1
    return 0, first_hi, -1


def _phase_split(entries, runs, alphas, betas):
    """Witness for cost < width, where the counting identity forces an
    overfull phase, or for cost = width with more than one peak.

    Walks the list greedily (``staircase._greedy_order``) and takes the
    window of :func:`_phase_window`: the first overfull up-phase, else the
    first overfull down-phase, else the first up-phase with step 0 counted
    in.  An overfull phase has more steps of the counted sign than values
    its running sums can take, so two collide.  When every phase is exactly
    full, the u_1 = alpha_1 negative steps of the first up-phase and step 0
    give alpha_1 + 1 running sums in [0, alpha_1), so two collide.  The walk
    reaches 0 only on a negative step, so a return to zero is a collision
    with step 0 and, being the least pair, wins.  The cut is proper because
    the first up-phase ends before step t when there is a second up-run.
    Steps h1+1..h2 of the least pair (h1, h2) carry the part.
    """
    order, sums = _greedy_order(entries)
    lo, hi, side = _phase_window(order, runs, alphas, betas)
    keyed = [(h, sums[h]) for h in range(lo, hi + 1)
             if sums[h] < sums[h + side] or not h]
    h1, h2 = _lex_least_equal_pair(keyed)
    return _unchecked_decomposition(frozenset(order[h1:h2]))


def _y1_zero_multiset(ups, downs):
    """A proper nonempty zero-sum value multiset of a single-peak list.

    ``ups`` are the up-run values (some strictly below their maximum) and
    ``downs`` the down-run values in order.  Walks the values greedily: the
    smallest up value first, then the next down value while the running sum
    is nonnegative, else the next up value in ascending order.  The running
    sums M_0 = 0, M_1, ..., M_{t-1} take t values over t - 1 possible ones,
    so two collide.  Returns the values of the steps between the least pair,
    which starts at step 0 when the walk returns to zero.
    """
    up, down = iter(sorted(ups)), iter(downs)
    steps = [next(up)]
    running = steps[0]
    for _ in range(len(ups) + len(downs) - 2):  # steps 2 .. t - 1
        steps.append(next(down if running >= 0 else up))
        running += steps[-1]
    q1, q2 = _lex_least_equal_pair(enumerate(accumulate(steps, initial=0)))
    return steps[q1:q2]


def _leftmost_positions(entries, values):
    """Positions realizing a multiset of values, given in any order,
    leftmost occurrences first."""
    need = {}
    for v in values:
        need[v] = need.get(v, 0) + 1
    part = set()
    for pos, e in enumerate(entries, 1):
        if need.get(e, 0) > 0:
            need[e] -= 1
            part.add(pos)
    return frozenset(part)


def _single_peak(entries, runs, alphas, betas):
    """Witness or certificate for cost = width with one peak.

    Any sublist of a single-peak list keeps all positives before all
    negatives, so being generalized Catalan is the same as having zero sum;
    decompositions are therefore value multisets and position choices inside
    each run are free (leftmost occurrences are used).
    """
    k = runs[0][2]  # the up-run is positions 1..k, the down-run the rest
    ups, downs = entries[:k], entries[k:]
    alpha, beta = alphas[0], betas[0]

    if any(v < alpha for v in ups):
        values = _y1_zero_multiset(ups, downs)
    elif any(v > -beta for v in downs):
        # Mirror the list (reverse and negate): its up-run is the negated
        # down-run, whose minimum is now below the maximum.
        mirror_ups = [-v for v in reversed(downs)]
        mirror_downs = [-v for v in reversed(ups)]
        values = [-v for v in _y1_zero_multiset(mirror_ups, mirror_downs)]
    else:
        # All entries are alpha or -beta; cost = width then forces exactly
        # beta positive and alpha negative entries.
        g = math.gcd(alpha, beta)
        if g == 1:
            return Irreducible(alpha, beta, "coprime")
        values = [alpha] * (beta // g) + [-beta] * (alpha // g)

    return _unchecked_decomposition(_leftmost_positions(entries, values))


def _search(entries, runs, alphas, betas):
    """Lexicographically least decomposition of a list, or a certificate
    that there is none; the same witness as ``oracle.reducible_bruteforce``.
    The first-run maxima go into the certificate.

    A list whose prefix sums return to zero before position t splits off
    its first block {1..q0}: the forward walk would take each of those
    positions, since stopping at q0 completes a part that leaves a position
    out, and break at q0.  Otherwise a proper nonempty position set splits
    the list exactly when its running sums s_q satisfy 0 <= s_q <= S_q at
    every q and s_t = 0, where S_q are the list's prefix sums.  Going
    backward, bit s of ``reach_gap[q]`` says that some choice among
    positions q+1..t that leaves a position out completes a part whose sum
    after q is s.  Three facts keep this to one table of few operations:

      * A completion that leaves no position out takes all of q+1..t, so
        its sum after q is S_q: the completions of any kind from q are
        ``reach_gap[q] | 1 << S_q``, and no second table is kept.
      * The bits of ``reach_gap[q]`` lie in 0..S_q.  Before a negative step
        S_{q-1} > S_q, so no shifted bit escapes 0..S_{q-1} and no mask is
        needed; before a positive step the shift drops the bits below zero
        and only the skip term, whose top bit S_q exceeds S_{q-1}, is masked.
      * Every split has a side holding position 1; it leaves a position
        out, since the other side is not empty, and it comes first in
        lexicographic order.  So the list is irreducible exactly when
        ``reach_gap[1]`` lacks bit x_1, and otherwise the witness holds
        position 1.

    Going forward from position 1, each position is taken whenever a
    completion remains: one that leaves a position out, or, once a position
    was left out, any.  The walk stops at the first return to zero.
    """
    t = len(entries)
    sums = list(accumulate(entries, initial=0))
    height = max(sums)
    if t * (height + 1) > MAX_SEARCH_BITS:
        raise BudgetExceededError(
            f"the search table for width {t} and height {_decimal(height)} exceeds "
            f"{MAX_SEARCH_BITS} bits"
        )
    q0 = sums.index(0, 1)
    if q0 < t:
        return _unchecked_decomposition(frozenset(range(1, q0 + 1)))
    reach_gap = [0] * (t + 1)
    gap = 0
    for q in range(t, 1, -1):
        x = entries[q - 1]
        if x > 0:
            gap = (gap >> x) | (gap & ((2 << sums[q - 1]) - 1))
        else:
            gap = (gap << -x) | gap | 1 << sums[q]
        reach_gap[q - 1] = gap

    s = entries[0]
    if not gap >> s & 1:  # gap is reach_gap[1]
        return Irreducible(alphas[0], betas[0], "search")
    part, left_out = [1], False
    for q in range(2, t + 1):
        if s == 0:
            break
        v = s + entries[q - 1]
        if v >= 0 and (reach_gap[q] >> v & 1 or left_out and v == sums[q]):
            part.append(q)
            s = v
        else:
            left_out = True
    return _unchecked_decomposition(frozenset(part))


def _decide(entries):
    """Unchecked outcome of the private path for the nonzero entries of a
    nonempty generalized Catalan list.  The one place that names the regime:
    cost < width; cost = width with several peaks (up-runs); cost = width
    with one peak; or cost > width."""
    runs, alphas, betas = _runs(entries)
    c, w = sum(alphas) + sum(betas), len(entries)
    if c < w:
        path = _phase_split
    elif c > w:
        path = _search
    elif len(alphas) > 1:
        path = _phase_split
    else:
        path = _single_peak
    return path(entries, runs, alphas, betas)


def _check_certificate(entries, cert: Irreducible, subject, of: str = "") -> Irreducible:
    """``cert`` when the irreducibility certificate for the entries tuple
    states grounds that hold, else RuntimeError naming the certificate and
    ``of`` followed by ``subject.format()``.  ``"coprime"`` is checked in
    O(t): the list must be alpha1 taken beta1 times, then -beta1 taken
    alpha1 times, with gcd(alpha1, beta1) = 1.  So it has one up-run and one
    down-run, every positive entry is alpha1 and every negative one -beta1,
    and cost equals width: by the paper's theorem such a list is
    irreducible.  The fields are tested positive and summing to t first, so
    no longer list is built.  ``"search"`` is taken as given."""
    a, b = cert.alpha1, cert.beta1
    if cert.basis == "search" or (
        cert.basis == "coprime"
        and a > 0
        and b > 0
        and a + b == len(entries)
        and math.gcd(a, b) == 1
        and entries == (a,) * b + (-b,) * a
    ):
        return cert
    raise RuntimeError(
        f"internal error: the decider gave {cert} for {of}{subject.format()}, "
        "and its grounds do not hold"
    )


def reduce(xs: SignedList) -> ReduceOutcome:
    """Decide reducibility of a nonempty generalized Catalan list.

    Validates the list once, dispatches on the regime (:func:`_decide`) and
    checks the outcome by code that also runs under ``python -O``
    (RuntimeError when it fails): a decomposition by the witness kernel
    ``catalan._splits``, which :func:`is_valid_decomposition` also calls,
    on the decider's own set of positions, so an empty part or a position
    outside [t] fails the check; a certificate by
    :func:`_check_certificate`.  The cost > width regime has no structural
    criterion and is settled by a search in O(t * H) time and bits, for
    width t and largest prefix sum H; BudgetExceededError is raised, before
    the table is built, when t * (H + 1) exceeds ``MAX_SEARCH_BITS``.
    """
    require_catalan(xs)
    outcome = _decide(xs.entries)
    if isinstance(outcome, Irreducible):
        return _check_certificate(xs.entries, outcome, xs)
    if _splits(xs.entries, outcome.part):
        return outcome
    raise RuntimeError(
        f"internal error: the decider gave {outcome} for {xs.format()}, "
        "which is not a valid decomposition"
    )
