import ast
import os
import random
import subprocess
import sys
import time
from collections import Counter
from itertools import accumulate, product
from math import gcd
from pathlib import Path

import pytest

import gdp
from gdp.catalan import (
    BudgetExceededError,
    Decomposition,
    SignedList,
    _unchecked_decomposition,
    cost,
    is_generalized_catalan,
    is_valid_decomposition,
    run_profile,
    width,
)
from gdp.kostka import column_vector
from gdp.oracle import reducible_bruteforce
from gdp.reducer import (
    Irreducible,
    _phase_window,
    reduce,
)
from gdp.staircase import _greedy_order, build_pi

from conftest import EX12
from sweeps import (
    catalan_corpus,
    definitional_phases,
    dominance_pairs,
    phase_invariants_ok,
    random_catalan,
    random_single_peak,
    reference_sigma,
)


def single_peak_equality_lists():
    """Every single-peak list with cost = width, entries in [-4, 4] and at
    most four entries per run, as tuples: widths are alpha + beta <= 8."""
    lists = []
    for n_up in range(1, 5):
        for n_down in range(1, 5):
            for ups in product(range(1, 5), repeat=n_up):
                for downs in product(range(-4, 0), repeat=n_down):
                    entries = ups + downs
                    if sum(entries) == 0 and cost(SignedList(entries)) == len(entries):
                        lists.append(entries)
    return lists


def sigma_steps(ups, downs):
    """The values of the sorted up-run and the down-run in the order of the
    current-sum greedy walk, ``sweeps.reference_sigma``."""
    entries = tuple(sorted(ups)) + tuple(downs)
    return [entries[pos - 1] for pos in reference_sigma(entries)]


def sigma_cut_values(ups, downs):
    """Values between the least equal pair of running sums M_0 .. M_{t-1}
    of :func:`sigma_steps`."""
    steps = sigma_steps(ups, downs)
    walk = list(accumulate(steps[:-1], initial=0))
    q1, q2 = min(
        (i, j) for j in range(len(walk)) for i in range(j) if walk[i] == walk[j]
    )
    return steps[q1:q2]


def single_peak_reference(entries):
    """The single-peak witness, leftmost positions of its values, or None
    when the entries are the coprime maxima alone."""
    k = next(q for q, e in enumerate(entries) if e < 0)
    ups, downs = entries[:k], entries[k:]
    alpha, beta = max(ups), -min(downs)
    g = gcd(alpha, beta)
    if min(ups) < alpha:
        values = sigma_cut_values(ups, downs)
    elif max(downs) > -beta:
        mirror = tuple(-e for e in reversed(entries))  # up-run: negated downs
        k = len(downs)
        values = [-v for v in sigma_cut_values(mirror[:k], mirror[k:])]
    elif g == 1:
        return None
    else:
        values = [alpha] * (beta // g) + [-beta] * (alpha // g)
    need = Counter(values)
    part = set()
    for pos, e in enumerate(entries, 1):
        if need[e]:
            need[e] -= 1
            part.add(pos)
    return frozenset(part)


def is_phase_split(xs):
    """Whether ``reduce`` decides the list by the phase split: cost < width,
    or cost = width with more than one peak."""
    prof = run_profile(xs)
    return prof.cost < len(xs) or (prof.cost == len(xs) and prof.y > 1)


def reference_window(p, prof):
    """The phase-split window read off the phases' definitions
    (``sweeps.definitional_phases``), for ``p = build_pi(xs)`` and
    ``prof = run_profile(xs)``: ``(lo, hi, -1)`` for the first up-phase
    with u_i > alpha_i; else ``(lo, hi, 1)`` for the first down-phase with
    d_j > beta_j; else the first up-phase from step 0, ``(0, hi, -1)``."""
    _, _, up_phases, down_phases, u_counts, d_counts = definitional_phases(p, prof)
    for (lo, hi), u, alpha in zip(up_phases, u_counts, prof.alphas):
        if u > alpha:
            return lo, hi, -1
    for (lo, hi), d, beta in zip(down_phases, d_counts, prof.betas):
        if d > beta:
            return lo, hi, 1
    return 0, up_phases[0][1], -1


def phase_split_reference(entries):
    """The phase-split witness from the public ``build_pi`` record and the
    phases' definitions alone.

    In the window of :func:`reference_window` an up-phase counts its
    negative steps, and step 0 when it starts there; a down-phase counts the
    steps h followed by a positive step.  The least pair h1 < h2 of counted
    steps with equal running sums, by brute force, gives the positions of
    steps h1+1..h2.
    """
    xs = SignedList(entries)
    p = build_pi(xs)
    lo, hi, side = reference_window(p, run_profile(xs))
    walk = (0,) + p.running_sums
    steps = p.reordered.entries
    if side > 0:
        counted = [h for h in range(lo, hi + 1) if steps[h] > 0]
    else:
        counted = [h for h in range(lo, hi + 1) if h == 0 or steps[h - 1] < 0]
    h1, h2 = min(
        (a, b) for b in counted for a in counted if a < b and walk[a] == walk[b]
    )
    return frozenset(p.one_line[h1:h2])


def phase_split_inputs():
    """Every phase-split list of the width <= 8 corpus, 2,000 random ones of
    width <= 40, and the zero-free column vectors of the phase-split
    dominance pairs of size <= 12 in <= 4 rows."""
    lists = [
        tuple(map(int, row)) for rows in catalan_corpus(8).values() for row in rows
    ]
    rng = random.Random(1919)
    wide = []
    while len(wide) < 2000:
        entries = random_catalan(rng.randint(2, 40), rng)
        if is_phase_split(SignedList(entries)):
            wide.append(entries)
    for kp in dominance_pairs(12, 4):
        vec = column_vector(kp)
        if 0 not in vec:
            lists.append(vec)
    return [e for e in lists if is_phase_split(SignedList(e))] + wide


def test_phase_split_matches_reference():
    lists = phase_split_inputs()
    for entries in lists:
        assert reduce(SignedList(entries)).part == phase_split_reference(entries), entries
    assert len(lists) > 6_900


def search_tables(entries):
    """The prefix sums S_0..S_t and the two tables of the cost > width search,
    each position's bitset kept whole: bit s of ``reach[q]`` says that some
    choice among positions q+1..t completes a part whose sum after q is s,
    with running sums s_r in 0..S_r at every r and s_t = 0; ``reach_gap[q]``
    is the same for choices that leave a position out."""
    t = len(entries)
    sums = list(accumulate(entries, initial=0))
    reach, reach_gap = [0] * (t + 1), [0] * (t + 1)
    reach[t] = 1
    for q in range(t, 0, -1):
        x = entries[q - 1]

        def take(bits):
            return bits >> x if x > 0 else bits << -x

        keep = (2 << sums[q - 1]) - 1  # sums 0..S_{q-1}
        reach[q - 1] = (take(reach[q]) | reach[q]) & keep
        reach_gap[q - 1] = (take(reach_gap[q]) | reach[q]) & keep
    return sums, reach, reach_gap


def search_reference(entries):
    """The lexicographically least part of a list with no early return to
    zero, from the two tables: walking forward, take each position whenever
    a completion remains (one that leaves a position out until a position
    was left out), and stop at the first return to zero; None when no part
    is found."""
    _, reach, reach_gap = search_tables(entries)
    part, s, left_out = [], 0, False
    for q, x in enumerate(entries, 1):
        if part and s == 0:
            break
        if s + x >= 0 and (reach if left_out else reach_gap)[q] >> (s + x) & 1:
            part.append(q)
            s += x
        else:
            left_out = True
    return frozenset(part) or None


def excursion(rng, t, bound):
    """A random list of width t with nonzero entries in [-bound, bound]
    whose prefix sums stay positive until position t, where they are 0."""
    s, entries = 0, []
    for q in range(1, t):
        lo, hi = max(1 - s, -bound), min(bound, bound * (t - q) - s)
        e = 0
        while e == 0:
            e = rng.randint(lo, hi)
        s += e
        entries.append(e)
    return tuple(entries) + (-s,)


def test_search_matches_two_table_reference():
    # Cost > width lists of width 12-40 with entries in [-250, 250], past
    # the oracle's reach: reduce gives the two-table search's witness, and
    # each table of completions of any kind is the gap table plus S_q.
    rng = random.Random(2020)
    lists = []
    while len(lists) < 3000:
        entries = excursion(rng, rng.randint(12, 40), 250)
        if cost(SignedList(entries)) > len(entries):
            lists.append(entries)
    irreducible = 0
    for entries in lists:
        sums, reach, reach_gap = search_tables(entries)
        assert all(r == g | 1 << s for r, g, s in zip(reach, reach_gap, sums)), entries
        part = search_reference(entries)
        xs = SignedList(entries)
        out = reduce(xs)
        if part is None:
            irreducible += 1
            prof = run_profile(xs)
            assert out == Irreducible(prof.alphas[0], prof.betas[0], "search"), entries
        else:
            assert out == Decomposition(part), entries
    assert irreducible > 50


class TestPhaseProfile:
    # The phases of the greedy reordering, read straight from their
    # definitions (sweeps.definitional_phases).
    def test_single_pair(self):
        xs = SignedList((1, -1))
        assert definitional_phases(build_pi(xs), run_profile(xs)) == (
            (1,), (2,), ((1, 2),), ((0, 1),), (1,), (1,)
        )

    def test_hand_traced_example(self):
        xs = SignedList((3, 1, -2, -2))
        gammas, deltas, up, down, u, d = definitional_phases(build_pi(xs), run_profile(xs))
        assert gammas == (1,)
        assert deltas == (4,)
        assert up == ((1, 4),)
        assert down == ((0, 3),)
        assert u == (2,)
        assert d == (2,)
        assert sum(u) + sum(d) == 4

    def test_counting_identity_on_example_list(self):
        xs = SignedList(EX12)
        *_, u, d = definitional_phases(build_pi(xs), run_profile(xs))
        assert sum(u) + sum(d) == 19

    def test_counting_identity_on_random_lists(self):
        rng = random.Random(606)
        for _ in range(300):
            entries = random_catalan(rng.randint(2, 12), rng)
            xs = SignedList(entries)
            *_, u, d = definitional_phases(build_pi(xs), run_profile(xs))
            assert sum(u) + sum(d) == len(entries)

    def test_phase_bounds(self):
        # Phase tiling, counting identity and the in-phase walk bounds.
        rng = random.Random(707)
        for _ in range(200):
            xs = SignedList(random_catalan(rng.randint(2, 12), rng))
            assert phase_invariants_ok(xs, build_pi(xs), run_profile(xs))


class TestReduceStrict:
    def test_example_list(self):
        xs = SignedList(EX12)
        d = reduce(xs)
        assert is_valid_decomposition(xs, d.part)
        assert d.part == {2, 3, 6, 7, 8}  # deterministic pigeonhole choice

    def test_short_list(self):
        xs = SignedList((2, 1, -1, -1, -1))
        d = reduce(xs)
        assert is_valid_decomposition(xs, d.part)
        assert d.part == {2, 5}

    def test_preconditions(self):
        with pytest.raises(ValueError):
            reduce(SignedList((1, -1, 1)))  # not Catalan

    def test_always_valid_on_random_strict_instances(self):
        rng = random.Random(808)
        seen = 0
        while seen < 300:
            entries = random_catalan(rng.randint(2, 14), rng)
            xs = SignedList(entries)
            if cost(xs) >= width(xs):
                continue
            seen += 1
            assert is_valid_decomposition(xs, reduce(xs).part)

    def test_deterministic(self):
        xs = SignedList(EX12)
        assert reduce(xs) == reduce(xs)


class TestReduceEquality:
    def test_alternating(self):
        xs = SignedList((1, -1, 1, -1))
        d = reduce(xs)
        assert is_valid_decomposition(xs, d.part)
        assert d.part == {1, 2}

    def test_two_peaks(self):
        # In the second list every phase is exactly full, and the first
        # up-phase both returns to zero and repeats a running sum.  The
        # return to zero is the least pair; the collision would give {2, 4}.
        for entries, part in (
            ((2, -1, -1, 1, -1), {1, 2, 3}),
            ((1, 2, -1, -2, 1, -1), {1, 3}),
        ):
            xs = SignedList(entries)
            assert is_generalized_catalan(xs)
            assert cost(xs) == width(xs) == len(entries)
            d = reduce(xs)
            assert is_valid_decomposition(xs, d.part)
            assert d.part == part

    def test_always_valid_on_random_equality_instances(self):
        rng = random.Random(909)
        seen = 0
        while seen < 200:
            entries = random_catalan(rng.randint(4, 14), rng)
            xs = SignedList(entries)
            if cost(xs) != width(xs) or run_profile(xs).y <= 1:
                continue
            seen += 1
            assert is_valid_decomposition(xs, reduce(xs).part)


class TestReduceY1:
    def test_irreducible_certificate(self):
        out = reduce(SignedList((2, -1, -1)))
        assert isinstance(out, Irreducible)
        assert (out.alpha1, out.beta1) == (2, 1)
        assert out.basis == "coprime"

    def test_gcd_split(self):
        xs = SignedList((2, 2, -2, -2))
        out = reduce(xs)
        assert isinstance(out, Decomposition)
        assert out.part == {1, 3}
        assert is_valid_decomposition(xs, out.part)

    def test_sorted_walk_split(self):
        # The second list's sorted walk never returns to zero and repeats
        # two running sums: the least pair gives {1, 2, 4}, the last {2, 5}.
        for entries, part in (((2, 1, -1, -2), {2, 3}), ((1, 2, 2, -3, -2), {1, 2, 4})):
            xs = SignedList(entries)
            out = reduce(xs)
            assert isinstance(out, Decomposition)
            assert out.part == part
            assert is_valid_decomposition(xs, out.part)

    def test_mirror_case(self):
        # All up-run entries equal the maximum, down-run is not constant.
        xs = SignedList((3, 3, -3, -1, -1, -1))
        assert cost(xs) == width(xs) == 6
        out = reduce(xs)
        assert isinstance(out, Decomposition)
        assert is_valid_decomposition(xs, out.part)
        assert out.part == {1, 4, 5, 6}

    def test_matches_bruteforce_on_all_small_equality_instances(self):
        # Exhaustive over single-peak equality instances with entries in
        # [-4, 4]: the verdict matches the brute force, and the witness is
        # the one the literal greedy walk gives (see single_peak_reference).
        lists = single_peak_equality_lists()
        for entries in lists:
            xs = SignedList(entries)
            out = reduce(xs)
            witness = reducible_bruteforce(xs)
            reference = single_peak_reference(entries)
            if isinstance(out, Irreducible):
                assert witness is None and reference is None, entries
            else:
                assert is_valid_decomposition(xs, out.part)
                assert witness is not None
                assert out.part == reference, entries
        assert len(lists) > 50

    def test_wide_lists_match_the_reference(self):
        # Random lists of width up to 60, whose run maxima go far past the
        # exhaustive set's 4: the witness is the literal greedy walk's, and
        # a certificate comes where the reference finds no witness.
        rng = random.Random(606)
        for _ in range(300):
            entries = random_single_peak(rng, 60)
            out = reduce(SignedList(entries))
            part = out.part if isinstance(out, Decomposition) else None
            assert part == single_peak_reference(entries), entries

    def test_sigma_running_sum_bounds(self):
        # On a single-peak equality instance whose up-run is sorted so the
        # minimum comes first, the greedy walk stays inside
        # [1 - beta, alpha - 1] unless it returns to zero early.
        checked = 0
        for entries in single_peak_equality_lists():
            k = next(q for q, e in enumerate(entries) if e < 0)
            ups, downs = entries[:k], entries[k:]
            alpha, beta = max(ups), max(-d for d in downs)
            if min(ups) == alpha:
                continue
            sums = tuple(accumulate(sigma_steps(ups, downs)))
            if 0 in sums[: len(entries) - 1]:
                continue
            checked += 1
            assert all(1 - beta <= m <= alpha - 1 for m in sums)
        assert checked > 10

    def test_zero_sum_iff_catalan_for_single_peak_sublists(self):
        rng = random.Random(111)
        for _ in range(200):
            n_up = rng.randint(1, 5)
            ups = sorted((rng.randint(1, 4) for _ in range(n_up)), reverse=True)
            downs = []
            total = sum(ups)
            while total > 0:
                step = rng.randint(1, min(4, total))
                downs.append(-step)
                total -= step
            xs = SignedList(tuple(ups) + tuple(downs))
            t = len(xs)
            part = {p for p in range(1, t + 1) if rng.random() < 0.5}
            from gdp.catalan import sublist

            sub = sublist(xs, part)
            assert is_generalized_catalan(sub) == (sum(sub.entries) == 0)


class TestReduceDispatch:
    def test_example_list(self):
        xs = SignedList(EX12)
        out = reduce(xs)
        assert isinstance(out, Decomposition)
        assert is_valid_decomposition(xs, out.part)

    def test_irreducible(self):
        assert isinstance(reduce(SignedList((2, -1, -1))), Irreducible)

    def test_exhaustive_fallback(self):
        out = reduce(SignedList((4, 4, -3, -3, -2)))
        assert out == Irreducible(4, 3, "search")

    def test_exhaustive_fallback_finds_witness(self):
        # cost 10 > width 6, yet reducible.
        xs = SignedList((3, -3, 3, -3, 1, -1))
        out = reduce(xs)
        assert isinstance(out, Decomposition)
        assert is_valid_decomposition(xs, out.part)

    def test_wide_list_decided(self):
        # Width 26, cost 78: there is no width cut.
        out = reduce(SignedList((3, -3) * 13))
        assert out == Decomposition(frozenset({1, 2}))

    def test_wide_irreducible_list(self):
        # Width 23, cost 49: a zero-sum part needs the -11, and with it the
        # whole list, since 25 and 24 are coprime.
        xs = SignedList((25,) * 11 + (-24,) * 11 + (-11,))
        start = time.perf_counter()
        assert reduce(xs) == Irreducible(25, 24, "search")
        assert time.perf_counter() - start < 0.5

    def test_search_table_guard(self):
        # Width 4 times height 10**26 + 1 is refused before any table is built.
        xs = SignedList((10**26, 1, -1, -(10**26)))
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="search table"):
            reduce(xs)
        assert time.perf_counter() - start < 0.5

    def test_search_table_at_guard_boundary(self):
        # Width 4 and height 2**24 - 1 give t * (H + 1) = 2**26 bits, the
        # limit itself, so the list is searched.  It splits as {1, 4}:
        # position 4 is taken by the completion that leaves none out.
        xs = SignedList((2**24 - 2, 1, -1, -(2**24 - 2)))
        start = time.perf_counter()
        assert reduce(xs) == Decomposition(frozenset({1, 4}))
        assert time.perf_counter() - start < 0.5

    def test_search_table_guard_past_boundary(self):
        # One more unit of height puts t * (H + 1) 4 bits past 2**26.
        xs = SignedList((2**24 - 1, 1, -1, -(2**24 - 1)))
        with pytest.raises(BudgetExceededError, match="search table"):
            reduce(xs)

    def test_search_table_guard_past_the_digit_limit(self):
        # A height of 5,001 digits is past what str() writes out; the
        # refusal gives its order of magnitude instead.
        xs = SignedList((10**5000, -(10**5000)))
        with pytest.raises(BudgetExceededError, match=r"height about 10\^5000 exceeds"):
            reduce(xs)

    def test_search_table_guard_precedes_first_block(self):
        # The prefix sums return to zero at position 2, but the table guard
        # still refuses the list before the search looks for a first block.
        xs = SignedList((10**26, -(10**26), 1, -1))
        with pytest.raises(BudgetExceededError, match="search table"):
            reduce(xs)

    def test_first_block_witness(self):
        # Cost 14 > width 6; the prefix sums first return to zero at 2.
        assert reduce(SignedList((3, -3, 3, -3, 1, -1))) == Decomposition(frozenset({1, 2}))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            reduce(SignedList(()))
        with pytest.raises(ValueError):
            reduce(SignedList((1, 1, -1)))

    def test_trivial_alternating_list_is_reducible(self):
        # Six unit entries: cost equals width with three peaks.
        xs = SignedList((1, -1, 1, -1, 1, -1))
        assert cost(xs) == width(xs) == 6
        out = reduce(xs)
        assert isinstance(out, Decomposition)
        assert is_valid_decomposition(xs, out.part)


def test_deciders_build_no_records(monkeypatch):
    # The deciders walk the private kernels: with the record types swapped
    # for stubs that raise, reduce still decides the exhaustive single-peak
    # set as it does without them, and the width <= 8 corpus.  Before that,
    # on every phase-split list of the corpus and of 2,000 random lists of
    # width <= 40, the decider's walk is build_pi's, and the window that
    # _phase_window reads at the run endpoints is the first overfull phase
    # by the definitions.
    single_peak = [SignedList(e) for e in single_peak_equality_lists()]
    corpus = [
        SignedList(tuple(map(int, row)))
        for rows in catalan_corpus(8).values() for row in rows
    ]
    rng = random.Random(1414)
    wide = [SignedList(random_catalan(rng.randint(2, 40), rng)) for _ in range(2000)]
    for xs in filter(is_phase_split, corpus + wide):
        p, prof = build_pi(xs), run_profile(xs)
        order, sums = _greedy_order(xs.entries)
        assert tuple(order) == p.one_line, xs
        assert tuple(sums) == (0,) + p.running_sums, xs
        window = _phase_window(order, prof.runs, prof.alphas, prof.betas)
        assert window == reference_window(p, prof), xs

    answers = [reduce(xs) for xs in single_peak]

    def refuse(*args, **kwargs):
        raise AssertionError("a decider built a record")

    for target in (
        "gdp.staircase.GreedyPermutation",
        "gdp.staircase.SignedList",
        "gdp.reducer.SignedList",
        "gdp.catalan.RunProfile",
    ):
        monkeypatch.setattr(target, refuse)
    for xs, want in zip(single_peak, answers):
        assert reduce(xs) == want, xs
    for xs in corpus:
        reduce(xs)


# Certificates from a patched decider whose grounds do not hold, each with
# the condition it breaks.
FORGED_CERTIFICATES = [
    ((2, 2, -2, -2), (2, 2, "coprime")),  # gcd(alpha1, beta1) = 2
    ((1, 1, -1, -1), (1, 1, "coprime")),  # cost 2 < width 4
    ((1, -1, 1, -1), (1, 3, "coprime")),  # two up-runs
    ((2, -1, -1), (1, 2, "coprime")),  # entries other than alpha1 and -beta1
    ((2, -1, -1), (2, 1, "guess")),  # no such basis
]


@pytest.mark.parametrize("entries,fields", FORGED_CERTIFICATES)
def test_forged_certificates_raise(monkeypatch, entries, fields):
    monkeypatch.setattr(gdp.reducer, "_decide", lambda *args: Irreducible(*fields))
    with pytest.raises(RuntimeError, match="grounds do not hold"):
        reduce(SignedList(entries))


def test_true_certificates_pass_their_checks():
    assert reduce(SignedList((2, -1, -1))) == Irreducible(2, 1, "coprime")
    assert reduce(SignedList((3, 3, -2, -2, -2))) == Irreducible(3, 2, "coprime")
    assert reduce(SignedList((5, 5, 5, -4, -4, -4, -3))).basis == "search"


def test_rejected_witnesses_raise(monkeypatch):
    # With the witness check made to reject everything, reduce raises rather
    # than return an unchecked decomposition, on every path:
    # 3,-3,3,-3,1,-1 is split by the first-block rule, and 4,3,-3,-4 by the
    # search table.
    monkeypatch.setattr(gdp.reducer, "_splits", lambda entries, part: False)
    for entries in (
        EX12,
        (1, -1, 1, -1),
        (2, 2, -2, -2),
        (3, -3, 3, -3, 1, -1),
        (4, 3, -3, -4),
        (2, 1, -1, -1, -1),
        (2, 1, -1, -2),
    ):
        with pytest.raises(RuntimeError, match="not a valid decomposition") as info:
            reduce(SignedList(entries))
        assert info.type is RuntimeError


# A decider part that is empty, or holds a position outside [t]: the public
# constructor would refuse the first with a ValueError, so the forgery is
# built as the deciders build theirs.
FORGED_PARTS = [frozenset(), frozenset({0, 1})]


@pytest.mark.parametrize("part", FORGED_PARTS, ids=["empty", "zero"])
def test_forged_parts_raise(monkeypatch, part):
    monkeypatch.setattr(gdp.reducer, "_decide", lambda *args: _unchecked_decomposition(part))
    with pytest.raises(RuntimeError, match="not a valid decomposition") as info:
        reduce(SignedList((1, -1, 1, -1)))
    assert info.type is RuntimeError


# Tests that forge a verdict or reject a witness, so that only a check in
# gdp stands between the forgery and the caller.
FORGED_VERDICT_TESTS = [
    "test_reducer.py::test_forged_certificates_raise",
    "test_reducer.py::test_rejected_witnesses_raise",
    "test_reducer.py::test_forged_parts_raise",
    "test_kostka.py::TestCommonReduce::test_certificates_are_checked",
    "test_kostka.py::TestCommonReduce::test_forged_split_raises",
    "test_kostka.py::TestCommonReduce::test_rejected_split_raises",
    "test_cli.py::TestReduce::test_internal_error",
    "test_cli.py::TestReduce::test_forged_part",
    "test_cli.py::TestOracleCommands::test_forged_witness",
]


def test_witness_checks_run_under_optimize():
    # The forged-verdict tests again, in a child under ``python -O``, where
    # gdp's asserts are gone: each check they reach must still refuse.  The
    # child exits at once if asserts are on; pytest exits 4 on a missing test.
    child = (
        "import sys, pytest\n"
        "sys.exit('asserts are on' if __debug__ else pytest.main(sys.argv[1:]))"
    )
    tests = Path(__file__).resolve().parent
    nodes = [str(tests / node) for node in FORGED_VERDICT_TESTS]
    src = str(Path(gdp.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-O", "-c", child, "-q", "-p", "no:cacheprovider", *nodes],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_no_verdict_rests_on_an_assert():
    # python -O drops every assert and every branch on __debug__, so no
    # statement of the package may hold either; the child above only sees
    # the checks that its tests reach.
    found = []
    for path in sorted(Path(gdp.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "__debug__"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
