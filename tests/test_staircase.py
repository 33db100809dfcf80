import random

import pytest

from gdp.catalan import SignedList, is_generalized_catalan, sublist
from gdp.staircase import GreedyPermutation, build_pi

from conftest import EX12
from sweeps import (
    all_catalan_subsets,
    check_order_transfer,
    random_catalan,
    restrict_through,
)

EX12_ONE_LINE = (1, 5, 2, 6, 7, 3, 8, 4, 9, 10, 11, 15, 12, 16, 17, 13, 18, 14, 19)
EX12_REORDERED = (5, -3, 5, -3, -3, 4, -3, 4, -3, -1, 5, -4, 5, -4, -4, 5, -4, 3, -4)


def reference_pi(entries):
    """Literal transcription of the greedy rule: at each step scan for the
    least unused negative position, take it when the running sum stays
    nonnegative, else the least unused positive position."""
    t = len(entries)
    used = [False] * (t + 1)
    order = [1]
    used[1] = True
    running = entries[0]
    for _ in range(t - 1):
        s = next(
            (i for i in range(1, t + 1) if not used[i] and entries[i - 1] < 0), None
        )
        if s is not None and running + entries[s - 1] >= 0:
            nxt = s
        else:
            nxt = next(i for i in range(1, t + 1) if not used[i] and entries[i - 1] > 0)
        used[nxt] = True
        order.append(nxt)
        running += entries[nxt - 1]
    return tuple(order)


def reference_order_transfer(entries, one_line):
    inv = {pos: q for q, pos in enumerate(one_line, 1)}
    t = len(entries)
    for i in range(1, t + 1):
        for j in range(i + 1, t + 1):
            ei, ej = entries[i - 1], entries[j - 1]
            same_sign = (ei > 0 and ej > 0) or (ei < 0 and ej < 0)
            if (same_sign or (ei < 0 < ej)) and not inv[i] < inv[j]:
                return False
    return True


class TestBuildPi:
    def test_golden_example(self):
        p = build_pi(SignedList(EX12))
        assert p.one_line == EX12_ONE_LINE
        assert p.reordered.entries == EX12_REORDERED
        assert p.one_line_text() == "(1 5 2 6 7 3 8 4 9 10 11 15 12 16 17 13 18 14 19)"
        assert len(p) == len(EX12)

    def test_forced_pair(self):
        assert build_pi(SignedList((1, -1))).one_line == (1, 2)

    def test_hand_traced_example(self):
        p = build_pi(SignedList((3, 1, -2, -2)))
        assert p.one_line == reference_pi((3, 1, -2, -2)) == (1, 3, 2, 4)
        assert p.reordered.entries == (3, -2, 1, -2)

    def test_rejects_non_catalan(self):
        with pytest.raises(ValueError):
            build_pi(SignedList((1, -1, -1, 1)))
        with pytest.raises(ValueError):
            build_pi(SignedList(()))

    def test_matches_reference_on_random_lists(self):
        rng = random.Random(101)
        for _ in range(400):
            entries = random_catalan(rng.randint(2, 12), rng)
            xs = SignedList(entries)
            p = build_pi(xs)
            assert p.one_line == reference_pi(entries)
            assert p.one_line[0] == 1
            assert sorted(p.one_line) == list(range(1, len(entries) + 1))
            assert is_generalized_catalan(p.reordered)
            assert p.running_sums == tuple(
                sum(p.reordered.entries[:q]) for q in range(1, len(entries) + 1)
            )


class TestOrderTransfer:
    def test_golden_example(self):
        xs = SignedList(EX12)
        assert check_order_transfer(xs, build_pi(xs))

    def test_small_examples(self):
        for entries in ((1, -1), (3, 1, -2, -2)):
            xs = SignedList(entries)
            assert check_order_transfer(xs, build_pi(xs))

    def test_agrees_with_pairwise_reference(self):
        rng = random.Random(303)
        for _ in range(300):
            entries = random_catalan(rng.randint(2, 10), rng)
            xs = SignedList(entries)
            p = build_pi(xs)
            assert check_order_transfer(xs, p)
            assert reference_order_transfer(entries, p.one_line)

    def test_detects_violations(self):
        # Corrupt the permutation by swapping two steps and compare against
        # the pairwise reference on every corruption.
        rng = random.Random(404)
        for _ in range(100):
            entries = random_catalan(rng.randint(3, 9), rng)
            xs = SignedList(entries)
            p = build_pi(xs)
            order = list(p.one_line)
            i, j = rng.sample(range(len(order)), 2)
            order[i], order[j] = order[j], order[i]
            corrupted = GreedyPermutation(
                tuple(order),
                SignedList(tuple(entries[q - 1] for q in order)),
                p.running_sums,
            )
            assert check_order_transfer(xs, corrupted) == reference_order_transfer(
                entries, tuple(order)
            )


class TestRestrictThrough:
    def test_golden_example(self):
        xs = SignedList(EX12)
        p = build_pi(xs)
        t_set = {3, 4, 6, 9, 10, 11, 12, 13, 14, 15}
        image = restrict_through(xs, p, t_set)
        assert image == {2, 3, 6, 9, 10, 11, 12, 15, 16, 17}
        assert sublist(xs, image).entries == (5, 4, -3, -3, -1, 5, 5, -4, -4, -4)

    def test_full_set_is_identity(self):
        xs = SignedList(EX12)
        p = build_pi(xs)
        assert restrict_through(xs, p, range(1, 20)) == set(range(1, 20))

    def test_rejects_non_catalan_restriction(self):
        xs = SignedList((3, 1, -2, -2))
        p = build_pi(xs)
        with pytest.raises(ValueError):
            restrict_through(xs, p, {1, 2})  # reordered sublist (3,-2) has sum 1

    def test_transfer_on_enumerated_subsets(self):
        rng = random.Random(505)
        for _ in range(60):
            entries = random_catalan(rng.randint(2, 9), rng)
            xs = SignedList(entries)
            p = build_pi(xs)
            for t_set in all_catalan_subsets(p.reordered):
                if not t_set:
                    continue
                image = restrict_through(xs, p, t_set)
                assert is_generalized_catalan(sublist(xs, image))
