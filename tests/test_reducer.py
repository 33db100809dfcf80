import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gdp
from gdp.catalan import (
    BudgetExceededError,
    Decomposition,
    SignedList,
    cost,
    is_generalized_catalan,
    is_valid_decomposition,
    run_profile,
    width,
)
from gdp.oracle import reducible_bruteforce
from gdp.reducer import (
    Irreducible,
    phase_profile,
    reduce,
    reduce_equality,
    reduce_strict,
    reduce_y1,
)
from gdp.staircase import build_pi

from sweeps import phase_invariants_ok, random_catalan

EX12 = (5, 5, 4, 4, -3, -3, -3, -3, -3, -1, 5, 5, 5, 3, -4, -4, -4, -4, -4)


class TestPhaseProfile:
    def test_single_pair(self):
        xs = SignedList((1, -1))
        prof = phase_profile(build_pi(xs), run_profile(xs))
        assert prof.gammas == (1,)
        assert prof.deltas == (2,)
        assert prof.up_phases == ((1, 2),)
        assert prof.down_phases == ((0, 1),)
        assert prof.u_counts == (1,)
        assert prof.d_counts == (1,)

    def test_hand_traced_example(self):
        xs = SignedList((3, 1, -2, -2))
        prof = phase_profile(build_pi(xs), run_profile(xs))
        assert prof.gammas == (1,)
        assert prof.deltas == (4,)
        assert prof.up_phases == ((1, 4),)
        assert prof.down_phases == ((0, 3),)
        assert prof.u_counts == (2,)
        assert prof.d_counts == (2,)
        assert sum(prof.u_counts) + sum(prof.d_counts) == 4

    def test_counting_identity_on_example_list(self):
        xs = SignedList(EX12)
        prof = phase_profile(build_pi(xs), run_profile(xs))
        assert sum(prof.u_counts) + sum(prof.d_counts) == 19

    def test_counting_identity_on_random_lists(self):
        rng = random.Random(606)
        for _ in range(300):
            entries = random_catalan(rng.randint(2, 12), rng)
            xs = SignedList(entries)
            prof = phase_profile(build_pi(xs), run_profile(xs))
            assert sum(prof.u_counts) + sum(prof.d_counts) == len(entries)

    def test_phase_bounds(self):
        # Phase tiling, counting identity and the in-phase walk bounds.
        rng = random.Random(707)
        for _ in range(200):
            xs = SignedList(random_catalan(rng.randint(2, 12), rng))
            p = build_pi(xs)
            rp = run_profile(xs)
            assert phase_invariants_ok(xs, p, rp, phase_profile(p, rp))


class TestReduceStrict:
    def test_example_list(self):
        xs = SignedList(EX12)
        d = reduce_strict(xs)
        assert is_valid_decomposition(xs, d.part)
        assert d.part == {2, 3, 6, 7, 8}  # deterministic pigeonhole choice

    def test_short_list(self):
        xs = SignedList((2, 1, -1, -1, -1))
        d = reduce_strict(xs)
        assert is_valid_decomposition(xs, d.part)
        assert d.part == {2, 5}

    def test_preconditions(self):
        with pytest.raises(ValueError):
            reduce_strict(SignedList((1, -1)))  # cost == width
        with pytest.raises(ValueError):
            reduce_strict(SignedList((1, -1, 1)))  # not Catalan

    def test_always_valid_on_random_strict_instances(self):
        rng = random.Random(808)
        seen = 0
        while seen < 300:
            entries = random_catalan(rng.randint(2, 14), rng)
            xs = SignedList(entries)
            if cost(xs) >= width(xs):
                continue
            seen += 1
            assert is_valid_decomposition(xs, reduce_strict(xs).part)

    def test_deterministic(self):
        xs = SignedList(EX12)
        assert reduce_strict(xs) == reduce_strict(xs)


class TestReduceEquality:
    def test_alternating(self):
        xs = SignedList((1, -1, 1, -1))
        d = reduce_equality(xs)
        assert is_valid_decomposition(xs, d.part)
        assert d.part == {1, 2}

    def test_guard(self):
        with pytest.raises(ValueError):
            reduce_equality(SignedList((2, -2, 2, -2)))  # cost 8 > width 4
        with pytest.raises(ValueError):
            reduce_equality(SignedList((2, 1, -1, -2)))  # y == 1

    def test_two_peaks(self):
        xs = SignedList((2, -1, -1, 1, -1))
        assert is_generalized_catalan(xs)
        assert cost(xs) == width(xs) == 5
        d = reduce_equality(xs)
        assert is_valid_decomposition(xs, d.part)
        assert d.part == {1, 2, 3}

    def test_always_valid_on_random_equality_instances(self):
        rng = random.Random(909)
        seen = 0
        while seen < 200:
            entries = random_catalan(rng.randint(4, 14), rng)
            xs = SignedList(entries)
            if cost(xs) != width(xs) or run_profile(xs).y <= 1:
                continue
            seen += 1
            assert is_valid_decomposition(xs, reduce_equality(xs).part)


class TestReduceY1:
    def test_irreducible_certificate(self):
        out = reduce_y1(SignedList((2, -1, -1)))
        assert isinstance(out, Irreducible)
        assert (out.alpha1, out.beta1) == (2, 1)
        assert out.basis == "coprime"

    def test_gcd_split(self):
        xs = SignedList((2, 2, -2, -2))
        out = reduce_y1(xs)
        assert isinstance(out, Decomposition)
        assert out.part == {1, 3}
        assert is_valid_decomposition(xs, out.part)

    def test_sorted_walk_split(self):
        xs = SignedList((2, 1, -1, -2))
        out = reduce_y1(xs)
        assert isinstance(out, Decomposition)
        assert out.part == {2, 3}
        assert is_valid_decomposition(xs, out.part)

    def test_mirror_case(self):
        # All up-run entries equal the maximum, down-run is not constant.
        xs = SignedList((3, 3, -3, -1, -1, -1))
        assert cost(xs) == width(xs) == 6
        out = reduce_y1(xs)
        assert isinstance(out, Decomposition)
        assert is_valid_decomposition(xs, out.part)
        assert out.part == {1, 4, 5, 6}

    def test_guard(self):
        with pytest.raises(ValueError):
            reduce_y1(SignedList((1, -1, 1, -1)))  # y == 2
        with pytest.raises(ValueError):
            reduce_y1(SignedList((3, 1, -2, -2)))  # cost 5 > width 4

    def test_matches_bruteforce_on_all_small_equality_instances(self):
        # Exhaustive over single-peak equality instances with entries in
        # [-4, 4]: widths are alpha+beta <= 8.
        from itertools import product

        checked = 0
        for n_up in range(1, 5):
            for n_down in range(1, 5):
                for ups in product(range(1, 5), repeat=n_up):
                    for downs in product(range(-4, 0), repeat=n_down):
                        entries = ups + downs
                        if sum(entries) != 0:
                            continue
                        xs = SignedList(entries)
                        if cost(xs) != width(xs):
                            continue
                        checked += 1
                        out = reduce_y1(xs)
                        witness = reducible_bruteforce(xs)
                        if isinstance(out, Irreducible):
                            assert witness is None
                        else:
                            assert is_valid_decomposition(xs, out.part)
                            assert witness is not None
        assert checked > 50

    def test_sigma_running_sum_bounds(self):
        # On a single-peak equality instance whose up-run is sorted so the
        # minimum comes first, the greedy walk stays inside
        # [1 - beta, alpha - 1] unless it returns to zero early.
        from itertools import product

        from gdp.staircase import build_sigma

        checked = 0
        for n_up in range(1, 5):
            for n_down in range(1, 5):
                for ups in product(range(1, 5), repeat=n_up):
                    for downs in product(range(-4, 0), repeat=n_down):
                        entries = ups + downs
                        if sum(entries) != 0:
                            continue
                        xs = SignedList(entries)
                        if cost(xs) != width(xs):
                            continue
                        alpha, beta = max(ups), max(-d for d in downs)
                        if min(ups) == alpha:
                            continue
                        arranged = SignedList(tuple(sorted(ups)) + downs)
                        sums = build_sigma(arranged).running_sums
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


# Under ``python -O``: with the witness checks patched to reject everything,
# every decider and common_reduce must raise RuntimeError rather than return
# an unchecked decomposition or column split.
_OPTIMIZED_CHECK_SCRIPT = """
import gdp.kostka, gdp.reducer
from gdp import KostkaPair, Partition, SignedList
from gdp.reducer import reduce, reduce_equality, reduce_strict, reduce_y1

if __debug__:
    raise SystemExit("not running under -O")

def raises_runtime_error(call, *args):
    try:
        call(*args)
    except RuntimeError as exc:
        return type(exc) is RuntimeError
    return False

calls = [
    (reduce, (5, 5, 4, 4, -3, -3, -3, -3, -3, -1, 5, 5, 5, 3, -4, -4, -4, -4, -4)),
    (reduce, (1, -1, 1, -1)),
    (reduce, (2, 2, -2, -2)),
    (reduce, (3, -3, 3, -3, 1, -1)),  # cost > width: found by the search
    (reduce_strict, (2, 1, -1, -1, -1)),
    (reduce_equality, (1, -1, 1, -1)),
    (reduce_y1, (2, 1, -1, -2)),
]
valid = gdp.reducer.is_valid_decomposition
gdp.reducer.is_valid_decomposition = lambda xs, positions: False
bad = [f.__name__ for f, e in calls if not raises_runtime_error(f, SignedList(e))]
gdp.reducer.is_valid_decomposition = valid

gdp.kostka.verify_column_split = lambda kp, columns: False
for lam, mu in (((5, 3, 1), (3, 3, 2, 1)), ((2, 2), (2, 2))):  # reducer, zero column
    pair = KostkaPair(Partition(lam), Partition(mu))
    if not raises_runtime_error(gdp.kostka.common_reduce, pair):
        bad.append(f"common_reduce {pair.format()}")
print(bad)
"""


def test_witness_checks_run_under_optimize():
    src = str(Path(gdp.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_CHECK_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
