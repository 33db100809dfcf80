import itertools
import math
import random
import time
from operator import add

import pytest
from hypothesis import given, strategies as st

from gdp.catalan import (
    Decomposition,
    SignedList,
    is_generalized_catalan,
    is_valid_decomposition,
    run_profile,
    sublist,
)
from gdp.kostka import KostkaPair, Partition, dominates
from gdp.oracle import (
    BudgetExceededError,
    enumerate_hilbert_basis,
    kostka_reducible_bruteforce,
    partitions_of,
    reducible_bruteforce,
)
from gdp.reducer import Irreducible, reduce

from conftest import EX12
from sweeps import all_catalan_subsets, catalan_corpus, dominance_pairs, random_catalan


def naive_pair_split(kp):
    """Whether the pair splits into two valid nontrivial pairs, by an
    independent scan: itertools.product over per-row choices for both
    partitions, padded to the row bound."""
    r, n = kp.r, kp.size

    def is_partition(v):
        return all(v[i] >= v[i + 1] for i in range(len(v) - 1)) and all(x >= 0 for x in v)

    lam_full, mu_full = kp.lam.padded(r), kp.mu.padded(r)
    for lam_sub in itertools.product(*(range(v + 1) for v in lam_full)):
        if not is_partition(lam_sub):
            continue
        s = sum(lam_sub)
        if s == 0 or s == n:
            continue
        lam_rest = tuple(a - b for a, b in zip(lam_full, lam_sub))
        if not is_partition(lam_rest):
            continue
        for mu_sub in itertools.product(*(range(v + 1) for v in mu_full)):
            if sum(mu_sub) != s or not is_partition(mu_sub):
                continue
            mu_rest = tuple(a - b for a, b in zip(mu_full, mu_sub))
            if not is_partition(mu_rest):
                continue
            try:
                KostkaPair(Partition(lam_sub), Partition(mu_sub), r)
                KostkaPair(Partition(lam_rest), Partition(mu_rest), r)
            except ValueError:
                continue
            return True
    return False


def subsets_lex(t):
    """All subsets of [t] as sorted tuples, lexicographically."""
    subs = [
        tuple(sorted(s))
        for size in range(t + 1)
        for s in itertools.combinations(range(1, t + 1), size)
    ]
    return sorted(subs)


class TestReducibleBruteforce:
    def test_irreducible(self):
        assert reducible_bruteforce(SignedList((2, -1, -1))) is None

    def test_lex_first_witness(self):
        out = reducible_bruteforce(SignedList((1, -1, 1, -1)))
        assert out == Decomposition(frozenset({1, 2}))

    def test_example_list(self):
        xs = SignedList(EX12)
        out = reducible_bruteforce(xs)
        assert out is not None
        assert is_valid_decomposition(xs, out.part)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            reducible_bruteforce(SignedList((1, -1) * 13))

    def test_agrees_with_naive_scan(self):
        rng = random.Random(42)
        for _ in range(120):
            entries = random_catalan(rng.randint(2, 8), rng)
            xs = SignedList(entries)
            expected = next(
                (
                    frozenset(s)
                    for s in subsets_lex(len(entries))
                    if s and is_valid_decomposition(xs, s)
                ),
                None,
            )
            got = reducible_bruteforce(xs)
            assert (got.part if got else None) == expected


class TestAllCatalanSubsets:
    def test_single_pair(self):
        assert all_catalan_subsets(SignedList((1, -1))) == [(), (1, 2)]

    def test_two_one_one(self):
        assert all_catalan_subsets(SignedList((2, -1, -1))) == [(), (1, 2, 3)]

    def test_alternating(self):
        # Definitive enumeration for (1,-1,1,-1): the empty set, both
        # matched pairs around each unit peak, and the full set.
        assert all_catalan_subsets(SignedList((1, -1, 1, -1))) == [
            (),
            (1, 2),
            (1, 2, 3, 4),
            (1, 4),
            (3, 4),
        ]

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            all_catalan_subsets(SignedList((1, -1) * 13))

    def test_agrees_with_naive_scan(self):
        rng = random.Random(43)
        for _ in range(120):
            entries = random_catalan(rng.randint(2, 8), rng)
            xs = SignedList(entries)
            expected = [
                s
                for s in subsets_lex(len(entries))
                if is_generalized_catalan(sublist(xs, s))
            ]
            assert all_catalan_subsets(xs) == expected


class TestKostkaReducibleBruteforce:
    def test_coprime_rectangles_irreducible(self):
        kp = KostkaPair(Partition((2, 0)), Partition((1, 1)), 2)
        assert kostka_reducible_bruteforce(kp) is None

    def test_single_column_irreducible(self):
        kp = KostkaPair(Partition((1, 1)), Partition((1, 1)), 2)
        assert kostka_reducible_bruteforce(kp) is None

    def test_sample_pair_decomposes(self):
        kp = KostkaPair(Partition((5, 3, 1)), Partition((3, 3, 2, 1)))
        out = kostka_reducible_bruteforce(kp)
        assert out is not None
        left, right = out
        assert left.size >= 1 and right.size >= 1
        assert left.lam.padded(4) == tuple(
            a - b for a, b in zip(kp.lam.padded(4), right.lam.padded(4))
        )
        assert left.mu.padded(4) == tuple(
            a - b for a, b in zip(kp.mu.padded(4), right.mu.padded(4))
        )
        assert dominates(left.lam, left.mu) and dominates(right.lam, right.mu)

    def test_budget(self):
        big = Partition((7, 6))
        with pytest.raises(BudgetExceededError):
            kostka_reducible_bruteforce(KostkaPair(big, big))
        # A size past what str() writes out is refused all the same.
        huge = Partition((10**5000,))
        with pytest.raises(BudgetExceededError, match=r"size about 10\^5000 exceeds"):
            kostka_reducible_bruteforce(KostkaPair(huge, huge))

    def test_agrees_with_naive_pair_scan(self):
        rng = random.Random(44)
        checked = 0
        while checked < 40:
            r = rng.randint(1, 3)
            n = rng.randint(1, 7)
            shapes = [Partition(p) for p in partitions_of(n, r)]
            lam = rng.choice(shapes)
            mus = [m for m in shapes if dominates(lam, m)]
            mu = rng.choice(mus)
            kp = KostkaPair(lam, mu, r)
            checked += 1
            assert (kostka_reducible_bruteforce(kp) is not None) == naive_pair_split(kp)

    def test_summands_add_up(self):
        # Every returned pair of summands adds back to its input, row by
        # row, in the input's row bound.
        for kp in dominance_pairs(8, 4, r=4):
            out = kostka_reducible_bruteforce(kp)
            if out is None:
                continue
            left, right = out
            assert left.size >= 1 and right.size >= 1 and left.r == right.r == 4
            assert tuple(map(add, left.lam.padded(4), right.lam.padded(4))) == kp.lam.padded(4)
            assert tuple(map(add, left.mu.padded(4), right.mu.padded(4))) == kp.mu.padded(4)

    def test_huge_row_bound(self):
        # Nothing is padded to the row bound, so r = 10**9 answers at once.
        r = 10**9
        for lam, mu, splits in (((2, 2), (2, 2), True), ((3,) * 4, (2,) * 6, False)):
            started = time.perf_counter()
            out = kostka_reducible_bruteforce(KostkaPair(Partition(lam), Partition(mu), r))
            assert time.perf_counter() - started < 1.0
            assert (out is not None) == splits
            if splits:
                assert out[0].r == out[1].r == r


class TestHilbertBasis:
    def test_one_row(self):
        basis = enumerate_hilbert_basis(1, 3)
        assert [(kp.lam.parts, kp.mu.parts) for kp in basis] == [((1,), (1,))]

    def test_two_rows_size_two(self):
        basis = enumerate_hilbert_basis(2, 2)
        assert [(kp.lam.parts, kp.mu.parts) for kp in basis] == [
            ((1,), (1,)),
            ((1, 1), (1, 1)),
            ((2,), (1, 1)),
        ]
        assert ((2,), (2,)) not in [(kp.lam.parts, kp.mu.parts) for kp in basis]

    def test_members_stay_irreducible(self):
        for kp in enumerate_hilbert_basis(2, 4):
            assert kostka_reducible_bruteforce(kp) is None

    def test_row_bound_cap(self):
        with pytest.raises(BudgetExceededError):
            enumerate_hilbert_basis(5, 2)
        with pytest.raises(BudgetExceededError):
            enumerate_hilbert_basis(2, 99)
        # Past Python's 4,300-digit str limit, the refusal gives the order
        # of magnitude, not the conversion's own error.
        with pytest.raises(BudgetExceededError, match=r"size bound about 10\^5000 exceeds"):
            enumerate_hilbert_basis(1, 10**5000)

    def test_row_bound_below_one_is_invalid(self):
        for r, text in ((0, "0"), (-2, "-2"), (-10**5000, r"about -10\^5000")):
            with pytest.raises(ValueError, match=f"row bound {text} is below 1"):
                enumerate_hilbert_basis(r, 2)

    def test_matches_naive_pair_scan(self):
        # The basis is exactly the pairs that the per-row scan cannot split.
        for r in (1, 2, 3):
            for n in range(1, 8):
                got = {(kp.lam.parts, kp.mu.parts) for kp in enumerate_hilbert_basis(r, n)}
                want = {
                    (kp.lam.parts, kp.mu.parts)
                    for kp in dominance_pairs(n, r, r=r)
                    if not naive_pair_split(kp)
                }
                assert got == want, (r, n)

    def test_strengthened_width_bound(self):
        # The members with lambda_1 >= length(mu) are exactly the coprime
        # rectangle pairs (d^d', d'^d) with 1 <= d' <= d <= r.
        for r, count in zip(range(1, 5), (1, 2, 4, 6)):
            basis = enumerate_hilbert_basis(r, min(r * r, 12))
            wide = {(kp.lam.parts, kp.mu.parts) for kp in basis if kp.lam.first >= kp.mu.length}
            rects = {
                ((d,) * e, (e,) * d)
                for d in range(1, r + 1)
                for e in range(1, d + 1)
                if math.gcd(d, e) == 1
            }
            assert wide == rects and len(rects) == count, r

    def test_sorted_lexicographically(self):
        basis = enumerate_hilbert_basis(3, 4)
        keys = [(kp.lam.parts, kp.mu.parts) for kp in basis]
        assert keys == sorted(keys)


def _matches_bruteforce(xs):
    """reduce agrees with the exhaustive search on the verdict and, for
    cost > width, on the witness too: both give the lexicographically least
    decomposition.  Returns whether the list has cost > width."""
    out = reduce(xs)
    found = reducible_bruteforce(xs)
    assert isinstance(out, Irreducible) == (found is None), xs
    wide = run_profile(xs).cost > len(xs)
    if wide:
        assert (out == found) if found else (out.basis == "search"), xs
    return wide


class TestReduceAgainstBruteforce:
    def test_equivalence_on_random_samples(self):
        # Verdicts agree with the full scan; for cost > width, so do witnesses.
        rng = random.Random(45)
        irreducible_seen = wide_cost = 0
        for _ in range(10_000):
            entries = random_catalan(rng.randint(2, 12), rng, lo=-4, hi=4)
            xs = SignedList(entries)
            wide_cost += _matches_bruteforce(xs)
            irreducible_seen += reducible_bruteforce(xs) is None
        assert irreducible_seen > 0 and wide_cost > 0

    def test_corpus_witnesses_match_bruteforce(self):
        # Every Catalan list of width up to 8 with entries in [-3, 3].
        wide_cost = 0
        for rows in catalan_corpus(max_t=8).values():
            for row in rows.tolist():
                wide_cost += _matches_bruteforce(SignedList(tuple(row)))
        assert wide_cost == 15_712

    @given(st.randoms())
    def test_wide_shuffles_split(self, rng):
        # Any interleaving of two nonempty Catalan lists splits; widths 20-60.
        a = random_catalan(rng.randint(2, 40), rng, -9, 9)
        b = random_catalan(rng.randint(max(2, 20 - len(a)), 60 - len(a)), rng, -9, 9)
        order = [0] * len(a) + [1] * len(b)
        rng.shuffle(order)
        sources = [iter(a), iter(b)]
        xs = SignedList(tuple(next(sources[k]) for k in order))
        assert isinstance(reduce(xs), Decomposition)
