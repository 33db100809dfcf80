import itertools
import random

import pytest
from hypothesis import given, strategies as st

from sweeps import random_kostka_pairs

from gdp.catalan import BudgetExceededError, ParseError
from gdp.kostka import (
    MAX_COLUMNS,
    ColumnSplit,
    KostkaIrreducible,
    KostkaPair,
    Partition,
    column_vector,
    common_reduce,
    conjugate,
    dominates,
    restrict_columns,
    split_pair,
    verify_column_split,
)
from gdp.oracle import partitions_of

partitions = st.lists(st.integers(0, 9), min_size=0, max_size=6).map(
    lambda vs: Partition(tuple(sorted(vs, reverse=True)))
)


def reference_rows(p, side):
    """Raw row counts of a partition over a column set."""
    return [sum(1 for c in side if c <= v) for v in p.parts]


def reference_split_ok(lam, mu, cols):
    """Independent column-split validator working on raw row counts."""
    n = lam.first
    full = set(range(1, n + 1))
    cols = set(cols)
    if not cols or not cols < full:
        return False
    for side in (cols, full - cols):
        lrows = reference_rows(lam, side)
        mrows = reference_rows(mu, side)
        if sum(lrows) != sum(mrows) or sum(lrows) == 0:
            return False
        la, mb = 0, 0
        for i in range(max(len(lrows), len(mrows))):
            la += lrows[i] if i < len(lrows) else 0
            mb += mrows[i] if i < len(mrows) else 0
            if la < mb:
                return False
    return True


def column_split_exists(kp):
    n = kp.lam.first
    for size in range(1, n):
        for cols in itertools.combinations(range(1, n + 1), size):
            if verify_column_split(kp, cols):
                return True
    return False


class TestPartition:
    def test_strips_trailing_zeros(self):
        assert Partition((3, 1, 0, 0)).parts == (3, 1)
        assert Partition((0, 0)).parts == ()

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, -1))

    def test_parse_and_format(self):
        assert Partition.parse("5,3,1").parts == (5, 3, 1)
        assert Partition.parse("2,0").parts == (2,)
        assert Partition.parse(Partition(()).format()).parts == ()
        for text in ("2,,1", "2,1,"):
            with pytest.raises(ParseError, match="empty token"):
                Partition.parse(text)

    def test_rectangle(self):
        assert Partition((3, 3)).rectangle() == (2, 3)
        assert Partition((3, 2)).rectangle() is None
        assert Partition(()).rectangle() is None

    @given(partitions)
    def test_parse_format_round_trip(self, p):
        assert Partition.parse(p.format()) == p


class TestConjugate:
    @pytest.mark.parametrize(
        "parts,expected",
        [((5, 3, 1), (3, 2, 2, 1, 1)), ((3, 3, 2, 1), (4, 3, 2)), ((), ())],
    )
    def test_examples(self, parts, expected):
        assert conjugate(Partition(parts)).parts == expected

    @given(partitions)
    def test_involution(self, p):
        assert conjugate(conjugate(p)) == p

    @given(partitions)
    def test_counts_rows(self, p):
        conj = conjugate(p)
        for j in range(1, p.first + 1):
            assert conj.row(j) == sum(1 for v in p.parts if v >= j)


class TestDominates:
    def test_examples(self):
        assert dominates(Partition((5, 3, 1)), Partition((3, 3, 2, 1)))
        assert not dominates(Partition((2, 2)), Partition((3, 1)))

    @given(partitions)
    def test_reflexive(self, p):
        assert dominates(p, p)

    def test_rejects_unequal_sizes(self):
        with pytest.raises(ValueError):
            dominates(Partition((2,)), Partition((1,)))


class TestPlainDefinitions:
    # Every partition of n <= 10 in at most 6 rows, checked against the
    # definitions rather than against other library functions.
    SHAPES = [Partition(p) for n in range(11) for p in partitions_of(n, 6)]

    def test_conjugate_counts_parts(self):
        for p in self.SHAPES:
            rows = [sum(1 for v in p.parts if v >= j) for j in range(1, p.first + 1)]
            assert list(conjugate(p).parts) == rows

    def test_dominates_compares_padded_prefix_sums(self):
        # Both orders of every equal-size pair, so the first partition often
        # has more parts than the second.
        for a in self.SHAPES:
            for b in self.SHAPES:
                if a.size != b.size:
                    continue
                n = max(a.length, b.length)
                pa = itertools.accumulate(a.padded(n))
                pb = itertools.accumulate(b.padded(n))
                assert dominates(a, b) == all(x >= y for x, y in zip(pa, pb))

    def test_restrict_columns_counts_rows(self):
        for p in self.SHAPES:
            if p.first > 6:
                continue
            for size in range(p.first + 1):
                for cols in itertools.combinations(range(1, p.first + 1), size):
                    rows = reference_rows(p, cols)
                    assert list(restrict_columns(p, cols).padded(p.length)) == rows


class TestKostkaPair:
    def test_default_row_bound(self):
        kp = KostkaPair(Partition((5, 3, 1)), Partition((3, 3, 2, 1)))
        assert kp.r == 4

    def test_validation(self):
        with pytest.raises(ValueError, match="equal size"):
            KostkaPair(Partition((2,)), Partition((1,)))
        with pytest.raises(ValueError, match="dominate"):
            KostkaPair(Partition((2, 2)), Partition((3, 1)))
        with pytest.raises(ValueError, match="rows"):
            KostkaPair(Partition((1, 1, 1)), Partition((1, 1, 1)), 2)


class TestColumnVector:
    def test_sample_pair(self):
        kp = KostkaPair(Partition((5, 3, 1)), Partition((3, 3, 2, 1)))
        assert column_vector(kp) == (1, 1, 0, -1, -1)

    def test_equal_partitions(self):
        kp = KostkaPair(Partition((2, 2)), Partition((2, 2)))
        assert column_vector(kp) == (0, 0)

    def test_two_rectangles(self):
        kp = KostkaPair(Partition((2, 0)), Partition((1, 1)), 2)
        assert column_vector(kp) == (1, -1)

    @given(partitions, partitions)
    def test_dominance_iff_prefixes_nonnegative(self, a, b):
        # Build an unchecked pair shape: compare dominance with the prefix
        # characterization of the conjugate differences.
        if a.size != b.size or a.first < b.first:
            return
        n = max(a.first, 1)
        ac = conjugate(a).padded(n)
        bc = conjugate(b).padded(n)
        vec = [m - l for l, m in zip(ac, bc)]
        prefixes_ok = all(s >= 0 for s in itertools.accumulate(vec))
        assert dominates(a, b) == prefixes_ok


class TestRestrictColumns:
    def test_sample_values(self):
        assert restrict_columns(Partition((5, 3, 1)), {1, 3, 5}).parts == (3, 2, 1)
        assert restrict_columns(Partition((3, 3, 2, 1)), {1, 3}).parts == (2, 2, 1, 1)

    def test_identity(self):
        p = Partition((5, 3, 1))
        assert restrict_columns(p, range(1, 6)) == p

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            restrict_columns(Partition((2, 1)), {3})

    @given(partitions.filter(lambda p: p.size > 0), st.data())
    def test_sides_sum_to_whole(self, p, data):
        cols = data.draw(st.sets(st.integers(1, p.first), max_size=p.first))
        rest = set(range(1, p.first + 1)) - cols
        left = restrict_columns(p, cols).padded(p.length)
        right = restrict_columns(p, rest).padded(p.length)
        assert tuple(l + r for l, r in zip(left, right)) == p.parts


class TestVerifyColumnSplit:
    def test_sample_columns(self):
        kp = KostkaPair(Partition((5, 3, 1)), Partition((3, 3, 2, 1)))
        assert verify_column_split(kp, {1, 3, 5})

    def test_trivial_rejected(self):
        kp = KostkaPair(Partition((5, 3, 1)), Partition((3, 3, 2, 1)))
        assert not verify_column_split(kp, set())
        assert not verify_column_split(kp, range(1, 6))
        assert not verify_column_split(kp, {9})

    def test_uneven_pair(self):
        kp = KostkaPair(Partition((4, 2)), Partition((3, 3)))
        assert verify_column_split(kp, {1, 3, 4})
        left, right = split_pair(kp, {1, 3, 4})
        assert (left.lam.parts, left.mu.parts) == ((3, 1), (2, 2))
        assert (right.lam.parts, right.mu.parts) == ((1, 1), (1, 1))

    def test_agrees_with_reference(self):
        rng = random.Random(123)
        pairs = random_kostka_pairs(rng, count=60, max_size=10, max_rows=4)
        for kp in pairs:
            n = kp.lam.first
            for size in range(0, n + 1):
                for cols in itertools.combinations(range(1, n + 1), size):
                    ok = reference_split_ok(kp.lam, kp.mu, cols)
                    assert verify_column_split(kp, cols) == ok
                    if not ok:
                        with pytest.raises(ValueError):
                            split_pair(kp, cols)
                        continue
                    rest = set(range(1, n + 1)) - set(cols)
                    for side, pair in zip((cols, rest), split_pair(kp, cols)):
                        assert pair.r == kp.r
                        for got, whole in ((pair.lam, kp.lam), (pair.mu, kp.mu)):
                            rows = reference_rows(whole, side)
                            assert list(got.padded(whole.length)) == rows


class TestCommonReduce:
    def test_sample_pair(self):
        kp = KostkaPair(Partition((5, 3, 1)), Partition((3, 3, 2, 1)))
        out = common_reduce(kp)
        assert isinstance(out, ColumnSplit)
        assert verify_column_split(kp, out.columns)
        assert out.columns == {3}  # the lowest zero column splits on its own

    def test_coprime_rectangles(self):
        kp = KostkaPair(Partition((2, 0)), Partition((1, 1)), 2)
        out = common_reduce(kp)
        assert isinstance(out, KostkaIrreducible)
        assert (out.alpha1, out.beta1) == (1, 1)
        assert out.basis == "coprime"
        assert out.lam_rect == (1, 2)
        assert out.mu_rect == (2, 1)
        assert not column_split_exists(kp)

    def test_equal_columns_split(self):
        kp = KostkaPair(Partition((2, 2)), Partition((2, 2)))
        out = common_reduce(kp)
        assert out == ColumnSplit(frozenset({1}))

    def test_single_column_pair(self):
        kp = KostkaPair(Partition((1, 1)), Partition((1, 1)))
        out = common_reduce(kp)
        assert isinstance(out, KostkaIrreducible)
        assert out.lam_rect == (2, 1)
        assert out.basis == "single-column"
        assert not column_split_exists(kp)

    def test_search_basis(self):
        # Column vector (2, -2): cost 4 > width 2, so the search decides it,
        # although its first-run maxima look like a coprime certificate's.
        kp = KostkaPair(Partition((2, 2)), Partition((1, 1, 1, 1)))
        out = common_reduce(kp)
        assert out == KostkaIrreducible(2, 2, (2, 2), (4, 1), "search")
        assert not column_split_exists(kp)

    def test_rejects_empty_pair(self):
        with pytest.raises(ValueError):
            common_reduce(KostkaPair(Partition(()), Partition(())))

    def test_verdict_matches_exhaustive_column_search(self):
        rng = random.Random(321)
        pairs = random_kostka_pairs(rng, count=120, max_size=10, max_rows=4)
        for kp in pairs:
            out = common_reduce(kp)
            if isinstance(out, ColumnSplit):
                assert verify_column_split(kp, out.columns)
                left, right = split_pair(kp, out.columns)  # summands revalidate
                assert left.size + right.size == kp.size
            else:
                assert not column_split_exists(kp)

    def test_wide_column_vector(self, wide_pair):
        vec = (3, -3) + (9, 9, 9, -8, -8, -8, -3) * 3 + (1, -1)
        assert column_vector(wide_pair) == vec
        assert common_reduce(wide_pair) == ColumnSplit(frozenset({1, 2}))

    def test_column_budget(self):
        # Refused before anything of size lambda_1 is built; at the budget
        # itself the pair is still decided.
        for width in (MAX_COLUMNS + 1, 10**9):
            kp = KostkaPair(Partition((width,)), Partition((width,)))
            for refuse in (common_reduce, column_vector, lambda kp: conjugate(kp.lam)):
                with pytest.raises(BudgetExceededError, match="columns exceed"):
                    refuse(kp)
        kp = KostkaPair(Partition((MAX_COLUMNS,)), Partition((MAX_COLUMNS,)))
        assert common_reduce(kp) == ColumnSplit(frozenset({1}))
        assert column_vector(kp) == (0,) * MAX_COLUMNS
        assert conjugate(kp.lam).parts == (1,) * MAX_COLUMNS

    def test_wide_pairs_always_split(self):
        rng = random.Random(654)
        pairs = random_kostka_pairs(
            rng, count=60, max_size=12, max_rows=4, require=lambda kp: kp.lam.first > kp.r
        )
        for kp in pairs:
            out = common_reduce(kp)
            assert isinstance(out, ColumnSplit)
            assert verify_column_split(kp, out.columns)
