import itertools
import random
import time

import pytest
from hypothesis import given, strategies as st

from sweeps import dominance_pairs, random_kostka_pairs

import gdp.kostka
import gdp.reducer
from gdp.catalan import BudgetExceededError, Decomposition, ParseError, SignedList
from gdp.kostka import (
    MAX_COLUMNS,
    ColumnSplit,
    KostkaIrreducible,
    KostkaPair,
    Partition,
    _sides,
    column_vector,
    common_reduce,
    conjugate,
    dominates,
    restrict_columns,
    split_pair,
)
from gdp.oracle import partitions_of
from gdp.reducer import Irreducible

partitions = st.lists(st.integers(0, 9), min_size=0, max_size=6).map(
    lambda vs: Partition(tuple(sorted(vs, reverse=True)))
)


def reference_rows(p, side):
    """Raw row counts of a partition over a column set."""
    return [sum(1 for c in side if c <= v) for v in p.parts]


def reference_side_ok(lam, mu, side):
    """Independent check that one side of a column split is a valid
    nonempty pair, on raw row counts."""
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


def reference_split_ok(lam, mu, cols):
    """Independent column-split validator working on raw row counts."""
    n = lam.first
    full = set(range(1, n + 1))
    cols = set(cols)
    if not cols or not cols < full:
        return False
    return all(reference_side_ok(lam, mu, side) for side in (cols, full - cols))


def reference_sides(kp, columns):
    """Both sides of a column split built through the public, validating
    constructors, or None when either is not a valid pair."""
    cols = sorted(set(columns))
    n = kp.lam.first
    if not cols or len(cols) >= n or cols[0] < 1 or cols[-1] > n:
        return None
    sides = []
    for side in (cols, sorted(set(range(1, n + 1)) - set(cols))):
        lam = Partition(tuple(reference_rows(kp.lam, side)))
        mu = Partition(tuple(reference_rows(kp.mu, side)))
        try:
            sides.append(KostkaPair(lam, mu, kp.r))
        except ValueError:
            return None
    return tuple(sides)


def column_split_exists(kp):
    n = kp.lam.first
    for size in range(1, n):
        for cols in itertools.combinations(range(1, n + 1), size):
            if _sides(kp, cols) is not None:
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
            assert conj.parts[j - 1] == sum(1 for v in p.parts if v >= j)


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

    def test_column_vector_subtracts_padded_conjugates(self):
        # Every dominance pair; column_vector builds no conjugate Partition.
        for lam in self.SHAPES:
            for mu in self.SHAPES:
                if lam.size != mu.size or not dominates(lam, mu):
                    continue
                n = lam.first
                lc, mc = conjugate(lam).padded(n), conjugate(mu).padded(n)
                want = tuple(m - l for l, m in zip(lc, mc, strict=True))
                assert column_vector(KostkaPair(lam, mu)) == want

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
    # split_pair checks a column split, and raises ValueError on a bad one.

    def test_sample_columns(self):
        kp = KostkaPair(Partition((5, 3, 1)), Partition((3, 3, 2, 1)))
        left, right = split_pair(kp, {1, 3, 5})
        assert (left.lam.parts, left.mu.parts) == ((3, 2, 1), (2, 2, 1, 1))
        assert (right.lam.parts, right.mu.parts) == ((2, 1), (1, 1, 1))

    def test_trivial_rejected(self):
        kp = KostkaPair(Partition((5, 3, 1)), Partition((3, 3, 2, 1)))
        for columns in (set(), range(1, 6), {9}):
            with pytest.raises(ValueError):
                split_pair(kp, columns)

    def test_uneven_pair(self):
        kp = KostkaPair(Partition((4, 2)), Partition((3, 3)))
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
                    if not reference_split_ok(kp.lam, kp.mu, cols):
                        with pytest.raises(ValueError):
                            split_pair(kp, cols)
                        continue
                    rest = set(range(1, n + 1)) - set(cols)
                    for side, pair in zip((cols, rest), split_pair(kp, cols)):
                        assert pair.r == kp.r
                        for got, whole in ((pair.lam, kp.lam), (pair.mu, kp.mu)):
                            rows = reference_rows(whole, side)
                            assert list(got.padded(whole.length)) == rows


class TestBlockPath:
    # Every dominance pair of size <= 12 in <= 4 rows.
    PAIRS = list(dominance_pairs(12, 4))

    def test_sides_match_validating_constructors(self):
        # Every column subset of the pairs with lambda_1 <= 7, None included:
        # _sides checks sizes on the chosen side and dominance on both, and
        # builds the same sides as the public constructors.  In 62 of the
        # subsets only the other side fails, so checking one side would not
        # do.
        other_side_only = 0
        for kp in self.PAIRS:
            n = kp.lam.first
            if n > 7:
                continue
            for size in range(n + 1):
                for cols in itertools.combinations(range(1, n + 1), size):
                    want = reference_sides(kp, cols)
                    assert _sides(kp, cols) == want, (kp, cols)
                    other_side_only += (
                        want is None
                        and 0 < size < n
                        and reference_side_ok(kp.lam, kp.mu, cols)
                    )
        assert other_side_only == 62

    def test_other_side_dominance_is_checked(self):
        # Columns {1, 4}: the chosen side is 2,1,1 / 1,1,1,1, a valid pair;
        # the other side, 2,1,1 / 2,2, is not.
        kp = KostkaPair(Partition((4, 2, 2)), Partition((3, 3, 1, 1)))
        assert reference_side_ok(kp.lam, kp.mu, {1, 4})
        assert not reference_side_ok(kp.lam, kp.mu, {2, 3})
        assert _sides(kp, {1, 4}) is None
        with pytest.raises(ValueError):
            split_pair(kp, {1, 4})

    def test_column_vector_is_the_conjugate_difference(self):
        rng = random.Random(987)
        pairs = self.PAIRS + random_kostka_pairs(rng, count=200, max_size=30, max_rows=6)
        for kp in pairs:
            n = kp.lam.first
            lc, mc = conjugate(kp.lam).padded(n), conjugate(kp.mu).padded(n)
            assert column_vector(kp) == tuple(m - l for l, m in zip(lc, mc, strict=True))


class TestCommonReduce:
    def test_sample_pair(self):
        kp = KostkaPair(Partition((5, 3, 1)), Partition((3, 3, 2, 1)))
        out = common_reduce(kp)
        assert isinstance(out, ColumnSplit)
        assert out.columns == {3}  # the lowest zero column splits on its own
        assert split_pair(kp, out.columns) == out.sides

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
        assert out.columns == {1}
        assert out.sides == split_pair(kp, out.columns)

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
                left, right = split_pair(kp, out.columns)  # summands revalidate
                assert left.size + right.size == kp.size
                assert out.sides == (left, right)
            else:
                assert not column_split_exists(kp)

    def test_validates_and_checks_once(self, monkeypatch):
        # KostkaPair's dominance check validates the column vector and
        # _sides checks the split: with the reducer's own validation and
        # witness check, and SignedList, made to raise, every dominance pair
        # of size <= 10 in <= 4 rows is still decided.  The public check is
        # patched, and so is its kernel where reduce reads it and where
        # is_valid_decomposition reads it, whatever module calls it.
        def refuse(*args, **kwargs):
            raise AssertionError("common_reduce validated or checked twice")

        monkeypatch.setattr(gdp.reducer, "require_catalan", refuse)
        monkeypatch.setattr(gdp.reducer, "_splits", refuse)
        monkeypatch.setattr(gdp.catalan, "_splits", refuse)
        monkeypatch.setattr(gdp.catalan, "is_valid_decomposition", refuse)
        monkeypatch.setattr(SignedList, "__init__", refuse)
        for kp in dominance_pairs(10, 4):
            out = common_reduce(kp)
            if isinstance(out, ColumnSplit):
                assert split_pair(kp, out.columns) == out.sides
            else:
                assert not column_split_exists(kp)

    def test_wide_column_vector(self, wide_pair):
        vec = (3, -3) + (9, 9, 9, -8, -8, -8, -3) * 3 + (1, -1)
        assert column_vector(wide_pair) == vec
        out = common_reduce(wide_pair)
        assert out.columns == {1, 2}
        assert out.sides == split_pair(wide_pair, out.columns)

    def test_column_budget(self):
        # column_vector and conjugate refuse before anything of size
        # lambda_1 is built.  common_reduce finds a zero column in the
        # column vector's blocks at any width, so it refuses only a zero-free
        # pair that wide: here the vector is 2**20 ones, then 2**20 minus
        # ones.  At the budget itself the pair is still decided.
        for width in (MAX_COLUMNS + 1, 10**9):
            kp = KostkaPair(Partition((width,)), Partition((width,)))
            for refuse in (column_vector, lambda kp: conjugate(kp.lam)):
                with pytest.raises(BudgetExceededError, match="columns exceed"):
                    refuse(kp)
        kp = KostkaPair(Partition((2097152,)), Partition((1048576, 1048576)))
        with pytest.raises(BudgetExceededError, match="2097152 columns exceed"):
            common_reduce(kp)
        kp = KostkaPair(Partition((MAX_COLUMNS,)), Partition((MAX_COLUMNS,)))
        assert common_reduce(kp).columns == {1}
        assert column_vector(kp) == (0,) * MAX_COLUMNS
        assert conjugate(kp.lam).parts == (1,) * MAX_COLUMNS

    def test_column_budget_past_the_digit_limit(self):
        # 10**5000 columns is past what str() writes out; each refusal gives
        # its order of magnitude instead.  The second pair is zero-free.
        n = 10**5000
        kp = KostkaPair(Partition((n,)), Partition((n,)))
        wide = KostkaPair(Partition((2 * n,)), Partition((n, n)))
        calls = (
            lambda: column_vector(kp),
            lambda: conjugate(kp.lam),
            lambda: common_reduce(wide),
        )
        for refuse in calls:
            with pytest.raises(BudgetExceededError, match=r"about 10\^5000 columns exceed"):
                refuse()

    def test_zero_column_at_any_width(self):
        # The zero block is found in O(r); nothing of size lambda_1 is built.
        start = time.perf_counter()
        kp = KostkaPair(Partition((10**18,)), Partition((10**18,)))
        out = common_reduce(kp)
        assert time.perf_counter() - start < 0.01
        assert out.columns == {1}
        assert out.sides == split_pair(kp, {1})
        # Column vector 1, 1, 0, ...: columns 1 and 2 hold one more cell of
        # mu than of lambda, and column 3 the same number.
        kp = KostkaPair(Partition((10**18, 5)), Partition((10**18, 3, 2)))
        out = common_reduce(kp)
        assert out.columns == {3}
        assert out.sides == (
            KostkaPair(Partition((1, 1)), Partition((1, 1)), 3),
            KostkaPair(Partition((10**18 - 1, 4)), Partition((10**18 - 1, 2, 2)), 3),
        )

    def test_certificates_are_checked(self, monkeypatch):
        # Forged certificates from a patched decider: certificates for pairs
        # with lambda_1 >= length(mu) that are not coprime rectangles, and
        # "coprime" ones whose grounds do not hold in the column vector:
        # (1, 1, -1, -1) for 4 / 2,2, and (3, -1, -2) for 3,3 / 2,1,1,1,1,
        # where lambda_1 < length(mu) and only those grounds are checked.
        real = gdp.kostka._decide
        for lam, mu, cert in (
            ((4,), (2, 2), Irreducible(1, 1, "coprime")),
            ((4,), (2, 2), Irreducible(1, 1, "search")),
            ((5, 1), (2, 2, 2), Irreducible(1, 1, "search")),
            ((3, 3), (2, 1, 1, 1, 1), Irreducible(3, 2, "coprime")),
        ):
            kp = KostkaPair(Partition(lam), Partition(mu))
            monkeypatch.setattr(gdp.kostka, "_decide", lambda entries: cert)
            with pytest.raises(RuntimeError, match="internal error"):
                common_reduce(kp)
        # A coprime rectangle pair, and a search verdict with
        # lambda_1 < length(mu), pass their checks.
        monkeypatch.setattr(gdp.kostka, "_decide", real)
        kp = KostkaPair(Partition((3, 3)), Partition((2, 2, 2)))
        assert common_reduce(kp) == KostkaIrreducible(1, 2, (2, 3), (3, 2), "coprime")
        kp = KostkaPair(Partition((2, 2)), Partition((1, 1, 1, 1)))
        assert common_reduce(kp).basis == "search"

    def test_forged_split_raises(self, monkeypatch, wide_pair):
        # A forged decomposition of the zero-free column vector: column 1
        # alone holds entry 3, so its sides differ in size and the split
        # check refuses it.
        monkeypatch.setattr(gdp.kostka, "_decide", lambda entries: Decomposition({1}))
        with pytest.raises(RuntimeError, match=r"columns \[1\] do not split"):
            common_reduce(wide_pair)

    def test_rejected_split_raises(self, monkeypatch):
        # With the split check made to refuse everything, a split found by
        # the reducer and a zero column both raise.
        monkeypatch.setattr(gdp.kostka, "_sides", lambda kp, columns: None)
        for lam, mu in (((5, 3, 1), (3, 3, 2, 1)), ((2, 2), (2, 2))):
            with pytest.raises(RuntimeError, match="do not split"):
                common_reduce(KostkaPair(Partition(lam), Partition(mu)))

    def test_wide_pairs_always_split(self):
        rng = random.Random(654)
        pairs = random_kostka_pairs(
            rng, count=60, max_size=12, max_rows=4, require=lambda kp: kp.lam.first > kp.r
        )
        for kp in pairs:
            out = common_reduce(kp)
            assert isinstance(out, ColumnSplit)
            assert split_pair(kp, out.columns) == out.sides
