import itertools
import pickle

import pytest
from hypothesis import example, given, strategies as st

from gdp.catalan import (
    Decomposition,
    ParseError,
    SignedList,
    _runs,
    _splits,
    _unchecked_decomposition,
    complement,
    cost,
    is_generalized_catalan,
    is_valid_decomposition,
    run_profile,
    sublist,
    width,
)
from conftest import EX12
from sweeps import catalan_corpus, random_catalan

nonzero_entries = st.lists(
    st.integers(-50, 50).filter(lambda v: v != 0), min_size=0, max_size=30
)
# Nonempty lists of one sign: a single run, up or down.
single_run_entries = st.builds(
    lambda values, sign: [sign * v for v in values],
    st.lists(st.integers(1, 50), min_size=1, max_size=30),
    st.sampled_from((1, -1)),
)


def definitional_runs(entries):
    """Runs, y, alphas, betas and cost of a nonempty list by definition:
    maximal blocks of one sign (``itertools.groupby``), the largest
    absolute value in each, half the number of runs, and the sum of the
    maxima."""
    runs, alphas, betas = [], [], []
    first = 1
    for positive, block in itertools.groupby(entries, key=lambda e: e > 0):
        block = list(block)
        last = first + len(block) - 1
        runs.append((1 if positive else -1, first, last))
        (alphas if positive else betas).append(max(map(abs, block)))
        first = last + 1
    return tuple(runs), len(runs) // 2, tuple(alphas), tuple(betas), sum(alphas) + sum(betas)


def definitional_valid_decomposition(xs, positions):
    """Both sides nonempty and in range, and both sublists Catalan."""
    t = len(xs)
    chosen = set(positions)
    if not chosen or len(chosen) >= t or not chosen <= set(range(1, t + 1)):
        return False
    return is_generalized_catalan(sublist(xs, chosen)) and is_generalized_catalan(
        sublist(xs, complement(chosen, t))
    )


class TestSignedList:
    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError, match="position 2"):
            SignedList((1, 0, -1))

    def test_parse_commas_and_whitespace(self):
        assert SignedList.parse("5,5,-3").entries == (5, 5, -3)
        assert SignedList.parse("5 5 -3").entries == (5, 5, -3)
        assert SignedList.parse(" 5, 5 , -3 ").entries == (5, 5, -3)
        xs = SignedList.parse("5,4,-9")
        assert xs[1] == 4 and xs[-1] == -9 and xs[1:] == (4, -9)

    def test_parse_diagnostics(self):
        with pytest.raises(ParseError, match="position 2"):
            SignedList.parse("1,x,3")
        with pytest.raises(ParseError, match="zero entries"):
            SignedList.parse("1,0,3")
        with pytest.raises(ParseError, match="empty token"):
            SignedList.parse("1,,3")
        with pytest.raises(ParseError, match="empty token"):
            SignedList.parse("1,2,")
        with pytest.raises(ParseError, match="empty input"):
            SignedList.parse("   ")

    @given(nonzero_entries.filter(bool))
    def test_parse_format_round_trip(self, entries):
        xs = SignedList(tuple(entries))
        assert SignedList.parse(xs.format()) == xs

    def test_empty_format_refuses_round_trip(self):
        with pytest.raises(ParseError):
            SignedList.parse(SignedList(()).format())


class TestCatalanPredicate:
    def test_example_list_is_catalan(self):
        assert is_generalized_catalan(SignedList(EX12))

    def test_small_cases(self):
        assert is_generalized_catalan(SignedList((1, -1, 1, -1)))
        assert not is_generalized_catalan(SignedList((-1, 1)))
        assert is_generalized_catalan(SignedList(()))
        assert not is_generalized_catalan(SignedList((1, -1, 1)))

    @given(nonzero_entries)
    def test_matches_prefix_sum_characterization(self, entries):
        xs = SignedList(tuple(entries))
        sums = tuple(itertools.accumulate(entries))
        expected = (not sums) or (sums[-1] == 0 and min(sums) >= 0)
        assert is_generalized_catalan(xs) == expected


class TestRunProfile:
    def test_example_list(self):
        prof = run_profile(SignedList(EX12))
        assert len(prof.runs) == 4
        assert prof.y == 2
        assert prof.alphas == (5, 5)
        assert prof.betas == (3, 4)
        assert prof.runs == ((1, 1, 4), (-1, 5, 10), (1, 11, 14), (-1, 15, 19))

    def test_single_pair(self):
        prof = run_profile(SignedList((1, -1)))
        assert len(prof.runs) == 2
        assert prof.y == 1
        assert prof.alphas == (1,)
        assert prof.betas == (1,)

    def test_two_then_down(self):
        prof = run_profile(SignedList((2, -1, -1)))
        assert prof.y == 1
        assert prof.alphas == (2,)
        assert prof.betas == (1,)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            run_profile(SignedList(()))

    @given(nonzero_entries.filter(bool))
    def test_runs_tile_positions(self, entries):
        prof = run_profile(SignedList(tuple(entries)))
        covered = []
        for _, first, last in prof.runs:
            covered.extend(range(first, last + 1))
        assert covered == list(range(1, len(entries) + 1))
        # runs alternate in sign
        signs = [sign for sign, _, _ in prof.runs]
        assert all(a != b for a, b in zip(signs, signs[1:]))

    @given(st.one_of(nonzero_entries.filter(bool), single_run_entries))
    @example([-1])
    @example([4])
    @example([-2, 1])
    @example([1, -1, -2])
    @example([-3, -3, 2, 5, -1, -1])
    def test_matches_groupby_reference(self, entries):
        prof = run_profile(SignedList(tuple(entries)))
        assert (prof.runs, prof.y, prof.alphas, prof.betas, prof.cost) == (
            definitional_runs(entries)
        )

    @given(nonzero_entries.filter(bool))
    def test_catalan_lists_have_even_runs_starting_positive(self, entries):
        xs = SignedList(tuple(entries))
        if is_generalized_catalan(xs):
            prof = run_profile(xs)
            assert len(prof.runs) == 2 * prof.y
            assert prof.runs[0][0] > 0


class TestRunKernel:
    """``_runs``, the run kernel of ``run_profile`` and of every decider,
    against :func:`definitional_runs`: each run's last position, and the
    up-run and down-run maxima."""

    @staticmethod
    def expected(entries):
        runs, _, alphas, betas, _ = definitional_runs(entries)
        return [last for _, _, last in runs], list(alphas), list(betas)

    def test_pinned_lists(self):
        assert _runs((2, 1, -1, -1, -1, 3, -2, -1)) == ([2, 5, 6, 8], [2, 3], [1, 2])
        assert _runs((-1, 2)) == ([1, 2], [2], [1])

    def test_matches_definition_on_corpus(self):
        for rows in catalan_corpus(8).values():
            for row in rows:
                entries = tuple(map(int, row))
                assert _runs(entries) == self.expected(entries), entries

    def test_matches_definition_on_every_short_list(self):
        # Every nonzero list of width <= 5 over [-3, 3], half of them
        # starting negative.
        values = (-3, -2, -1, 1, 2, 3)
        for t in range(1, 6):
            for entries in itertools.product(values, repeat=t):
                assert _runs(entries) == self.expected(entries), entries

    @pytest.mark.parametrize(
        "entries",
        [
            (2**64,),
            (-(2**64) - 1,),
            (2**64, 2**64 + 1, -(2**65), -1),
            (-(2**70), 3, 2**64 + 7, 2**64 + 6, -5, -(2**64) - 9, 10**30),
            (1, -(2**64), 2**64, -1),
        ],
    )
    def test_matches_definition_past_64_bits(self, entries):
        assert _runs(entries) == self.expected(entries)


class TestCostWidth:
    @pytest.mark.parametrize(
        "entries,c,w",
        [(EX12, 17, 19), ((1, -1), 2, 2), ((2, -1, -1), 3, 3)],
    )
    def test_examples(self, entries, c, w):
        xs = SignedList(entries)
        assert cost(xs) == c
        assert width(xs) == w

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            cost(SignedList(()))
        with pytest.raises(ValueError):
            width(SignedList(()))

    @given(nonzero_entries.filter(bool))
    def test_cost_is_sum_of_run_maxima(self, entries):
        xs = SignedList(tuple(entries))
        prof = run_profile(xs)
        assert cost(xs) == sum(prof.alphas) + sum(prof.betas)
        assert width(xs) == len(entries)


class TestSublist:
    def test_example_witness(self):
        xs = SignedList(EX12)
        assert sublist(xs, {1, 5, 10, 14, 15}).entries == (5, -3, -1, 3, -4)

    def test_identity(self):
        xs = SignedList(EX12)
        assert sublist(xs, range(1, 20)) == xs

    def test_reordered_restriction(self):
        w = SignedList((5, -3, 5, -3, -3, 4, -3, 4, -3, -1, 5, -4, 5, -4, -4, 5, -4, 3, -4))
        t_set = {3, 4, 6, 9, 10, 11, 12, 13, 14, 15}
        assert sublist(w, t_set).entries == (5, -3, 4, -3, -1, 5, -4, 5, -4, -4)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            sublist(SignedList((1, -1)), {3})

    def test_complement_refuses_positions_outside_the_width(self):
        # A position outside [t] is refused as sublist refuses it, not dropped.
        for positions, bad in (({0, 9}, 0), ({1, 9}, 9), ([4], 4)):
            with pytest.raises(ValueError, match=f"position {bad} out of range for width 3"):
                complement(positions, 3)
        with pytest.raises(TypeError):
            complement({1.5}, 3)
        assert complement([True, 3, 3], 3) == {2}

    @given(nonzero_entries.filter(bool), st.data())
    def test_parts_partition_the_multiset(self, entries, data):
        xs = SignedList(tuple(entries))
        t = len(entries)
        part = data.draw(st.sets(st.integers(1, t), max_size=t))
        rest = complement(part, t)
        merged = sorted(sublist(xs, part).entries) + sorted(sublist(xs, rest).entries)
        assert sorted(merged) == sorted(entries)
        # relative order within each part matches the original list
        chosen = [entries[p - 1] for p in sorted(part)]
        assert sublist(xs, part).entries == tuple(chosen)


class TestIsValidDecomposition:
    def test_known_witness(self):
        assert is_valid_decomposition(SignedList(EX12), {1, 5, 10, 14, 15})

    def test_two_one_one_has_no_split(self):
        xs = SignedList((2, -1, -1))
        for size in range(0, 4):
            for part in itertools.combinations(range(1, 4), size):
                assert not is_valid_decomposition(xs, part)

    def test_alternating_pair(self):
        assert is_valid_decomposition(SignedList((1, -1, 1, -1)), {1, 2})

    def test_rejects_out_of_range_and_trivial(self):
        xs = SignedList((1, -1, 1, -1))
        assert not is_valid_decomposition(xs, set())
        assert not is_valid_decomposition(xs, {1, 2, 3, 4})
        assert not is_valid_decomposition(xs, {1, 7})
        # {1, 2} splits this list, so only the range check refuses these two.
        assert not is_valid_decomposition(xs, {0, 1, 2})
        assert not is_valid_decomposition(xs, {1, 2, 5})
        # A repeated position counts once.
        assert is_valid_decomposition(xs, [1, 2, 2])

    @given(nonzero_entries.filter(lambda e: len(e) >= 2), st.data())
    def test_complement_symmetry(self, entries, data):
        xs = SignedList(tuple(entries))
        t = len(entries)
        part = data.draw(st.sets(st.integers(1, t), max_size=t))
        assert is_valid_decomposition(xs, part) == is_valid_decomposition(
            xs, complement(part, t)
        )


    @given(st.randoms(), st.data())
    def test_matches_sublist_reference(self, rng, data):
        # Interleave two Catalan lists, so that the positions of the first
        # split the result, then ask about those positions, those positions
        # repeated, those positions with a few toggled, or any positions in
        # 0..t+1.
        a = random_catalan(rng.randint(2, 8), rng)
        b = random_catalan(rng.randint(2, 8), rng)
        order = [0] * len(a) + [1] * len(b)
        rng.shuffle(order)
        sources = [iter(a), iter(b)]
        xs = SignedList(tuple(next(sources[k]) for k in order))
        t = len(xs)
        split = [q for q, k in enumerate(order, 1) if k == 0]
        positions = data.draw(
            st.one_of(
                st.just(split),
                st.just(split + split[:2]),
                st.sets(st.integers(1, t), max_size=3).map(set(split).symmetric_difference),
                st.lists(st.integers(0, t + 1), max_size=t + 2),
                st.lists(st.sampled_from([0, *split, t + 1]), max_size=t + 2),
            )
        )
        assert is_valid_decomposition(xs, positions) == (
            definitional_valid_decomposition(xs, positions)
        )

    def test_matches_sublist_reference_on_every_small_split(self):
        # Every position set of every Catalan list of width <= 6 in [-3, 3],
        # alone and with 0 or t + 1 added, through the public check and
        # through the kernel given a frozenset, as ``reduce`` gives it.
        for t, rows in catalan_corpus(max_t=6).items():
            for row in rows.tolist():
                xs = SignedList(tuple(row))
                for size in range(t + 1):
                    for part in itertools.combinations(range(1, t + 1), size):
                        for extra in ((), (0,), (t + 1,)):
                            positions = part + extra
                            want = definitional_valid_decomposition(xs, positions)
                            assert is_valid_decomposition(xs, positions) == want, (
                                row, positions
                            )
                            assert _splits(xs.entries, frozenset(positions)) == want, (
                                row, positions
                            )


class TestDecomposition:
    def test_positions_sorted(self):
        assert Decomposition(frozenset({3, 1, 2})).positions == (1, 2, 3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Decomposition(frozenset())

    def test_unchecked_builder_keeps_the_set(self):
        # The deciders' builder stores their own frozenset, uncopied, and
        # gives the value that the public constructor gives.
        part = frozenset({3, 1, 2})
        d = _unchecked_decomposition(part)
        assert d.part is part
        assert d == Decomposition([1, 2, 3]) and hash(d) == hash(Decomposition(part))
        assert d.positions == (1, 2, 3)
        assert repr(d) == repr(Decomposition(part))
        assert pickle.loads(pickle.dumps(d)) == d
