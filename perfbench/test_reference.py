"""Tests of the benchmark's checker and input generators; gdp is not used.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

import pytest

import inputs
import reference
import spans

STEPS = (-3, -2, -1, 1, 2, 3)


def corpus_lists(max_width):
    """Every generalized Catalan list of width 2..max_width with entries in
    [-3, 3], by depth-first extension of prefixes that stay nonnegative."""
    out = []

    def extend(prefix, height):
        if len(prefix) >= 2 and height == 0:
            out.append(tuple(prefix))
        if len(prefix) == max_width:
            return
        for s in STEPS:
            if 0 <= height + s <= 3 * (max_width - len(prefix) - 1):
                prefix.append(s)
                extend(prefix, height + s)
                prefix.pop()

    extend([], 0)
    return out


def exhaustive_reducible(values) -> bool:
    """Try every proper nonempty subset of positions."""
    t = len(values)
    for mask in range(1, (1 << t) - 1):
        inside = outside = 0
        for q, v in enumerate(values):
            if mask >> q & 1:
                inside += v
            else:
                outside += v
            if inside < 0 or outside < 0:
                break
        else:
            if inside == 0 and outside == 0:
                return True
    return False


@pytest.fixture(scope="module")
def small_corpus():
    return corpus_lists(8)


def test_reference_decider_matches_subset_enumeration(small_corpus):
    for xs in small_corpus:
        assert reference.ref_reducible(xs) == exhaustive_reducible(xs), xs


def test_corpus_counts_match_enumeration_and_total(small_corpus):
    counts = inputs.corpus_counts()
    by_width = Counter(len(xs) for xs in small_corpus)
    assert {w: counts[w] for w in range(2, 9)} == dict(sorted(by_width.items()))
    assert sum(counts.values()) == 539_206


def test_corpus_sample_is_seeded_and_in_the_corpus():
    a = inputs.corpus_inputs(7)
    assert a == inputs.corpus_inputs(7)
    assert a != inputs.corpus_inputs(8)
    assert len(a) == inputs.CORPUS_SAMPLE
    for kind, xs in a:
        assert 2 <= len(xs) <= 10 and set(xs) <= set(STEPS)
        assert reference.is_catalan(xs)
        assert kind == inputs.regime(xs)


def test_part_error():
    xs = (2, 1, -1, -1, -1)
    assert reference.part_error(xs, [2, 5]) is None
    assert reference.part_error(xs, [1, 4, 5]) is None
    assert reference.part_error(xs, [1, 2]) is not None  # sum 3
    assert reference.part_error(xs, [1, 2, 3, 4, 5]) is not None
    assert reference.part_error(xs, []) is not None
    assert reference.part_error(xs, [0, 2]) is not None
    assert reference.part_error(xs, [2, 2, 5]) is not None


def test_cost_and_primitive():
    xs = (5, 5, 4, 4, -3, -3, -3, -3, -3, -1, 5, 5, 5, 3, -4, -4, -4, -4, -4)
    assert reference.cost(xs) == 17
    assert reference.is_primitive((2, -1, 1, -2))
    assert not reference.is_primitive((1, -1, 1, -1))


def test_split_error_on_known_split():
    lam, mu = (5, 3, 1), (3, 3, 2, 1)
    assert reference.column_vector(lam, mu) == (1, 1, 0, -1, -1)
    left = ((1, 1), (1, 1))
    right = ((4, 2, 1), (2, 2, 2, 1))
    assert reference.split_error(lam, mu, [3], left, right) is None
    assert reference.split_error(lam, mu, [3], right, left) is not None
    assert reference.split_error(lam, mu, [1]) is not None
    assert reference.split_error(lam, mu, [1, 2, 3, 4, 5]) is not None


def test_kostka_certificate():
    assert reference.kostka_certificate_error((3, 3), (2, 2, 2)) is None
    assert reference.kostka_certificate_error((4, 4), (2, 2, 2, 2)) is not None
    assert reference.kostka_certificate_error((1,), (1,)) is None
    assert reference.kostka_certificate_error((5, 3, 1), (3, 3, 2, 1)) is not None


def test_wide_lists_are_split_by_their_first_two_positions():
    for xs in inputs.WIDE_LISTS:
        assert len(xs) > 24 and reference.cost(xs) > len(xs)
        assert reference.part_error(xs, [1, 2]) is None


def explicit_search_steps(values):
    """Loop steps of the lexicographic subset search run to its end."""
    t = len(values)
    steps = 0

    def search(start, running):
        nonlocal steps
        for q in range(start, t):
            steps += 1
            if running + values[q] >= 0:
                search(q + 1, running + values[q])

    search(0, 0)
    return steps


def test_search_work_counts_the_search():
    for xs in [(2, 1, -1, -1, -1), (5, 5, 5, -4, -4, -4, -3), (3, -1, 2, -4, 1, -1)]:
        assert inputs.search_work(xs) == explicit_search_steps(xs)


@pytest.mark.parametrize("seed", [1, 2])
def test_fallback_inputs(seed):
    items = inputs.fallback_inputs(seed)
    assert items == inputs.fallback_inputs(seed)
    kinds = Counter(kind for kind, _ in items)
    assert kinds == {
        "irreducible, several peaks": sum(inputs.MULTI_PEAK_IRREDUCIBLE.values()),
        "irreducible, one peak": sum(inputs.SINGLE_PEAK_IRREDUCIBLE.values()),
        "primitive reducible": sum(inputs.PRIMITIVE_REDUCIBLE.values()),
        "wider than 24": len(inputs.WIDE_LISTS),
    }
    for kind, xs in items:
        assert reference.is_catalan(xs) and reference.cost(xs) > len(xs)
        assert reference.ref_reducible(xs) == (not kind.startswith("irreducible"))
        if kind != "wider than 24":
            assert len(xs) <= 24 and reference.is_primitive(xs)


@pytest.mark.parametrize("seed", [1, 2])
def test_kostka_inputs(seed):
    items = inputs.kostka_inputs(seed)
    assert items == inputs.kostka_inputs(seed)
    for kind, lam, mu in items:
        assert reference.dominates(lam, mu)
        vec = reference.column_vector(lam, mu)
        if kind == "zero column":
            assert 0 in vec
        elif kind == "zero-free, cost<width":
            assert 0 not in vec and reference.cost(vec) < len(vec)
            assert max(len(lam), len(mu)) <= inputs.KOSTKA_MAX_ROWS
        else:
            coprime = math.gcd(lam[0], mu[0]) == 1
            assert kind == ("rectangles, coprime" if coprime else "rectangles, not coprime")
            assert reference.ref_reducible(vec) != coprime


def test_cli_requests_parse_back():
    for kind, argv in inputs.cli_requests(3):
        assert argv[0] == kind and argv[1] == "--json"
        if kind == "reduce":
            assert reference.is_catalan(tuple(int(v) for v in argv[2].split(",")))
        else:
            lam, mu = (tuple(int(v) for v in side.split(",")) for side in argv[2].split("/"))
            assert reference.dominates(lam, mu)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(inputs.WORKLOADS)
