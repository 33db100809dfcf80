"""Seeded inputs for the four workloads, built without gdp.

Every generator takes a seed and returns the same inputs for the same seed.
Lists are tuples of ints, partitions weakly decreasing tuples.  Each
workload has a fixed number of inputs of each kind, so every seed carries
the same mix and the same number of operations per round.

Run ``python3 perfbench/inputs.py --seed N`` to print the make-up of each
workload's inputs.
"""
from __future__ import annotations

import argparse
import math
import random
from collections import Counter

from reference import cost, is_primitive, ref_reducible

CORPUS_STEPS = (-3, -2, -1, 1, 2, 3)
CORPUS_WIDTHS = range(2, 11)
CORPUS_SAMPLE = 5000

# Lists that `reduce` answers with Undecided because they are wider than its
# search limit of 24, although positions {1, 2} split each of them.  They do
# not depend on the seed, so every round fails on exactly these four.
WIDE_LISTS = (
    (3, -3) + (9, 9, 9, -8, -8, -8, -3) * 3 + (1, -1),
    (3, -3) + (9, 9, 9, -8, -8, -8, -3) * 4 + (1, -1),
    (1, -1) + (5, 5, -4, -6) * 6 + (2, -2),
    (7, -7) + (4, 4, 4, -5, -7) * 5,
)

# Multi-peak irreducible lists per width, drawn with entries in [-250, 250]
# until the predicted size of the exhaustive search (see search_work) is
# within IRREDUCIBLE_BAND of the width's median, so each seed carries nearly
# the same search work.
MULTI_PEAK_IRREDUCIBLE = {11: 24, 13: 12, 15: 12, 17: 10, 19: 4}
MULTI_PEAK_MEDIAN_WORK = {11: 1077, 13: 3819, 15: 13431, 17: 47276, 19: 174356}
IRREDUCIBLE_BAND = 0.08
# Single-peak irreducible lists [a]*k + a shuffle of [-(a-1)]*k + [-k], per k
# (width 2k + 1).
SINGLE_PEAK_IRREDUCIBLE = {5: 4, 6: 4, 7: 4, 8: 2}
# Primitive reducible lists per width, whose lexicographic search finds a
# witness within REDUCIBLE_MAX_STEPS loop steps.
PRIMITIVE_REDUCIBLE = {w: 4 for w in range(12, 25)}
REDUCIBLE_MAX_STEPS = 400
FALLBACK_ENTRY_BOUND = 250

KOSTKA_ZERO_COLUMN = 50
KOSTKA_ZERO_FREE = 150
KOSTKA_RECTANGLES = 25  # of each: coprime widths, and widths sharing a factor
KOSTKA_MAX_ROWS = 12

CLI_REDUCE = 24
CLI_KOSTKA_ZERO_FREE = 12
CLI_RECTANGLES = 6  # of each kind

WORKLOADS = ("corpus-reduce", "fallback-search", "kostka-split", "cli-oneshot")


def completion_counts(max_width: int) -> list[list[int]]:
    """counts[r][h]: ways to take r corpus steps from height h down to 0
    without going below 0."""
    top = 3 * max_width
    counts = [[0] * (top + 4) for _ in range(max_width + 1)]
    counts[0][0] = 1
    for r in range(1, max_width + 1):
        for h in range(top + 1):
            counts[r][h] = sum(
                counts[r - 1][h + s] for s in CORPUS_STEPS if 0 <= h + s <= top
            )
    return counts


def corpus_counts() -> dict[int, int]:
    """Number of corpus lists at each width."""
    counts = completion_counts(max(CORPUS_WIDTHS))
    return {w: counts[w][0] for w in CORPUS_WIDTHS}


def _sample_corpus(rng: random.Random, n: int, widths=CORPUS_WIDTHS) -> list[tuple]:
    """n lists drawn uniformly, with replacement, from the corpus lists of
    the given widths."""
    counts = completion_counts(max(widths))
    total = sum(counts[w][0] for w in widths)
    out = []
    for _ in range(n):
        k = rng.randrange(total)
        for w in widths:
            if k < counts[w][0]:
                break
            k -= counts[w][0]
        h, entries = 0, []
        for r in range(w, 0, -1):
            for s in CORPUS_STEPS:
                if h + s < 0:
                    continue
                ways = counts[r - 1][h + s]
                if k < ways:
                    break
                k -= ways
            entries.append(s)
            h += s
        out.append(tuple(entries))
    return out


def regime(values) -> str:
    """Which decider `reduce` dispatches a list to."""
    c, w = cost(values), len(values)
    if c < w:
        return "cost<width"
    if c > w:
        return "cost>width"
    runs = sum(1 for i, v in enumerate(values) if i == 0 or (v > 0) != (values[i - 1] > 0))
    return "cost=width, one peak" if runs == 2 else "cost=width, several peaks"


def corpus_inputs(seed: int) -> list[tuple[str, tuple]]:
    rng = random.Random(seed)
    return [(regime(xs), xs) for xs in _sample_corpus(rng, CORPUS_SAMPLE)]


def search_work(values) -> int:
    """Loop steps of a lexicographic subset search that runs to the end.

    The search visits every subsequence whose prefix sums stay nonnegative
    and, at each, loops over the positions after its last one; this counts
    those steps with a pass over (position, sum)."""
    t = len(values)
    ending = {0: 1}  # subsequences so far, by sum
    steps = t
    for q, x in enumerate(values, 1):
        new = [(s + x, k) for s, k in ending.items() if s + x >= 0]
        for s, k in new:
            ending[s] = ending.get(s, 0) + k
        steps += sum(k for _, k in new) * (t - q)
    return steps


def search_steps_to_witness(values, cap: int) -> int | None:
    """Loop steps a lexicographic subset search takes to its first
    decomposition, or None beyond ``cap`` steps."""
    t = len(values)
    chosen = [False] * t
    steps = 0

    def rest_ok():
        s = 0
        for q in range(t):
            if not chosen[q]:
                s += values[q]
                if s < 0:
                    return False
        return s == 0

    def search(start, running, size):
        nonlocal steps
        for q in range(start, t):
            steps += 1
            if steps > cap:
                raise OverflowError
            s = running + values[q]
            if s < 0:
                continue
            chosen[q] = True
            if s == 0 and size + 1 < t and rest_ok():
                return True
            if search(q + 1, s, size + 1):
                return True
            chosen[q] = False
        return False

    try:
        return steps if search(0, 0, 0) else None
    except OverflowError:
        return None


def _random_catalan(rng: random.Random, width: int, bound: int) -> tuple | None:
    """A generalized Catalan list with entries in [-bound, bound], or None."""
    entries, h = [], 0
    for q in range(width):
        remaining = width - q
        if remaining == 1:
            v = -h
        else:
            while True:
                v = rng.randint(-bound, bound)
                if v and 0 <= h + v <= bound * (remaining - 1):
                    break
        entries.append(v)
        h += v
    return None if 0 in entries else tuple(entries)


def _wide_primitive(rng: random.Random, width: int, accept) -> tuple:
    while True:
        xs = _random_catalan(rng, width, FALLBACK_ENTRY_BOUND)
        if xs and is_primitive(xs) and cost(xs) > width and accept(xs):
            return xs


def fallback_inputs(seed: int) -> list[tuple[str, tuple]]:
    rng = random.Random(seed)
    out = []
    for w, n in MULTI_PEAK_IRREDUCIBLE.items():
        median = MULTI_PEAK_MEDIAN_WORK[w]

        def in_band(xs):
            return not ref_reducible(xs) and (
                abs(search_work(xs) - median) <= IRREDUCIBLE_BAND * median
            )

        out += [("irreducible, several peaks", _wide_primitive(rng, w, in_band)) for _ in range(n)]
    for k, n in SINGLE_PEAK_IRREDUCIBLE.items():
        for _ in range(n):
            a = rng.randint(k + 2, FALLBACK_ENTRY_BOUND)
            downs = [-(a - 1)] * k + [-k]
            rng.shuffle(downs)
            out.append(("irreducible, one peak", (a,) * k + tuple(downs)))
    for w, n in PRIMITIVE_REDUCIBLE.items():

        def quick(xs):
            return search_steps_to_witness(xs, REDUCIBLE_MAX_STEPS) is not None

        out += [("primitive reducible", _wide_primitive(rng, w, quick)) for _ in range(n)]
    out += [("wider than 24", xs) for xs in WIDE_LISTS]
    rng.shuffle(out)
    return out


def _kostka_from_vector(rng: random.Random, x) -> tuple[tuple, tuple] | None:
    """A pair (lambda, mu) whose column vector is x, or None when it needs
    more than KOSTKA_MAX_ROWS rows.  Builds the conjugates from the last
    column back, keeping both weakly decreasing."""
    n = len(x)
    lc = [0] * n
    lc[-1] = max(1, -x[-1]) + (rng.random() < 0.3)
    for j in range(n - 2, -1, -1):
        lc[j] = lc[j + 1] + max(0, x[j + 1] - x[j]) + (rng.random() < 0.1)
    mc = [l + v for l, v in zip(lc, x)]
    if max(lc[0], mc[0]) > KOSTKA_MAX_ROWS:
        return None
    conj = lambda cols: tuple(sum(1 for v in cols if v >= i) for i in range(1, max(cols) + 1))
    return conj(lc), conj(mc)


def _zero_free_vector(rng: random.Random) -> tuple:
    """A generalized Catalan column vector with entries in {±1, ±2}, one to
    three peaks, and runs sorted so that few rows are needed."""
    peaks = rng.randint(1, 3)
    x, h = [], 0
    for i in range(peaks):
        ups = [rng.choice((1, 2)) for _ in range(rng.randint(5, 14))]
        x += sorted(ups, reverse=True)
        h += sum(ups)
        target = 0 if i == peaks - 1 else rng.randint(0, h // 2)
        drop = h - target
        length = rng.randint((drop + 1) // 2, drop)
        twos = drop - length
        x += [-1] * (length - twos) + [-2] * twos
        h = target
    return tuple(x)


def _kostka_pair(rng: random.Random, zeros: int) -> tuple[tuple, tuple]:
    while True:
        x = list(_zero_free_vector(rng))
        if cost(x) >= len(x):
            continue
        for _ in range(zeros):
            x.insert(rng.randint(1, len(x) - 1), 0)
        pair = _kostka_from_vector(rng, x)
        if pair is not None:
            return pair


def _rectangle_pair(rng: random.Random, coprime: bool, max_rows: int, max_cols: int):
    """lambda = (q^m), mu = (m^q) with q > m, so the column vector has one
    peak and cost = width."""
    while True:
        m = rng.randint(2, max_rows)
        q = rng.randint(m + 1, max_cols)
        if (math.gcd(m, q) == 1) == coprime:
            return (q,) * m, (m,) * q


def kostka_inputs(seed: int) -> list[tuple[str, tuple, tuple]]:
    rng = random.Random(seed)
    out = [("zero column", *_kostka_pair(rng, rng.randint(1, 2))) for _ in range(KOSTKA_ZERO_COLUMN)]
    out += [("zero-free, cost<width", *_kostka_pair(rng, 0)) for _ in range(KOSTKA_ZERO_FREE)]
    for coprime, kind in ((True, "rectangles, coprime"), (False, "rectangles, not coprime")):
        out += [(kind, *_rectangle_pair(rng, coprime, 12, 30)) for _ in range(KOSTKA_RECTANGLES)]
    rng.shuffle(out)
    return out


def _pair_text(lam, mu) -> str:
    return ",".join(map(str, lam)) + " / " + ",".join(map(str, mu))


def cli_requests(seed: int) -> list[tuple[str, list[str]]]:
    """(kind, argv after `python -m gdp`) for each request of a round."""
    rng = random.Random(seed)
    out = [
        ("reduce", ["reduce", "--json", ",".join(map(str, xs))])
        for xs in _sample_corpus(rng, CLI_REDUCE, widths=range(6, 11))
    ]
    pairs = [_kostka_pair(rng, 0) for _ in range(CLI_KOSTKA_ZERO_FREE)]
    pairs += [_rectangle_pair(rng, c, 6, 12) for c in (True, False) for _ in range(CLI_RECTANGLES)]
    out += [("kostka", ["kostka", "--json", _pair_text(lam, mu)]) for lam, mu in pairs]
    rng.shuffle(out)
    return out


def describe(seed: int) -> None:
    """Print the make-up of each workload's inputs for one seed."""

    def show(title, counter):
        print(f"  {title}: " + ", ".join(f"{k} {n}" for k, n in sorted(counter.items())))

    corpus = corpus_inputs(seed)
    print(f"corpus-reduce: {len(corpus)} lists")
    show("by width", Counter(len(xs) for _, xs in corpus))
    show("by regime", Counter(kind for kind, _ in corpus))
    print(f"  irreducible: {sum(not ref_reducible(xs) for _, xs in corpus)}")
    fallback = fallback_inputs(seed)
    print(f"fallback-search: {len(fallback)} lists")
    for kind in sorted({k for k, _ in fallback}):
        show(kind + ", by width", Counter(len(xs) for k, xs in fallback if k == kind))
    pairs = kostka_inputs(seed)
    print(f"kostka-split: {len(pairs)} pairs")
    for kind in sorted({k for k, _, _ in pairs}):
        chosen = [(lam, mu) for k, lam, mu in pairs if k == kind]
        widths = [lam[0] for lam, _ in chosen]
        sizes = [sum(lam) for lam, _ in chosen]
        rows = [max(len(lam), len(mu)) for lam, mu in chosen]
        print(f"  {kind}: {len(chosen)}, columns {min(widths)}-{max(widths)}, "
              f"size {min(sizes)}-{max(sizes)}, rows {min(rows)}-{max(rows)}")
    requests = cli_requests(seed)
    print(f"cli-oneshot: {len(requests)} requests")
    show("by command", Counter(kind for kind, _ in requests))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    describe(parser.parse_args().seed)
