"""Acceptance criteria, one test per criterion.

Each test prints one `criterion N: PASS/FAIL` line (visible with `-s`).
The heavy sweeps share session fixtures: the exhaustive corpus of Catalan
lists with width up to 10 and entries in [-3, 3], and a full-corpus greedy
reordering pass whose permutations feed the numpy subset kernel.
"""
import json
import math
import random
import time
from collections import defaultdict
from functools import cache

import numpy as np
import pytest

from gdp import cli
from gdp.catalan import (
    Decomposition,
    SignedList,
    is_generalized_catalan,
    is_valid_decomposition,
    run_profile,
    sublist,
)
from gdp.kostka import (
    ColumnSplit,
    KostkaIrreducible,
    KostkaPair,
    Partition,
    common_reduce,
    restrict_columns,
    split_pair,
)
from gdp.oracle import (
    enumerate_hilbert_basis,
    kostka_reducible_bruteforce,
    reducible_bruteforce,
)
from gdp.reducer import Irreducible, reduce
from gdp.render import path_points, render_svg
from gdp.staircase import build_pi

from conftest import EX12
from sweeps import (
    all_catalan_subsets,
    catalan_corpus,
    check_order_transfer,
    count_catalan_lists,
    dominance_pairs,
    phase_invariants_ok,
    random_catalan,
    random_kostka_pairs,
    restrict_through,
    restriction_transfer_sweep,
)

EX12_TEXT = ",".join(str(v) for v in EX12)
EX12_WITNESS = {1, 5, 10, 14, 15}


class Criterion:
    def __init__(self, n):
        self.n = n
        self.failures = []

    def check(self, condition, label):
        if not condition:
            self.failures.append(label)

    def done(self, detail=""):
        import conftest

        if self.failures:
            line = f"criterion {self.n}: FAIL - " + "; ".join(self.failures)
            conftest.ACCEPTANCE_LINES.append(line)
            print(line)
            pytest.fail(f"criterion {self.n}: " + "; ".join(self.failures))
        line = f"criterion {self.n}: PASS" + (f" - {detail}" if detail else "")
        conftest.ACCEPTANCE_LINES.append(line)
        print(line)


@pytest.fixture(scope="session")
def corpus():
    """Exhaustive Catalan lists, width 2..10, entries in [-3, 3], built by
    the numpy generator and timed for the runtime accounting of criterion 3.
    """
    started = time.perf_counter()
    arrays = catalan_corpus(max_t=10)
    return {"arrays": arrays, "elapsed": time.perf_counter() - started}


@pytest.fixture(scope="session")
def lemma_sweep(corpus):
    """Library pass over the full corpus: greedy permutation plus the
    bijection, reordered-Catalan, order-transfer, and phase checks."""
    started = time.perf_counter()
    fails = {"bijection": 0, "reordered_catalan": 0, "order_transfer": 0, "phase": 0}
    perms = {}
    total = 0
    for t, arr in corpus["arrays"].items():
        expect = list(range(1, t + 1))
        pm = np.empty_like(arr)
        for i, entries in enumerate(arr.tolist()):
            xs = SignedList(tuple(entries))
            p = build_pi(xs)
            one_line = p.one_line
            if sorted(one_line) != expect:
                fails["bijection"] += 1
            if not is_generalized_catalan(p.reordered):
                fails["reordered_catalan"] += 1
            if not check_order_transfer(xs, p):
                fails["order_transfer"] += 1
            prof = run_profile(xs)
            if not phase_invariants_ok(xs, p, prof):
                fails["phase"] += 1
            pm[i] = one_line
        pm -= 1
        perms[t] = pm
        total += len(arr)
    return {
        "fails": fails,
        "perms": perms,
        "total": total,
        "elapsed": time.perf_counter() - started,
    }


def test_criterion_1_example_fixture(capsys):
    c = Criterion(1)
    started = time.perf_counter()
    xs = SignedList(EX12)
    from gdp.catalan import cost, width

    c.check(is_generalized_catalan(xs), "catalan verdict")
    c.check(cost(xs) == 17, "cost")
    c.check(width(xs) == 19, "width")
    code = cli.main(["reduce", "--json", EX12_TEXT])
    record = json.loads(capsys.readouterr().out)
    c.check(code == 0, "cmd_reduce exit status")
    c.check(record["kind"] == "decomposition", "cmd_reduce kind")
    c.check(is_valid_decomposition(xs, record["part"]), "emitted decomposition")
    c.check(is_valid_decomposition(xs, EX12_WITNESS), "known witness")
    elapsed = time.perf_counter() - started
    c.check(elapsed < 0.1, f"runtime {elapsed:.3f}s exceeds 0.1s")
    c.done(f"cost=17 width=19 part={record['part']} in {elapsed * 1000:.0f}ms")


def test_criterion_2_golden_permutation():
    c = Criterion(2)
    p = build_pi(SignedList(EX12))
    c.check(
        p.one_line == (1, 5, 2, 6, 7, 3, 8, 4, 9, 10, 11, 15, 12, 16, 17, 13, 18, 14, 19),
        "one-line notation",
    )
    c.check(
        p.reordered.entries
        == (5, -3, 5, -3, -3, 4, -3, 4, -3, -1, 5, -4, 5, -4, -4, 5, -4, 3, -4),
        "reordered list",
    )
    c.done(p.one_line_text())


def lexicographic_catalan(t, lo=-3, hi=3):
    """Every Catalan list of width t with nonzero entries in [lo, hi], in
    lexicographic order, by plain recursion over (steps left, prefix sum)."""
    cands = [e for e in range(lo, hi + 1) if e != 0]

    @cache
    def tails(rem, s):
        if rem == 0:
            return [()] if s == 0 else []
        return [
            (e,) + tail for e in cands if s + e >= 0 for tail in tails(rem - 1, s + e)
        ]

    return tails(t, 0)


def test_sweep_kernel_matches_library_enumeration(corpus, lemma_sweep):
    """Not a numbered criterion: ties the numpy kernels to plain Python and
    to the library.  The corpus must equal a plain recursive enumeration row
    for row; on a sample of the corpus the subset kernel must agree with the
    library's own subset enumeration and restriction transfer; and on
    shuffled permutations, which break restriction transfer, it must report
    the same violations as a count made through the library."""
    for t, arr in corpus["arrays"].items():
        assert arr.tolist() == [list(row) for row in lexicographic_catalan(t)]

    rng = random.Random(99)
    widths = sorted(corpus["arrays"])
    for _ in range(300):
        t = rng.choice(widths)
        arr = corpus["arrays"][t]
        i = rng.randrange(len(arr))
        entries = tuple(int(v) for v in arr[i])
        xs = SignedList(entries)
        p = build_pi(xs)
        subsets = all_catalan_subsets(p.reordered)
        bad, seen = restriction_transfer_sweep(
            arr[i : i + 1], lemma_sweep["perms"][t][i : i + 1]
        )
        assert bad == 0
        assert seen == len(subsets)
        for steps in subsets:
            if steps:
                image = restrict_through(xs, p, steps)
                assert is_generalized_catalan(sublist(xs, image))

    violations = 0
    for _ in range(200):
        t = rng.randint(2, 12)
        entries = random_catalan(t, rng)
        perm = list(range(t))
        rng.shuffle(perm)
        xs = SignedList(entries)
        subsets = all_catalan_subsets(SignedList(tuple(entries[q] for q in perm)))
        bad = sum(
            not is_generalized_catalan(sublist(xs, {perm[h - 1] + 1 for h in steps}))
            for steps in subsets
        )
        got = restriction_transfer_sweep(
            np.array([entries], dtype=np.int64), np.array([perm], dtype=np.int64)
        )
        assert got == (bad, len(subsets))
        violations += bad
    assert violations > 0


def test_criterion_3_property_suite(corpus, lemma_sweep):
    c = Criterion(3)
    expected_total = sum(count_catalan_lists(t) for t in range(2, 11))
    c.check(lemma_sweep["total"] == expected_total, "corpus size mismatch")
    for name, count in lemma_sweep["fails"].items():
        c.check(count == 0, f"{name} failures: {count}")

    started = time.perf_counter()
    transfer_bad = 0
    subsets_seen = 0
    for t, arr in corpus["arrays"].items():
        bad, seen = restriction_transfer_sweep(arr, lemma_sweep["perms"][t])
        transfer_bad += bad
        subsets_seen += seen
    c.check(transfer_bad == 0, f"restriction transfer violations: {transfer_bad}")
    kernel_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    rng = random.Random(2026)
    group_entries = defaultdict(list)
    group_perms = defaultdict(list)
    random_fails = 0
    n_random = 10_000
    for _ in range(n_random):
        t = rng.randint(2, 14)
        entries = random_catalan(t, rng)
        xs = SignedList(entries)
        p = build_pi(xs)
        prof = run_profile(xs)
        ok = (
            sorted(p.one_line) == list(range(1, t + 1))
            and is_generalized_catalan(p.reordered)
            and check_order_transfer(xs, p)
            and phase_invariants_ok(xs, p, prof)
        )
        if not ok:
            random_fails += 1
        group_entries[t].append(entries)
        group_perms[t].append([q - 1 for q in p.one_line])
    for t, rows in group_entries.items():
        bad, seen = restriction_transfer_sweep(
            np.array(rows, dtype=np.int64), np.array(group_perms[t], dtype=np.int64)
        )
        random_fails += bad
        subsets_seen += seen
    c.check(random_fails == 0, f"random-sample failures: {random_fails}")
    random_elapsed = time.perf_counter() - started

    elapsed = (
        corpus["elapsed"] + lemma_sweep["elapsed"] + kernel_elapsed + random_elapsed
    )
    c.check(elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s")
    c.done(
        f"{lemma_sweep['total']} exhaustive + {n_random} random lists, "
        f"{subsets_seen} Catalan subsets transferred, {elapsed:.1f}s"
    )


def test_criterion_4_case_coverage(corpus):
    c = Criterion(4)
    counts = {"strict": 0, "equality": 0, "single_peak": 0, "irreducible": 0}
    bad_strict = bad_equality = bad_single = 0
    for t, arr in corpus["arrays"].items():
        for entries in arr.tolist():
            xs = SignedList(tuple(entries))
            prof = run_profile(xs)
            total_cost = sum(prof.alphas) + sum(prof.betas)
            if total_cost < t:
                counts["strict"] += 1
                if not is_valid_decomposition(xs, reduce(xs).part):
                    bad_strict += 1
            elif total_cost == t and prof.y > 1:
                counts["equality"] += 1
                if not is_valid_decomposition(xs, reduce(xs).part):
                    bad_equality += 1
            elif total_cost == t:
                counts["single_peak"] += 1
                outcome = reduce(xs)
                witness = reducible_bruteforce(xs)
                if isinstance(outcome, Irreducible):
                    counts["irreducible"] += 1
                    if witness is not None:
                        bad_single += 1
                elif not (
                    is_valid_decomposition(xs, outcome.part) and witness is not None
                ):
                    bad_single += 1
    c.check(bad_strict == 0, f"strict-case failures: {bad_strict}")
    c.check(bad_equality == 0, f"equality-case failures: {bad_equality}")
    c.check(bad_single == 0, f"single-peak mismatches: {bad_single}")
    for name in ("strict", "equality", "single_peak", "irreducible"):
        c.check(counts[name] > 0, f"no {name} instances exercised")
    c.done(
        "strict={strict} equality={equality} single_peak={single_peak} "
        "(irreducible={irreducible}), zero mismatches".format(**counts)
    )


def test_criterion_5_fixtures():
    c = Criterion(5)
    out = reduce(SignedList((2, -1, -1)))
    c.check(isinstance(out, Irreducible), "(2,-1,-1) must be irreducible")
    c.check(
        reducible_bruteforce(SignedList((2, -1, -1))) is None,
        "(2,-1,-1) brute force must agree",
    )
    xs = SignedList((2, 2, -2, -2))
    split = reduce(xs)
    c.check(isinstance(split, Decomposition), "(2,2,-2,-2) must decompose")
    c.check(is_valid_decomposition(xs, split.part), "(2,2,-2,-2) witness invalid")
    c.check(
        reducible_bruteforce(xs) is not None, "(2,2,-2,-2) brute force must agree"
    )
    c.done(f"(2,-1,-1) irreducible; (2,2,-2,-2) part={sorted(split.part)}")


def test_criterion_6_kostka_fixture():
    c = Criterion(6)
    kp = KostkaPair(Partition((5, 3, 1)), Partition((3, 3, 2, 1)))
    out = common_reduce(kp)
    c.check(isinstance(out, ColumnSplit), "no column split returned")
    if isinstance(out, ColumnSplit):
        c.check(split_pair(kp, out.columns) == out.sides, "returned split rejected")
    c.check(
        restrict_columns(kp.lam, {1, 3, 5}).parts == (3, 2, 1),
        "restriction of the first partition to {1,3,5}",
    )
    left, right = split_pair(kp, {1, 3, 5})  # ValueError: known columns rejected
    c.check(
        (left.lam.parts, left.mu.parts) == ((3, 2, 1), (2, 2, 1, 1)),
        "pair restricted to {1,3,5}",
    )
    c.check(
        (right.lam.parts, right.mu.parts) == ((2, 1), (1, 1, 1)),
        "pair restricted to the complement {2,4}",
    )
    columns = sorted(out.columns) if isinstance(out, ColumnSplit) else None
    c.done(f"split columns={columns}; known {{1,3,5}} verified")


def test_criterion_7_width_bound_splits():
    c = Criterion(7)
    rng = random.Random(7)
    pairs = random_kostka_pairs(
        rng,
        count=1000,
        max_size=12,
        max_rows=4,
        require=lambda kp: kp.lam.first > kp.r,
    )
    split_failures = 0
    for kp in pairs:
        out = common_reduce(kp)
        if not isinstance(out, ColumnSplit) or split_pair(kp, out.columns) != out.sides:
            split_failures += 1
    c.check(split_failures == 0, f"wide pairs without splits: {split_failures}")

    # Certificates arise in the regime lambda_1 >= length(mu); sweep it
    # exhaustively at small size and validate each certificate.
    certificates = 0
    for kp in dominance_pairs(8, 4, r=4):
        if kp.lam.first < kp.mu.length:
            continue
        out = common_reduce(kp)
        if isinstance(out, KostkaIrreducible):
            certificates += 1
            c.check(
                out.lam_rect is not None and out.mu_rect is not None,
                f"non-rectangle certificate for {kp.format()}",
            )
            c.check(
                math.gcd(kp.lam.first, kp.mu.first) == 1,
                f"non-coprime certificate for {kp.format()}",
            )
            c.check(
                kostka_reducible_bruteforce(kp) is None,
                f"brute force splits certified pair {kp.format()}",
            )
        else:
            c.check(
                split_pair(kp, out.columns) == out.sides,
                f"bad split for {kp.format()}",
            )
    c.check(certificates > 0, "no irreducibility certificates exercised")
    c.done(f"1000 wide pairs split; {certificates} certificates validated")


def test_criterion_8_hilbert_basis_width_bound():
    c = Criterion(8)
    started = time.perf_counter()
    sizes = {}
    for r in (2, 3):
        basis = enumerate_hilbert_basis(r, 6)
        sizes[r] = len(basis)
        c.check(basis != [], f"empty basis for r={r}")
        over = [kp.format() for kp in basis if kp.lam.first > r]
        c.check(not over, f"width bound violated at r={r}: {over}")
    elapsed = time.perf_counter() - started
    c.check(elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5 minutes")
    c.done(f"|basis(2,6)|={sizes[2]}, |basis(3,6)|={sizes[3]}, {elapsed:.1f}s")


def test_criterion_9_svg_geometry():
    c = Criterion(9)
    xs = SignedList(EX12)
    pts = path_points(xs, scale=1)
    c.check(pts[-1] == (72, 0), f"endpoint {pts[-1]} != (72, 0)")
    c.check(max(y for _, y in pts) == 20, "peak height != 20")
    c.check((52, 20) in pts, "peak vertex != (52, 20)")
    svg = render_svg(xs, highlight=EX12_WITNESS, scale=1)
    c.check(svg.count('class="seg"') == 19, "segment count != 19")
    c.done("endpoint (72,0), peak (52,20), 19 segments")
