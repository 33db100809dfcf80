"""The operation each workload times, and the check of each answer.

A workload holds one round of inputs (``items``).  ``call`` is the timed
operation on one item; ``record`` turns its result into a plain comparable
value outside the timed region; ``check`` judges a record against the
computations in ``reference``: it returns None when the answer is right,
FAILED when the program gave no answer, or a message when the answer is
wrong.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import inputs
from reference import kostka_certificate_error, part_error, ref_reducible, split_error

FAILED = "failed"


def _reduce_record(gdp, out):
    if isinstance(out, gdp.Decomposition):
        return ("decomposition", sorted(out.part))
    if isinstance(out, gdp.Irreducible):
        return ("irreducible",)
    if isinstance(out, gdp.Undecided):
        return ("undecided", out.width, out.limit)
    return ("error", type(out).__name__)


def _check_reduce(values, rec):
    """Checks a `reduce` answer without assuming what an Irreducible's
    fields hold: after an exhaustive search they are not a coprime
    certificate."""
    if rec[0] == "decomposition":
        return part_error(values, rec[1])
    if rec[0] == "irreducible":
        return "Irreducible for a reducible list" if ref_reducible(values) else None
    return FAILED


def _kostka_record(gdp, lam, out):
    if isinstance(out, tuple):
        split, (left, right) = out
        return (
            "split",
            sorted(split.columns),
            (left.lam.parts, left.mu.parts),
            (right.lam.parts, right.mu.parts),
        )
    if isinstance(out, gdp.KostkaIrreducible):
        return ("irreducible", out.lam_rect, out.mu_rect)
    return ("error", type(out).__name__)


def _check_kostka(lam, mu, rec):
    if rec[0] == "split":
        return split_error(lam, mu, rec[1], rec[2], rec[3])
    if rec[0] == "irreducible":
        err = kostka_certificate_error(lam, mu)
        if err is None and lam[0] >= len(mu):
            if rec[1] != (len(lam), lam[0]) or rec[2] != (len(mu), mu[0]):
                return "rectangle dimensions in the certificate are wrong"
        return err
    return FAILED


class CorpusReduce:
    """`reduce` on a uniform sample of the corpus."""

    tail_note = "uniform sample of the width 2-10 corpus"

    def __init__(self, gdp, seed):
        self.gdp = gdp
        self.items = inputs.corpus_inputs(seed)
        self.warm = self.items[:50]

    def call(self, item):
        gdp = self.gdp
        return gdp.reduce(gdp.SignedList(item[1]))

    def record(self, item, out):
        return _reduce_record(self.gdp, out)

    def check(self, item, rec):
        return _check_reduce(item[1], rec)


class FallbackSearch(CorpusReduce):
    """`reduce` on cost > width lists, which go to the exhaustive search."""

    def __init__(self, gdp, seed):
        self.gdp = gdp
        self.items = inputs.fallback_inputs(seed)
        self.warm = [it for it in self.items if it[0] == "primitive reducible"][:12]


class KostkaSplit:
    """`common_reduce`, then `split_pair` on a split, for Kostka pairs."""

    def __init__(self, gdp, seed):
        self.gdp = gdp
        self.items = inputs.kostka_inputs(seed)
        self.warm = self.items[:20]

    def call(self, item):
        gdp = self.gdp
        kp = gdp.KostkaPair(gdp.Partition(item[1]), gdp.Partition(item[2]))
        out = gdp.common_reduce(kp)
        if isinstance(out, gdp.ColumnSplit):
            return out, gdp.split_pair(kp, out.columns)
        return out

    def record(self, item, out):
        return _kostka_record(self.gdp, item[1], out)

    def check(self, item, rec):
        return _check_kostka(item[1], item[2], rec)


def _check_cli(argv, rec):
    """The JSON printed by `gdp reduce --json` or `gdp kostka --json` and
    the exit code that goes with its kind."""
    code, stdout = rec
    try:
        out = json.loads(stdout)
    except ValueError:
        return FAILED if code not in (0, 1) else f"exit {code} without JSON output"
    expected = {"decomposition": 0, "split": 0, "irreducible": 1, "undecided": 2}
    if expected.get(out.get("kind")) != code:
        return f"exit code {code} does not match kind {out.get('kind')!r}"
    if argv[0] == "reduce":
        values = tuple(int(v) for v in argv[2].split(","))
        if out["kind"] == "decomposition":
            return part_error(values, out["part"])
        if out["kind"] == "irreducible":
            return _check_reduce(values, ("irreducible",))
        return FAILED
    lam_text, mu_text = argv[2].split("/")
    lam = tuple(int(v) for v in lam_text.split(","))
    mu = tuple(int(v) for v in mu_text.split(","))
    if out["kind"] == "split":
        left = (out["lambda_part"], out["mu_part"])
        right = (out["lambda_rest"], out["mu_rest"])
        return split_error(lam, mu, out["columns"], left, right)
    rect = lambda r: tuple(r) if r is not None else None
    return _check_kostka(lam, mu, ("irreducible", rect(out["lambda_rect"]), rect(out["mu_rect"])))


class CliOneshot:
    """One `python -m gdp` process per request."""

    def __init__(self, gdp, seed, root):
        self.items = inputs.cli_requests(seed)
        self.command = [sys.executable, "-m", "gdp"]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.root = root
        kinds = {}
        for item in self.items:
            kinds.setdefault(item[0], item)
        self.warm = list(kinds.values())

    def call(self, item):
        proc = subprocess.run(
            self.command + item[1],
            capture_output=True,
            text=True,
            env=self.env,
            cwd=self.root,
            timeout=60,
        )
        return proc.returncode, proc.stdout

    def record(self, item, out):
        if isinstance(out, tuple):
            return out
        return (-1, type(out).__name__)

    def check(self, item, rec):
        return _check_cli(item[1], rec)


class CliInProcess(CliOneshot):
    """`gdp.cli.main` called in this process on the same requests, with its
    output captured; used by the traced run."""

    def __init__(self, gdp, seed, root):
        super().__init__(gdp, seed, root)
        import gdp.cli

        self.cli = gdp.cli

    def call(self, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = self.cli.main(list(item[1]))
        return code, buf.getvalue()
