"""Core types and predicates for signed integer lists seen as lattice walks.

A list of nonzero integers is *generalized Catalan* when its entries sum to
zero and no prefix sum is negative.  Geometrically this is a generalized Dyck
path: entry x_q is a diagonal step of horizontal extent |x_q| and vertical
change x_q, and the path starts and ends on the axis without dipping below it.

Conventions used throughout the package:
  * positions are 1-based in every public interface;
  * the empty list counts as generalized Catalan (vacuously) but is never
    reducible;
  * zero entries are rejected at construction time (the Kostka module has its
    own zero-tolerant prefix check for column vectors).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from operator import index as _as_int


class ParseError(ValueError):
    """Malformed text input for a list or partition."""


class BudgetExceededError(RuntimeError):
    """A search was asked to exceed its budget."""


_EMPTY_TOKEN = re.compile(r"(?:^|,)\s*(?:,|$)")


def parse_ints(build, text: str, what: str, item: str):
    """``build`` of the comma- or whitespace-separated integers in ``text``,
    with no empty tokens.  ``what`` names the value and ``item`` a token in
    messages; a ValueError from ``build`` becomes a ParseError."""
    stripped = text.strip()
    if not stripped:
        raise ParseError(f"empty input: expected {what}")
    if _EMPTY_TOKEN.search(stripped):
        raise ParseError("empty token: two separators with nothing between them")
    values = []
    for pos, tok in enumerate(stripped.replace(",", " ").split(), 1):
        try:
            values.append(int(tok))
        except ValueError:
            raise ParseError(f"{item} {pos}: {tok!r} is not an integer") from None
    try:
        return build(tuple(values))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


@dataclass(frozen=True, slots=True)
class SignedList:
    """Ordered list of nonzero integers."""

    entries: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        ents = tuple(map(_as_int, self.entries))
        if 0 in ents:
            pos = ents.index(0) + 1
            raise ValueError(f"position {pos}: zero entries are not allowed")
        object.__setattr__(self, "entries", ents)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    @classmethod
    def parse(cls, text: str) -> "SignedList":
        """Parse comma- or whitespace-separated signed decimal integers."""
        return parse_ints(cls, text, "a list of nonzero integers", "position")

    def format(self) -> str:
        return ",".join(str(e) for e in self.entries)


@dataclass(frozen=True, slots=True)
class RunProfile:
    """Maximal constant-sign blocks of a list and their per-run maxima.

    ``runs`` holds (sign, first, last) with 1-based inclusive bounds; the
    blocks tile [t] in order.  ``alphas``/``betas`` are the maxima (in
    absolute value) of the up-runs/down-runs, ``up_runs``/``down_runs`` the
    corresponding position tuples, and ``y`` is half the number of runs (for
    a Catalan list the run count is even and the first run is positive).
    ``cost`` is the sum of all run maxima.
    """

    runs: tuple[tuple[int, int, int], ...]
    y: int
    alphas: tuple[int, ...]
    betas: tuple[int, ...]
    up_runs: tuple[tuple[int, ...], ...]
    down_runs: tuple[tuple[int, ...], ...]
    cost: int


@dataclass(frozen=True, slots=True)
class Decomposition:
    """A set of positions whose sublist and complementary sublist are both
    generalized Catalan (checked by :func:`is_valid_decomposition`)."""

    part: frozenset[int]

    def __post_init__(self) -> None:
        part = frozenset(_as_int(p) for p in self.part)
        if not part:
            raise ValueError("a decomposition part must be nonempty")
        object.__setattr__(self, "part", part)

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple(sorted(self.part))


def prefix_sums(xs: SignedList) -> tuple[int, ...]:
    """Running sums (s_1, ..., s_t) with s_q = x_1 + ... + x_q."""
    out = []
    s = 0
    for e in xs:
        s += e
        out.append(s)
    return tuple(out)


def is_generalized_catalan(xs: SignedList) -> bool:
    """True iff the total is zero and every prefix sum is nonnegative."""
    s = 0
    for e in xs:
        s += e
        if s < 0:
            return False
    return s == 0


def require_catalan(xs: SignedList) -> None:
    """Raise ValueError unless the list is nonempty and generalized Catalan,
    the precondition of the greedy reordering and of every decider."""
    if len(xs) == 0:
        raise ValueError("input list is empty")
    if not is_generalized_catalan(xs):
        raise ValueError("input list is not generalized Catalan")


def run_profile(xs: SignedList) -> RunProfile:
    entries = xs.entries
    t = len(entries)
    if t == 0:
        raise ValueError("run profile of an empty list")
    runs, alphas, betas, up_runs, down_runs = [], [], [], [], []
    first = 0  # 0-based start of the current run
    for q in range(1, t + 1):
        if q < t and (entries[q] > 0) == (entries[first] > 0):
            continue
        positions = tuple(range(first + 1, q + 1))
        if entries[first] > 0:
            runs.append((1, first + 1, q))
            alphas.append(max(entries[first:q]))
            up_runs.append(positions)
        else:
            runs.append((-1, first + 1, q))
            betas.append(-min(entries[first:q]))
            down_runs.append(positions)
        first = q
    return RunProfile(
        runs=tuple(runs),
        y=len(runs) // 2,
        alphas=tuple(alphas),
        betas=tuple(betas),
        up_runs=tuple(up_runs),
        down_runs=tuple(down_runs),
        cost=sum(alphas) + sum(betas),
    )


def cost(xs: SignedList) -> int:
    """Sum of the per-run absolute maxima over all runs."""
    return run_profile(xs).cost


def width(xs: SignedList) -> int:
    """Number of entries."""
    if len(xs) == 0:
        raise ValueError("width of an empty list")
    return len(xs)


def sublist(xs: SignedList, positions) -> SignedList:
    """Entries at the given 1-based positions, in increasing position order."""
    t = len(xs)
    wanted = sorted({_as_int(p) for p in positions})
    for p in wanted:
        if not 1 <= p <= t:
            raise ValueError(f"position {p} out of range for width {t}")
    return SignedList(tuple(xs.entries[p - 1] for p in wanted))


def complement(positions, t: int) -> frozenset[int]:
    """Positions of [t] not in the given set."""
    return frozenset(range(1, t + 1)) - frozenset(positions)


def is_valid_decomposition(xs: SignedList, positions) -> bool:
    """True iff the positions and their complement are both nonempty and both
    carry generalized Catalan sublists.

    One pass over the list keeps the running sums of both sublists.
    """
    t = len(xs)
    part = frozenset(positions)
    if not part or len(part) >= t or any(not (1 <= p <= t) for p in part):
        return False
    chosen = {_as_int(p) for p in part}
    sums = [0, 0]  # [complement, part]
    for pos, e in enumerate(xs.entries, 1):
        side = pos in chosen
        sums[side] += e
        if sums[side] < 0:
            return False
    return sums == [0, 0]
