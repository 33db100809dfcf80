"""Core types and predicates for signed integer lists seen as lattice walks.

A list of nonzero integers is *generalized Catalan* when its entries sum to
zero and no prefix sum is negative.  Geometrically this is a generalized Dyck
path: entry x_q is a diagonal step of horizontal extent |x_q| and vertical
change x_q, and the path starts and ends on the axis without dipping below it.

Conventions used throughout the package:
  * positions are 1-based in every public interface;
  * the empty list counts as generalized Catalan (vacuously) but is never
    reducible;
  * zero entries are rejected at construction time; a Kostka column vector
    may hold zeros, and ``KostkaPair``'s dominance check is what validates
    it.

A decomposition is checked by one private kernel, ``_splits(entries,
part)``, a single pass over the list that reads a set of ints as it is;
``is_valid_decomposition`` maps its positions to such a set and calls it,
and ``reducer.reduce`` calls it on the set its decider built.  The deciders
build their ``Decomposition`` through ``_unchecked_decomposition``, which
keeps that set without the public constructor's copy.
"""
from __future__ import annotations

import math
import re
from operator import index as _as_int


class ParseError(ValueError):
    """Malformed text input for a list or partition."""


class BudgetExceededError(RuntimeError):
    """A search was asked to exceed its budget."""


def _decimal(n: int) -> str:
    """``n`` in decimal, for a refusal; past the digits that ``str`` writes
    out (4,300 by default), its sign and order of magnitude, so that the
    refusal itself never fails."""
    try:
        return str(n)
    except ValueError:
        return f"about {'-' * (n < 0)}10^{round(math.log10(abs(n)))}"


_EMPTY_TOKEN = re.compile(r"(?:^|,)\s*(?:,|$)")
_INT_TOKEN = re.compile(r"[+-]?[0-9]+")


def parse_ints(build, text: str, what: str, item: str):
    """``build`` of the comma- or whitespace-separated integers in ``text``,
    with no empty tokens.  A token is ASCII decimal digits with an optional
    sign, so ``1_0`` and non-ASCII digits are refused.  ``what`` names the
    value and ``item`` a token in messages; a ValueError from ``build``
    becomes a ParseError."""
    stripped = text.strip()
    if not stripped:
        raise ParseError(f"empty input: expected {what}")
    if _EMPTY_TOKEN.search(stripped):
        raise ParseError("empty token: two separators with nothing between them")
    values = []
    for pos, tok in enumerate(stripped.replace(",", " ").split(), 1):
        try:
            if not _INT_TOKEN.fullmatch(tok):
                raise ValueError
            values.append(int(tok))
        except ValueError:  # not a token, or past int()'s digit limit
            raise ParseError(f"{item} {pos}: {tok!r} is not an integer") from None
    try:
        return build(tuple(values))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


class _Value:
    """Base of the package's value types: slotted and frozen, equal and
    hashed by their fields, printed as ``Name(field=value, ...)``, and
    picklable.

    A subclass names its fields in ``__slots__``.  The shared ``__init__``
    takes them by position or by name, in that order, and raises TypeError
    on a missing, extra, unknown or doubled field; a record that uses it
    gives the field types as class-level annotations.  ``SignedList``,
    ``Decomposition``, ``Partition`` and ``KostkaPair`` define their own,
    with the same parameters, to check or convert their input.  Equality and
    hashing use ``_key()``, every field unless a subclass narrows it;
    comparing with another class gives ``NotImplemented``.  ``match``
    patterns take the fields positionally, and pickling and copying rebuild
    through ``__init__``.  These are plain classes rather than dataclasses
    because ``dataclasses`` brings ``inspect`` and ``ast`` into every
    ``gdp`` start-up and compiles each class's methods at import.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        given = len(args)
        if given + len(kwargs) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {names}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name, value in kwargs.items():
            if name not in names[given:]:  # not a field, or given by position
                raise TypeError(
                    f"{type(self).__name__} has no field {name!r}, or got it twice"
                )
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    _key = _fields

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()


class SignedList(_Value):
    """Ordered list of nonzero integers."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...] = ()) -> None:
        ents = tuple(map(_as_int, entries))
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


class RunProfile(_Value):
    """Maximal constant-sign blocks of a list and their per-run maxima.

    ``runs`` holds (sign, first, last) with 1-based inclusive bounds; the
    blocks tile [t] in order, so run r covers ``entries[first - 1 : last]``.
    ``alphas``/``betas`` are the maxima (in absolute value) of the
    up-runs/down-runs, and ``y`` is half the number of runs (for a Catalan
    list the run count is even and the first run is positive).  ``cost`` is
    the sum of all run maxima.
    """

    __slots__ = ("runs", "y", "alphas", "betas", "cost")
    runs: tuple[tuple[int, int, int], ...]
    y: int
    alphas: tuple[int, ...]
    betas: tuple[int, ...]
    cost: int


class Decomposition(_Value):
    """A set of positions whose sublist and complementary sublist are both
    generalized Catalan (checked by :func:`is_valid_decomposition`).  The
    constructor maps the positions to ints and refuses an empty set; the
    deciders build theirs with :func:`_unchecked_decomposition`."""

    __slots__ = ("part",)

    def __init__(self, part: frozenset[int]) -> None:
        part = frozenset(map(_as_int, part))
        if not part:
            raise ValueError("a decomposition part must be nonempty")
        object.__setattr__(self, "part", part)

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple(sorted(self.part))


def _unchecked_decomposition(part: frozenset[int]) -> Decomposition:
    """The decomposition of a frozenset of ints, built without a check or a
    copy: the caller vouches for it, and ``reducer.reduce`` checks every one
    it returns (:func:`_splits`)."""
    d = object.__new__(Decomposition)
    object.__setattr__(d, "part", part)
    return d


def is_generalized_catalan(xs: SignedList) -> bool:
    """True iff the total is zero and every prefix sum is nonnegative."""
    s = 0
    for e in xs.entries:
        s += e
        if s < 0:
            return False
    return s == 0


def require_catalan(xs: SignedList) -> None:
    """Raise ValueError unless the list is nonempty and generalized Catalan,
    the precondition of the greedy reordering and of every decider."""
    if not xs.entries:
        raise ValueError("input list is empty")
    if not is_generalized_catalan(xs):
        raise ValueError("input list is not generalized Catalan")


def _runs(entries):
    """Runs (sign, first, last) of a nonempty list, with 1-based inclusive
    bounds, and the up-run maxima and negated down-run minima, as lists.

    One pass tracks the sign of the current run; each run's extreme comes
    from a slice when the run ends.
    """
    runs, alphas, betas = [], [], []
    first, up = 0, entries[0] > 0
    for q, e in enumerate(entries):
        if e > 0:
            if up:
                continue
            runs.append((-1, first + 1, q))
            betas.append(-min(entries[first:q]))
            up = True
        else:
            if not up:
                continue
            runs.append((1, first + 1, q))
            alphas.append(max(entries[first:q]))
            up = False
        first = q
    if up:
        runs.append((1, first + 1, len(entries)))
        alphas.append(max(entries[first:]))
    else:
        runs.append((-1, first + 1, len(entries)))
        betas.append(-min(entries[first:]))
    return runs, alphas, betas


def run_profile(xs: SignedList) -> RunProfile:
    entries = xs.entries
    if not entries:
        raise ValueError("run profile of an empty list")
    runs, alphas, betas = _runs(entries)
    return RunProfile(
        tuple(runs), len(runs) // 2, tuple(alphas), tuple(betas), sum(alphas) + sum(betas)
    )


def cost(xs: SignedList) -> int:
    """Sum of the per-run absolute maxima over all runs."""
    return run_profile(xs).cost


def width(xs: SignedList) -> int:
    """Number of entries."""
    if len(xs) == 0:
        raise ValueError("width of an empty list")
    return len(xs)


def _positions(positions, t: int) -> list[int]:
    """The distinct positions as ints, ascending; each must lie in [t]."""
    wanted = sorted(set(map(_as_int, positions)))
    for p in wanted:
        if not 1 <= p <= t:
            raise ValueError(f"position {p} out of range for width {t}")
    return wanted


def sublist(xs: SignedList, positions) -> SignedList:
    """Entries at the given 1-based positions, in increasing position order."""
    return SignedList(tuple(xs.entries[p - 1] for p in _positions(positions, len(xs))))


def complement(positions, t: int) -> frozenset[int]:
    """Positions of [t] not in the given ones, which must lie in [t]."""
    return frozenset(range(1, t + 1)).difference(_positions(positions, t))


def is_valid_decomposition(xs: SignedList, positions) -> bool:
    """True iff the positions and their complement are both nonempty and both
    carry generalized Catalan sublists: :func:`_splits` over the positions
    as a set of ints."""
    return _splits(xs.entries, set(map(_as_int, positions)))


def _splits(entries, part) -> bool:
    """True iff the set of ints ``part`` splits the entries: one pass keeps
    the running sums of both sublists, which must stay nonnegative and end
    at zero, and counts the members of ``part`` it meets.  A member outside
    [t] is never met, so ``0 < n == len(part) < t`` says that the part is a
    proper nonempty subset of [t] with no range test."""
    n = part_sum = rest = 0
    for pos, e in enumerate(entries, 1):
        if pos in part:
            n += 1
            part_sum += e
            if part_sum < 0:
                return False
        else:
            rest += e
            if rest < 0:
                return False
    return part_sum == rest == 0 and 0 < n == len(part) < len(entries)
