"""Command-line front end.

Grammar (flags must come before the list/pair operand, which may contain
tokens starting with a minus sign):

    gdp check <list>
    gdp reduce [--json] <list>
    gdp pi <list>
    gdp kostka [--r N] [--json] <lambda> / <mu>
    gdp render [--highlight p1,p2,...] [--scale S] [--axis] [-o FILE] <list>
    gdp oracle reduce <list>
    gdp oracle hilbert --r N --n N

Lists, partitions and --highlight share one token rule (catalan.parse_ints):
comma- or whitespace-separated ASCII integers ([+-]?[0-9]+), no empty tokens.

Exit codes: 0 decomposition/success, 1 irreducible/none, 3 invalid input
(any ValueError, usage errors included), 4 search budget exceeded (an
oracle limit, a list whose cost > width search table would be too large, or
a zero-free pair wider than kostka.MAX_COLUMNS columns; a pair with a zero
column is answered at any width), 5 internal error (a witness or a
certificate failed its check).  Code 2 is not used.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys

from .catalan import (
    BudgetExceededError,
    Decomposition,
    ParseError,
    SignedList,
    _decimal,
    is_generalized_catalan,
    is_valid_decomposition,
    parse_ints,
    require_catalan,
    run_profile,
    width,
)
from .kostka import ColumnSplit, KostkaPair, Partition, common_reduce
from .oracle import enumerate_hilbert_basis, reducible_bruteforce
from .reducer import Irreducible, reduce
from .render import render_svg
from .staircase import build_pi

EXIT_OK = 0
EXIT_IRREDUCIBLE = 1
EXIT_INVALID = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5

_OPTION_LIKE = re.compile(r"^--?[A-Za-z]")


def _operand_text(tokens, what="list"):
    toks = [t for t in tokens if t != "--"]
    if not toks:
        raise ParseError(f"missing {what} operand")
    for t in toks:
        if _OPTION_LIKE.match(t):
            raise ParseError(f"option {t!r} must come before the {what}")
    return " ".join(toks)


def cmd_check(args, operands) -> int:
    xs = SignedList.parse(_operand_text(operands))
    if not is_generalized_catalan(xs):
        _print_record({"catalan": "false"})
        return EXIT_OK
    prof = run_profile(xs)
    # The cost is the one field that can exceed the digits str() writes out:
    # every other one is at most an entry, which the parser has read.
    try:
        cost = str(prof.cost)
    except ValueError:
        raise ValueError(
            f"the cost, {_decimal(prof.cost)}, has too many digits to print"
        ) from None
    _print_record({
        "catalan": "true",
        "cost": cost,
        "width": width(xs),
        "y": prof.y,
        "alphas": list(prof.alphas),
        "betas": list(prof.betas),
    })
    return EXIT_OK


def _outcome_record(outcome):
    if isinstance(outcome, Decomposition):
        return {"kind": "decomposition", "part": list(outcome.positions)}, EXIT_OK
    record = {
        "kind": "irreducible",
        "alpha1": outcome.alpha1,
        "beta1": outcome.beta1,
        "basis": outcome.basis,
    }
    return record, EXIT_IRREDUCIBLE


def _print_record(record, as_json=False) -> None:
    """The record as one JSON object, or as ``key=value`` fields with list
    values joined by commas."""
    if as_json:
        print(json.dumps(record))
        return
    fields = []
    for key, value in record.items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        fields.append(f"{key}={value}")
    print(" ".join(fields))


def cmd_reduce(args, operands) -> int:
    outcome = reduce(SignedList.parse(_operand_text(operands)))
    record, code = _outcome_record(outcome)
    _print_record(record, args.json)
    return code


def cmd_pi(args, operands) -> int:
    p = build_pi(SignedList.parse(_operand_text(operands)))
    print(p.one_line_text())
    print(f"reordered={p.reordered.format()}")
    return EXIT_OK


def cmd_kostka(args, operands) -> int:
    text = _operand_text(operands, what="pair")
    sides = text.split("/")
    if len(sides) != 2:
        raise ParseError("expected a pair in the form 'lambda / mu'")
    lam = Partition.parse(sides[0])
    mu = Partition.parse(sides[1])
    try:
        pair = KostkaPair(lam, mu, args.r)
    except ValueError as exc:
        raise ParseError(f"invalid pair: {exc}") from None
    outcome = common_reduce(pair)
    if isinstance(outcome, ColumnSplit):
        left, right = outcome.sides
        record = {"kind": "split", "columns": sorted(outcome.columns)}
        if args.json:
            record["lambda_part"] = list(left.lam.parts)
            record["mu_part"] = list(left.mu.parts)
            record["lambda_rest"] = list(right.lam.parts)
            record["mu_rest"] = list(right.mu.parts)
            _print_record(record, as_json=True)
        else:
            _print_record(record)
            print(f"part: lambda={left.lam.format()} mu={left.mu.format()}")
            print(f"rest: lambda={right.lam.format()} mu={right.mu.format()}")
        return EXIT_OK
    record, code = _outcome_record(outcome)
    rects = {"lambda_rect": outcome.lam_rect, "mu_rect": outcome.mu_rect}
    if args.json:
        for key, rect in rects.items():
            record[key] = list(rect) if rect else None
    else:
        if outcome.alpha1 is None:  # a single-column pair
            del record["alpha1"], record["beta1"]
        if outcome.lam_rect and outcome.mu_rect:
            for key, (rows, columns) in rects.items():
                record[key] = f"{rows}x{columns}"
    _print_record(record, args.json)
    return code


def cmd_render(args, operands) -> int:
    xs = SignedList.parse(_operand_text(operands))
    highlight = frozenset()
    if args.highlight:
        highlight = parse_ints(
            frozenset, args.highlight, "highlight positions", "highlight position"
        )
    svg = render_svg(xs, highlight=highlight, scale=args.scale, axis=args.axis)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(svg)
        except OSError as exc:
            raise ValueError(f"cannot write {args.output}: {exc}") from None
    else:
        print(svg, end="")
    return EXIT_OK


def cmd_oracle_reduce(args, operands) -> int:
    xs = SignedList.parse(_operand_text(operands))
    require_catalan(xs)  # a split's two Catalan sides make a Catalan list
    found = reducible_bruteforce(xs)
    if found is None:
        print("none")
        return EXIT_IRREDUCIBLE
    if not is_valid_decomposition(xs, found.part):
        raise RuntimeError(f"internal error: part {list(found.positions)} is invalid")
    _print_record({"part": list(found.positions)})
    return EXIT_OK


def cmd_oracle_hilbert(args, operands) -> int:
    if [t for t in operands if t != "--"]:
        raise ParseError("oracle hilbert takes no positional operands")
    for pair in enumerate_hilbert_basis(args.r, args.n):
        print(pair.format())
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ParseError (exit code 3, like any invalid
    input), not as argparse's SystemExit(2)."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def _positive(kind):
    """argparse type: a number of the given kind, above zero and finite."""

    def convert(text):
        try:
            value = kind(text)
            if 0 < value < math.inf:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"expected a positive {kind.__name__}, got {text!r}"
        )

    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gdp",
        description="Decide and construct decompositions of generalized Dyck "
        "paths and Kostka pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="Catalan verdict, cost, width, run maxima")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("reduce", help="decompose a generalized Catalan list")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("pi", help="greedy reordering in one-line notation")
    p.set_defaults(func=cmd_pi)

    p = sub.add_parser("kostka", help="column split of a Kostka pair")
    p.add_argument("--r", type=int, default=None, help="row bound")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_kostka)

    p = sub.add_parser("render", help="draw the path as an SVG document")
    p.add_argument("--highlight", default="", help="positions to color, e.g. 1,5,10")
    p.add_argument("--scale", type=_positive(float), default=10.0,
                   help="pixels per unit")
    p.add_argument("--axis", action="store_true", help="draw axis lines")
    p.add_argument("-o", "--output", default="", help="output file (default stdout)")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("oracle", help="exhaustive ground-truth searches")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    q = osub.add_parser("reduce", help="brute-force decomposition search")
    q.set_defaults(func=cmd_oracle_reduce)
    q = osub.add_parser("hilbert", help="enumerate irreducible pairs")
    q.add_argument("--r", type=_positive(int), required=True,
                   help="row bound (1 to 4)")
    q.add_argument("--n", type=_positive(int), required=True, help="size bound")
    q.set_defaults(func=cmd_oracle_hilbert)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args, operands = parser.parse_known_args(argv)
        if operands and _OPTION_LIKE.match(operands[0]):
            parser.error(f"unrecognized option {operands[0]!r}")
        return args.func(args, operands)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except RuntimeError as exc:
        reason = str(exc).removeprefix("internal error: ")
        print(f"error: internal error: {reason}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
