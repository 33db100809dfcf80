"""Command-line front end.

The command table ``_COMMANDS`` is the grammar: each command's handler, its
operand (a list, a pair ``<lambda> / <mu>`` or none) and its options, with
the metavar each option's value shows in help.  -h or --help after gdp,
gdp oracle or a command prints the usage lines the table gives for it and
exits 0.  The list/pair operand may contain tokens starting with a minus
sign.

An option may also come after the operand; an unknown one there is refused
as one that must come before it.  A value follows its option as the next
argument or after '=' (--scale=2), and -o also takes it joined (-oFILE).
Options are spelled in full, and -- ends them.

Lists, partitions and --highlight share one token rule (catalan.parse_ints):
comma- or whitespace-separated ASCII integers ([+-]?[0-9]+), no empty tokens.

Exit codes: 0 decomposition/success, 1 irreducible/none, 3 invalid input
(any ValueError, usage errors included) or a failed write to standard
output, 4 search budget exceeded (an oracle limit, a list whose cost >
width search table would be too large, or a zero-free pair wider than
kostka.MAX_COLUMNS columns; a pair with a zero column is answered at any
width), 5 internal error (a witness or a certificate failed its check).
Code 2 is not used.
"""
from __future__ import annotations

import math
import os
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


def cmd_check(opts, text) -> int:
    xs = SignedList.parse(text)
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


# The characters of the strings a record holds, which JSON writes as they are.
_PLAIN = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-")


def _json(value) -> str:
    """``json.dumps(value)`` for the values of a record: a dict with plain
    string keys, an int, None, a plain string or a list of such values.  Any
    other value, a bool or a float among them, raises TypeError."""
    if type(value) is int:
        return str(value)
    if value is None:
        return "null"
    if type(value) is str and _PLAIN.issuperset(value):
        return f'"{value}"'
    if type(value) is list:
        return "[" + ", ".join(map(_json, value)) + "]"
    if type(value) is dict and all(type(key) is str for key in value):
        return "{" + ", ".join(f"{_json(k)}: {_json(v)}" for k, v in value.items()) + "}"
    raise TypeError(f"a record cannot hold {value!r}")


def _print_record(record, as_json=False) -> None:
    """The record as one JSON object, or as ``key=value`` fields with list
    values joined by commas and None fields left out."""
    if as_json:
        print(_json(record))
        return
    fields = []
    for key, value in record.items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        if value is not None:
            fields.append(f"{key}={value}")
    print(" ".join(fields))


def cmd_reduce(opts, text) -> int:
    outcome = reduce(SignedList.parse(text))
    record, code = _outcome_record(outcome)
    _print_record(record, opts["json"])
    return code


def cmd_pi(opts, text) -> int:
    p = build_pi(SignedList.parse(text))
    print(p.one_line_text())
    print(f"reordered={p.reordered.format()}")
    return EXIT_OK


def cmd_kostka(opts, text) -> int:
    sides = text.split("/")
    if len(sides) != 2:
        raise ParseError("expected a pair in the form 'lambda / mu'")
    lam = Partition.parse(sides[0])
    mu = Partition.parse(sides[1])
    try:
        pair = KostkaPair(lam, mu, opts["r"])
    except ValueError as exc:
        raise ParseError(f"invalid pair: {exc}") from None
    outcome = common_reduce(pair)
    if isinstance(outcome, ColumnSplit):
        left, right = outcome.sides
        record = {"kind": "split", "columns": sorted(outcome.columns)}
        if opts["json"]:
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
    # The text form gives both rectangles as rows x columns, or neither.
    rects = outcome.lam_rect, outcome.mu_rect
    if opts["json"]:
        rects = [list(rect) if rect else None for rect in rects]
    else:
        rects = [f"{rect[0]}x{rect[1]}" if all(rects) else None for rect in rects]
    record["lambda_rect"], record["mu_rect"] = rects
    _print_record(record, opts["json"])
    return code


def cmd_render(opts, text) -> int:
    xs = SignedList.parse(text)
    highlight = frozenset()
    if opts["highlight"]:
        highlight = parse_ints(
            frozenset, opts["highlight"], "highlight positions", "highlight position"
        )
    svg = render_svg(xs, highlight=highlight, scale=opts["scale"], axis=opts["axis"])
    output = opts["output"]
    if output is not None:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(svg)
        except OSError as exc:
            raise ValueError(f"cannot write {output}: {exc}") from None
    else:
        print(svg, end="")
    return EXIT_OK


def cmd_oracle_reduce(opts, text) -> int:
    xs = SignedList.parse(text)
    require_catalan(xs)  # a split's two Catalan sides make a Catalan list
    found = reducible_bruteforce(xs)
    if found is None:
        print("none")
        return EXIT_IRREDUCIBLE
    if not is_valid_decomposition(xs, found.part):
        raise RuntimeError(f"internal error: part {list(found.positions)} is invalid")
    _print_record({"part": list(found.positions)})
    return EXIT_OK


def cmd_oracle_hilbert(opts, text) -> int:
    for pair in enumerate_hilbert_basis(opts["r"], opts["n"]):
        print(pair.format())
    return EXIT_OK


def cmd_help(opts, text) -> int:
    """Print the usage lines of the table's commands under one path."""
    path = opts["path"]
    lines = []
    for key, (_, kind, specs) in _COMMANDS.items():
        if key[:len(path)] == path:
            words = ["gdp", *key]
            for names, metavar, _, default in specs:
                word = names[0] if metavar is None else f"{names[0]} {metavar}"
                words.append(word if default is _REQUIRED else f"[{word}]")
            lines.append(" ".join(words + _OPERAND_USAGE[kind]))
    print("usage: " + "\n       ".join(lines))
    return EXIT_OK


def _int(text):
    """int(text), refused with argparse's message for its int type."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _positive(kind):
    """A converter to a number of the given kind, above zero and finite."""

    def convert(text):
        try:
            value = kind(text)
            if 0 < value < math.inf:
                return value
        except ValueError:
            pass
        raise ValueError(f"expected a positive {kind.__name__}, got {text!r}")

    return convert


def _file_name(text):
    """text, unless it is empty: an empty -o is most likely an unset variable."""
    if not text:
        raise ValueError("expected a file name, got ''")
    return text


# The default of an option that must be given.
_REQUIRED = object()

# The one option of gdp and gdp oracle, and of every command.
_HELP = (("-h", "--help"), None, None, False)
_JSON = (("--json",), None, None, False)

# Each command's handler, operand kind and options: the grammar, and the
# help.  The operand kind is "list", "pair" or None for no operand.  An
# option is (names, metavar, convert, default); its value is stored under
# its last name without the dashes.  A metavar of None makes it a flag,
# which takes no value.
_COMMANDS = {
    ("check",): (cmd_check, "list", ()),
    ("reduce",): (cmd_reduce, "list", (_JSON,)),
    ("pi",): (cmd_pi, "list", ()),
    ("kostka",): (cmd_kostka, "pair", ((("--r",), "N", _int, None), _JSON)),
    ("render",): (cmd_render, "list", (
        (("--highlight",), "p1,p2,...", str, ""),
        (("--scale",), "S", _positive(float), 10.0),
        (("--axis",), None, None, False),
        (("-o", "--output"), "FILE", _file_name, None),
    )),
    ("oracle", "reduce"): (cmd_oracle_reduce, "list", ()),
    ("oracle", "hilbert"): (cmd_oracle_hilbert, None, (
        (("--r",), "N", _positive(int), _REQUIRED),
        (("--n",), "N", _positive(int), _REQUIRED),
    )),
}

_OPERAND_USAGE = {"list": ["<list>"], "pair": ["<lambda> / <mu>"], None: []}

# argparse's rule: a token like these is an operand, not an unknown option.
# Compiled on first use (re caches it), which most command lines never reach.
_NEGATIVE_NUMBER = r"^-\d+$|^-\d*\.\d+$"


def _read_option(token, options):
    """(name, the value joined to it or None) for a token that gives one of
    the options, ("", None) for an unknown option, None for an operand."""
    if token[:1] != "-" or token == "-":
        return None
    if token in options:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in options:
        return name, value
    if token[1] != "-" and token[:2] in options:
        return token[:2], token[2:]
    if re.match(_NEGATIVE_NUMBER, token) or " " in token:
        return None
    return "", None


def _parse(argv):
    """The handler, option values and operand text of a command line, read
    in one pass as argparse read it, except that an option is never
    abbreviated.  Before the command's path is complete a token is help,
    an unknown option or the next word of the path; after it, an option may
    also come after an operand, ``--`` ends the options, and any other
    token is an operand.  -h or --help gives ``cmd_help`` for the path
    read so far."""
    path, row, extras = (), None, []
    prog, dest = "gdp", "command"
    options = dict.fromkeys(_HELP[0], _HELP)
    tokens = iter(argv)
    for token in tokens:
        if token == "--" and row:
            extras += ["--", *tokens]
            break
        read = None if token == "--" else _read_option(token, options)
        if read is None and not row:
            choices = list(dict.fromkeys(key[len(path)] for key in _COMMANDS if key[:len(path)] == path))
            if token not in choices:
                if token == "--" and next(tokens, None) is None:
                    break  # a "--" with nothing after it is no command
                raise ParseError(
                    f"{prog}: argument {dest}: invalid choice: {token!r} "
                    f"(choose from {', '.join(map(repr, choices))})"
                )
            path += (token,)
            prog, dest = f"{prog} {token}", "_".join((*path, "command"))
            row = _COMMANDS.get(path)
            if row:
                options.update((name, spec) for spec in row[2] for name in spec[0])
                opts = {names[-1].lstrip("-"): default for names, _, _, default in row[2]}
            continue
        if read is None or not read[0]:
            extras.append(token)
            continue
        name, value = read
        spec = options[name]
        names, metavar, convert, _ = spec
        label = "/".join(names)
        if metavar is None and value is not None:
            raise ParseError(f"{prog}: argument {label}: ignored explicit argument {value!r}")
        if spec is _HELP:
            return cmd_help, {"path": path}, ""
        if metavar is not None and value is None:
            value = next(tokens, "--")
            if value == "--" or _read_option(value, options) is not None:
                raise ParseError(f"{prog}: argument {label}: expected one argument")
        try:
            opts[names[-1].lstrip("-")] = True if metavar is None else convert(value)
        except ValueError as exc:
            raise ParseError(f"{prog}: argument {label}: {exc}") from None
    if not row:
        raise ParseError(f"{prog}: the following arguments are required: {dest}")
    handler, kind, specs = row
    missing = ["/".join(names) for names, *_ in specs if opts[names[-1].lstrip("-")] is _REQUIRED]
    if missing:
        raise ParseError(f"{prog}: the following arguments are required: {', '.join(missing)}")
    if extras and _OPTION_LIKE.match(extras[0]):
        raise ParseError(f"gdp: unrecognized option {extras[0]!r}")
    words = [token for token in extras if token != "--"]
    if kind is None and words:
        raise ParseError(f"{' '.join(path)} takes no positional operands")
    if kind and not words:
        raise ParseError(f"missing {kind} operand")
    for word in words:
        if _OPTION_LIKE.match(word):
            raise ParseError(f"option {word!r} must come before the {kind}")
    return handler, opts, " ".join(words)


def _discard_stdout():
    """Point standard output at the null device, so that Python does not try
    the failed write again, and report it again, when it exits."""
    try:
        fd = sys.stdout.fileno()
    except OSError:
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        handler, opts, text = _parse(argv)
        code = handler(opts, text)
        sys.stdout.flush()
        return code
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
    except OSError as exc:  # a print to standard output
        print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        _discard_stdout()
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
