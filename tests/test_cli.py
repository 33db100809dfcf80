"""The gdp command line. Every row of ``cli_pins.txt`` runs here through
``cli.main`` in process and through the installed ``gdp`` script, and one
row of each exit code through ``python -m gdp``. The classes keep the named
cases: most run their rows of the table, and the rest hold what a row
cannot: a patched decider, a time bound, a fixture, a written file, a
library cross-check."""
import errno
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gdp.reducer
from gdp import cli
from gdp.catalan import (
    Decomposition,
    SignedList,
    _unchecked_decomposition,
    is_valid_decomposition,
)
from gdp.kostka import KostkaPair, Partition, split_pair

from conftest import EX12

EX12_TEXT = ",".join(map(str, EX12))


def read_pins():
    """The rows of cli_pins.txt as (exit code, command, stdout, stderr
    excerpt), with each ``\\n`` of the last two fields a line break.  A
    field may not end in ``\\n``: :func:`check_pin` adds the line break
    that ends each output itself, so a trailing one would pin a blank last
    line of stdout, or tie an excerpt to the end of the stderr line."""
    pins = []
    text = Path(__file__).with_name("cli_pins.txt").read_text(encoding="utf-8")
    for line in text.splitlines():
        if line and not line.startswith("#"):
            code, command, out, excerpt = line.split("|")
            if out.endswith("\\n") or excerpt.endswith("\\n"):
                raise ValueError(f"cli_pins.txt row {line!r} ends a field in \\n")
            pins.append(
                (int(code), command, out.replace("\\n", "\n"), excerpt.replace("\\n", "\n"))
            )
    return pins


PINS = read_pins()
PIN_BY_ARGV = {tuple(shlex.split(pin[1])[1:]): pin for pin in PINS}


def test_pins_refuse_a_trailing_line_break(monkeypatch):
    for row in ("0|gdp pi 1,-1|(1 2)\\n|", "3|gdp pi -1,1||error: x\\n"):
        monkeypatch.setattr(Path, "read_text", lambda self, encoding: row)
        with pytest.raises(ValueError, match=re.escape(repr(row))):
            read_pins()


def pin_id(pin):
    """The command without ``gdp``, in characters a test id needs no quoting for."""
    command = pin[1].removeprefix("gdp ").replace(",", ".")
    return re.sub(r"[^A-Za-z0-9+.=-]+", "_", command).strip("_")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_pin(pin, code, out, err):
    want_code, command, want_out, excerpt = pin
    assert code == want_code, command
    assert out == (want_out + "\n" if want_out else ""), command
    if excerpt:
        # One diagnostic line, so never a traceback.
        assert excerpt in err and err.count("\n") == 1 and err.endswith("\n"), err
    else:
        assert err == "", err


def check_rows(capsys, *commands):
    """Run the rows of cli_pins.txt with these commands; each must be a row."""
    for command in commands:
        argv = shlex.split(command)[1:]
        check_pin(PIN_BY_ARGV[tuple(argv)], *run(capsys, *argv))


@pytest.mark.parametrize("pin", PINS, ids=pin_id)
def test_pin(capsys, pin):
    check_rows(capsys, pin[1])


def test_console_script():
    # Every row through the console script that installing the package
    # puts on PATH, run as a shell runs it.
    script = shutil.which("gdp")
    if script is None:
        pytest.skip("no gdp script is installed")
    for pin in PINS:
        done = subprocess.run(
            [script, *shlex.split(pin[1])[1:]],
            capture_output=True,
            encoding="utf-8",
            stdin=subprocess.DEVNULL,
            timeout=60,
        )
        check_pin(pin, done.returncode, done.stdout, done.stderr)


def run_python(args, stdout=subprocess.PIPE):
    """A child interpreter that imports this gdp, with its exit code, stdout
    (None unless piped) and stderr."""
    src = str(Path(gdp.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        encoding="utf-8",
        env={**os.environ, "PYTHONPATH": src},
        stdin=subprocess.DEVNULL,
        timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("exit_code", [0, 1, 3, 4])
def test_python_m_gdp(exit_code):
    pin = next(pin for pin in PINS if pin[0] == exit_code)
    check_pin(pin, *run_python(["-m", "gdp", *shlex.split(pin[1])[1:]]))


def test_import_loads_no_argparse_or_json():
    code, out, err = run_python([
        "-c",
        "import sys; before = set(sys.modules); import gdp.cli; "
        "print(*sorted(set(sys.modules) - before))",
    ])
    assert code == 0, err
    loaded = out.split()
    assert "gdp.cli" in loaded
    assert "argparse" not in loaded and "json" not in loaded


def test_pins_cover_the_command_table():
    # Every command path of the table, and every name of each of its
    # options, given on its own or with '=', is in some row.
    for path, (_, _, specs) in cli._COMMANDS.items():
        rows = [argv for argv in PIN_BY_ARGV if argv[:len(path)] == path]
        assert rows, path
        given = {token.partition("=")[0] for argv in rows for token in argv}
        for names, *_ in specs:
            assert given.issuperset(names), (path, names)


def test_help_under_optimize():
    # python -OO strips docstrings; the help is built from the table.
    check_pin(PIN_BY_ARGV[("--help",)], *run_python(["-OO", "-m", "gdp", "--help"]))


def test_help_for_every_command(capsys):
    # Each command of the table has its usage line.
    for path in cli._COMMANDS:
        code, out, err = run(capsys, *path, "--help")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: gdp {' '.join(path)} ")
        assert out.count("\n") == 1


class TestOutputErrors:
    """A failed write to standard output is invalid input's exit code 3 and
    one line on stderr: no traceback, and no second report when Python
    flushes the output again at exit."""

    @pytest.mark.parametrize(
        "argv",
        [("reduce", "2,-1,-1"), ("pi", ",".join(["1,-1"] * 20000))],
        ids=["reduce", "pi-40000"],
    )
    def test_closed_pipe(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            code, _, err = run_python(["-m", "gdp", *argv], stdout=write_end)
        finally:
            os.close(write_end)
        assert (code, err) == (3, "error: cannot write standard output: [Errno 32] Broken pipe\n")

    def test_full_device(self):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        with open("/dev/full", "w") as full:
            code, _, err = run_python(["-m", "gdp", "reduce", "2,-1,-1"], stdout=full)
        reason = os.strerror(errno.ENOSPC)
        assert (code, err) == (3, f"error: cannot write standard output: [Errno 28] {reason}\n")


class TestJsonWriter:
    def test_matches_json_dumps(self, capsys):
        # Every --json row of the table: each record kind of reduce and
        # kostka, nulls included.
        rows = [pin for pin in PINS if "--json" in shlex.split(pin[1]) and pin[2]]
        assert len(rows) >= 10
        for pin in rows:
            record = json.loads(pin[2])
            assert cli._json(record) == json.dumps(record) == pin[2]
        assert cli._json({}) == json.dumps({})
        assert cli._json({"part": []}) == json.dumps({"part": []})

    @pytest.mark.parametrize(
        "value",
        [True, False, 1.0, {"a": True}, [1, 2.5], "a b", 'a"b', "\u0661", {1: 2}, (1, 2)],
    )
    def test_refuses_other_values(self, value):
        with pytest.raises(TypeError):
            cli._json(value)


class TestCheck:
    def test_example_list(self, capsys):
        check_rows(capsys, f"gdp check {EX12_TEXT}")

    def test_unit_pair(self, capsys):
        check_rows(capsys, "gdp check 1,-1", "gdp check +1,-1")

    def test_non_catalan(self, capsys):
        check_rows(capsys, "gdp check -1,1")

    def test_space_separated_tokens(self, capsys):
        check_rows(capsys, "gdp check 2 -1 -1")

    def test_parse_error(self, capsys):
        check_rows(
            capsys, "gdp check 1,0,-1", "gdp check 1_0,-1_0", "gdp check \u0661,-\u0661"
        )

    def test_missing_operand(self, capsys):
        check_rows(capsys, "gdp check")

    def test_cost_past_the_digit_limit(self, capsys):
        # The cost of X,X,-X,-X is 2X: 4,300 digits for X of 4,299 nines,
        # which str() still writes out, and 4,301 for 4,300 nines, which it
        # refuses; the refusal says so in one line.
        x = "9" * 4299
        out = f"catalan=true cost=1{'9' * 4298}8 width=4 y=1 alphas={x} betas={x}"
        pin = (0, f"gdp check {x},{x},-{x},-{x}", out, "")
        check_pin(pin, *run(capsys, *shlex.split(pin[1])[1:]))
        x = "9" * 4300
        excerpt = "error: the cost, about 10^4300, has too many digits to print"
        pin = (3, f"gdp check {x},{x},-{x},-{x}", "", excerpt)
        check_pin(pin, *run(capsys, *shlex.split(pin[1])[1:]))


class TestReduce:
    def test_example_decomposition_json(self, capsys):
        check_rows(capsys, f"gdp reduce --json {EX12_TEXT}")
        part = json.loads(PIN_BY_ARGV[("reduce", "--json", EX12_TEXT)][2])["part"]
        assert is_valid_decomposition(SignedList.parse(EX12_TEXT), part)

    def test_irreducible_exit_code(self, capsys):
        check_rows(capsys, "gdp reduce --json 2,-1,-1")

    def test_search_basis(self, capsys):
        # Not all 5 and -4: the verdict comes from the search, not from the
        # coprime theorem.
        check_rows(capsys, "gdp reduce --json 5,5,5,-4,-4,-4,-3")

    def test_gcd_split(self, capsys):
        check_rows(capsys, "gdp reduce 2,2,-2,-2")

    def test_wide_list_decided(self, capsys):
        check_rows(capsys, "gdp reduce " + ",".join(["3,-3"] * 13))

    def test_search_table_guard(self, capsys):
        check_rows(capsys, f"gdp reduce {10**26},1,-1,-{10**26}")

    def test_search_table_guard_past_the_digit_limit(self, capsys):
        # 4,300 nines is the longest integer that int() reads; twice it is
        # past what str() writes out, and the refusal says so in one line.
        for digits, height in ((4299, "1" + "9" * 4298 + "8"), (4300, "about 10^4300")):
            x = "9" * digits
            excerpt = f"error: the search table for width 4 and height {height} exceeds"
            pin = (4, f"gdp reduce {x},{x},-{x},-{x}", "", excerpt)
            check_pin(pin, *run(capsys, *shlex.split(pin[1])[1:]))

    def test_non_catalan_diagnostic(self, capsys):
        check_rows(capsys, "gdp reduce 1,1,-1")

    def test_flag_after_list_is_diagnosed(self, capsys):
        check_rows(capsys, "gdp reduce 2,-1,-1 --jsonx")

    def test_internal_error(self, capsys, monkeypatch):
        monkeypatch.setattr(gdp.reducer, "_splits", lambda entries, part: False)
        code, out, err = run(capsys, "reduce", "1,-1,1,-1")
        assert code == 5
        assert out == ""
        assert err.startswith("error: internal error: the decider gave")
        assert "Traceback" not in err

    @pytest.mark.parametrize("part", [frozenset(), frozenset({0, 1})], ids=["empty", "zero"])
    def test_forged_part(self, capsys, monkeypatch, part):
        # An empty decider part is a decider fault, not invalid input.
        monkeypatch.setattr(gdp.reducer, "_decide", lambda *args: _unchecked_decomposition(part))
        code, out, err = run(capsys, "reduce", "1,-1,1,-1")
        assert code == 5
        assert out == ""
        assert err.startswith("error: internal error: the decider gave")
        assert err.endswith("which is not a valid decomposition\n")


class TestPi:
    def test_golden_line(self, capsys):
        check_rows(capsys, f"gdp pi {EX12_TEXT}")

    def test_unit_pair(self, capsys):
        check_rows(capsys, "gdp pi 1,-1")

    def test_hand_traced(self, capsys):
        check_rows(capsys, "gdp pi 3,1,-2,-2")

    def test_non_catalan(self, capsys):
        check_rows(capsys, "gdp pi -1,1")


class TestKostka:
    def test_irreducible_rectangles(self, capsys):
        check_rows(capsys, 'gdp kostka --r 2 --json "2,0 / 1,1"')

    def test_equal_columns(self, capsys):
        check_rows(capsys, 'gdp kostka "2,2 / 2,2"')

    def test_zero_column_past_the_budget(self, capsys):
        check_rows(capsys, 'gdp kostka --json "1000000000 / 1000000000"')

    def test_single_column_pair(self, capsys):
        check_rows(capsys, 'gdp kostka "1,1 / 1,1"', 'gdp kostka --json "1,1 / 1,1"')

    def test_search_basis(self, capsys):
        check_rows(capsys, "gdp kostka 2,2 / 1,1,1,1")

    def test_invalid_pair(self, capsys):
        check_rows(capsys, 'gdp kostka "2,2 / 3,1"')

    def test_malformed_pair(self, capsys):
        check_rows(
            capsys,
            "gdp kostka 5,3,1",
            'gdp kostka "2,,1 / 1,1,1"',
            'gdp kostka "1_0 / 1_0"',
        )

    def test_sample_pair(self, capsys):
        code, out, _ = run(capsys, "kostka", "5,3,1", "/", "3,3,2,1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("kind=split columns=")
        columns = {int(c) for c in lines[0].split("=")[-1].split(",")}
        kp = KostkaPair(Partition((5, 3, 1)), Partition((3, 3, 2, 1)))
        part, rest = split_pair(kp, columns)
        assert lines[1:] == [
            "part: lambda=1,1 mu=1,1",
            "rest: lambda=4,2,1 mu=2,2,2,1",
        ]
        assert lines[1:] == [
            f"{name}: lambda={side.lam.format()} mu={side.mu.format()}"
            for name, side in (("part", part), ("rest", rest))
        ]

    def test_column_budget(self, capsys):
        # A zero-free pair wider than the budget is refused at once, before
        # its column vector of 2**21 columns is built.
        start = time.perf_counter()
        code, out, err = run(capsys, "kostka", "--json", "2097152 / 1048576,1048576")
        assert time.perf_counter() - start < 1.0
        assert code == 4
        assert out == ""
        assert "2097152 columns exceed the budget" in err

    def test_split_sides_json(self, capsys):
        code, out, _ = run(capsys, "kostka", "--json", "4,2 / 3,3")
        assert code == 0
        record = json.loads(out)
        kp = KostkaPair(Partition((4, 2)), Partition((3, 3)))
        part, rest = split_pair(kp, record["columns"])
        assert [record[f"{p}_part"] for p in ("lambda", "mu")] == [
            list(part.lam.parts), list(part.mu.parts)
        ]
        assert [record[f"{p}_rest"] for p in ("lambda", "mu")] == [
            list(rest.lam.parts), list(rest.mu.parts)
        ]
        total = [
            a + b
            for a, b in zip(
                record["lambda_part"] + [0] * 4, record["lambda_rest"] + [0] * 4
            )
        ]
        assert total[:2] == [4, 2]

    def test_wide_column_vector(self, capsys, wide_pair):
        pair = f"{wide_pair.lam.format()} / {wide_pair.mu.format()}"
        code, out, _ = run(capsys, "kostka", pair)
        assert code == 0
        assert out.splitlines()[0] == "kind=split columns=1,2"


class TestRender:
    def test_writes_file(self, capsys, tmp_path):
        out_file = tmp_path / "path.svg"
        code, out, _ = run(
            capsys,
            "render",
            "--scale",
            "1",
            "--highlight",
            "1,5,10,14,15",
            "-o",
            str(out_file),
            EX12_TEXT,
        )
        assert code == 0
        svg = out_file.read_text()
        assert svg.count('class="seg"') == 19
        assert svg.count("#1f77b4") == 5

    def test_option_spellings(self, capsys, tmp_path):
        # -o FILE, -oFILE and --output FILE write the same file, and
        # --scale=2 is --scale 2.
        svgs = []
        for i, argv in enumerate([
            ("--scale", "2", "-o", "{}"),
            ("--scale=2", "-o{}"),
            ("--output", "{}", "--scale=2"),
        ]):
            path = tmp_path / f"{i}.svg"
            argv = [arg.format(path) for arg in argv]
            assert run(capsys, "render", *argv, "2,-1,-1") == (0, "", "")
            svgs.append(path.read_text())
        assert svgs[0].startswith("<svg") and svgs == [svgs[0]] * 3
        code, out, _ = run(capsys, "render", "--scale", "10", "2,-1,-1")
        assert out != svgs[0]

    def test_stdout_default(self, capsys):
        code, out, _ = run(capsys, "render", "1,-1")
        assert code == 0
        assert out.startswith("<svg") and out.rstrip().endswith("</svg>")

    def test_bad_highlight(self, capsys):
        check_rows(
            capsys, "gdp render --highlight 9 1,-1", "gdp render --highlight 1,,2 1,-1"
        )

    def test_huge_entries_overflow(self, capsys):
        check_rows(capsys, f"gdp render {10**400},-{10**400}")

    def test_huge_scale_overflow(self, capsys):
        check_rows(capsys, "gdp render --scale 1e308 5,-5")

    def test_unwritable_path(self, capsys, tmp_path):
        path = str(tmp_path / "missing" / "x.svg")
        reason = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        assert run(capsys, "render", "-o", path, "1,-1") == (
            3,
            "",
            f"error: cannot write {path}: {reason}\n",
        )


class TestOracleCommands:
    def test_reduce_none(self, capsys):
        check_rows(capsys, "gdp oracle reduce 2,-1,-1")

    def test_reduce_witness(self, capsys):
        check_rows(capsys, "gdp oracle reduce 1,-1,1,-1")

    def test_reduce_refuses_non_catalan(self, capsys):
        check_rows(
            capsys,
            "gdp oracle reduce 1,1",
            "gdp oracle reduce -1,1",
            "gdp oracle reduce 1,-1,1",
        )

    def test_budget_exit(self, capsys):
        check_rows(capsys, "gdp oracle reduce " + ",".join(["1,-1"] * 13))

    def test_hilbert_single_row(self, capsys):
        check_rows(capsys, "gdp oracle hilbert --r 1 --n 3")

    def test_hilbert_two_rows(self, capsys):
        check_rows(capsys, "gdp oracle hilbert --r 2 --n 2")

    def test_hilbert_refuses_operands(self, capsys):
        check_rows(capsys, "gdp oracle hilbert --r 2 --n 2 extra")

    def test_hilbert_row_cap(self, capsys):
        check_rows(capsys, "gdp oracle hilbert --r 9 --n 2")

    def test_hilbert_size_cap(self, capsys):
        check_rows(capsys, "gdp oracle hilbert --r 2 --n 99")

    def test_forged_witness(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "reducible_bruteforce", lambda xs: Decomposition({1}))
        code, out, err = run(capsys, "oracle", "reduce", "1,-1,1,-1")
        assert code == 5
        assert out == ""
        assert err == "error: internal error: part [1] is invalid\n"


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("reduce", "--limit", "26", "3,-3,1,-1"), "unrecognized option '--limit'"),
            (("bogus",), "invalid choice: 'bogus'"),
            (("kostka", "--r", "abc", "2 / 1,1"), "--r: invalid int value: 'abc'"),
            (("render", "--highlight"), "--highlight: expected one argument"),
            (("render", "--scale", "nan", "1,-1"), "--scale: expected a positive float"),
            (("render", "--scale", "inf", "1,-1"), "--scale: expected a positive float"),
            (("render", "--scale", "0", "1,-1"), "--scale: expected a positive float"),
            (("oracle", "hilbert", "--r", "2", "--n", "-3"), "--n: expected a positive"),
            (("oracle", "hilbert", "--r", "2"), "required: --n"),
            (("oracle", "hilbert", "--r", "0", "--n", "2"), "--r: expected a positive int"),
            (("oracle", "hilbert", "--r", "-2", "--n", "2"), "--r: expected a positive int"),
            (("render", "--scale", "abc", "1,-1"),
             "--scale: expected a positive float, got 'abc'"),
            (("oracle", "hilbert", "--r", "x", "--n", "2"),
             "--r: expected a positive int, got 'x'"),
        ],
    )
    def test_exit_code_and_message(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        check_pin(PIN_BY_ARGV[argv], code, out, err)
        assert err.startswith("error: gdp") and message in err


class TestRoundTrips:
    def test_reduce_json_revalidates(self, capsys):
        for text in ("1,-1,1,-1", "2,1,-1,-1,-1", "2,2,-2,-2", EX12_TEXT):
            code, out, _ = run(capsys, "reduce", "--json", text)
            assert code == 0
            record = json.loads(out)
            xs = SignedList.parse(text)
            assert is_valid_decomposition(xs, record["part"])

    def test_partition_round_trip(self):
        for text in ("5,3,1", "2,2", "1"):
            assert Partition.parse(Partition.parse(text).format()).parts == (
                Partition.parse(text).parts
            )
