import json
import time

import pytest

import gdp.reducer
from gdp import cli
from gdp.catalan import SignedList, is_valid_decomposition
from gdp.kostka import KostkaPair, Partition, verify_column_split

from conftest import EX12

EX12_TEXT = ",".join(map(str, EX12))


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_example_list(self, capsys):
        code, out, _ = run(capsys, "check", EX12_TEXT)
        assert code == 0
        assert out.startswith("catalan=true cost=17 width=19 y=2")
        assert "alphas=5,5" in out and "betas=3,4" in out

    def test_unit_pair(self, capsys):
        for text in ("1,-1", "+1,-1"):
            code, out, _ = run(capsys, "check", text)
            assert code == 0
            assert out.startswith("catalan=true cost=2 width=2 y=1")

    def test_non_catalan(self, capsys):
        code, out, _ = run(capsys, "check", "-1,1")
        assert code == 0
        assert out.strip() == "catalan=false"

    def test_space_separated_tokens(self, capsys):
        code, out, _ = run(capsys, "check", "2", "-1", "-1")
        assert code == 0
        assert "cost=3 width=3" in out

    def test_parse_error(self, capsys):
        # A token is ASCII digits with an optional sign: int() alone would
        # read 1_0 as 10 and the Arabic-Indic digit one as 1.
        cases = (
            ("1,0,-1", "zero entries"),
            ("1_0,-1_0", "position 1: '1_0' is not an integer"),
            ("\u0661,-\u0661", "position 1: '\u0661' is not an integer"),
        )
        for text, message in cases:
            code, out, err = run(capsys, "check", text)
            assert code == 3
            assert out == ""
            assert message in err

    def test_missing_operand(self, capsys):
        code, _, err = run(capsys, "check")
        assert code == 3
        assert "missing list" in err


class TestReduce:
    def test_example_decomposition_json(self, capsys):
        code, out, _ = run(capsys, "reduce", "--json", EX12_TEXT)
        assert code == 0
        record = json.loads(out)
        assert record["kind"] == "decomposition"
        assert is_valid_decomposition(SignedList.parse(EX12_TEXT), record["part"])

    def test_irreducible_exit_code(self, capsys):
        code, out, _ = run(capsys, "reduce", "--json", "2,-1,-1")
        assert code == 1
        record = json.loads(out)
        assert record == {
            "kind": "irreducible",
            "alpha1": 2,
            "beta1": 1,
            "basis": "coprime",
        }

    def test_search_basis(self, capsys):
        # Not all 5 and -4: the verdict comes from the search, not from the
        # coprime theorem.
        code, out, _ = run(capsys, "reduce", "--json", "5,5,5,-4,-4,-4,-3")
        assert code == 1
        assert json.loads(out)["basis"] == "search"

    def test_gcd_split(self, capsys):
        code, out, _ = run(capsys, "reduce", "2,2,-2,-2")
        assert code == 0
        assert out.strip() == "kind=decomposition part=1,3"

    def test_wide_list_decided(self, capsys):
        wide = ",".join(["3,-3"] * 13)
        code, out, _ = run(capsys, "reduce", wide)
        assert code == 0
        assert out.strip() == "kind=decomposition part=1,2"

    def test_search_table_guard(self, capsys):
        code, out, err = run(capsys, "reduce", f"{10**26},1,-1,-{10**26}")
        assert code == 4
        assert out == "" and "search table" in err

    def test_internal_error(self, capsys, monkeypatch):
        monkeypatch.setattr(gdp.reducer, "is_valid_decomposition", lambda xs, p: False)
        code, out, err = run(capsys, "reduce", "1,-1,1,-1")
        assert code == 5
        assert out == ""
        assert err.startswith("error: internal error: the decider gave")
        assert "Traceback" not in err

    def test_non_catalan_diagnostic(self, capsys):
        code, _, err = run(capsys, "reduce", "1,1,-1")
        assert code == 3
        assert "not generalized Catalan" in err

    def test_flag_after_list_is_diagnosed(self, capsys):
        code, _, err = run(capsys, "reduce", "2,-1,-1", "--jsonx")
        assert code == 3
        assert "must come before" in err


class TestPi:
    def test_golden_line(self, capsys):
        code, out, _ = run(capsys, "pi", EX12_TEXT)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "(1 5 2 6 7 3 8 4 9 10 11 15 12 16 17 13 18 14 19)"
        assert lines[1] == "reordered=5,-3,5,-3,-3,4,-3,4,-3,-1,5,-4,5,-4,-4,5,-4,3,-4"

    def test_unit_pair(self, capsys):
        code, out, _ = run(capsys, "pi", "1,-1")
        assert code == 0
        assert out.splitlines()[0] == "(1 2)"

    def test_hand_traced(self, capsys):
        code, out, _ = run(capsys, "pi", "3,1,-2,-2")
        assert code == 0
        assert out.splitlines()[0] == "(1 3 2 4)"

    def test_non_catalan(self, capsys):
        code, _, err = run(capsys, "pi", "-1,1")
        assert code == 3
        assert err.strip() == "error: input list is not generalized Catalan"


class TestKostka:
    def test_sample_pair(self, capsys):
        code, out, _ = run(capsys, "kostka", "5,3,1", "/", "3,3,2,1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("kind=split columns=")
        columns = {int(c) for c in lines[0].split("=")[-1].split(",")}
        kp = KostkaPair(Partition((5, 3, 1)), Partition((3, 3, 2, 1)))
        assert verify_column_split(kp, columns)
        assert lines[1:] == [
            "part: lambda=1,1 mu=1,1",
            "rest: lambda=4,2,1 mu=2,2,2,1",
        ]

    def test_irreducible_rectangles(self, capsys):
        code, out, _ = run(capsys, "kostka", "--r", "2", "--json", "2,0 / 1,1")
        assert code == 1
        record = json.loads(out)
        assert record["kind"] == "irreducible"
        assert record["alpha1"] == 1 and record["beta1"] == 1
        assert record["basis"] == "coprime"
        assert record["lambda_rect"] == [1, 2]
        assert record["mu_rect"] == [2, 1]

    def test_equal_columns(self, capsys):
        code, out, _ = run(capsys, "kostka", "2,2 / 2,2")
        assert code == 0
        assert out.splitlines()[0] == "kind=split columns=1"

    def test_column_budget(self, capsys):
        # A zero-free pair wider than the budget is refused at once, before
        # its column vector of 2**21 columns is built.
        start = time.perf_counter()
        code, out, err = run(capsys, "kostka", "--json", "2097152 / 1048576,1048576")
        assert time.perf_counter() - start < 1.0
        assert code == 4
        assert out == ""
        assert "2097152 columns exceed the budget" in err

    def test_zero_column_past_the_budget(self, capsys):
        # A zero column is found in the column vector's blocks, at any width.
        code, out, _ = run(capsys, "kostka", "--json", "1000000000 / 1000000000")
        assert code == 0
        assert json.loads(out) == {
            "kind": "split",
            "columns": [1],
            "lambda_part": [1],
            "mu_part": [1],
            "lambda_rest": [999999999],
            "mu_rest": [999999999],
        }

    def test_split_sides_json(self, capsys):
        code, out, _ = run(capsys, "kostka", "--json", "4,2 / 3,3")
        assert code == 0
        record = json.loads(out)
        kp = KostkaPair(Partition((4, 2)), Partition((3, 3)))
        assert verify_column_split(kp, record["columns"])
        total = [
            a + b
            for a, b in zip(
                record["lambda_part"] + [0] * 4, record["lambda_rest"] + [0] * 4
            )
        ]
        assert total[:2] == [4, 2]

    def test_single_column_pair(self, capsys):
        code, out, _ = run(capsys, "kostka", "1,1 / 1,1")
        assert code == 1
        assert out.strip() == (
            "kind=irreducible basis=single-column lambda_rect=2x1 mu_rect=2x1"
        )
        code, out, _ = run(capsys, "kostka", "--json", "1,1 / 1,1")
        record = json.loads(out)
        assert record["alpha1"] is None and record["mu_rect"] == [2, 1]
        assert record["basis"] == "single-column"

    def test_search_basis(self, capsys):
        code, out, _ = run(capsys, "kostka", "2,2 / 1,1,1,1")
        assert code == 1
        assert out.strip() == (
            "kind=irreducible alpha1=2 beta1=2 basis=search"
            " lambda_rect=2x2 mu_rect=4x1"
        )

    def test_wide_column_vector(self, capsys, wide_pair):
        pair = f"{wide_pair.lam.format()} / {wide_pair.mu.format()}"
        code, out, _ = run(capsys, "kostka", pair)
        assert code == 0
        assert out.splitlines()[0] == "kind=split columns=1,2"

    def test_invalid_pair(self, capsys):
        code, _, err = run(capsys, "kostka", "2,2 / 3,1")
        assert code == 3
        assert "invalid pair" in err

    def test_malformed_pair(self, capsys):
        cases = (
            ("5,3,1", "lambda / mu"),
            ("2,,1 / 1,1,1", "empty token"),
            ("1_0 / 1_0", "part 1: '1_0' is not an integer"),
        )
        for pair, message in cases:
            code, out, err = run(capsys, "kostka", pair)
            assert code == 3
            assert out == ""
            assert message in err


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

    def test_stdout_default(self, capsys):
        code, out, _ = run(capsys, "render", "1,-1")
        assert code == 0
        assert out.startswith("<svg") and out.rstrip().endswith("</svg>")

    def test_bad_highlight(self, capsys):
        for highlight, message in (("9", "out of range"), ("1,,2", "empty token")):
            code, out, err = run(capsys, "render", "--highlight", highlight, "1,-1")
            assert code == 3
            assert out == ""
            assert message in err

    def test_huge_entries_overflow(self, capsys):
        # 10**400 * scale does not convert to a float.
        huge = 10**400
        code, out, err = run(capsys, "render", f"{huge},{-huge}")
        assert code == 3
        assert out == ""
        assert "too large to draw" in err
        assert "Traceback" not in err

    def test_huge_scale_overflow(self, capsys):
        # 5 * 1e308 is inf, and the way back down is inf - inf = nan.
        code, out, err = run(capsys, "render", "--scale", "1e308", "5,-5")
        assert code == 3
        assert out == ""
        assert "too large to draw" in err

    def test_unwritable_path(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "render", "-o", str(tmp_path / "missing" / "x.svg"), "1,-1"
        )
        assert code == 3
        assert "cannot write" in err


class TestOracleCommands:
    def test_reduce_none(self, capsys):
        code, out, _ = run(capsys, "oracle", "reduce", "2,-1,-1")
        assert code == 1
        assert out.strip() == "none"

    def test_reduce_witness(self, capsys):
        code, out, _ = run(capsys, "oracle", "reduce", "1,-1,1,-1")
        assert code == 0
        assert out.strip() == "part=1,2"

    def test_reduce_refuses_non_catalan(self, capsys):
        # The two sides of a split are Catalan, so their union is too: a
        # non-Catalan list is refused, not reported irreducible.
        for text in ("1,1", "-1,1", "1,-1,1"):
            code, out, err = run(capsys, "oracle", "reduce", text)
            assert code == 3
            assert out == ""
            assert "input list is not generalized Catalan" in err

    def test_budget_exit(self, capsys):
        wide = ",".join(["1,-1"] * 13)
        code, _, err = run(capsys, "oracle", "reduce", wide)
        assert code == 4
        assert "budget" in err

    def test_hilbert_single_row(self, capsys):
        code, out, _ = run(capsys, "oracle", "hilbert", "--r", "1", "--n", "3")
        assert code == 0
        assert out.splitlines() == ["1 / 1"]

    def test_hilbert_two_rows(self, capsys):
        code, out, _ = run(capsys, "oracle", "hilbert", "--r", "2", "--n", "2")
        assert code == 0
        assert out.splitlines() == ["1 / 1", "1,1 / 1,1", "2 / 1,1"]

    def test_hilbert_refuses_operands(self, capsys):
        code, out, err = run(capsys, "oracle", "hilbert", "--r", "2", "--n", "2", "extra")
        assert code == 3 and out == ""
        assert err == "error: oracle hilbert takes no positional operands\n"

    def test_hilbert_row_cap(self, capsys):
        code, _, err = run(capsys, "oracle", "hilbert", "--r", "9", "--n", "2")
        assert code == 4

    def test_hilbert_size_cap(self, capsys):
        code, _, err = run(capsys, "oracle", "hilbert", "--r", "2", "--n", "99")
        assert code == 4
        assert "budget" in err


class TestUsageErrors:
    # Usage errors get exit code 3, like other bad input.
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
        assert code == 3
        assert out == ""
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
