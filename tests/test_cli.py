"""Command-line behavior: output text, inputs, and exit codes."""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from vlinkpoly import (
    BRACKET_RING,
    DEFAULT_MAX_CROSSINGS,
    PerStateRows,
    VerificationReport,
    from_diagram,
    print_poly,
    print_ribbon,
    verify_identity,
)
from vlinkpoly.cli import main

from conftest import DIAGRAMS, load

KNOT3 = str(DIAGRAMS / "paper_knot.vld")
UNKNOT = str(DIAGRAMS / "unknot.vld")

RIBBON_TEXT = "V 3 1 6 2\nV 5 4\nE 1 2 1 +\nE 3 4 1 -\nE 5 6 1 -\n"


def run(capsys: pytest.CaptureFixture[str], *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOutputs:
    def test_bracket(self, capsys: pytest.CaptureFixture[str]) -> None:
        code, out, _ = run(capsys, "bracket", KNOT3)
        assert code == 0
        assert out == "B^3*d + 2*A*B^2 + A*B^2*d + 3*A^2*B + A^3*d\n"

    def test_bracket_of_trivial_loop(self, capsys: pytest.CaptureFixture[str]) -> None:
        code, out, _ = run(capsys, "bracket", UNKNOT)
        assert code == 0 and out == "1\n"

    def test_jones(self, capsys: pytest.CaptureFixture[str]) -> None:
        code, out, _ = run(capsys, "jones", KNOT3)
        assert code == 0
        assert out == "t^(-2) - t^(-1) - t^(-1/2) + 1 + t^(1/2)\n"

    def test_ribbon(self, capsys: pytest.CaptureFixture[str]) -> None:
        code, out, _ = run(capsys, "ribbon", KNOT3)
        assert code == 0 and out == RIBBON_TEXT

    def test_brpoly_from_diagram(self, capsys: pytest.CaptureFixture[str]) -> None:
        code, out, _ = run(capsys, "brpoly", KNOT3)
        assert code == 0
        assert out == "2 + y + 2*y*z + y^2*z + x + x*y*z^2\n"

    def test_brpoly_from_ribbon_file(self, capsys: pytest.CaptureFixture[str], tmp_path: Path) -> None:
        rg = tmp_path / "knot3.rg"
        rg.write_text(print_ribbon(from_diagram(load("paper_knot"))))
        code, out, _ = run(capsys, "brpoly", "--graph", str(rg))
        assert code == 0
        assert out == "2 + y + 2*y*z + y^2*z + x + x*y*z^2\n"

    def test_table_aligned(self, capsys: pytest.CaptureFixture[str]) -> None:
        code, out, _ = run(capsys, "table", KNOT3)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 9
        assert lines[0].split() == ["state", "alpha", "beta", "delta", "edges", "k", "r", "n", "bc", "s"]
        assert lines[1].split() == ["AAA", "3", "0", "2", "2,3", "1", "1", "1", "2", "1"]
        assert lines[4].split() == ["ABB", "1", "2", "2", "-", "2", "0", "0", "2", "-1"]

    def test_table_tsv(self, capsys: pytest.CaptureFixture[str]) -> None:
        code, out, _ = run(capsys, "table", "--tsv", KNOT3)
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "AAA\t3\t0\t2\t2,3\t1\t1\t1\t2\t1"
        assert lines[8] == "BBB\t0\t3\t2\t1\t2\t0\t1\t2\t-1"

    def test_verify_ok(self, capsys: pytest.CaptureFixture[str]) -> None:
        code, out, _ = run(capsys, "verify", KNOT3)
        assert code == 0 and out == "OK\n"

    def test_fuzz(self, capsys: pytest.CaptureFixture[str]) -> None:
        code, out, _ = run(capsys, "fuzz", "--count", "5", "--max-crossings", "6", "--seed", "1")
        assert code == 0
        assert out.strip().endswith("5/5 diagrams verified")


class TestInputs:
    def test_inline_code(self, capsys: pytest.CaptureFixture[str]) -> None:
        code, out, _ = run(capsys, "bracket", "--code", "X 1 1 2 2")
        assert code == 0 and out == "B + A*d\n"

    def test_inline_code_with_multiple_lines(self, capsys: pytest.CaptureFixture[str]) -> None:
        code, out, _ = run(capsys, "verify", "--code", "X 1 4 2 5;X 3 6 4 1;X 5 2 6 3")
        assert code == 0 and out == "OK\n"

    def test_stdin(self, capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch) -> None:
        monkeypatch.setattr("sys.stdin", io.StringIO("X 1 1 2 2\n"))
        code, out, _ = run(capsys, "jones", "-")
        assert code == 0 and out == "1\n"

    def test_exactly_one_input_required(self, capsys: pytest.CaptureFixture[str]) -> None:
        code, _, err = run(capsys, "bracket")
        assert code == 2 and "exactly one input" in err
        code, _, err = run(capsys, "bracket", KNOT3, "--code", "X 1 1 2 2")
        assert code == 2 and "exactly one input" in err


class TestExitCodes:
    def test_missing_file(self, capsys: pytest.CaptureFixture[str]) -> None:
        code, _, err = run(capsys, "bracket", "no_such_file.vld")
        assert code == 2 and err

    def test_parse_error_carries_line_number(self, capsys: pytest.CaptureFixture[str]) -> None:
        code, _, err = run(capsys, "bracket", "--code", "X 1 2 3")
        assert code == 2 and "line 1" in err

    def test_invalid_code_rejected(self, capsys: pytest.CaptureFixture[str]) -> None:
        code, _, err = run(capsys, "verify", "--code", "X 1 2 3 4")
        assert code == 2 and "exactly twice" in err

    def test_bad_ribbon_file(self, capsys: pytest.CaptureFixture[str], tmp_path: Path) -> None:
        rg = tmp_path / "bad.rg"
        rg.write_text("V 1 2\nE 1 2 5 +\n")
        code, _, err = run(capsys, "brpoly", "--graph", str(rg))
        assert code == 2 and "line 2" in err

    def test_state_cap(self, capsys: pytest.CaptureFixture[str]) -> None:
        code, _, err = run(capsys, "bracket", KNOT3, "--max-states", "4")
        assert code == 3 and "cap" in err
        code, out, _ = run(capsys, "bracket", KNOT3, "--max-states", "8")
        assert code == 0 and out.startswith("B^3*d")

    def test_cap_applies_to_ribbon_enumeration(self, capsys: pytest.CaptureFixture[str]) -> None:
        code, _, err = run(capsys, "brpoly", KNOT3, "--max-states", "4")
        assert code == 3 and "cap" in err

    @pytest.mark.parametrize("command", ["verify", "table", "brpoly", "ribbon"])
    def test_free_loops_past_the_cap(self, capsys: pytest.CaptureFixture[str], command: str) -> None:
        code, out, err = run(capsys, command, "--code", "L 99999999999999999999")
        assert code == 3 and not out
        assert "99999999999999999999 free loops exceed the enumeration cap of 2^24" in err

    def test_jones_free_loops_past_the_cap(self, capsys: pytest.CaptureFixture[str]) -> None:
        code, out, err = run(capsys, "jones", "--code", "L 99999999999999999999")
        assert code == 3 and out == ""
        assert "99999999999999999999 free loops exceed the enumeration cap of 2^24" in err
        # The bracket needs no expansion, so it still prints.
        code, out, _ = run(capsys, "bracket", "--code", "L 99999999999999999999")
        assert code == 0 and out == "d^99999999999999999998\n"

    def test_free_loop_cap_is_two_to_the_crossing_cap(self, capsys: pytest.CaptureFixture[str]) -> None:
        code, out, _ = run(capsys, "ribbon", "--code", "L 4", "--max-states", "4")
        assert code == 0 and out == "V\n" * 4
        code, _, err = run(capsys, "ribbon", "--code", "L 5", "--max-states", "4")
        assert code == 3 and "5 free loops" in err

    def test_non_utf8_file(self, capsys: pytest.CaptureFixture[str], tmp_path: Path) -> None:
        bad = tmp_path / "bad.vld"
        bad.write_bytes(b"X 1 1 2 2\xff\n")
        code, _, err = run(capsys, "bracket", str(bad))
        assert code == 2 and "utf-8" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("bracket", KNOT3, "--max-states", "0"),
            ("bracket", KNOT3, "--max-states", "-5"),
            ("fuzz", "--max-crossings", "0"),
            ("fuzz", "--count", "-3"),
        ],
    )
    def test_out_of_range_numbers_are_usage_errors(
        self, capsys: pytest.CaptureFixture[str], argv: tuple[str, ...]
    ) -> None:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "must be at least" in capsys.readouterr().err

    def test_fuzz_max_crossings_above_the_cap_is_a_usage_error(
        self, capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch
    ) -> None:
        def no_diagrams(*args: object) -> None:
            raise AssertionError("fuzz drew a diagram before rejecting its arguments")

        monkeypatch.setattr("vlinkpoly.cli.random_diagrams", no_diagrams)
        too_many = str(DEFAULT_MAX_CROSSINGS + 1)
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--count", "1", "--max-crossings", too_many, "--seed", "23"])
        assert exc.value.code == 2
        assert f"must be at most {DEFAULT_MAX_CROSSINGS}" in capsys.readouterr().err


class TestMismatchReport:
    """verify and fuzz print one MISMATCH block for a failed verification."""

    @pytest.fixture
    def expected(self, monkeypatch: pytest.MonkeyPatch) -> list[str]:
        d = load("paper_knot")
        true = verify_identity(d)
        rows = PerStateRows(d, from_diagram(d), true.per_state._columns, [2, 5])
        report = VerificationReport(true.lhs, true.rhs + BRACKET_RING.one(), False, rows)
        monkeypatch.setattr("vlinkpoly.cli.verify_identity", lambda *args: report)
        return [
            "MISMATCH",
            f"bracket:     {print_poly(report.lhs)}",
            f"transformed: {print_poly(report.rhs)}",
            "state ABA: alpha=2 beta=1 delta=1 vs subgraph {3}: e=1 2s=0 bc=1",
            "state BAB: alpha=1 beta=2 delta=1 vs subgraph {1,2}: e=2 2s=0 bc=1",
        ]

    def test_verify(self, capsys: pytest.CaptureFixture[str], expected: list[str]) -> None:
        code, out, _ = run(capsys, "verify", KNOT3)
        assert code == 1
        assert out.splitlines() == expected

    def test_fuzz(self, capsys: pytest.CaptureFixture[str], expected: list[str]) -> None:
        code, out, _ = run(capsys, "fuzz", "--count", "2", "--max-crossings", "3", "--seed", "0")
        assert code == 1
        lines = out.splitlines()
        assert lines[-1] == "0/2 diagrams verified"
        starts = [i for i, line in enumerate(lines) if line.startswith("FAIL diagram")]
        assert len(starts) == 2
        for start, end in zip(starts, starts[1:] + [len(lines) - 1]):
            block = lines[start:end]
            assert block[-len(expected):] == expected
            assert [line for line in block if line.startswith("state ")] == expected[3:]
