import argparse
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tnnlu
from conftest import eliminate, greedy_leaders, seeded
from tnnlu import Mat, format_matrix, parse_matrix, random_tnn
from tnnlu.cli import main

CRYER_TEXT = "3 3\n0 0 0\n1 0 1\n1 0 1\n"
A4_INLINE = "0 1 2 1; 0 2 4 2; 0 1 2 3; 0 3 6 11"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_cryer_from_file(tmp_path, capsys):
    path = tmp_path / "cryer.mat"
    path.write_text(CRYER_TEXT, encoding="utf-8")
    code, out, err = run_cli(capsys, "decompose", str(path), "--format", "structured")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["class"] == {"r": [2], "c": [1]}
    assert payload["L"] == [["0"], ["1"], ["1"]]
    assert payload["U"] == [["1", "0", "1"]]


def test_decompose_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(CRYER_TEXT))
    code, out, _ = run_cli(capsys, "decompose", "-", "--format", "structured")
    assert code == 0
    assert json.loads(out)["class"] == {"r": [2], "c": [1]}


@pytest.mark.parametrize("method", ["auto", "explicit", "neville", "reconstruct"])
def test_methods_agree(capsys, method):
    code, out, _ = run_cli(
        capsys, "decompose", "--inline", A4_INLINE, "--method", method, "--format", "structured"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == method
    assert payload["class"] == {"r": [1, 3], "c": [2, 4]}
    assert payload["L"] == [["1", "0"], ["2", "0"], ["1", "1"], ["3", "4"]]
    assert payload["U"] == [["0", "1", "2", "1"], ["0", "0", "0", "2"]]


def test_trace_emitted_for_neville(capsys):
    code, out, _ = run_cli(
        capsys,
        "decompose", "--inline", A4_INLINE,
        "--method", "neville", "--trace", "--format", "structured",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["trace"] == ["E 3 2 3", "E 2 2 1/2", "E 1 2 2", "D 2", "E 2 4 1", "D 3"]


@pytest.mark.parametrize("method", ["auto", "neville"])
def test_trace_with_no_moves_is_empty_not_unavailable(capsys, method):
    argv = ("decompose", "--inline", "1 0; 0 1", "--method", method, "--trace")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.endswith("U:\n2 2\n1 0\n0 1\ntrace:\n")
    code, out, _ = run_cli(capsys, *argv, "--format", "structured")
    assert code == 0
    assert json.loads(out)["trace"] == []


def test_trace_with_no_moves_on_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("0 3\n"))
    code, out, _ = run_cli(capsys, "decompose", "--method", "neville", "--trace")
    assert code == 0
    assert out.endswith("U:\n0 3\ntrace:\n")


def test_trace_unavailable_for_explicit(capsys):
    code, out, _ = run_cli(
        capsys,
        "decompose", "--inline", A4_INLINE,
        "--method", "explicit", "--trace", "--format", "structured",
    )
    assert code == 0
    assert json.loads(out)["trace"] is None


def _inline(A):
    return ";".join(" ".join(str(x) for x in row) for row in A.iter_rows())


@pytest.mark.parametrize(
    "inline, tnn",
    [
        (A4_INLINE, True),
        ("0 0 0; 1 0 1; 1 0 1", True),
        (_inline(random_tnn(4, 5, seed=5)), True),
        ("1 2; 3 4", False),
    ],
    ids=["A4", "cryer", "random_tnn", "non-tnn-member"],
)
def test_auto_certifies_once(capsys, monkeypatch, inline, tnn):
    argv = ("decompose", "--inline", inline, "--trace", "--format", "structured")
    expected = []
    for method in ("explicit", "reconstruct"):
        code, out, _ = run_cli(capsys, *argv, "--method", method)
        assert code == 0
        expected.append({k: json.loads(out)[k] for k in ("class", "L", "U")})
    assert expected[0] == expected[1]

    certify, calls = tnnlu.cli.certify, []

    def counting(*args, **kwargs):
        calls.append(args)
        return certify(*args, **kwargs)

    monkeypatch.setattr(tnnlu.cli, "certify", counting)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(calls) == 1
    payload = json.loads(out)
    assert {k: payload[k] for k in ("class", "L", "U")} == expected[0]
    if tnn:
        assert isinstance(payload["trace"], list)
    else:
        assert payload["trace"] is None


def test_auto_builds_one_elimination_table_on_tnn_input(capsys, monkeypatch):
    # reconstruct_lu certifies A; Neville's finish reads no table
    import tnnlu.core
    import tnnlu.mclass

    kernel, tables = tnnlu.core._bareiss, []

    def counting(rows, pick):
        tables.append([list(row) for row in rows])
        return kernel(rows, pick)

    monkeypatch.setattr(tnnlu.core, "_bareiss", counting)
    monkeypatch.setattr(tnnlu.mclass, "_bareiss", counting)
    code, out, _ = run_cli(capsys, "decompose", "--inline", "1 1 1; 1 2 3; 1 3 6", "--trace")
    assert code == 0
    assert out.endswith("trace:\nE 2 1 1\nE 1 1 1\nE 2 2 1\n")
    assert tables.count([[1, 1, 1], [1, 2, 3], [1, 3, 6]]) == 1


def test_auto_without_trace_runs_no_tnn_test_or_neville(capsys, monkeypatch):
    # Neville's finish accepts only the certified pair, so without --trace
    # auto prints reconstruct's bytes and has no use for a TNN verdict
    ones = ";".join(" ".join("1" for _ in range(9)) for _ in range(9))  # past the size guard
    inputs = ("0 0 0; 1 0 1; 1 0 1", A4_INLINE, pascal_inline(4), "1 2; 3 4", ones)
    expected = {}
    for inline in inputs:
        for fmt in ("text", "structured"):
            argv = ("decompose", "--inline", inline, "--format", fmt)
            code, out, err = run_cli(capsys, *argv, "--method", "reconstruct")
            assert (code, err) == (0, "")
            expected[argv] = out.splitlines()

    def refuse(*args, **kwargs):
        raise AssertionError("auto decompose without --trace ran a TNN test or Neville")

    monkeypatch.setattr("tnnlu.cli.is_tnn", refuse)
    monkeypatch.setattr("tnnlu.cli._tnn_gate", refuse)
    monkeypatch.setattr("tnnlu.cli._neville", refuse)
    for argv, lines in expected.items():
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == len(lines)
        differ = [(a, b) for a, b in zip(out.splitlines(), lines) if a != b]
        assert differ in (
            [("method: auto", "method: reconstruct")],
            [('  "method": "auto",', '  "method": "reconstruct",')],
        )
    code, out, err = run_cli(capsys, "decompose", "--inline", "0 1 1; 1 1 0")
    assert (code, out) == (4, "") and err.startswith("error: class-not-found: ")


def test_detect_builds_no_factors(capsys, monkeypatch):
    # detect_class and greedy_leaders read the scan's table; _factors builds L and U
    import tnnlu.mclass

    inputs = ("0 0 0; 1 0 1; 1 0 1", A4_INLINE, "0 1 1; 1 1 0", "0 1; 1 1", "0 0; 0 0")
    texts = (CRYER_TEXT, "2 3\n0 1 1\n1 1 0\n", "2 2\n0 1\n1 1\n")
    before = [run_cli(capsys, "detect", "--inline", inline) for inline in inputs]
    assert [out for _, out, _ in before].count("class: none\n") == 2
    greedy = [greedy_leaders(parse_matrix(text)) for text in texts]

    def refuse(*args, **kwargs):
        raise AssertionError("the class was read off built factors")

    monkeypatch.setattr(tnnlu.mclass, "_factors", refuse)
    assert [run_cli(capsys, "detect", "--inline", inline) for inline in inputs] == before
    assert [greedy_leaders(parse_matrix(text)) for text in texts] == greedy


def test_detect_and_certify_build_one_table_per_call(monkeypatch):
    import tnnlu.core
    import tnnlu.mclass

    kernel, tables = tnnlu.core._bareiss, []

    def counting(rows, pick):
        tables.append([list(row) for row in rows])
        return kernel(rows, pick)

    def one_table(call, A):
        tables[:] = []
        try:
            return call(A)
        finally:
            assert len(tables) == 1

    monkeypatch.setattr(tnnlu.core, "_bareiss", counting)
    monkeypatch.setattr(tnnlu.mclass, "_bareiss", counting)
    for text in (CRYER_TEXT, "2 3\n0 1 1\n1 1 0\n"):
        A = parse_matrix(text)
        try:
            certified = one_table(tnnlu.mclass.certify, A).desc
        except tnnlu.NotInClassError:
            certified = None
        assert one_table(tnnlu.detect_class, A) == certified
        assert one_table(greedy_leaders, A) == one_table(eliminate, A).desc


def test_factor_and_detect_build_no_fraction(capsys, monkeypatch):
    # a Mat is integer rows over one denominator: parsing, the table, both
    # factors, the TNN gate's accept, Neville's run with no trace asked for,
    # and the printout never need a Fraction
    inputs = (
        "1/2 1/3 1 -2/4; 1/5 1 2/7 0; 3 1/4 1 7/3; 6/4 -0 +5 1/1",  # signed, unreduced tokens
        "0 0 0; 1/2 0 1/3; 2/4 0 2/6",  # rank 1, with a zero row and column
        _inline(random_tnn(5, 6, seed=11, factors=30)),
        "0 1/2 1; 1/3 1 0",  # in no class: exit 4
    )
    calls = []
    for inline in inputs:
        for fmt in ("text", "structured"):
            common = ("--inline", inline, "--format", fmt)
            calls += [("decompose", "--method", "reconstruct", *common)]
            calls += [("decompose", "--method", "explicit", *common)]
            calls += [("decompose", *common), ("detect", *common)]
    for inline in inputs[1:3]:  # the TNN inputs
        for fmt in ("text", "structured"):
            calls += [("decompose", "--method", "neville", "--inline", inline, "--format", fmt)]
    calls += [("check-tnn", "--inline", inline) for inline in inputs[1:3]]
    expected = [run_cli(capsys, *argv) for argv in calls]
    assert expected[-2:] == [(0, "is_tnn: true\nwitness: none\n", "")] * 2
    assert {code for code, _, _ in expected} == {0, 4}
    assert any("/" in out for _, out, _ in expected)

    def refuse(*args, **kwargs):
        raise AssertionError("built a Fraction")

    for name, module in list(sys.modules.items()):
        if name.startswith("tnnlu") and hasattr(module, "Fraction"):
            monkeypatch.setattr(module, "Fraction", refuse)
    assert [run_cli(capsys, *argv) for argv in calls] == expected


def test_check_tnn_deletes_a_run_of_zero_rows_in_one_pass(tmp_path, capsys):
    # a zero row costs O(1) to delete, not a rescan of every row's lead
    tall = ["20000 2", *["0 0"] * 7777, "3 5", *["0 0"] * 12222]
    for name, lines in (("rows", ["20000 0"]), ("cols", ["0 20000"]), ("tall", tall)):
        path = tmp_path / f"{name}.mat"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        began = time.perf_counter()
        code, out, err = run_cli(capsys, "check-tnn", str(path))
        assert time.perf_counter() - began < 1.0, name
        assert (code, out, err) == (0, "is_tnn: true\nwitness: none\n", ""), name


def test_neville_deletes_a_run_of_zero_rows_in_linear_time(tmp_path, capsys):
    # L's column of a zero row deleted before any move reads it is never built
    tall = ["20000 2", *["0 0"] * 7777, "3 5", *["0 0"] * 12222]
    deleted = {"rows": range(20000, 0, -1), "cols": (), "tall": [*range(20000, 7778, -1), *range(7777, 0, -1)]}
    for name, lines in (("rows", ["20000 0"]), ("cols", ["0 20000"]), ("tall", tall)):
        path = tmp_path / f"{name}.mat"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        outs = []
        for extra in ((), ("--trace",)):
            began = time.perf_counter()
            code, out, err = run_cli(capsys, "decompose", "--method", "neville", *extra, str(path))
            assert time.perf_counter() - began < 1.0, (name, extra)
            assert (code, err) == (0, ""), (name, extra)
            outs.append(out)
        assert outs[1] == outs[0] + "trace:\n" + "".join(f"D {i}\n" for i in deleted[name]), name


def test_gate_skips_pass_two_when_pass_one_leaves_no_row(tmp_path, capsys):
    # pass 2 on the n x 0 transpose could only delete its rows: a million
    # columns answer at once, not by building and deleting a million rows
    path = tmp_path / "wide.mat"
    path.write_text("0 1000000\n", encoding="utf-8")
    pair = "class: r = {}, c = {}\nL:\n0 0\nU:\n0 1000000\n"
    for argv, expected in (
        (["check-tnn"], "is_tnn: true\nwitness: none\n"),
        (["decompose", "--method", "neville"], "method: neville\n" + pair),
        (["decompose", "--method", "neville", "--trace"], "method: neville\n" + pair + "trace:\n"),
    ):
        began = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, str(path))
        assert time.perf_counter() - began < 1.0, argv
        assert (code, out, err) == (0, expected, ""), argv


def test_every_other_route_answers_a_run_of_zero_rows_in_linear_time(tmp_path, capsys):
    # auto, explicit, reconstruct and detect on the shapes above print
    # neville's pair and class; a tall input of low rank with no zero row
    # (every row "1 1") is not covered: neville's rebuild of L is O(m^2) on it
    tall = ["20000 2", *["0 0"] * 7777, "3 5", *["0 0"] * 12222]
    routes = [["decompose"], ["decompose", "--method", "explicit"], ["decompose", "--method", "reconstruct"]]
    for name, lines in (("rows", ["20000 0"]), ("cols", ["0 20000"]), ("tall", tall)):
        path = tmp_path / f"{name}.mat"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "decompose", "--method", "neville", str(path))
        assert (code, err) == (0, ""), name
        _, class_line, *pair = out.splitlines(True)
        for argv in (*routes, ["detect"]):
            began = time.perf_counter()
            code, out, err = run_cli(capsys, *argv, str(path))
            assert time.perf_counter() - began < 1.0, (name, argv)
            assert (code, err) == (0, ""), (name, argv)
            if argv == ["detect"]:
                assert out == class_line, name
            else:  # the same bytes bar the "method:" line
                assert out.splitlines(True)[1:] == [class_line, *pair], (name, argv)


def test_empty_factor_has_one_empty_row_per_row(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--inline", "0 0; 0 0; 0 0", "--format", "structured")
    assert code == 0
    assert (json.loads(out)["L"], json.loads(out)["U"]) == ([[], [], []], [])
    code, out, _ = run_cli(capsys, "decompose", "--inline", "0 0; 0 0; 0 0")
    assert out.endswith("L:\n3 0\nU:\n0 2\n")
    code, out, _ = run_cli(capsys, "generate", "--size", "2", "0", "--format", "structured")
    assert json.loads(out)["matrix"] == [[], []]


def test_auto_certifies_at_every_size(capsys):
    # auto runs no size-guarded sweep, so past the guard it prints reconstruct's pair
    ones = ";".join(" ".join("1" for _ in range(9)) for _ in range(9))
    for member in (ones, pascal_inline(12)):
        code, out, err = run_cli(capsys, "decompose", "--inline", member)
        assert (code, err) == (0, "")
        want = run_cli(capsys, "decompose", "--inline", member, "--method", "reconstruct")
        assert want == (0, out.replace("method: auto", "method: reconstruct", 1), "")
    # --trace adds the gate's pass 1 moves, which need no size guard: they are
    # neville's run, whose pair is reconstruct's
    for member in (ones, pascal_inline(64)):
        code, out, err = run_cli(capsys, "decompose", "--inline", member, "--trace")
        assert (code, err) == (0, "")
        want = run_cli(capsys, "decompose", "--inline", member, "--method", "neville", "--trace")
        assert want == (0, out.replace("method: auto", "method: neville", 1), "")
    # [[0, 1], [1, 1]] beside I_7 is in no class, as [[0, 1], [1, 1]] alone is not
    rows = [["1" if i == j else "0" for j in range(9)] for i in range(9)]
    rows[0][0], rows[0][1], rows[1][0] = "0", "1", "1"
    code, out, err = run_cli(capsys, "decompose", "--inline", ";".join(" ".join(r) for r in rows))
    assert (code, out) == (4, "")
    assert err.startswith("error: class-not-found: ")


def test_detect_reports_none_with_success_status(capsys):
    code, out, _ = run_cli(capsys, "detect", "--inline", "0 1; 1 1")
    assert code == 0
    assert out == "class: none\n"
    code, out, _ = run_cli(capsys, "detect", "--inline", "0 1; 1 1", "--format", "structured")
    assert code == 0
    assert json.loads(out)["class"] is None


def test_decompose_fails_when_no_class_exists(capsys):
    code, _, err = run_cli(capsys, "decompose", "--inline", "0 1; 1 1")
    assert code == 4
    assert "class-not-found" in err


def test_check_tnn_witness(capsys):
    code, out, _ = run_cli(capsys, "check-tnn", "--inline", "0 1; 1 1", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_tnn"] is False
    assert payload["witness"] == {"rows": [1, 2], "cols": [1, 2], "minor": "-1"}


def test_check_tnn_text(capsys):
    code, out, _ = run_cli(capsys, "check-tnn", "--inline", "0 0; 0 0")
    assert code == 0
    assert out == "is_tnn: true\nwitness: none\n"


def test_neville_method_rejects_non_tnn(capsys):
    code, _, err = run_cli(capsys, "decompose", "--inline", "0 1; 1 0", "--method", "neville")
    assert code == 5
    assert "not-tnn" in err


def test_unchecked_skips_verification(capsys):
    # [[1,1],[1,0]] is in a class, so unchecked explicit still succeeds
    code, out, _ = run_cli(
        capsys, "decompose", "--inline", "1 1; 1 0", "--method", "explicit",
        "--unchecked", "--format", "structured",
    )
    assert code == 0
    assert json.loads(out)["class"] == {"r": [1, 2], "c": [1, 2]}


@pytest.mark.parametrize("method", ["auto", "explicit", "reconstruct"])
def test_unchecked_still_certifies_the_class(capsys, method):
    # the scan's candidate leaders ({1,2}, {2,3}) fail the certificate: the
    # residual row 2 is 1 0 -1, which does not lead at column 3
    code, out, err = run_cli(
        capsys, "decompose", "--inline", "0 1 1; 1 1 0", "--method", method, "--unchecked"
    )
    assert code == 4 and out == ""
    assert err == (
        "error: class-not-found: matrix belongs to no class: "
        "U does not lead at columns [2, 3]\n"
    )


@pytest.mark.parametrize("method", ["auto", "explicit", "neville", "reconstruct"])
def test_unchecked_changes_nothing(capsys, method):
    # every method runs all of its checks: neville's exact TNN check inside
    # the guard too, so the 3x3, whose minor [1,2|2,3] is -1, exits 5 with it
    ones = ";".join(" ".join("1" for _ in range(9)) for _ in range(9))
    for inline in ("1 1 2; 0 1 1; 0 0 1", "0 1 1; 1 1 0", pascal_inline(4), ones):
        for trace in ((), ("--trace",)):
            argv = ("decompose", "--inline", inline, "--method", method, *trace)
            assert run_cli(capsys, *argv, "--unchecked") == run_cli(capsys, *argv)
    if method == "neville":
        argv = ("decompose", "--inline", "1 1 2; 0 1 1; 0 0 1", "--method", method, "--unchecked")
        assert run_cli(capsys, *argv) == (
            5, "", "error: not-tnn: input not totally nonnegative: minor [[1, 2]|[2, 3]] = -1\n"
        )


def pascal_inline(n, bent=None):
    """n x n Pascal matrix C(i+j, i) as an --inline string, one entry optionally replaced."""
    from math import comb

    rows = [[comb(i + j, i) for j in range(n)] for i in range(n)]
    if bent is not None:
        (i, j), value = bent
        rows[i - 1][j - 1] = value
    return ";".join(" ".join(str(x) for x in row) for row in rows)


def test_neville_rejects_negative_multiplier_beyond_the_guard(capsys):
    # [1,2|1,2] = -98 < 0, but min dimension 9 skips the second TNN pass and the sweep
    inline = pascal_inline(9, bent=((1, 2), 100))
    code, out, err = run_cli(capsys, "decompose", "--inline", inline, "--method", "neville")
    assert (code, out) == (5, "")
    assert err == (
        "error: not-tnn: input not totally nonnegative: "
        "move 15 (s=2, t=2) has negative multiplier -1/98\n"
    )


def test_neville_rejects_negative_factor_entry_beyond_the_guard(capsys):
    # needs no move, so no multiplier goes negative; the final U has u[1,2] = -1
    rows = [["1" if i == j else "0" for j in range(9)] for i in range(9)]
    rows[0][1] = "-1"
    inline = ";".join(" ".join(row) for row in rows)
    code, out, err = run_cli(capsys, "decompose", "--inline", inline, "--method", "neville")
    assert (code, out) == (5, "")
    assert err == "error: not-tnn: input not totally nonnegative: U[1,2] = -1\n"


def test_detect_is_not_size_guarded(capsys):
    code, out, _ = run_cli(capsys, "detect", "--inline", pascal_inline(12))
    assert code == 0
    leaders = ",".join(str(i) for i in range(1, 13))
    assert out == f"class: r = {{{leaders}}}, c = {{{leaders}}}\n"


def test_inline_value_may_start_with_a_minus_sign(capsys):
    # argparse would read "-2/3" as an option and exit 2
    spaced = run_cli(capsys, "decompose", "--inline", "-2/3")
    assert spaced == run_cli(capsys, "decompose", "--inline=-2/3")
    assert spaced[0] == 0
    assert spaced[1].endswith("U:\n1 1\n-2/3\n")


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "decompose", "--inline", "1 x; 2 3")
    assert code == 3
    assert "parse-error" in err


def test_underscore_integer_is_a_parse_error(capsys):
    code, out, err = run_cli(capsys, "check-tnn", "--inline", "1_0 1; 1 1")
    assert (code, out) == (3, "")
    assert err == "error: parse-error: not an exact rational: '1_0'\n"


def test_missing_file_is_parse_error(capsys):
    code, _, err = run_cli(capsys, "detect", "/nonexistent/matrix.txt")
    assert code == 3
    assert "parse-error" in err


def test_non_utf8_file_is_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.mat"
    path.write_bytes(b"2 2\n1 \xff\n3 4\n")
    code, out, err = run_cli(capsys, "detect", str(path))
    assert (code, out) == (3, "")
    assert err.startswith(f"error: parse-error: cannot read {path}: 'utf-8' codec can't decode")


def test_size_guard_exit_code(capsys):
    # the guard bounds only the witness sweep: a TNN input answers past it,
    # and a reject past it exits 6 for want of a witness
    ones = ";".join(" ".join("1" for _ in range(9)) for _ in range(9))
    for guard in ((), ("--max-bruteforce", "0"), ("--max-bruteforce", "9")):
        code, out, err = run_cli(capsys, "check-tnn", "--inline", ones, *guard)
        assert (code, out, err) == (0, "is_tnn: true\nwitness: none\n", "")
    # the identity with a[1,2] = a[2,3] = 1 and a[1,3] = 2: minor [1,2|2,3] = -1
    rows = [["1" if i == j else "0" for j in range(9)] for i in range(9)]
    rows[0][1] = rows[1][2] = "1"
    rows[0][2] = "2"
    found = ";".join(" ".join(row) for row in rows)
    assert run_cli(capsys, "check-tnn", "--inline", found) == (
        6,
        "",
        "error: size-guard: brute-force minor enumeration refused for 9x9 (min dimension > 8); "
        "pass a larger max_size to override\n",
    )
    code, out, _ = run_cli(capsys, "check-tnn", "--inline", found, "--max-bruteforce", "9")
    assert (code, out) == (0, "is_tnn: false\nwitness: [{1,2}|{2,3}] = -1\n")


@pytest.mark.parametrize(
    "argv", [["check-tnn"], ["decompose", "--method", "neville"]], ids=["check-tnn", "neville"]
)
def test_negative_max_bruteforce_is_bad_input(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--inline", "1 1; 1 1", "--max-bruteforce", "-1")
    assert (code, out) == (7, "")
    assert err == "error: bad-input: --max-bruteforce must be nonnegative, got -1\n"


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["check-tnn", "--inline", " ; "], 3, "error: parse-error: empty inline matrix\n"),
        (["generate", "--size", "-1", "2"], 7, "error: bad-input: size and factors must be nonnegative\n"),
    ],
    ids=["empty-inline", "negative-size"],
)
def test_refusals_of_malformed_arguments_are_exact(capsys, argv, code, err):
    assert run_cli(capsys, *argv) == (code, "", err)


# Command lines that `main` parses with the command's own parser, or that it
# hands to the top parser: every subcommand, each way of spelling an option
# or an input, then misuse.
DISPATCH = [
    ("decompose", "--inline", A4_INLINE, "--method=neville", "--trace"),
    ("decompose", "--meth", "explicit", "--format=structured", "--inline", A4_INLINE),
    ("decompose", "-", "--unchecked", "--max-bruteforce=2"),
    ("detect",),
    ("detect", "--", "-"),
    ("check-tnn", "--inline", "-2/3 1; 1 1"),
    ("check-tnn", "-", "--format", "structured"),
    ("generate", "--size", "2", "3", "--seed=4", "--factors", "5"),
    ("identities-selftest", "--instances", "5", "--seed", "2"),
    ("check-tnn", "-h"),
    ("decompose", "--method", "bogus", "--inline", "1"),
    ("check-tnn", "--max-bruteforce", "x"),
    ("check-tnn", "--inline"),
    ("generate",),
    (),
    ("-h",),
    ("bogus",),
    ("decomp", "--inline", "1"),
    ("check-tnn", "--bogus"),
    ("check-tnn", "a", "b"),
    ("identities-selftest", "--instances", "5", "extra"),
    ("--format", "text", "detect"),
    ("detect", "--inline", "1", "--", "--inline"),
]


def answer(capsys, monkeypatch, argv):
    """(exit code, stdout, stderr) of one `main` call on `CRYER_TEXT` as stdin."""
    monkeypatch.setattr("sys.stdin", io.StringIO(CRYER_TEXT))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", DISPATCH, ids=" ".join)
def test_one_parse_answers_as_the_top_parser(capsys, monkeypatch, argv):
    mine, parser = answer(capsys, monkeypatch, list(argv)), tnnlu.cli.build_parser()
    monkeypatch.setattr(tnnlu.cli, "_parsers", lambda: (parser, {}))  # no command map: the top parser only
    assert mine == answer(capsys, monkeypatch, list(argv))


def test_no_argv_parses_sys_argv(capsys, monkeypatch):
    argv = ["check-tnn", "--inline", "0 1; 1 1"]
    monkeypatch.setattr("sys.argv", ["tnnlu", *argv])
    want = (0, "is_tnn: false\nwitness: [{1,2}|{1,2}] = -1\n", "")
    assert answer(capsys, monkeypatch, None) == answer(capsys, monkeypatch, argv) == want


def test_a_command_line_is_parsed_once(capsys, monkeypatch):
    parses, parse = [], argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        parses.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert answer(capsys, monkeypatch, ["check-tnn", "--inline", "1"])[0] == 0
    assert parses == ["tnnlu check-tnn"]
    # arguments left over: the top parser parses again, and its command's parser under it
    parses.clear()
    assert answer(capsys, monkeypatch, ["check-tnn", "a", "b"])[0] == 2
    assert parses == ["tnnlu check-tnn", "tnnlu", "tnnlu check-tnn"]
    parses.clear()
    assert answer(capsys, monkeypatch, ["bogus"])[0] == 2
    assert parses == ["tnnlu"]


def test_generate_round_trips(capsys):
    shapes = [(3, 4, 11), (0, 3, 0), (3, 0, 0), (1, 1, 0), (1, 6, 0), (6, 1, 0)]
    for (m, n, seed), factors in zip(shapes, [12] + [20] * 5):
        argv = ["--size", str(m), str(n), "--seed", str(seed), "--factors", str(factors)]
        code, out, _ = run_cli(capsys, "generate", *argv)
        assert code == 0
        A = parse_matrix(out)
        assert A == random_tnn(m, n, seed=seed, factors=factors)
        assert format_matrix(A) == out


# `random_tnn`'s draws, pinned: any change to their order changes these bytes.
GENERATE_GOLDENS = {
    (4, 5, 9, 30): "4 5\n61/9 1037/18 4577/54 1144/27 1552/27\n13/3 221/6 1969/36 286/9 388/9\n"
    "0 0 41/4 286/3 388/3\n0 0 6 143/2 97\n",
    (0, 3, 0, 20): "0 3\n",
    (3, 0, 0, 20): "3 0\n",
    (1, 1, 0, 20): "1 1\n0\n",
    (1, 6, 0, 20): "1 6\n27/4 135/8 0 0 0 0\n",
    (6, 1, 0, 20): "6 1\n4\n16\n0\n0\n0\n0\n",
}


@pytest.mark.parametrize("m, n, seed, factors", list(GENERATE_GOLDENS))
def test_generate_golden(capsys, m, n, seed, factors):
    argv = ["generate", "--size", str(m), str(n), "--seed", str(seed), "--factors", str(factors)]
    assert run_cli(capsys, *argv) == (0, GENERATE_GOLDENS[m, n, seed, factors], "")


def test_generate_structured(capsys):
    code, out, _ = run_cli(
        capsys, "generate", "--size", "2", "2", "--seed", "3", "--format", "structured"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == 2 and payload["cols"] == 2
    rebuilt = Mat.from_rows([[x for x in row] for row in payload["matrix"]])
    assert rebuilt == random_tnn(2, 2, seed=3)


def test_identities_selftest(capsys):
    code, out, _ = run_cli(
        capsys, "identities-selftest", "--instances", "5", "--format", "structured"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(entry["failures"] == 0 for entry in payload["results"].values())


def test_identities_selftest_rejects_negative_instances(capsys):
    code, out, err = run_cli(capsys, "identities-selftest", "--instances", "-3")
    assert (code, out) == (7, "")
    assert "bad-input" in err and "instances" in err


def test_output_is_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "decompose", "--inline", A4_INLINE, "--trace", "--format", "structured"
        )
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_cli_round_trip_on_corpus(capsys):
    rng = seeded(14)
    for _ in range(10):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        seed = rng.randint(0, 10**6)
        code, out, _ = run_cli(
            capsys, "generate", "--size", str(m), str(n), "--seed", str(seed)
        )
        assert code == 0
        assert parse_matrix(out) == random_tnn(m, n, seed=seed)


# Each CLI call below, run in a fresh interpreter, or all in one interpreter
# that builds the argparse parser once, prints (exit code, stdout, stderr).
FRESH = "import sys\nfrom tnnlu.cli import main\nsys.exit(main(sys.argv[1:]))\n"
SEQUENCE = """import contextlib, io, json, sys
from tnnlu.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_one_parser_per_process_gives_fresh_process_bytes():
    env = dict(os.environ, PYTHONPATH=str(Path(tnnlu.__file__).resolve().parent.parent))
    calls = [
        ["decompose", "--method", "bogus", "--inline", "1"],  # usage error
        ["detect", "--inline", "1 x; 2 3"],  # parse error
        ["decompose", "--inline", A4_INLINE, "--trace"],
        ["check-tnn", "--max-bruteforce", "many", "--inline", "1"],  # usage error
    ]
    fresh = []
    for argv in calls:
        done = subprocess.run(
            [sys.executable, "-c", FRESH, *argv], capture_output=True, text=True, env=env
        )
        fresh.append([done.returncode, done.stdout, done.stderr])
    done = subprocess.run(
        [sys.executable, "-c", SEQUENCE, json.dumps(calls)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert json.loads(done.stdout) == fresh
    assert [code for code, _, _ in fresh] == [2, 3, 0, 2]
    assert "invalid choice: 'bogus'" in fresh[0][2] and "parse-error" in fresh[1][2]


# In a fresh isolated interpreter: which of three costly modules importing the
# package and its CLI and building the parser load, beyond those the
# interpreter had loaded before, then the exit code of one CLI call.
IMPORTS = """import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import tnnlu, tnnlu.cli
tnnlu.cli.build_parser()
print(sorted({"dataclasses", "inspect", "json"} & (set(sys.modules) - before)))
sys.exit(tnnlu.cli.main(sys.argv[2:]))
"""


def test_start_up_imports_no_dataclasses_inspect_or_json():
    src = str(Path(tnnlu.__file__).resolve().parent.parent)
    argv = ["decompose", "--inline", A4_INLINE, "--format", "structured"]
    done = subprocess.run(
        [sys.executable, "-I", "-c", IMPORTS, src, *argv], capture_output=True, text=True
    )
    assert done.returncode == 0 and done.stderr == ""
    loaded, structured = done.stdout.split("\n", 1)
    assert loaded == "[]"
    assert json.loads(structured)["class"] == {"r": [1, 3], "c": [2, 4]}
