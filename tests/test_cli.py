"""End-to-end CLI behaviour: output text, exit codes, machine mode, file input."""

import json

import pytest

from vecintervals.cli import (
    VectorParseError,
    build_parser,
    load_vector_argument,
    main,
    parse_vector_literal,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- vector argument parsing ----------------------------------------------

def test_parse_vector_literal_forms():
    assert parse_vector_literal("1,4,6") == [1, 4, 6]
    assert parse_vector_literal("[1,4,6]") == [1, 4, 6]
    assert parse_vector_literal(" 1 , 4 , 6 ") == [1, 4, 6]
    assert parse_vector_literal("") == []
    assert parse_vector_literal("[]") == []
    assert parse_vector_literal("2.5,-3") == [2.5, -3]


def test_only_ascii_blanks_may_surround_numbers_and_brackets():
    assert parse_vector_literal("\t[ 1 ,\r\n2 ]\n") == [1, 2]
    others = [c for c in map(chr, range(0x110000)) if c.isspace() and c not in " \t\r\n"]
    assert "\xa0" in others and "\x1c" in others
    for c in others:
        for text in (f"{c}1,2", f"1{c},2", f"[1,2]{c}", f"{c}[1,2]"):
            with pytest.raises(VectorParseError):
                parse_vector_literal(text)


def test_vector_file_lines_end_at_newline_only(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_bytes(b"1,2\r\n3,4\r\n")
    assert load_vector_argument(f"@{path}:2") == [3, 4]
    # every other character str.splitlines() breaks at stays inside its line
    for c in [c for c in map(chr, range(0x110000)) if len(f"a{c}b".splitlines()) == 2]:
        if c == "\n":
            continue
        path.write_text(f"1,2{c}3,4\n5,6\n", encoding="utf-8", newline="")
        assert load_vector_argument(f"@{path}:2") == [5, 6]
        with pytest.raises(VectorParseError):
            load_vector_argument(f"@{path}:1")


def test_bad_literal_reports_offending_token(capsys):
    code, _, err = run(capsys, "avg", "--a", "1,,2")
    assert code == 2
    assert "token 2" in err


def test_bad_literal_separator(capsys):
    code, _, err = run(capsys, "avg", "--a", "1;2")
    assert code == 2
    assert "error:" in err


def test_vector_from_file(capsys, tmp_path):
    vecfile = tmp_path / "vecs.txt"
    vecfile.write_text("1,4,6\n\n2,4,5,8,9\n")
    code, out, _ = run(capsys, "merge", "--a", f"@{vecfile}", "--b", f"@{vecfile}:2")
    assert code == 0
    assert out.strip() == "[1,2,4,4,5,6,8,9]"


def test_missing_file_is_a_parse_error(capsys, tmp_path):
    code, _, err = run(capsys, "avg", "--a", f"@{tmp_path}/absent.txt")
    assert code == 2
    assert "cannot read" in err


def test_file_line_out_of_range(capsys, tmp_path):
    vecfile = tmp_path / "vecs.txt"
    vecfile.write_text("1,2\n")
    code, _, err = run(capsys, "avg", "--a", f"@{vecfile}:9")
    assert code == 2
    assert "requested line 9" in err


# -- plain results -----------------------------------------------------------

def test_sum_interval_outputs(capsys):
    cases = [("10", "1", "0"), ("10", "10", "10"), ("-1", "1", "0")]
    for low, high, expected in cases:
        for direction in ("rl", "lr"):
            code, out, _ = run(capsys, "sum-interval", "--low", low,
                               "--high", high, "--direction", direction)
            assert code == 0
            assert out.strip() == expected


def test_avg_output_formats_integral_floats_bare(capsys):
    code, out, _ = run(capsys, "avg", "--a", "6,7,8,9")
    assert code == 0 and out.strip() == "7.5"
    code, out, _ = run(capsys, "avg", "--a", "1,2,3")
    assert code == 0 and out.strip() == "2"


def test_dot_output(capsys):
    code, out, _ = run(capsys, "dot", "--a", "1,2,3", "--b", "1,2,3")
    assert code == 0 and out.strip() == "14"
    code, out, _ = run(capsys, "dot", "--a", "", "--b", "")
    assert code == 0 and out.strip() == "0"


def test_merge_outputs(capsys):
    code, out, _ = run(capsys, "merge", "--a", "1,4,6", "--b", "2,4,5,8,9")
    assert code == 0 and out.strip() == "[1,2,4,4,5,6,8,9]"
    code, out, _ = run(capsys, "merge", "--a", "", "--b", "")
    assert code == 0 and out.strip() == "[]"
    code, out, _ = run(capsys, "merge", "--a", "10", "--b", "2")
    assert code == 0 and out.strip() == "[2,10]"


def test_insort_outputs(capsys):
    code, out, _ = run(capsys, "insort", "--a", "10,3,7,17,11")
    assert code == 0 and out.strip() == "[3,7,10,11,17]"
    code, out, _ = run(capsys, "insort", "--a", "10")
    assert code == 0 and out.strip() == "[10]"


# -- error exits -------------------------------------------------------------

def test_buggy_sort_exits_4_with_diagnostic(capsys):
    code, _, err = run(capsys, "insort-buggy", "--a", "10,3,7,17,11")
    assert code == 4
    assert "index 5" in err and "length 5" in err


def test_buggy_sort_on_singleton_succeeds(capsys):
    code, out, _ = run(capsys, "insort-buggy", "--a", "10")
    assert code == 0 and out.strip() == "[10]"


def test_avg_of_empty_exits_3(capsys):
    code, _, err = run(capsys, "avg", "--a", "")
    assert code == 3
    assert "empty" in err


def test_dot_mismatch_exits_3(capsys):
    code, _, err = run(capsys, "dot", "--a", "1,2", "--b", "1,2,3")
    assert code == 3
    assert "lengths differ" in err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["avg"])
    assert info.value.code == 2


def test_parser_is_built_once_per_process():
    # building it costs more than parsing a command line with it
    assert build_parser() is build_parser()


# -- machine mode ------------------------------------------------------------

def test_machine_result_record(capsys):
    code, out, _ = run(capsys, "merge", "--a", "1,4,6", "--b", "2,4,5,8,9", "--machine")
    assert code == 0
    record = json.loads(out)
    assert record == {"kind": "result", "value": [1, 2, 4, 4, 5, 6, 8, 9]}


def test_machine_oob_record(capsys):
    code, _, err = run(capsys, "insort-buggy", "--a", "10,3,7,17,11", "--machine")
    assert code == 4
    record = json.loads(err)
    assert record["kind"] == "error"
    assert record["error"] == "out_of_bounds"
    assert record["attempted_index"] == 5
    assert record["vector_length"] == 5
    assert record["operation_name"] == "get"


def test_machine_domain_error_record(capsys):
    code, _, err = run(capsys, "avg", "--a", "", "--machine")
    assert code == 3
    record = json.loads(err)
    assert record["kind"] == "error" and record["error"] == "domain"


def test_machine_trace_is_json_lines(capsys):
    code, out, _ = run(capsys, "trace", "interval", "--low", "-1", "--high", "1", "--machine")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["kind"] for r in records] == ["decompose", "decompose", "decompose", "stop"]
    assert [r["index"] for r in records] == [1, 0, -1, None]
    assert records[0]["low"] == -1 and records[0]["high"] == 1
    assert all(r["direction"] == "right_to_left" for r in records)
    assert all(set(r) == {"kind", "step", "direction", "low", "high", "index", "detail"}
               for r in records)


def test_machine_selftest_records(capsys):
    code, out, _ = run(capsys, "selftest", "--machine")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    cases = [r for r in records if r["kind"] == "case"]
    assert len(cases) == 15
    assert all(r["passed"] for r in cases)
    assert records[-1] == {"kind": "summary", "passed": 15, "failed": 0}


# -- trace subcommand ----------------------------------------------------------

def test_trace_interval_plain_output(capsys):
    code, out, _ = run(capsys, "trace", "interval", "--low", "-1", "--high", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert "[-1..1] = [[-1..0]..1]" in lines[0]
    assert "is empty" in lines[3]


def test_trace_sum_prints_result_after_events(capsys):
    code, out, _ = run(capsys, "trace", "sum", "--low", "10", "--high", "10")
    assert code == 0
    lines = out.splitlines()
    assert any("visit" in line for line in lines)
    assert lines[-1].strip() == "10"


def test_trace_merge_plain(capsys):
    code, out, _ = run(capsys, "trace", "merge", "--a", "10", "--b", "2")
    assert code == 0
    assert out.splitlines()[-1].strip() == "[2,10]"


def test_trace_buggy_sort_shows_events_then_exits_4(capsys):
    code, out, err = run(capsys, "trace", "insort-buggy", "--a", "10,3,7,17,11")
    assert code == 4
    assert "out of bounds" in out.splitlines()[-1]
    assert "index 5" in err


def test_trace_usage_errors_exit_2(capsys):
    # argparse rejects a trace target without its required flags, naming the missing one
    for argv, missing in ((["trace", "sum", "--high", "3"], "--low"),
                          (["trace", "avg"], "--a"),
                          (["trace", "dot", "--a", "1"], "--b")):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"required: {missing}" in capsys.readouterr().err


# -- selftest -------------------------------------------------------------------

def test_selftest_plain(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "15 passed, 0 failed" in out
