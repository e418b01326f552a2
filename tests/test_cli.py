"""End-to-end CLI behaviour: output text, exit codes, machine mode, file input."""

import contextlib
import copy
import io
import itertools
import json
import math
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vecintervals import Interval, TraceRecorder, Vector, cli, selftest, traced_run
from vecintervals.cli import (
    VectorParseError,
    build_parser,
    load_vector_argument,
    main,
    parse_vector_literal,
)
from vecintervals.intervals import LEFT_TO_RIGHT, RIGHT_TO_LEFT


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


def old_token_rule(tok):
    """The rule the parser had before it looked at a token's shape: int(), else float()."""
    try:
        return int(tok)
    except ValueError:
        try:
            value = float(tok)
        except ValueError:
            return f"bad number {tok!r} at token 2"
        return value if math.isfinite(value) else f"non-finite number {tok!r} at token 2"


@pytest.mark.parametrize("tok", [
    "0", "7", "+7", "-7", "007", "-0", "+0", "123456789012345678901234567890",
    "1.5", "-1.5", "+.5", "5.", "-0.0", ".", "1..2",
    "1e3", "-1E-3", "+2e+2", "1e", "e1", "1e400", "-1e400", "4e-400",
    "inf", "-inf", "+Infinity", "nan", "-NaN",
    "+-1", "-+1", "--1", "++1", "+", "-",
    "", "1 2", "- 1", "1. 5", "0x10", "1j",
])
def test_parse_vector_literal_keeps_the_int_then_float_rule(tok):
    want = old_token_rule(tok)
    try:
        got = parse_vector_literal(f"1,{tok}")[1]
    except VectorParseError as exc:
        got = str(exc)
    # repr tells -0.0 from 0.0; type tells 7 from 7.0
    assert (type(got), repr(got)) == (type(want), repr(want))


@pytest.mark.parametrize("sign", ["", "-"])
def test_digit_token_past_the_int_limit_is_non_finite(capsys, sign):
    # int() rejects more than 4300 digits and float() saturates them to infinity
    token = sign + "9" * 5000
    code, out, err = run(capsys, "avg", "--a", token)
    assert (code, out) == (2, "")
    assert err == f"error: non-finite number {token!r} at token 1\n"


@pytest.mark.parametrize("machine", [False, True])
@pytest.mark.parametrize("text, message", [
    # the JSON scanner raises RecursionError on this; it must not escape as internal
    ("[" * 100_000 + "]" * 100_000,
     f"bad number {'[' * 99_999 + ']' * 99_999!r} at token 1"),
    # JSON values the scanner returns but the parser rejects: true is an int
    ("1,true", "bad number 'true' at token 2"),
    ("1,null", "bad number 'null' at token 2"),
    ('1,"2"', "bad number '\"2\"' at token 2"),
    ("[[1]]", "bad number '[1]' at token 1"),
    ("1e400", "non-finite number '1e400' at token 1"),
], ids=["deep-nesting", "true", "null", "string", "nested-list", "overflow"])
def test_json_values_that_are_not_finite_numbers_are_parse_errors(capsys, text, message,
                                                                   machine):
    code, out, err = run(capsys, "avg", "--a", text, *(["--machine"] if machine else []))
    assert (code, out) == (2, "")
    if machine:
        assert json.loads(err) == {"kind": "error", "error": "parse", "message": message}
    else:
        assert err == f"error: {message}\n"


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


def test_vector_file_is_opened_by_the_path_as_written(tmp_path):
    # no "./", "//" or trailing "/" is normalised away, in the path opened or in the message
    for path in (f"{tmp_path}/./absent.txt", f"{tmp_path}//absent.txt"):
        with pytest.raises(VectorParseError) as info:
            load_vector_argument(f"@{path}")
        assert str(info.value) == \
            f"cannot read {path}: [Errno 2] No such file or directory: {path!r}"
    vecfile = tmp_path / "vecs.txt"
    vecfile.write_text("1,2\n")
    assert load_vector_argument(f"@{tmp_path}/./vecs.txt") == [1, 2]
    with pytest.raises(VectorParseError, match=f"^cannot read {re.escape(str(vecfile))}/: "):
        load_vector_argument(f"@{vecfile}/")


def test_file_line_out_of_range(capsys, tmp_path):
    vecfile = tmp_path / "vecs.txt"
    vecfile.write_text("1,2\n")
    code, _, err = run(capsys, "avg", "--a", f"@{vecfile}:9")
    assert code == 2
    assert "requested line 9" in err


@pytest.mark.parametrize("machine", [False, True])
@pytest.mark.parametrize("suffix", ["\u00b2", "\u0661"],
                         ids=["superscript-two", "arabic-indic-one"])
def test_file_line_takes_only_ascii_digits(capsys, tmp_path, suffix, machine):
    # "²" and "١" pass str.isdigit(); a suffix that is not ASCII digits is part of the path
    vecfile = tmp_path / "vecs.txt"
    vecfile.write_text("1,2\n3,4\n")
    code, out, err = run(capsys, "avg", "--a", f"@{vecfile}:{suffix}",
                         *(["--machine"] if machine else []))
    assert code == 2 and out == ""
    if machine:
        record = json.loads(err)
        assert (record["kind"], record["error"]) == ("error", "parse")
        assert record["message"].startswith(f"cannot read {vecfile}:{suffix}: ")
    else:
        assert f"cannot read {vecfile}:{suffix}: " in err


@pytest.mark.parametrize("machine", [False, True])
def test_a_bare_at_sign_is_a_missing_file_name(capsys, tmp_path, monkeypatch, machine):
    code, out, err = run(capsys, "avg", "--a", "@", *(["--machine"] if machine else []))
    assert (code, out) == (2, "")
    if machine:
        assert json.loads(err) == {"kind": "error", "error": "parse",
                                   "message": "missing file name after @"}
    else:
        assert err == "error: missing file name after @\n"
    # a name that is all line suffix is still a path, opened as written
    monkeypatch.chdir(tmp_path)
    for ref in (":2", ":"):
        with pytest.raises(VectorParseError, match=f"^cannot read {ref}: "):
            load_vector_argument(f"@{ref}")
    (tmp_path / ":2").write_text("1,2\n")
    assert load_vector_argument("@:2") == [1, 2]


# -- plain results -----------------------------------------------------------

def test_sum_interval_outputs(capsys):
    # a bound may be signed and padded with ASCII blanks, as a vector literal's int may
    cases = [("10", "1", "0"), ("10", "10", "10"), ("-1", "1", "0"), ("+2", " 3", "5"),
             ("\t2\n", "+3", "5")]
    for low, high, expected in cases:
        for direction in ("rl", "lr"):
            code, out, _ = run(capsys, "sum-interval", "--low", low,
                               "--high", high, "--direction", direction)
            assert code == 0
            assert out.strip() == expected


@pytest.mark.parametrize("text", ["1_0", "\u0661", "\xa01\xa0", "9" * 4400],
                         ids=["underscore", "arabic-indic-one", "no-break-space", "4400-digits"])
def test_interval_bounds_take_the_vector_literal_int_rule(capsys, text):
    # int() accepts the first three; the last is past int()'s default digit limit, pinned
    # here so that PYTHONINTMAXSTRDIGITS=0 does not make it a valid bound
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(SystemExit) as info:
            main(["sum-interval", "--low", text, "--high", "3"])
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument --low: invalid int value: {text!r}\n")
        code, out, err = run(capsys, "trace", "interval", "--low", "1", "--high", text,
                             "--machine")
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "kind": "error", "error": "usage",
        "message": f"vecintervals trace interval: argument --high: invalid int value: {text!r}"}


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


@pytest.mark.parametrize("machine", [False, True])
def test_unexpected_exception_exits_5_with_an_internal_record(capsys, monkeypatch, machine):
    def fail(arg):
        raise RuntimeError("boom")

    # looked up at call time; patching OPERATIONS would miss the rows the cached parser holds
    monkeypatch.setattr(cli, "load_vector_argument", fail)
    code, out, err = run(capsys, "avg", "--a", "1", *(["--machine"] if machine else []))
    assert (code, out) == (5, "")
    if machine:
        assert json.loads(err) == {"kind": "error", "error": "internal", "message": "boom"}
    else:
        assert err == "error: boom\n"


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


# ints of any sign, up to a few hundred digits; text with quotes, backslashes, control
# and non-ASCII characters and lone surrogates, which the encoder must escape.  A high
# surrogate before a low one is split by a space: JSON reads such a pair back as one
# character, so it would not round-trip through any encoder
event_ints = st.integers(-1000, 1000) | st.integers(-10**300, 10**300)
free_text = st.text(st.characters(exclude_categories=()) | st.characters(categories=["Cs"])
                    | st.sampled_from('"\\\x00\x1f\x7f\u2028')).map(
    lambda text: re.sub("([\ud800-\udbff])(?=[\udc00-\udfff])", "\\1 ", text))


OBSERVER_METHODS = sorted(name for name, value in vars(TraceRecorder).items()
                          if callable(value) and not name.startswith("_"))
event_values = event_ints | st.floats()


@st.composite
def observer_calls(draw, labels=st.sampled_from("ab"), ints=st.integers(-2, 5) | event_ints):
    """One observer call as the walks and vectors make it: (method name, its arguments).

    A checked access is in bounds exactly when its index is, and a read of a
    bad index gets no value, as ``Vector`` reports them.
    """
    name = draw(st.sampled_from(OBSERVER_METHODS))
    vec = Vector(draw(st.lists(event_values, max_size=4)), label=draw(labels))
    n = len(vec)
    index, other = draw(ints), draw(ints)
    before = Interval(draw(ints), draw(ints))
    direction = draw(st.sampled_from([RIGHT_TO_LEFT, LEFT_TO_RIGHT]))
    args = {
        "decompose": (index, before, direction),
        "interval_visit": (index, before, direction),
        "element_visit": (vec, index, draw(event_values), before, direction),
        "interval_stop": (before, direction),
        "element_read": (vec, index, vec.to_list()[index] if 0 <= index < n else None,
                         0 <= index < n),
        "element_written": (vec, index, draw(event_values), 0 <= index < n),
        "elements_swapped": (vec, index, other, 0 <= index < n and 0 <= other < n),
    }
    return name, args[name]


def write_trace(machine: bool, calls, first_step: int = 0) -> str:
    """What the CLI's trace writer writes for ``calls``, numbering from ``first_step``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        writer = cli._TraceWriter(machine)
        writer._next_step = itertools.count(first_step).__next__
        for name, args in calls:
            getattr(writer, name)(*args)
    return out.getvalue()


def recorded(calls) -> list:
    recorder = TraceRecorder()
    for name, args in calls:
        getattr(recorder, name)(*args)
    return recorder.events


def machine_record(event, step: int) -> dict:
    return {"kind": event.kind, "step": step, "direction": event.direction,
            "low": event.interval_before[0], "high": event.interval_before[1],
            "index": event.index, "detail": event.detail}


@given(step=st.integers(0, 10**300), call=observer_calls(labels=free_text))
def test_machine_trace_event_is_the_encoders_record(step, call):
    [event] = recorded([call])
    record = machine_record(event, step)
    line = write_trace(True, [call], first_step=step)
    assert line == cli._JSON.encode(record) + "\n"
    assert json.loads(line) == record


def test_trace_writer_has_the_recorders_observer_methods():
    methods = {name for name, value in vars(cli._TraceWriter).items()
               if callable(value) and not name.startswith("_")}
    assert methods == set(OBSERVER_METHODS) and len(methods) == 7


# every method, in and out of bounds: the CLI never reaches an out-of-bounds write or
# swap, so neither the golden transcripts nor the fuzz see that wording
@given(calls=st.lists(observer_calls(), max_size=6), machine=st.booleans())
def test_trace_writer_writes_the_recorders_events(calls, machine):
    events = recorded(calls)
    out = write_trace(machine, calls)
    if machine:
        assert [json.loads(line) for line in out.splitlines()] == [
            machine_record(event, event.step) for event in events]
    else:
        assert out == "".join(f"{e.step:4d}  {e.kind:<9}  {e.detail}\n" for e in events)


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


class LineCounter(io.TextIOBase):
    """A text stream that keeps nothing but the number of lines written to it."""

    lines = 0

    def writable(self):
        return True

    def write(self, text):
        self.lines += text.count("\n")
        return len(text)


def test_trace_streams_in_bounded_memory():
    # a reverse-sorted 200-element sort traces about 60k events, ~17 MB held in a list
    argv = ["trace", "insort", "--a=" + ",".join(map(str, range(200, 0, -1)))]
    build_parser()  # cached, so the measurement holds only the run
    sink = LineCounter()
    with contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert sink.lines > 50_000
    assert peak < 1_000_000


@pytest.mark.parametrize("machine", [False, True])
def test_trace_crash_keeps_the_events_written_before_it(monkeypatch, machine):
    out, err = io.StringIO(), io.StringIO()
    swap, calls, written = Vector.swap, [], []

    def failing_swap(vec, i, j):
        calls.append((i, j))
        if len(calls) == 3:
            written.append(out.getvalue())
            raise RuntimeError("boom")
        swap(vec, i, j)

    # looked up at call time by insert_step
    monkeypatch.setattr(Vector, "swap", failing_swap)
    expected = traced_run("insort", (Vector([5, 4, 3, 2, 1]),))
    assert isinstance(expected.error, RuntimeError) and expected.events
    calls.clear()
    written.clear()
    argv = ["trace", "insort", "--a", "5,4,3,2,1", *(["--machine"] if machine else [])]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 5
    assert [ev.step for ev in expected.events] == list(range(len(expected.events)))
    if machine:
        assert [json.loads(line) for line in out.getvalue().splitlines()] == [
            {"kind": ev.kind, "step": ev.step, "direction": ev.direction,
             "low": ev.interval_before[0], "high": ev.interval_before[1],
             "index": ev.index, "detail": ev.detail}
            for ev in expected.events
        ]
        assert json.loads(err.getvalue()) == {
            "kind": "error", "error": "internal", "message": "boom"}
    else:
        assert out.getvalue() == "".join(
            f"{ev.step:4d}  {ev.kind:<9}  {ev.detail}\n" for ev in expected.events)
        assert err.getvalue() == "error: boom\n"
    # every event was already written when the failure happened
    assert written == [out.getvalue()]


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


def test_a_crashing_case_is_a_failure_and_the_others_still_run(capsys, monkeypatch):
    def boom(vec):
        raise RuntimeError("boom")

    monkeypatch.setitem(selftest.OPERATIONS, "avg", selftest.OPERATIONS["avg"]._replace(run=boom))
    results = selftest.run_reference_cases()
    crashed = [r for r in results if r.name.startswith("avg ")]
    assert [(r.passed, r.detail) for r in crashed] == [(False, "raised RuntimeError: boom")] * 2
    assert [r.passed for r in results if r not in crashed] == [True] * 13
    assert main(["selftest"]) == 1
    capsys.readouterr()


def test_case_results_are_immutable_values():
    result = selftest.CaseResult(name="n", passed=True, detail="d")
    assert repr(result) == "CaseResult(name='n', passed=True, detail='d')"
    assert result == selftest.CaseResult("n", True, "d")
    assert hash(result) == hash(selftest.CaseResult("n", True, "d"))
    for other in (selftest.CaseResult("n", False, "d"), ("n", True, "d")):
        assert result != other and other != result
    for name in ("name", "passed", "detail"):
        with pytest.raises(AttributeError):
            setattr(result, name, None)
        with pytest.raises(AttributeError):
            delattr(result, name)
    match result:
        case selftest.CaseResult(name, passed, detail):
            assert (name, passed, detail) == ("n", True, "d")
        case _:
            pytest.fail("CaseResult did not match its positional pattern")
    pickled = [pickle.loads(pickle.dumps(result, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in [copy.copy(result), copy.deepcopy(result), *pickled]:
        assert type(twin) is selftest.CaseResult and twin == result


# -- a closed stdout ---------------------------------------------------------------

class ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_stdout_without_a_descriptor_ends_the_run_quietly():
    err = io.StringIO()
    with contextlib.redirect_stdout(ClosedPipe()), contextlib.redirect_stderr(err):
        code = main(["trace", "interval", "--low", "0", "--high", "3"])
    assert (code, err.getvalue()) == (0, "")


class ClosedPipeWithDescriptor(ClosedPipe):
    def __init__(self, fd):
        super().__init__()
        self._fd = fd

    def fileno(self):
        return self._fd


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd entries")
@pytest.mark.parametrize("descriptor", [False, True])
def test_closed_stdout_runs_leave_no_descriptor_open(tmp_path, descriptor):
    with open(tmp_path / "stdout", "w") as file:
        stdout = ClosedPipeWithDescriptor(file.fileno()) if descriptor else ClosedPipe()
        before = len(os.listdir("/proc/self/fd"))
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            codes = [main(["avg", "--a", "1,2"]) for _ in range(5)]
        assert (codes, len(os.listdir("/proc/self/fd"))) == ([0] * 5, before)


@pytest.mark.parametrize("machine", [False, True])
def test_a_reader_closing_stdout_ends_the_run_quietly(machine):
    # `vecintervals trace interval ... | head -1`: the reader stops long before the end
    argv = [sys.executable, "-m", "vecintervals", "trace", "interval", "--low", "0",
            "--high", "200000", *(["--machine"] if machine else [])]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (0, b"")
