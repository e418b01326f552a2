"""Golden CLI transcripts: stdout, stderr and exit code of every subcommand, byte for byte.

Each case runs ``cli.main`` in-process with ``COLUMNS=80`` (argparse wraps
help text to the terminal width) and compares the result with the transcript
stored in ``golden/cli_transcripts.txt``.  Vector files are written to a
temporary directory whose path is replaced by ``<tmp>`` before comparison.
The help transcripts are argparse's rendering, recorded under Python 3.11.

After a deliberate change of CLI output, rewrite the file with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from vecintervals.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_transcripts.txt"
TMP = "<tmp>"
VECTOR_FILE = "1,4,6\n\n2,4,5,8,9\n[10, 3, 7, 17, 11]\n1,x\n"
BIG_INT = "1" + "0" * 399  # parses as an int; its average overflows a float


def _both(*argv: str) -> list[list[str]]:
    """A case in plain and in machine mode."""
    return [list(argv), [*argv, "--machine"]]


def _cases() -> list[list[str]]:
    cases: list[list[str]] = []
    add = cases.extend
    # the selftest inputs, one subcommand per operation
    for low, high in (("10", "1"), ("10", "10"), ("-1", "1")):
        for direction in ("rl", "lr"):
            add(_both("sum-interval", "--low", low, "--high", high, "--direction", direction))
    add(_both("sum-interval", "--low", "-1", "--high", "1"))
    for vec in ("6,7,8,9", "1,2,3", "[]"):
        add(_both("avg", "--a", vec))
    add(_both("avg", "--a=2.5,-3"))
    for a, b in (("", ""), ("1,2,3", "1,2,3")):
        add(_both("dot", "--a", a, "--b", b))
    for a, b in (("", ""), ("10", "2"), ("1,4,6", "2,4,5,8,9")):
        add(_both("merge", "--a", a, "--b", b))
    for vec in ("10", "10,3,7,17,11"):
        add(_both("insort", "--a", vec))
        add(_both("insort-buggy", "--a", vec))
    add(_both("selftest"))
    # @file and @file:N
    vecs = f"@{TMP}/vecs.txt"
    add(_both("merge", "--a", vecs, "--b", f"{vecs}:2"))
    add(_both("insort", "--a", f"{vecs}:3"))
    add(_both("avg", "--a", f"@{TMP}/absent.txt"))
    add(_both("avg", "--a", f"{vecs}:9"))
    add(_both("avg", "--a", f"{vecs}:0"))
    add(_both("avg", "--a", f"{vecs}:4"))
    add(_both("avg", "--a", f"{vecs}:x"))
    add(_both("avg", "--a", f"@{TMP}"))
    # parse and usage errors (exit 2) and domain errors (3); insort-buggy above exits 4
    add(_both("avg", "--a", "1,,2"))
    add(_both("avg", "--a", "1;2"))
    add(_both("dot", "--a", "1,2", "--b", "1,x"))
    add(_both("avg", "--a", ""))
    add(_both("dot", "--a", "1,2", "--b", "1,2,3"))
    add(_both("avg", "--a", "-1,2"))  # argparse takes -1,2 for an option; --a=-1,2 works
    add(_both("avg", "--a=-1,2"))
    for argv in ([], ["frobnicate"], ["avg"], ["dot", "--a", "1"],
                 ["sum-interval", "--low", "x", "--high", "1"],
                 ["sum-interval", "--low", "1"],
                 ["sum-interval", "--low", "1", "--high", "2", "--direction", "up"],
                 ["trace"], ["trace", "bogus"], ["selftest", "--a", "1"]):
        add(_both(*argv))
    # every trace target; the interval targets in both directions
    for direction in ("rl", "lr"):
        d = ("--direction", direction)
        for low, high in (("-1", "1"), ("5", "4"), ("0", "0")):
            add(_both("trace", "interval", "--low", low, "--high", high, *d))
        for low, high in (("-1", "1"), ("10", "1")):
            add(_both("trace", "sum", "--low", low, "--high", high, *d))
    add(_both("trace", "avg", "--a", "1,2,3"))
    add(_both("trace", "dot", "--a", "1,2,3", "--b", "1,2,3"))
    add(_both("trace", "merge", "--a", "1,4,6", "--b", "2,4,5,8,9"))
    add(_both("trace", "insort", "--a", "10,3,7,17,11"))
    add(_both("trace", "insort-buggy", "--a", "10,3,7,17,11"))
    add(_both("trace", "merge", "--a", "10", "--b", "2"))
    add(_both("trace", "insort", "--a", f"{vecs}:3"))
    add(_both("trace", "insort-buggy", "--a", "10"))
    add(_both("trace", "avg", "--a", ""))
    add(_both("trace", "dot", "--a", "1,2", "--b", "1,2,3"))
    add(_both("trace", "interval", "--low", "1"))
    add(_both("trace", "sum", "--high", "3"))
    add(_both("trace", "avg"))
    add(_both("trace", "dot", "--a", "1"))
    add(_both("trace", "dot", "--a", "1,x"))
    add(_both("trace", "merge", "--b", "1"))
    # help of the top-level parser and of each subcommand
    cases.append(["-h"])
    for command in ("sum-interval", "avg", "dot", "merge", "insort", "insort-buggy",
                    "trace", "selftest"):
        cases.append([command, "-h"])
    # non-finite tokens are parse errors (2); non-finite results and overflow are domain errors (3)
    for vec in ("inf,-inf", "nan", "1e999"):
        add(_both("avg", "--a", vec))
    add(_both("dot", "--a", "1e308", "--b", "1e308"))
    add(_both("avg", "--a=1e308,1e308"))
    add(_both("avg", "--a", f"{BIG_INT},1"))
    add(_both("trace", "avg", "--a", f"{BIG_INT},1"))
    # each branch of the merge and insertion-step loops: an input runs out, ties go to --b
    for a, b in (("", "1,2"), ("1,2", ""), ("", ""), ("2,2", "2")):
        add(_both("trace", "merge", "--a", a, "--b", b))
    for vec in ("1,2,3", "", "5"):
        add(_both("trace", "insort", "--a", vec))
    # a vector file that is not UTF-8 and digit-group underscores are parse errors (2)
    add(_both("avg", "--a", f"@{TMP}/latin1.txt"))
    for vec in ("1_000,2", "1_0.5"):
        add(_both("avg", "--a", vec))
    # a trace target takes exactly its operation's flags (usage error, 2)
    add(_both("trace", "avg", "--a", "1,2", "--direction", "lr"))
    add(_both("trace", "sum", "--low", "1", "--high", "2", "--a", "1"))
    add(_both("trace", "interval", "--low", "1", "--high", "2", "--b", "1"))
    # non-ASCII digits (fullwidth, Arabic-Indic) are parse errors (2); a byte-order mark is skipped
    for vec in ("\uff11,\uff12", "\u0663,2"):
        add(_both("avg", "--a", vec))
    add(_both("avg", "--a", f"@{TMP}/bom.txt"))
    # only ASCII space, tab, CR and LF may surround a number or a bracket; any other
    # whitespace (no-break space, ideographic space, \x1c, \v) is a parse error (2)
    for vec in (" [ 1 ,\t2 ] ", "1\xa0,2", "\u30001,2\u3000", "\x1c1,2", "1,2\v"):
        add(_both("avg", "--a", vec))
    # vector file lines end at \n (a trailing \r is dropped); U+2028 does not end a line
    for line in ("2", "1"):
        add(_both("avg", "--a", f"@{TMP}/separators.txt:{line}"))
    return cases


CASES = _cases()


def command_line(argv: list[str]) -> str:
    return shlex.join(["vecintervals", *argv])


def record(argv: list[str], tmp: str) -> str:
    """Run the CLI on ``argv`` (``<tmp>`` standing for ``tmp``) and render the transcript."""
    out, err = io.StringIO(), io.StringIO()
    real_argv = [arg.replace(TMP, tmp) for arg in argv]
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(real_argv)
        except SystemExit as exc:
            code = exc.code
    return (f"exit {code}\n--- stdout\n{out.getvalue().replace(tmp, TMP)}"
            f"--- stderr\n{err.getvalue().replace(tmp, TMP)}")


def render_all(tmp: str) -> str:
    return "".join(f"=== {command_line(argv)}\n{record(argv, tmp)}" for argv in CASES)


def load_golden() -> dict[str, str]:
    parts = re.split(r"^=== (.*)\n", GOLDEN.read_text(encoding="utf-8"), flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


def write_vector_files(directory: Path) -> None:
    (directory / "vecs.txt").write_text(VECTOR_FILE, encoding="utf-8")
    (directory / "latin1.txt").write_bytes(b"\xff1,2\n")
    (directory / "bom.txt").write_bytes(b"\xef\xbb\xbf1,2\n")
    (directory / "separators.txt").write_bytes("1,2\u20283,4\r\n5,6\r\n".encode())


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return load_golden()


@pytest.fixture(scope="module")
def vector_dir(tmp_path_factory) -> str:
    directory = tmp_path_factory.mktemp("golden")
    write_vector_files(directory)
    return str(directory)


def test_golden_file_covers_exactly_the_cases(golden):
    assert list(golden) == [command_line(argv) for argv in CASES]


@pytest.mark.parametrize("argv", CASES, ids=command_line)
def test_transcript_is_unchanged(argv, golden, vector_dir):
    assert record(argv, vector_dir) == golden[command_line(argv)]


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv", [argv for argv in CASES if "--machine" in argv],
                         ids=command_line)
def test_machine_transcript_is_strict_json(argv, golden):
    out, err = re.split(r"^--- stdout\n|^--- stderr\n", golden[command_line(argv)],
                        flags=re.M)[1:]
    for line in (out + err).splitlines():
        json.loads(line, parse_constant=_reject_constant)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp_dir:
        write_vector_files(Path(tmp_dir))
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(render_all(tmp_dir), encoding="utf-8")
    print(f"wrote {len(CASES)} transcripts to {GOLDEN}", file=sys.stderr)
