"""Fuzz of the command line: every argv exits with a documented code, and machine mode is JSON.

``cli.main`` runs in-process on generated command lines: any subcommand or
``trace`` target (and a bogus one), with its own flags or not, plus any mix of
``--a --b --low --high --direction --machine``, whether they apply or not.
Vector arguments are literals built from ints, floats, the tokens the
parser rejects and an int too large for a float, or ``@file`` references of
every kind ``load_vector_argument`` tells apart.  ``-h`` is left out (it prints help and exits 0), and so is NUL,
which no OS argv can carry.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecintervals.algorithms import OPERATIONS
from vecintervals.cli import main

TMP = "<tmp>"
EXIT_CODES = {0, 1, 2, 3, 4}


def _own_flags(op) -> tuple[str, ...]:
    return ("--low", "--high") if op.arity == 0 else ("--a", "--b")[:op.arity]


# (argv words naming the command, the flags it requires)
COMMANDS = [(["selftest"], ()), (["frobnicate"], ()), (["trace", "bogus"], ()),
            (["trace", "interval"], ("--low", "--high"))]
for _name, _op in OPERATIONS.items():
    COMMANDS.append(([_op.command], _own_flags(_op)))
    COMMANDS.append((["trace", _name.replace("_", "-")], _own_flags(_op)))

numbers = st.integers(-10**6, 10**6).map(str) | st.floats(
    allow_nan=False, allow_infinity=False).map(repr)
# tokens the parser rejects, and a 400-digit int that parses but overflows a float
edge = st.sampled_from(["inf", "-inf", "nan", "1e999", "1_0", "１", "٣", "[", "", "x",
                        "1" + "0" * 399])
# half the literals are plain numbers; the other half are short and mostly hold an edge token
literals = (st.lists(numbers, max_size=50) | st.lists(numbers | edge, max_size=5)) \
    .map(",".join)
files = st.sampled_from([
    f"@{TMP}/vecs.txt", *(f"@{TMP}/vecs.txt:{n}" for n in range(6)), f"@{TMP}/bom.txt",
    f"@{TMP}/latin1.txt", f"@{TMP}/absent.txt", f"@{TMP}",
])
VALUES = {
    "--a": literals | literals.map("[{}]".format) | files,
    "--b": literals | files,
    "--low": st.integers(-50, 50).map(str) | st.just("x"),
    "--high": st.integers(-50, 50).map(str) | st.just("1.5"),
    "--direction": st.sampled_from(["rl", "lr", "up"]),
}


@st.composite
def command_lines(draw) -> list[str]:
    words, own = draw(st.sampled_from(COMMANDS))
    names = list(own) if draw(st.integers(0, 3)) else []  # mostly a command line that parses
    names += draw(st.lists(st.sampled_from([*VALUES, "--machine"]), max_size=2))
    if draw(st.booleans()):
        names.append("--machine")
    argv = list(words)
    for name in draw(st.permutations(names)):
        if name == "--machine":
            argv.append(name)
        elif draw(st.booleans()):
            argv.append(f"{name}={draw(VALUES[name])}")
        else:
            argv += [name, draw(VALUES[name])]
    return argv


@pytest.fixture(scope="module")
def vector_dir(tmp_path_factory) -> str:
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / "vecs.txt").write_text("1,4,6\n\n2.5,-3\n[10, 3, 7, 17, 11]\n1,x\n",
                                        encoding="utf-8")
    (directory / "bom.txt").write_bytes(b"\xef\xbb\xbf2,4,5,8,9\n")
    (directory / "latin1.txt").write_bytes(b"\xff1,2\n")
    return str(directory)


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=command_lines())
def test_any_command_line_exits_with_a_documented_code(argv, vector_dir):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([arg.replace(TMP, vector_dir) for arg in argv])
        except SystemExit as exc:  # argparse's own exit, in plain mode
            code = exc.code
    assert code in EXIT_CODES
    if "--machine" in argv:
        for line in (out.getvalue() + err.getvalue()).splitlines():
            assert "kind" in json.loads(line, parse_constant=_reject_constant)
