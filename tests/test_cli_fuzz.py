"""Fuzz of the command line: every argv exits with a documented code, and machine mode is JSON.

``cli.main`` runs in-process on generated command lines: any subcommand or
``trace`` target (and a bogus one), with its own flags or not, plus any mix of
``--a --b --low --high --direction --machine``, whether they apply or not.
Vector arguments are literals built from ints, floats, the tokens the
parser rejects and an int too large for a float, or ``@file`` references of
every kind ``load_vector_argument`` tells apart.  ``-h`` is left out (it prints help and exits 0), and so is NUL,
which no OS argv can carry.

A second fuzz runs each operation and its ``trace`` target on the same
generated inputs, in both modes, and checks that tracing changes nothing but
the events written before the result: the exit code, stderr and the result
line agree, and accepted results match ``tests/oracles.py`` exactly.  The
events themselves must be those ``traced_run`` records on the same inputs,
rendered as plain lines or as 7-key machine records: the CLI attaches its
own recorder, and ``traced_run`` is its reference.
Vectors are written as ``--a=...``, since argparse takes a value such as
``-1e+16`` after a bare ``--a`` for an option.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import merge_oracle, naive_dot, naive_sum, sort_oracle
from vecintervals.algorithms import OPERATIONS
from vecintervals.cli import main
from vecintervals.intervals import LEFT_TO_RIGHT, RIGHT_TO_LEFT
from vecintervals.trace import traced_run
from vecintervals.vectors import Vector

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


def _run(argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)``'s exit code, stdout and stderr, for a command line argparse accepts."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# ints up to 10**20 and any finite float; half the vectors hold only ints
ints = st.integers(-10**20, 10**20)
elements = ints | st.floats(allow_nan=False, allow_infinity=False)
vectors = st.lists(ints, max_size=12) | st.lists(elements, max_size=12)


@st.composite
def operations(draw) -> tuple[str, list[str], dict]:
    """``(name, flags, inputs)``: an operation, its ``--x=`` flags and the values they hold.

    ``inputs`` holds the vectors as lists under ``a`` and ``b``, or the
    interval's ``low``, ``high`` and ``direction`` as ``traced_run`` takes them.
    """
    name = draw(st.sampled_from(["sum", "avg", "dot", "merge", "insort", "insort_buggy"]))
    if name == "sum":
        low = draw(ints)
        high = low + draw(st.integers(-3, 40))
        flag, direction = draw(st.sampled_from([("rl", RIGHT_TO_LEFT), ("lr", LEFT_TO_RIGHT)]))
        return name, [f"--low={low}", f"--high={high}", f"--direction={flag}"], \
            {"low": low, "high": high, "direction": direction}
    a = draw(vectors)
    if OPERATIONS[name].arity == 1:
        inputs = {"a": a}
    elif name == "dot":  # mostly of equal length, so most products are computed
        same_length = {"min_size": len(a), "max_size": len(a)}
        b = draw(st.lists(ints, **same_length) | st.lists(elements, **same_length) | vectors)
        inputs = {"a": a, "b": b}
    else:  # merge promises a sorted result only for sorted inputs
        inputs = {"a": sorted(a), "b": sorted(draw(vectors))}
    return name, [f"--{flag}={','.join(map(repr, xs))}" for flag, xs in inputs.items()], inputs


def _oracle(name: str, inputs: dict):
    """The exact result ``tests/oracles.py`` expects, or None where no oracle is exact."""
    a, b = inputs.get("a"), inputs.get("b")
    if name == "sum":
        return naive_sum(inputs["low"], inputs["high"])
    if name == "merge":
        return merge_oracle(a, b)
    if name in ("insort", "insort_buggy"):
        return sort_oracle(a)
    if name == "dot" and all(type(x) is int for x in a + b):
        return naive_dot(a, b)
    return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(operation=operations())
def test_traced_and_untraced_runs_agree(operation):
    name, flags, inputs = operation
    reference = traced_run(name, tuple(Vector(inputs[v]) for v in "ab" if v in inputs),
                           **{k: v for k, v in inputs.items() if k not in ("a", "b")})
    for mode in ([], ["--machine"]):
        code, out, err = _run([OPERATIONS[name].command, *flags, *mode])
        traced_code, traced_out, traced_err = _run(["trace", name.replace("_", "-"), *flags,
                                                    *mode])
        assert (traced_code, traced_err) == (code, err)
        # a failed run writes its events and no result; an accepted one ends with its result
        lines = traced_out.splitlines(keepends=True)
        assert out == (lines[-1] if code == 0 else "")
        events = [line.rstrip("\n") for line in (lines[:-1] if code == 0 else lines)]
        if mode:
            assert [json.loads(line) for line in events] == [
                {"kind": e.kind, "step": e.step, "direction": e.direction,
                 "low": e.interval_before[0], "high": e.interval_before[1], "index": e.index,
                 "detail": e.detail} for e in reference.events]
        else:
            assert events == [f"{e.step:4d}  {e.kind:<9}  {e.detail}" for e in reference.events]
    if code == 0:
        expected = _oracle(name, inputs)
        assert expected is None or json.loads(out) == {"kind": "result", "value": expected}
