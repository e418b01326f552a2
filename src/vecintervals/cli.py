"""Command-line front end.

One subcommand per operation, plus ``trace`` for instrumented runs, with one
target per operation that takes exactly that subcommand's flags, and
``selftest`` for the bundled example cases.  Vectors are given as comma
lists (``1,4,6``, brackets optional, empty string for the empty vector) or
as ``@file`` / ``@file:N`` to read line N (1-based, default 1) of a file
with one vector per non-blank line.

``--machine`` switches output to JSON lines, one record per line, each with
a ``kind`` field: ``result``, ``error``, ``case``, ``summary``, or a trace
event kind (``decompose``, ``visit``, ``stop``, ``access``, ``mutate``).

Input numbers must be finite and are written in ASCII, without ``_`` digit
separators, with only ASCII space, tab, CR and LF around them; a vector file
must be UTF-8 text (a leading byte-order mark is skipped) whose lines end at
``\\n``.  Machine output is strict JSON: it never holds ``NaN`` or
``Infinity``, and a command line argparse rejects gets a ``usage`` record.

A vector literal is read by one of two paths.  The JSON scanner decodes it
first, and its result is accepted only when every value is an int or a
finite float.  Anything else, including every malformed literal, goes to a
per-token loop, which owns the parse rules and words every error message.
``tests/test_parse_gate.py`` checks that the two agree on every text of up
to three edge tokens.

Exit codes (``_FAILURES`` maps exceptions to them): 0 success, 1 selftest
case failures, 2 usage or input parse errors, 3 domain errors (empty
average, length mismatch, bad interval bounds, a non-finite or overflowing
result), 4 out-of-bounds access, 5 an internal error (any other exception).
A stdout closed by its reader (``| head``) ends the run quietly with exit 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .algorithms import OPERATIONS
from .intervals import LEFT_TO_RIGHT, RIGHT_TO_LEFT
from .selftest import run_reference_cases
from .trace import TraceRecorder, _out_of_bounds, trace_interval
from .vectors import OutOfBoundsError, Vector

_DIRECTIONS = {"rl": RIGHT_TO_LEFT, "lr": LEFT_TO_RIGHT}
_VECTOR_FLAGS = ("--a", "--b")
# the only characters allowed around a number or a bracket; str.strip() alone would
# also remove Unicode spaces and the ASCII separators \x1c-\x1f
_BLANKS = " \t\r\n"
# built once: json.dumps with any non-default option builds a new encoder on every call
_JSON = json.JSONEncoder(allow_nan=False)
# the fast path of parse_vector_literal.  Its whitespace is exactly _BLANKS, every JSON
# number is a token the loop accepts, and it builds them with int() and float() of the
# same text.  int() of each name it would turn into a constant (NaN, Infinity,
# -Infinity) raises ValueError, so those fall back to the loop too
_SCANNER = json.JSONDecoder(parse_constant=int)
_NUMBER_TYPES = frozenset((int, float))  # by type, not isinstance: JSON true is an int


class VectorParseError(ValueError):
    """A vector argument could not be read."""


class UsageError(Exception):
    """argparse rejected the command line; ``args`` is (the parser, argparse's message)."""

    def __str__(self) -> str:
        return "{0.prog}: {1}".format(*self.args)


class _Parser(argparse.ArgumentParser):
    """Its errors (and its subparsers', which share the class) go to ``main``'s failure table."""

    def error(self, message):
        raise UsageError(self, message)


# (exception type, exit code, error record kind); the first matching row wins
_FAILURES = (
    (VectorParseError, 2, "parse"),
    (UsageError, 2, "usage"),
    (OutOfBoundsError, 4, "out_of_bounds"),
    (ValueError, 3, "domain"),
    (OverflowError, 3, "domain"),
    (Exception, 5, "internal"),
)


def _int_token(tok: str) -> int | None:
    """``tok`` as an int if it is an optionally signed ASCII digit run ``int()`` takes, else None.

    This is the CLI's one int rule, for vector literal tokens and interval
    bounds alike.  Only such a run is tried, so no other token pays for a
    failed ``int()``, and ``int()``'s own extras (``_``, Unicode digits,
    surrounding whitespace) never get through.
    """
    if tok.isascii() and (tok[1:] if tok[:1] in "+-" else tok).isdigit():
        try:
            return int(tok)
        except ValueError:  # past int()'s digit limit
            pass
    return None


def parse_vector_literal(text: str) -> list[float]:
    """Parse ``1,4,6`` or ``[1,4,6]`` (or an empty string) into numbers."""
    body = text.strip(_BLANKS)
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1].strip(_BLANKS)
    if not body:
        return []
    try:
        values = _SCANNER.decode(f"[{body}]")
    except (ValueError, RecursionError):  # not JSON, past int()'s digit limit, too deep
        pass
    else:
        # no bool, None, str, list or dict, and no float that overflowed (1e400)
        if _NUMBER_TYPES.issuperset(map(type, values)) and not (
                math.inf in values or -math.inf in values):
            return values
    values = []
    for pos, token in enumerate(body.split(","), start=1):
        tok = token.strip(_BLANKS)
        # int() and float() also accept digit-group underscores (1_000), any Unicode
        # decimal digits (fullwidth １) and surrounding whitespace such as \x1c or \v;
        # vector literals do not
        if "_" in tok or not tok.isascii() or not tok.isprintable():
            raise VectorParseError(f"bad number {tok!r} at token {pos}")
        # a digit run int() rejects (past its digit limit) goes on to float()
        if (value := _int_token(tok)) is None:
            try:
                value = float(tok)
            except ValueError:
                raise VectorParseError(f"bad number {tok!r} at token {pos}") from None
            # float() also saturates int tokens past the digit limit
            if not math.isfinite(value):
                raise VectorParseError(f"non-finite number {tok!r} at token {pos}")
        values.append(value)
    return values


def load_vector_argument(arg: str) -> list[float]:
    """Resolve a vector argument: a literal, or ``@path``/``@path:N`` file reference."""
    if not arg.startswith("@"):
        return parse_vector_literal(arg)
    if arg == "@":
        raise VectorParseError("missing file name after @")
    path, _, line_part = arg[1:].rpartition(":")
    if path and line_part.isascii() and line_part.isdigit():
        lineno = int(line_part)
    else:
        path, lineno = arg[1:], 1
    try:
        # "-sig" skips a byte-order mark; decoding the bytes, not reading text, keeps a
        # lone \r inside its line
        with open(path, "rb") as file:
            raw = file.read().decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise VectorParseError(f"cannot read {path}: {exc}") from None
    # lines end at \n alone; str.splitlines() would also split at \v, \f, \x1c-\x1e,
    # \x85, U+2028 and U+2029
    lines = [line for line in raw.split("\n") if line.strip(_BLANKS)]
    if not 1 <= lineno <= len(lines):
        raise VectorParseError(
            f"{path} has {len(lines)} vector line(s), requested line {lineno}"
        )
    return parse_vector_literal(lines[lineno - 1])


def format_number(value: float) -> str:
    """Shortest faithful rendering; floats with integral value print bare."""
    if isinstance(value, float):
        if value.is_integer():
            return str(int(value))
        return repr(value)
    return str(value)


def format_vector(values: list[float]) -> str:
    return "[" + ",".join(format_number(v) for v in values) + "]"


def _json(value) -> str:
    """The JSON text of ``value``: the one place machine output is encoded."""
    return _JSON.encode(value)


def _emit(machine: bool, record: dict | None, plain: str | None, stream=None) -> None:
    """Write one record: a JSON line in machine mode, else its plain rendering."""
    (stream or sys.stdout).write((_json(record) if machine else plain) + "\n")


def _emit_result(machine: bool, value) -> None:
    if isinstance(value, Vector):
        value = value.to_list()
    elif isinstance(value, float) and not math.isfinite(value):
        # the inputs are finite, so this is a sum or product that overflowed
        raise ValueError(f"result {value} is not a finite number")
    plain = format_vector(value) if isinstance(value, list) else format_number(value)
    _emit(machine, {"kind": "result", "value": value}, plain)


def _line_sink(machine: bool):
    """A recorder sink that writes each event to stdout at once, as the ``trace`` output.

    Plain mode writes ``{step:4d}  {kind:<9}  {detail}``; machine mode the
    7-key JSON record.  It is a closure, not a bound method, so a writer
    that holds it does not refer to itself.
    """
    write = sys.stdout.write
    if machine:
        def sink(step, kind, direction, before, index, detail):
            # the encoder's layout, written by template: kind and direction are fixed ASCII
            # names and step, low, high and index are ints (index may be None), so only
            # the free-text detail needs the encoder
            write(f'{{"kind": "{kind}", "step": {step}, "direction": "{direction}", '
                  f'"low": {before[0]}, "high": {before[1]}, "index": '
                  f'{"null" if index is None else index}, "detail": {_json(detail)}}}\n')
    else:
        def sink(step, kind, direction, before, index, detail):
            write(f"{step:4d}  {kind:<9}  {detail}\n")
    return sink


class _TraceWriter(TraceRecorder):
    """The ``trace`` output: a recorder that writes each event to stdout as it happens.

    Every event kind is worded by ``TraceRecorder`` and written by the
    ``_line_sink`` it is built with, except checked reads and swaps, nearly
    every event of a traced run: those two methods word their event as the
    recorder does and write the sink's line themselves, saving the sink
    call.  Nothing is kept, so memory stays flat however long the trace.
    """

    def __init__(self, machine: bool):
        super().__init__(sink=_line_sink(machine))
        self._machine, self._write = machine, sys.stdout.write

    def element_read(self, vec, index, value, in_bounds: bool) -> None:
        detail = (f"{vec.label}[{index}] -> {value!r}" if in_bounds
                  else _out_of_bounds(f"{vec.label}[{index}]", vec))
        # the sink's layouts with kind "access" and direction "none" filled in
        if self._machine:
            self._write(f'{{"kind": "access", "step": {self._next_step()}, "direction": "none", '
                        f'"low": 0, "high": {len(vec._items) - 1}, "index": {index}, '
                        f'"detail": {_json(detail)}}}\n')
        else:
            self._write(f"{self._next_step():4d}  access     {detail}\n")

    def elements_swapped(self, vec, i, j, in_bounds: bool) -> None:
        name = vec.label
        detail = (f"{name}[{i}] <-> {name}[{j}]" if in_bounds
                  else _out_of_bounds(f"swap {name}[{i}], {name}[{j}]", vec))
        # the sink's layouts with kind "mutate" and direction "none" filled in
        if self._machine:
            self._write(f'{{"kind": "mutate", "step": {self._next_step()}, "direction": "none", '
                        f'"low": 0, "high": {len(vec._items) - 1}, "index": {i}, '
                        f'"detail": {_json(detail)}}}\n')
        else:
            self._write(f"{self._next_step():4d}  mutate     {detail}\n")


def _bound(text: str) -> int:
    """An interval bound, read by the vector literal's int rule: ASCII digits, no ``_``."""
    value = _int_token(text.strip(_BLANKS))
    if value is None:
        # the wording argparse gives a type=int rejection
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


def _machine_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--machine", action="store_true",
                   help="emit JSON lines instead of plain text")


def _add_command(sub, command: str, help_text: str, arity: int, **defaults) -> None:
    """A subcommand with exactly the flags its handler reads: an interval, or ``arity`` vectors."""
    p = sub.add_parser(command, help=help_text)
    p.set_defaults(**defaults)
    if arity == 0:
        p.add_argument("--low", type=_bound, required=True)
        p.add_argument("--high", type=_bound, required=True)
        p.add_argument("--direction", choices=_DIRECTIONS, default="rl",
                       help="fold direction: rl peels the high end first (default), "
                            "lr the low end")
    for flag in _VECTOR_FLAGS[:arity]:
        p.add_argument(flag, required=True, metavar="VEC",
                       help="vector literal like 1,4,6 (or []), or @file[:line]")
    _machine_flag(p)


@functools.cache  # built on first use, not at import; parsers can be reused
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vecintervals",
        description="Bounds-safe vector operations driven by validated index intervals.",
        # 3.13 counts the subcommand indent when it places the help column, older
        # versions do not; capped at 16, the column is the same on every version
        formatter_class=functools.partial(argparse.HelpFormatter, max_help_position=16),
    )
    # a short name keeps the usage line on one line, however argparse wraps it
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for op in OPERATIONS.values():
        _add_command(sub, op.command, op.help, op.arity, handler=_run_operation, operation=op)

    # one trace target per operation, sharing the untraced subcommand's flags
    trace = sub.add_parser("trace", help="run an operation with step tracing")
    targets = trace.add_subparsers(dest="target", required=True)
    _add_command(targets, "interval", "show the decomposition chain of [low..high]", 0,
                 handler=_run_trace_interval)
    for name, op in OPERATIONS.items():
        _add_command(targets, name.replace("_", "-"), op.help, op.arity,
                     handler=_run_operation, operation=op)

    p = sub.add_parser("selftest", help="run the bundled example cases")
    p.set_defaults(handler=_run_selftest)
    _machine_flag(p)

    return parser


def _run_trace_interval(args, machine: bool) -> int:
    trace_interval(args.low, args.high, _DIRECTIONS[args.direction], sink=_line_sink(machine))
    return 0


def _run_selftest(args, machine: bool) -> int:
    results = run_reference_cases()
    failed = sum(1 for r in results if not r.passed)
    for r in results:
        plain = f"ok   {r.name}" if r.passed else f"FAIL {r.name} ({r.detail})"
        _emit(machine, {"kind": "case", "name": r.name, "passed": r.passed, "detail": r.detail},
              plain)
    _emit(machine, {"kind": "summary", "passed": len(results) - failed, "failed": failed},
          f"{len(results) - failed} passed, {failed} failed")
    return 0 if failed == 0 else 1


def _run_operation(args, machine: bool) -> int:
    """Run an operation subcommand or ``trace`` target: a trace target's inputs are observed.

    The trace writer writes each event as it happens, so a run that fails has
    already written every event before the failure when ``main`` reports it.
    """
    op = args.operation
    observer = _TraceWriter(machine) if args.command == "trace" else None
    if op.arity == 0:
        result = op.run(args.low, args.high, _DIRECTIONS[args.direction], observer)
    else:
        # labelled by flag, so a trace names its inputs a and b
        vectors = [Vector(load_vector_argument(getattr(args, flag[2:])), label=flag[2:])
                   for flag in _VECTOR_FLAGS[:op.arity]]
        for vec in vectors:
            vec.observer = observer
        result = op.run(*vectors)
    _emit_result(machine, result)
    return 0


def main(argv: list[str] | None = None) -> int:
    # a rejected command line has no args to read the mode from
    machine = "--machine" in (sys.argv if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        machine = args.machine
        return args.handler(args, machine)
    except BrokenPipeError:
        # the reader stopped (`... | head`), which is not an error; what is still
        # buffered goes to devnull, so the flush at exit does not fail again
        try:
            # fileno() first: a stdout with no descriptor (a StringIO) has nothing to
            # flush at exit, and then no descriptor is opened
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, fd)
            finally:
                os.close(devnull)
        except OSError:
            pass
        return 0
    except tuple(row[0] for row in _FAILURES) as exc:
        if isinstance(exc, UsageError) and not machine:
            argparse.ArgumentParser.error(*exc.args)  # usage line, "prog: error: ...", exit 2
        code, kind = next(row[1:] for row in _FAILURES if isinstance(exc, row[0]))
        # vars(exc) is empty except on OutOfBoundsError, whose fields ride along; an
        # internal error's attributes are left out, as they need not be JSON
        fields = vars(exc) if kind != "internal" else {}
        _emit(machine, {"kind": "error", "error": kind, "message": str(exc), **fields},
              f"error: {exc}", sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
