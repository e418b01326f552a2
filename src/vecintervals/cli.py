"""Command-line front end.

One subcommand per operation, plus ``trace`` for instrumented runs and
``selftest`` for the bundled example cases.  Vectors are given as comma
lists (``1,4,6``, brackets optional, empty string for the empty vector) or
as ``@file`` / ``@file:N`` to read line N (1-based, default 1) of a file
with one vector per non-blank line.

``--machine`` switches output to JSON lines, one record per line, each with
a ``kind`` field: ``result``, ``error``, ``case``, ``summary``, or a trace
event kind (``decompose``, ``visit``, ``stop``, ``access``, ``mutate``).

Input numbers must be finite.  Machine output is strict JSON: it never
holds ``NaN`` or ``Infinity``.

Exit codes (``_FAILURES`` maps exceptions to them): 0 success, 1 selftest
case failures, 2 usage or input parse errors, 3 domain errors (empty
average, length mismatch, bad interval bounds, a non-finite or overflowing
result), 4 out-of-bounds access.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .algorithms import OPERATIONS
from .intervals import LEFT_TO_RIGHT, RIGHT_TO_LEFT
from .selftest import run_reference_cases
from .trace import trace_interval, traced_run
from .vectors import OutOfBoundsError, Vector

_DIRECTIONS = {"rl": RIGHT_TO_LEFT, "lr": LEFT_TO_RIGHT}
_VECTOR_FLAGS = ("--a", "--b")
# built once: json.dumps with any non-default option builds a new encoder on every call
_JSON = json.JSONEncoder(allow_nan=False)


class VectorParseError(ValueError):
    """A vector argument could not be read."""


class UsageError(Exception):
    """A subcommand was invoked without the flags it needs."""


# (exception type, exit code, error record kind); the first matching row wins
_FAILURES = (
    (VectorParseError, 2, "parse"),
    (UsageError, 2, "usage"),
    (OutOfBoundsError, 4, "out_of_bounds"),
    (ValueError, 3, "domain"),
    (OverflowError, 3, "domain"),
)


def parse_vector_literal(text: str) -> list[float]:
    """Parse ``1,4,6`` or ``[1,4,6]`` (or an empty string) into numbers."""
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1].strip()
    if not body:
        return []
    values: list[float] = []
    for pos, token in enumerate(body.split(","), start=1):
        tok = token.strip()
        try:
            values.append(int(tok))
        except ValueError:
            try:
                value = float(tok)
            except ValueError:
                raise VectorParseError(f"bad number {tok!r} at token {pos}") from None
            # ints are always finite; float() also saturates int tokens past the digit limit
            if not math.isfinite(value):
                raise VectorParseError(f"non-finite number {tok!r} at token {pos}")
            values.append(value)
    return values


def load_vector_argument(arg: str) -> list[float]:
    """Resolve a vector argument: a literal, or ``@path``/``@path:N`` file reference."""
    if not arg.startswith("@"):
        return parse_vector_literal(arg)
    ref = arg[1:]
    path, _, line_part = ref.rpartition(":")
    if path and line_part.isdigit():
        lineno = int(line_part)
    else:
        path, lineno = ref, 1
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise VectorParseError(f"cannot read {path}: {exc}") from None
    lines = [line for line in raw.splitlines() if line.strip()]
    if not 1 <= lineno <= len(lines):
        raise VectorParseError(
            f"{path} has {len(lines)} vector line(s), requested line {lineno}"
        )
    return parse_vector_literal(lines[lineno - 1])


def format_number(value: float) -> str:
    """Shortest faithful rendering; floats with integral value print bare."""
    if isinstance(value, float):
        if math.isfinite(value) and value.is_integer():
            return str(int(value))
        return repr(value)
    return str(value)


def format_vector(values: list[float]) -> str:
    return "[" + ",".join(format_number(v) for v in values) + "]"


def _emit(machine: bool, record: dict | None, plain: str | None, stream=None) -> None:
    """Write one record: a JSON line in machine mode, else its plain rendering."""
    print(_JSON.encode(record) if machine else plain, file=stream or sys.stdout)


def _emit_result(machine: bool, value) -> None:
    if isinstance(value, Vector):
        value = value.to_list()
    elif isinstance(value, float) and not math.isfinite(value):
        # the inputs are finite, so this is a sum or product that overflowed
        raise ValueError(f"result {value} is not a finite number")
    plain = format_vector(value) if isinstance(value, list) else format_number(value)
    _emit(machine, {"kind": "result", "value": value}, plain)


def _emit_events(machine: bool, events) -> None:
    # one loop per mode, so each event builds only the rendering that is written
    if machine:
        for ev in events:
            _emit(True, {
                "kind": ev.kind,
                "step": ev.step,
                "direction": ev.direction,
                "low": ev.interval_before[0],
                "high": ev.interval_before[1],
                "index": ev.index,
                "detail": ev.detail,
            }, None)
    else:
        for ev in events:
            _emit(False, None, f"{ev.step:4d}  {ev.kind:<9}  {ev.detail}")


def _vector_flag(p: argparse.ArgumentParser, name: str, required: bool = True) -> None:
    p.add_argument(name, required=required, metavar="VEC",
                   help="vector literal like 1,4,6 (or []), or @file[:line]")


def _machine_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--machine", action="store_true",
                   help="emit JSON lines instead of plain text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vecintervals",
        description="Bounds-safe vector operations driven by validated index intervals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for op in OPERATIONS.values():
        p = sub.add_parser(op.command, help=op.help)
        p.set_defaults(handler=_run_operation, operation=op)
        if op.arity == 0:
            p.add_argument("--low", type=int, required=True)
            p.add_argument("--high", type=int, required=True)
            p.add_argument("--direction", choices=_DIRECTIONS, default="rl",
                           help="fold direction: rl peels the high end first (default), "
                                "lr the low end")
        for flag in _VECTOR_FLAGS[:op.arity]:
            _vector_flag(p, flag)
        _machine_flag(p)

    p = sub.add_parser("trace", help="run an operation with step tracing")
    p.set_defaults(handler=_run_trace)
    p.add_argument("target",
                   choices=("interval", *(name.replace("_", "-") for name in OPERATIONS)))
    for flag in _VECTOR_FLAGS:
        _vector_flag(p, flag, required=False)
    p.add_argument("--low", type=int)
    p.add_argument("--high", type=int)
    p.add_argument("--direction", choices=_DIRECTIONS, default="rl")
    _machine_flag(p)

    p = sub.add_parser("selftest", help="run the bundled example cases")
    p.set_defaults(handler=_run_selftest)
    _machine_flag(p)

    return parser


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise UsageError(message)


def _load_vectors(args, op, what: str) -> tuple[Vector, ...]:
    """The operation's vector inputs, read in flag order; a missing flag is a usage error."""
    vectors = []
    for flag in _VECTOR_FLAGS[:op.arity]:
        arg = getattr(args, flag[2:])
        _require(arg is not None, f"{what} requires {flag}")
        vectors.append(Vector(load_vector_argument(arg)))
    return tuple(vectors)


def _run_trace(args, machine: bool) -> int:
    direction = _DIRECTIONS[args.direction]
    what = f"trace {args.target}"
    name = args.target.replace("-", "_")
    op = OPERATIONS.get(name)  # None for "interval"
    if op is None or op.arity == 0:
        _require(args.low is not None and args.high is not None,
                 f"{what} requires --low and --high")
    if op is None:
        _emit_events(machine, trace_interval(args.low, args.high, direction))
        return 0
    outcome = traced_run(name, _load_vectors(args, op, what),
                         low=args.low, high=args.high, direction=direction)
    _emit_events(machine, outcome.events)
    if outcome.error is not None:
        raise outcome.error
    _emit_result(machine, outcome.result)
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
    op = args.operation
    if op.arity == 0:
        _emit_result(machine, op.run(args.low, args.high, _DIRECTIONS[args.direction]))
    else:
        _emit_result(machine, op.run(*_load_vectors(args, op, args.command)))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args, args.machine)
    except tuple(row[0] for row in _FAILURES) as exc:
        code, kind = next(row[1:] for row in _FAILURES if isinstance(exc, row[0]))
        # vars(exc) is empty except on OutOfBoundsError, whose fields ride along
        _emit(args.machine, {"kind": "error", "error": kind, "message": str(exc), **vars(exc)},
              f"error: {exc}", sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
