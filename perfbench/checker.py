"""Output checker for the benchmark, built on plain-Python references only.

Every expected answer is computed by the benchmark itself when it generates
the inputs: ``sorted`` for sorts and merges, exact integer arithmetic for
interval sums, and ``math.fsum`` for float sums.  Nothing here imports the
library, so the checker cannot inherit a library defect.

Each ``check_*`` function returns ``None`` when the outcome is right and a
one-line description of the problem otherwise.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

# A float result passes when it lies within FLOAT_TOL times the sum of the
# magnitudes of the terms that produced it.  Naive left-to-right summation of
# n terms is off by at most about n * 2**-53 of that sum; with n <= 10**5
# that is below 1.2e-11, so 1e-9 passes every correct fold order and still
# catches any wrong or missing term.
FLOAT_TOL = 1e-9

EVENT_KINDS = ("decompose", "visit", "stop", "access", "mutate")
_EVENT_KEYS = {"kind", "step", "direction", "low", "high", "index", "detail"}
_PLAIN_EVENT = re.compile(r"^ *(\d+)  (" + "|".join(EVENT_KINDS) + r") *  (.*)$")
_PLAIN_SUMMARY = re.compile(r"^(\d+) passed, (\d+) failed$")


@dataclass(frozen=True)
class Approx:
    """A float reference: ``value`` from ``math.fsum``, ``scale`` = sum of |terms|."""

    value: float
    scale: float

    def matches(self, got) -> bool:
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return False
        return math.isfinite(got) and abs(got - self.value) <= FLOAT_TOL * self.scale


@dataclass(frozen=True)
class Failure:
    """An expected error: the library exception, its fields and the CLI's report of it.

    ``fields`` are attributes the exception must carry (and, for out-of-bounds
    errors, keys the machine-mode error record must carry) with their values.
    """

    exc: str
    exit_code: int
    error: str
    fields: dict = field(default_factory=dict)


def check_value(got, want) -> str | None:
    """Compare a result with its reference: an int, a list of numbers or an Approx."""
    if isinstance(want, Approx):
        if want.matches(got):
            return None
        return f"got {got!r}, expected {want.value!r} within {FLOAT_TOL:g} x {want.scale:g}"
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"got {_brief(got)}, expected a list of {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            if isinstance(g, bool) or g != w:
                return f"element {i} is {g!r}, expected {w!r}"
        return None
    if isinstance(got, int) and not isinstance(got, bool) and got == want:
        return None
    return f"got {got!r}, expected {want!r}"


def check_exception(exc: BaseException | None, want: Failure) -> str | None:
    """An expected library error must be raised with exactly the expected fields."""
    if exc is None:
        return f"no error, expected {want.exc}"
    if type(exc).__name__ != want.exc:
        return f"raised {type(exc).__name__}: {exc}, expected {want.exc}"
    for name, value in want.fields.items():
        if getattr(exc, name, None) != value:
            return f"{want.exc}.{name} is {getattr(exc, name, None)!r}, expected {value!r}"
    return None


def check_library(result, exc: BaseException | None, want) -> str | None:
    """Check one library call: its result, or the error it should raise."""
    if isinstance(want, Failure):
        return check_exception(exc, want)
    if exc is not None:
        return f"unexpected {type(exc).__name__}: {exc}"
    return check_value(result, want)


def check_twin(library_result, twin_result) -> str | None:
    """A plain-list twin must produce exactly the library's output, or its ratio is void."""
    if type(library_result) is type(twin_result) and library_result == twin_result:
        return None
    return f"twin gave {_brief(twin_result)}, library gave {_brief(library_result)}"


def _reject_constant(name: str):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_json(line: str):
    """Parse one machine-mode line; NaN and Infinity are not JSON and are rejected."""
    return json.loads(line, parse_constant=_reject_constant)


@dataclass(frozen=True)
class CliExpect:
    """What one CLI call must produce.

    ``want`` is the reference result (None for commands that print none),
    ``events`` says whether stdout starts with trace events, and
    ``event_count`` and ``last_event`` optionally pin how many events there
    are and the ``(kind, index)`` of the final one.  ``selftest`` marks the
    bundled example suite.
    """

    machine: bool
    want: object = None
    events: bool = False
    event_count: int | None = None
    last_event: tuple | None = None
    selftest: bool = False


def check_cli(expect: CliExpect, code, out: str, err: str) -> str | None:
    """Check exit code, stdout and stderr of one ``cli.main`` call."""
    failure = expect.want if isinstance(expect.want, Failure) else None
    want_code = failure.exit_code if failure else 0
    if code != want_code:
        return f"exit code {code!r}, expected {want_code}; stderr {err.strip()[-200:]!r}"
    lines = out.splitlines()
    try:
        records = [strict_json(line) for line in lines] if expect.machine else None
        err_records = [strict_json(line) for line in err.splitlines()] if expect.machine else None
    except ValueError as exc:
        return f"machine output is not strict JSON: {exc}"
    if expect.machine and not all(isinstance(r, dict) for r in records + err_records):
        return "a machine line is not a JSON object"
    if failure:
        problem = _check_cli_error(expect.machine, failure, err_records, err)
        if problem:
            return problem
    elif err:
        return f"unexpected stderr {err.strip()[-200:]!r}"
    if expect.selftest:
        return _check_selftest(expect.machine, records, lines)
    results = 0 if failure or expect.want is None else 1
    if results > len(lines):
        return "no result line"
    n_events = len(lines) - results
    if expect.events:
        problem = _check_events(expect, records, lines, n_events)
        if problem:
            return problem
    elif n_events:
        return f"{n_events} unexpected line(s) before the result"
    if not results:
        return None
    if expect.machine:
        record = records[-1]
        if record.get("kind") != "result":
            return f"last record is {record!r}, expected a result"
        return check_value(record.get("value"), expect.want)
    return check_value(_parse_plain_value(lines[-1]), expect.want)


def _check_cli_error(machine, failure: Failure, err_records, err: str) -> str | None:
    if machine:
        if len(err_records) != 1:
            return f"expected one error record, got {len(err_records)}"
        record = err_records[0]
        wanted = {"kind": "error", "error": failure.error}
        if failure.error == "out_of_bounds":
            wanted.update(failure.fields)
        for key, value in wanted.items():
            if record.get(key) != value:
                return f"error record {key} is {record.get(key)!r}, expected {value!r}"
        return None
    lines = err.splitlines()
    if len(lines) != 1 or not lines[0].startswith("error: "):
        return f"expected one 'error: ' line on stderr, got {err.strip()[-200:]!r}"
    if failure.error == "out_of_bounds":
        f = failure.fields
        wanted = (f"error: {f['operation_name']}: index {f['attempted_index']} is out of "
                  f"bounds for a vector of length {f['vector_length']}")
        if lines[0] != wanted:
            return f"diagnostic {lines[0]!r}, expected {wanted!r}"
    return None


def _check_events(expect: CliExpect, records, lines, n_events: int) -> str | None:
    if n_events < 1:
        return "no trace events"
    if expect.event_count is not None and n_events != expect.event_count:
        return f"{n_events} trace events, expected {expect.event_count}"
    last = None
    for step in range(n_events):
        if expect.machine:
            rec = records[step]
            if not isinstance(rec, dict) or set(rec) != _EVENT_KEYS:
                return f"event {step} has keys {sorted(rec) if isinstance(rec, dict) else rec!r}"
            if rec["kind"] not in EVENT_KINDS or rec["step"] != step:
                return f"event {step} is {rec!r}"
            last = (rec["kind"], rec["index"])
        else:
            m = _PLAIN_EVENT.match(lines[step])
            if not m or int(m.group(1)) != step:
                return f"event line {step} is {lines[step]!r}"
            last = (m.group(2), m.group(3))
    want = expect.last_event
    if want is not None:
        if expect.machine and last != want:
            return f"last event is {last!r}, expected {want!r}"
        if not expect.machine and (
            last[0] != want[0] or (want[1] is not None and f"[{want[1]}]" not in last[1])
        ):
            return f"last event is {last!r}, expected kind {want[0]} at index {want[1]}"
    return None


def _check_selftest(machine: bool, records, lines) -> str | None:
    if not lines:
        return "selftest printed nothing"
    if machine:
        cases, summary = records[:-1], records[-1]
        if summary.get("kind") != "summary" or summary.get("failed") != 0:
            return f"selftest summary {summary!r}"
        bad = [c for c in cases if c.get("kind") != "case" or c.get("passed") is not True]
        if bad or summary.get("passed") != len(cases):
            return f"selftest cases {bad[:1]!r}, summary {summary!r}"
        return None
    m = _PLAIN_SUMMARY.match(lines[-1])
    if not m or int(m.group(2)) != 0 or int(m.group(1)) != len(lines) - 1:
        return f"selftest summary {lines[-1]!r} after {len(lines) - 1} case line(s)"
    bad = [line for line in lines[:-1] if not line.startswith("ok  ")]
    return f"selftest case {bad[0]!r}" if bad else None


def _parse_number(token: str):
    try:
        return int(token)
    except ValueError:
        return float(token)


def _parse_plain_value(line: str):
    """Read back a plain-mode result: a number, or ``[a,b,...]``."""
    try:
        if line.startswith("[") and line.endswith("]"):
            body = line[1:-1]
            return [_parse_number(t) for t in body.split(",")] if body else []
        return _parse_number(line)
    except ValueError:
        return line


def _brief(value) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."
