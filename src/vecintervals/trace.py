"""Step tracing: decomposition chains and instrumented algorithm runs.

The tracer is an observer the vectors and folds already know how to talk to:
install a ``TraceRecorder`` as a vector's ``observer`` and every checked
access, mutation and fold visit lands in ``recorder.events`` as a
``TraceEvent``.  Untraced code pays one ``is not None`` test per checked
access, or per call in the hot loops that skip the checks after proving
their window, and the traced run takes the same steps through the checked
accessors, so tracing can never change a result.

Event kinds:

* ``decompose``: one peel of an interval chain (``trace_interval`` only).
* ``visit``: a fold consumed one index (and element, for vector folds).
* ``stop``: a walk reached the empty interval.
* ``access`` / ``mutate``: a checked read / write or swap, in or out of
  bounds (out-of-bounds operations are recorded before they raise).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algorithms import OPERATIONS
from .intervals import Interval, LEFT_TO_RIGHT, RIGHT_TO_LEFT, _walk
from .vectors import Vector

NO_DIRECTION = "none"


@dataclass(frozen=True)
class TraceEvent:
    """One recorded step.

    ``step`` counts from 0 within a recorder.  ``kind`` is one of
    ``decompose``, ``visit``, ``stop``, ``access``, ``mutate``; ``direction``
    is ``right_to_left``, ``left_to_right`` or ``none``.  ``interval_before``
    is the ``(low, high)`` pair the step acted on; for raw vector access it
    is the vector's full index range.  ``index`` is the peeled, visited, read
    or written index (None for stop events), and ``detail`` is a one-line
    human-readable rendering.
    """

    step: int
    kind: str
    direction: str
    interval_before: tuple[int, int]
    index: int | None
    detail: str


def _vec_name(vec: Vector) -> str:
    return vec.label if vec.label is not None else "v"


class TraceRecorder:
    """Collects TraceEvents; step numbers are consecutive per recorder.

    Implements the observer protocol consulted by ``Vector`` and the fold
    combinators, plus the ``decompose`` steps used by ``trace_interval``.
    """

    def __init__(self):
        self.events: list[TraceEvent] = []

    def _emit(self, kind, direction, interval_before, index, detail) -> None:
        self.events.append(
            TraceEvent(len(self.events), kind, direction, interval_before, index, detail)
        )

    # -- interval walks ------------------------------------------------

    def decompose(self, before: Interval, index: int, rest: Interval, direction: str) -> None:
        if direction == RIGHT_TO_LEFT:
            detail = f"[{before.low}..{before.high}] = [[{rest.low}..{rest.high}]..{index}]"
        else:
            detail = f"[{before.low}..{before.high}] = [{index}..[{rest.low}..{rest.high}]]"
        self._emit("decompose", direction, (before.low, before.high), index, detail)

    def interval_visit(self, index: int, before: Interval, direction: str) -> None:
        self._emit("visit", direction, (before.low, before.high), index, f"index {index}")

    def element_visit(self, vec, index, elem, before: Interval, direction: str) -> None:
        self._emit(
            "visit", direction, (before.low, before.high), index,
            f"{_vec_name(vec)}[{index}] -> {elem!r}",
        )

    def interval_stop(self, interval: Interval, direction: str) -> None:
        self._emit(
            "stop", direction, (interval.low, interval.high), None,
            f"[{interval.low}..{interval.high}] is empty",
        )

    # -- checked vector access ------------------------------------------

    def element_read(self, vec, index, value, in_bounds: bool) -> None:
        name, n = _vec_name(vec), len(vec)
        if in_bounds:
            detail = f"{name}[{index}] -> {value!r}"
        else:
            detail = f"{name}[{index}] is out of bounds for length {n}"
        self._emit("access", NO_DIRECTION, (0, n - 1), index, detail)

    def element_written(self, vec, index, value, in_bounds: bool) -> None:
        name, n = _vec_name(vec), len(vec)
        if in_bounds:
            detail = f"{name}[{index}] = {value!r}"
        else:
            detail = f"{name}[{index}] is out of bounds for length {n}"
        self._emit("mutate", NO_DIRECTION, (0, n - 1), index, detail)

    def elements_swapped(self, vec, i, j, in_bounds: bool) -> None:
        name, n = _vec_name(vec), len(vec)
        if in_bounds:
            detail = f"{name}[{i}] <-> {name}[{j}]"
        else:
            detail = f"swap {name}[{i}], {name}[{j}] is out of bounds for length {n}"
        self._emit("mutate", NO_DIRECTION, (0, n - 1), i, detail)


def trace_interval(low: int, high: int, direction: str = RIGHT_TO_LEFT) -> list[TraceEvent]:
    """Full decomposition chain of ``[low..high]``: one decompose per peel, then stop.

    With ``right_to_left`` the highest index is peeled each step, with
    ``left_to_right`` the lowest.  Always ends with a stop event on the empty
    interval the chain shrinks to; an empty input yields just that stop.
    """
    peels, before, stop, _ = _walk(low, high, direction)
    recorder = TraceRecorder()
    for i in peels:
        # what remains after a peel is the interval the next index is peeled from
        recorder.decompose(before(i), i, before(i + peels.step), direction)
    recorder.interval_stop(Interval(*stop), direction)
    return recorder.events


@dataclass
class TracedRun:
    """Outcome of an instrumented run: result, captured error (or None), events."""

    result: object
    error: Exception | None
    events: list[TraceEvent]

    @property
    def ok(self) -> bool:
        return self.error is None


def traced_run(
    algorithm_name: str,
    vectors: tuple[Vector, ...] = (),
    *,
    low: int | None = None,
    high: int | None = None,
    direction: str = RIGHT_TO_LEFT,
) -> TracedRun:
    """Run an algorithm with a fresh recorder attached and capture the outcome.

    ``sum`` folds the integers of ``[low..high]`` in the given direction; the
    other algorithms take one or two vectors, which are copied before
    instrumentation so the caller's data is never touched.  Any exception
    the algorithm itself raises (out-of-bounds, a domain error, an overflow)
    is captured in the outcome together with the events recorded up to the
    failure; classifying it is the caller's job.  An unknown name, missing
    bounds, the wrong number of vectors or an unknown direction is checked
    before the run and raises ``ValueError`` immediately.
    """
    op = OPERATIONS.get(algorithm_name)
    if op is None:
        raise ValueError(
            f"unknown algorithm {algorithm_name!r}; expected one of " + ", ".join(OPERATIONS)
        )
    if op.arity == 0:
        if low is None or high is None:
            raise ValueError(f"{algorithm_name} requires both interval bounds")
    elif len(vectors) != op.arity:
        raise ValueError(f"{algorithm_name} takes {op.arity} vector(s), got {len(vectors)}")
    if direction not in (RIGHT_TO_LEFT, LEFT_TO_RIGHT):
        raise ValueError(f"unknown direction {direction!r}")

    recorder = TraceRecorder()
    copies = []
    for label, src in zip(("a", "b"), vectors):
        copy = Vector(src.to_list(), label=label)
        copy.observer = recorder
        copies.append(copy)

    result = None
    error: Exception | None = None
    try:
        if op.arity == 0:
            result = op.run(low, high, direction, observer=recorder)
        else:
            result = op.run(*copies)
    except Exception as exc:
        error = exc
    finally:
        for copy in copies:
            copy.observer = None
        if isinstance(result, Vector):
            result.observer = None
    return TracedRun(result, error, recorder.events)
