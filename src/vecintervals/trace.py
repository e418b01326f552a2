"""Step tracing: decomposition chains and instrumented algorithm runs.

The tracer is an observer the vectors and folds already know how to talk to:
install a ``TraceRecorder`` as a vector's ``observer`` and every checked
access, mutation and fold visit lands in ``recorder.events`` as a
``TraceEvent``.  Untraced code pays one ``is not None`` test per checked
access, or per call in the hot loops that skip the checks after proving
their window.  A traced run goes through the checked accessors and need
not take the untraced run's steps (the untraced sort bisects and moves each
element at once, where the traced one swaps neighbours), but it gives the
same result, so tracing can never change a result.

A recorder built with ``sink=`` (``traced_run`` and ``trace_interval`` pass
theirs on) hands each event to it as the positional fields ``(step, kind,
direction, interval_before, index, detail)`` the moment it happens, and
keeps no list; ``events`` then stays empty, so memory stays flat however
long the trace.  The command line's ``trace`` output is such a recorder,
whose sink writes each line at once; only checked reads and swaps, nearly
every event of a traced run, are worded and written in the writer's own
two methods, and the recorder is the reference its tests compare them
against.

Event kinds:

* ``decompose``: one peel of an interval chain (``trace_interval`` only).
* ``visit``: a fold consumed one index (and element, for vector folds).
* ``stop``: a walk reached the empty interval.
* ``access`` / ``mutate``: a checked read / write or swap, in or out of
  bounds (out-of-bounds operations are recorded before they raise).
"""

from __future__ import annotations

from itertools import count

from .algorithms import OPERATIONS
from .intervals import Interval, LEFT_TO_RIGHT, RIGHT_TO_LEFT, _Value, _slot_setters, _walk
from .vectors import Vector

__all__ = ["TraceEvent", "TraceRecorder", "TracedRun", "trace_interval", "traced_run"]

# the direction of access and mutate events; imported by name
NO_DIRECTION = "none"


class TraceEvent(_Value):
    """One recorded step.

    ``step`` counts from 0 within a recorder.  ``kind`` is one of
    ``decompose``, ``visit``, ``stop``, ``access``, ``mutate``; ``direction``
    is ``right_to_left``, ``left_to_right`` or ``none``.  ``interval_before``
    is the ``(low, high)`` pair the step acted on; for raw vector access it
    is the vector's full index range.  ``index`` is the peeled, visited, read
    or written index (None for stop events), and ``detail`` is a one-line
    human-readable rendering.
    """

    __slots__ = __match_args__ = (
        "step", "kind", "direction", "interval_before", "index", "detail")

    def __init__(self, step: int, kind: str, direction: str, interval_before: tuple[int, int],
                 index: int | None, detail: str):
        _set_step(self, step)
        _set_kind(self, kind)
        _set_dir(self, direction)
        _set_before(self, interval_before)
        _set_index(self, index)
        _set_detail(self, detail)


_set_step, _set_kind, _set_dir, _set_before, _set_index, _set_detail = _slot_setters(TraceEvent)


def _out_of_bounds(subject: str, vec: Vector) -> str:
    return f"{subject} is out of bounds for length {len(vec._items)}"


class TraceRecorder:
    """Collects TraceEvents, or streams them to ``sink``; steps are consecutive per recorder.

    Implements the observer protocol consulted by ``Vector`` and the fold
    combinators.  ``decompose(index, before, direction)`` takes the arguments
    of ``interval_visit``: ``trace_interval`` hands it to the interval walk as
    the per-peel report, and it writes the rest of ``before`` from ``index``.
    ``sink``, when given, is called with each event's fields in place of
    appending a ``TraceEvent`` to ``events``.
    """

    def __init__(self, *, sink=None):
        self.events: list[TraceEvent] = []
        # closes over the list, not the recorder: a recorder that referred to itself
        # would keep its events alive until the cycle collector ran
        append = self.events.append
        self._sink = sink if sink is not None else lambda *fields: append(TraceEvent(*fields))
        self._next_step = count().__next__

    # -- interval walks ------------------------------------------------

    def decompose(self, index: int, before: Interval, direction: str) -> None:
        low, high = before.low, before.high
        if direction == RIGHT_TO_LEFT:
            detail = f"[{low}..{high}] = [[{low}..{index - 1}]..{index}]"
        else:
            detail = f"[{low}..{high}] = [{index}..[{index + 1}..{high}]]"
        self._sink(self._next_step(), "decompose", direction, (low, high), index, detail)

    def interval_visit(self, index: int, before: Interval, direction: str) -> None:
        self._sink(self._next_step(), "visit", direction, (before.low, before.high), index,
                   f"index {index}")

    def element_visit(self, vec, index, elem, before: Interval, direction: str) -> None:
        self._sink(
            self._next_step(), "visit", direction, (before.low, before.high), index,
            f"{vec.label}[{index}] -> {elem!r}",
        )

    def interval_stop(self, interval: Interval, direction: str) -> None:
        self._sink(
            self._next_step(), "stop", direction, (interval.low, interval.high), None,
            f"[{interval.low}..{interval.high}] is empty",
        )

    # -- checked vector access ------------------------------------------

    def element_read(self, vec, index, value, in_bounds: bool) -> None:
        name = vec.label
        detail = (f"{name}[{index}] -> {value!r}" if in_bounds
                  else _out_of_bounds(f"{name}[{index}]", vec))
        self._sink(self._next_step(), "access", NO_DIRECTION, (0, len(vec._items) - 1), index,
                   detail)

    def element_written(self, vec, index, value, in_bounds: bool) -> None:
        name = vec.label
        detail = (f"{name}[{index}] = {value!r}" if in_bounds
                  else _out_of_bounds(f"{name}[{index}]", vec))
        self._sink(self._next_step(), "mutate", NO_DIRECTION, (0, len(vec._items) - 1), index,
                   detail)

    def elements_swapped(self, vec, i, j, in_bounds: bool) -> None:
        name = vec.label
        detail = (f"{name}[{i}] <-> {name}[{j}]" if in_bounds
                  else _out_of_bounds(f"swap {name}[{i}], {name}[{j}]", vec))
        self._sink(self._next_step(), "mutate", NO_DIRECTION, (0, len(vec._items) - 1), i, detail)


def trace_interval(low: int, high: int, direction: str = RIGHT_TO_LEFT, *,
                   sink=None) -> list[TraceEvent]:
    """Full decomposition chain of ``[low..high]``: one decompose per peel, then stop.

    With ``right_to_left`` the highest index is peeled each step, with
    ``left_to_right`` the lowest.  The events come from the same walk the
    folds run, with a recorder as its observer: each peel is reported as a
    decompose, and the walk's stop event on the empty interval the chain
    shrinks to ends the chain; an empty input yields just that stop.  With a
    ``sink`` the events go to it as they happen and the list returned is
    empty.
    """
    recorder = TraceRecorder(sink=sink)
    _walk(low, high, direction, recorder, recorder.decompose)
    return recorder.events


class TracedRun(_Value):
    """Outcome of an instrumented run: result, captured error (or None), events.

    Unlike the other value classes its fields can be reassigned, so it has no hash.
    """

    __slots__ = __match_args__ = ("result", "error", "events")
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__
    __hash__ = None

    def __init__(self, result: object, error: Exception | None, events: list[TraceEvent]):
        self.result, self.error, self.events = result, error, events

    @property
    def ok(self) -> bool:
        return self.error is None


def traced_run(
    algorithm_name: str,
    vectors: tuple[Vector, ...] = (),
    *,
    low: int | None = None,
    high: int | None = None,
    direction: str | None = None,
    sink=None,
) -> TracedRun:
    """Run an algorithm with a fresh recorder attached and capture the outcome.

    ``sum`` folds the integers of ``[low..high]`` in the given direction
    (``right_to_left`` when none is given) and takes no vector; the other
    algorithms take one or two vectors, which are copied before
    instrumentation so the caller's data is never touched, and nothing else.
    Any exception the algorithm itself raises (out-of-bounds, a domain
    error, an overflow) is captured in the outcome together with the events
    recorded up to the failure; classifying it is the caller's job.  An
    unknown name, missing bounds, the wrong number of vectors (any vector
    for ``sum``), interval bounds or a direction for a vector operation, or
    an unknown direction is checked before the run and raises
    ``ValueError`` immediately.  With a ``sink`` the events go to it as
    they happen (see ``TraceRecorder``) and the outcome's ``events`` is
    empty.
    """
    op = OPERATIONS.get(algorithm_name)
    if op is None:
        raise ValueError(
            f"unknown algorithm {algorithm_name!r}; expected one of " + ", ".join(OPERATIONS)
        )
    if len(vectors) != op.arity:
        raise ValueError(f"{algorithm_name} takes {op.arity} vector(s), got {len(vectors)}")
    recorder = TraceRecorder(sink=sink)
    bounds = {}
    if op.arity == 0:
        if low is None or high is None:
            raise ValueError(f"{algorithm_name} requires both interval bounds")
        if direction not in (None, RIGHT_TO_LEFT, LEFT_TO_RIGHT):
            raise ValueError(f"unknown direction {direction!r}")
        bounds = {"low": low, "high": high, "direction": direction or RIGHT_TO_LEFT,
                  "observer": recorder}
    elif low is not None or high is not None or direction is not None:
        raise ValueError(f"{algorithm_name} takes no interval bounds or direction")

    # Vector() copies its elements, so the caller's vectors are never touched
    copies = [Vector(src._items, label=label) for label, src in zip("ab", vectors)]
    for copy in copies:
        copy.observer = recorder
    try:
        result = op.run(*copies, **bounds)
    except Exception as exc:
        return TracedRun(None, exc, recorder.events)
    # the copies are unreachable once the run is over, unless one is the result
    if isinstance(result, Vector):
        result.observer = None
    return TracedRun(result, None, recorder.events)
