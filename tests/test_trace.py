"""The step tracer: decomposition chains, instrumented runs, non-interference."""

import copy
import gc
import pickle
import random
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vecintervals import (
    Interval,
    LEFT_TO_RIGHT,
    OutOfBoundsError,
    RIGHT_TO_LEFT,
    TraceEvent,
    TraceRecorder,
    TracedRun,
    Vector,
    avg_vector,
    dot_product,
    fold_lr,
    fold_rl,
    merge_sorted,
    insertion_sort_in_place,
    sum_interval_lr,
    sum_interval_rl,
    trace_interval,
    traced_run,
    vfold_lr,
    vfold_rl,
)
from vecintervals.algorithms import insertion_sort_buggy


def kinds(events):
    return [ev.kind for ev in events]


def test_trace_interval_right_to_left_chain():
    events = trace_interval(-1, 1, RIGHT_TO_LEFT)
    assert kinds(events) == ["decompose", "decompose", "decompose", "stop"]
    assert [ev.index for ev in events] == [1, 0, -1, None]
    assert [ev.interval_before for ev in events] == [(-1, 1), (-1, 0), (-1, -1), (-1, -2)]
    assert [ev.step for ev in events] == [0, 1, 2, 3]
    assert events[0].detail == "[-1..1] = [[-1..0]..1]"
    assert events[-1].detail == "[-1..-2] is empty"


def test_trace_interval_empty_input_is_a_single_stop():
    events = trace_interval(5, 4)
    assert kinds(events) == ["stop"]
    assert events[0].interval_before == (5, 4)


def test_trace_interval_left_to_right_chain():
    events = trace_interval(0, 0, LEFT_TO_RIGHT)
    assert kinds(events) == ["decompose", "stop"]
    assert events[0].index == 0
    assert events[0].detail == "[0..0] = [0..[1..0]]"
    assert events[1].interval_before == (1, 0)


def test_trace_interval_rejects_unknown_direction():
    with pytest.raises(ValueError):
        trace_interval(0, 3, "sideways")


@given(st.integers(-30, 30), st.integers(-30, 30), st.sampled_from([RIGHT_TO_LEFT, LEFT_TO_RIGHT]))
def test_decomposition_chain_follows_the_peel(low, high, direction):
    # the chain is the paper's recursion unrolled: each decompose is one split_high
    # (right to left) or split_low (left to right) of what the previous one left
    *chain, stop = trace_interval(low, high, direction)
    rest = Interval(low, high)
    for ev in chain:
        assert ev.kind == "decompose" and ev.interval_before == (rest.low, rest.high)
        before = Interval(*ev.interval_before)
        peel = before.split_high() if direction == RIGHT_TO_LEFT else before.split_low()
        whole = f"[{before.low}..{before.high}]"
        part = f"[{peel.rest.low}..{peel.rest.high}]"
        detail = (f"{whole} = [{part}..{peel.index}]" if direction == RIGHT_TO_LEFT
                  else f"{whole} = [{peel.index}..{part}]")
        assert (ev.index, ev.detail) == (peel.index, detail)
        rest = peel.rest
    assert rest.is_empty() and len(chain) == Interval(low, high).length()
    assert (stop.kind, stop.interval_before) == ("stop", (rest.low, rest.high))
    # trace_interval and a traced fold report the same walk
    outcome = traced_run("sum", low=low, high=high, direction=direction)
    visits = [ev.interval_before for ev in outcome.events if ev.kind == "visit"]
    assert visits == [ev.interval_before for ev in chain]
    assert outcome.events[-1].interval_before == stop.interval_before


def test_traced_sum_reports_peel_order():
    outcome = traced_run("sum", low=-1, high=1, direction=RIGHT_TO_LEFT)
    assert outcome.ok and outcome.result == 0
    visits = [ev for ev in outcome.events if ev.kind == "visit"]
    assert [ev.index for ev in visits] == [1, 0, -1]
    assert kinds(outcome.events)[-1] == "stop"
    outcome = traced_run("sum", low=-1, high=1, direction=LEFT_TO_RIGHT)
    assert outcome.result == 0
    visits = [ev for ev in outcome.events if ev.kind == "visit"]
    assert [ev.index for ev in visits] == [-1, 0, 1]


def test_traced_sum_on_empty_interval_is_stop_only():
    outcome = traced_run("sum", low=10, high=1)
    assert outcome.ok and outcome.result == 0
    assert kinds(outcome.events) == ["stop"]


def test_traced_avg_visits_every_element():
    outcome = traced_run("avg", (Vector([1, 2, 3]),))
    assert outcome.ok
    assert outcome.result == pytest.approx(2, abs=0.01)
    visits = [ev for ev in outcome.events if ev.kind == "visit"]
    assert [ev.index for ev in visits] == [2, 1, 0]
    assert visits[0].detail == "a[2] -> 3"
    assert [ev.kind for ev in outcome.events].count("stop") == 1


def test_fold_event_count_matches_interval_length():
    # a traced fold over length L yields exactly L visits and one stop
    rng = random.Random(42)
    for _ in range(100):
        n = rng.randint(0, 20)
        vec = Vector([rng.randint(-9, 9) for _ in range(n)])
        recorder = TraceRecorder()
        vec.observer = recorder
        vfold_rl(vec, vec.full_interval(), 0, lambda e, i, acc: acc)
        counted = kinds(recorder.events)
        assert counted.count("visit") == n
        assert counted.count("stop") == 1


def test_folds_report_the_whole_walk_before_the_first_combine():
    # the walk reports every peel and the stop, then the fold combines: a combine
    # that fails or observes something sees the full chain already recorded
    for fold in (fold_rl, fold_lr):
        recorder = TraceRecorder()
        seen = []
        fold(Interval(0, 3), 0, lambda i, acc: seen.append(len(recorder.events)),
             observer=recorder)
        assert seen == [5] * 4
    for vfold in (vfold_rl, vfold_lr):
        recorder = TraceRecorder()
        vec = Vector([1, 2, 3, 4])
        vec.observer = recorder
        seen = []
        vfold(vec, vec.full_interval(), 0, lambda e, i, acc: seen.append(len(recorder.events)))
        assert seen == [5] * 4


def test_step_numbers_are_consecutive_from_zero():
    outcome = traced_run("merge", (Vector([1, 4, 6]), Vector([2, 4, 5, 8, 9])))
    assert [ev.step for ev in outcome.events] == list(range(len(outcome.events)))


def test_sink_gets_the_fields_of_every_event_and_the_list_stays_empty():
    def streamed(trace, *args, **kwargs):
        got = []
        returned = trace(*args, **kwargs, sink=lambda *fields: got.append(fields))
        return got, returned

    def fields(ev):
        return (ev.step, ev.kind, ev.direction, ev.interval_before, ev.index, ev.detail)

    vecs = (Vector([1, 4, 6]), Vector([2, 4, 5, 8, 9]))
    got, outcome = streamed(traced_run, "merge", vecs)
    assert got == [fields(ev) for ev in traced_run("merge", vecs).events]
    assert outcome.ok and outcome.events == []
    got, chain = streamed(trace_interval, -1, 1, LEFT_TO_RIGHT)
    assert got == [fields(ev) for ev in trace_interval(-1, 1, LEFT_TO_RIGHT)]
    assert chain == []


def test_recorder_is_freed_without_the_cycle_collector():
    # a recorder that referred to itself would hold its events until a collection
    enabled = gc.isenabled()
    gc.disable()
    try:
        recorder = TraceRecorder()
        recorder.interval_stop(Interval(1, 0), RIGHT_TO_LEFT)
        ref = weakref.ref(recorder)
        del recorder
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_traced_dot_records_checked_reads_of_second_vector():
    outcome = traced_run("dot", (Vector([1, 2, 3]), Vector([1, 2, 3])))
    assert outcome.ok and outcome.result == 14
    accesses = [ev for ev in outcome.events if ev.kind == "access"]
    assert sorted(ev.index for ev in accesses) == [0, 1, 2]
    assert all("b[" in ev.detail for ev in accesses)


def test_traced_merge_writes_once_per_result_slot():
    a, b = Vector([1, 4, 6]), Vector([2, 4, 5, 8, 9])
    outcome = traced_run("merge", (a, b))
    assert outcome.ok
    assert outcome.result.to_list() == [1, 2, 4, 4, 5, 6, 8, 9]
    writes = [ev for ev in outcome.events if ev.kind == "mutate"]
    assert [ev.index for ev in writes] == list(range(8))
    assert all("result[" in ev.detail for ev in writes)


def test_traced_buggy_sort_captures_the_failure():
    outcome = traced_run("insort_buggy", (Vector([10, 3, 7, 17, 11]),))
    assert not outcome.ok
    assert isinstance(outcome.error, OutOfBoundsError)
    assert outcome.error.attempted_index >= 5
    assert outcome.events, "events up to the failure must be preserved"
    last = outcome.events[-1]
    assert last.kind == "access"
    assert last.index == outcome.error.attempted_index
    assert "out of bounds" in last.detail


def test_traced_run_captures_any_exception_with_the_events_before_it():
    # the fold over the ints succeeds; dividing the 400-digit total by 2 overflows a float
    outcome = traced_run("avg", (Vector([10**399, 1]),))
    assert isinstance(outcome.error, OverflowError)
    assert outcome.result is None
    assert kinds(outcome.events) == ["visit", "visit", "stop"]
    assert [ev.index for ev in outcome.events[:2]] == [1, 0]


def test_out_of_bounds_set_is_recorded_before_it_raises():
    vec, recorder = Vector([1, 2, 3]), TraceRecorder()
    vec.observer = recorder
    with pytest.raises(OutOfBoundsError):
        vec.set(3, 9)
    assert [(ev.kind, ev.index, ev.detail) for ev in recorder.events] == [
        ("mutate", 3, "v[3] is out of bounds for length 3")]
    assert vec.to_list() == [1, 2, 3]


@pytest.mark.parametrize("i, j", [(0, 5), (-1, 0)])
def test_out_of_bounds_swap_is_recorded_before_it_raises_and_moves_nothing(i, j):
    vec, recorder = Vector([1, 2, 3]), TraceRecorder()
    vec.observer = recorder
    with pytest.raises(OutOfBoundsError):
        vec.swap(i, j)
    assert [(ev.kind, ev.index, ev.detail) for ev in recorder.events] == [
        ("mutate", i, f"swap v[{i}], v[{j}] is out of bounds for length 3")]
    assert vec.to_list() == [1, 2, 3]


def test_traced_run_does_not_touch_caller_vectors():
    vec = Vector([10, 3, 7, 17, 11])
    traced_run("insort", (vec,))
    assert vec.to_list() == [10, 3, 7, 17, 11]
    assert vec.observer is None


def test_traced_run_usage_errors_raise_immediately():
    with pytest.raises(ValueError):
        traced_run("frobnicate", (Vector([1]),))
    with pytest.raises(ValueError):
        traced_run("dot", (Vector([1]),))
    with pytest.raises(ValueError):
        traced_run("sum", low=3)
    with pytest.raises(ValueError):
        traced_run("sum", (Vector([1]),), low=1, high=2)
    with pytest.raises(ValueError):
        traced_run("avg", (Vector([1, 2]),), low=1, high=2)
    with pytest.raises(ValueError):
        traced_run("avg", (Vector([1]),), direction="sideways")
    with pytest.raises(ValueError):
        traced_run("avg", (Vector([1, 2]),), direction=LEFT_TO_RIGHT)


def untraced_outcome(name, inputs=(), low=None, high=None, direction=RIGHT_TO_LEFT):
    """Run the plain, uninstrumented operation and normalize the outcome."""
    vecs = [Vector(list(v)) for v in inputs]
    try:
        if name == "sum":
            fn = sum_interval_rl if direction == RIGHT_TO_LEFT else sum_interval_lr
            result = fn(low, high)
        elif name == "avg":
            result = avg_vector(vecs[0])
        elif name == "dot":
            result = dot_product(vecs[0], vecs[1])
        elif name == "merge":
            result = merge_sorted(vecs[0], vecs[1]).to_list()
        elif name == "insort":
            insertion_sort_in_place(vecs[0])
            result = vecs[0].to_list()
        else:
            insertion_sort_buggy(vecs[0])
            result = vecs[0].to_list()
    except (OutOfBoundsError, ValueError) as exc:
        return ("error", type(exc).__name__, getattr(exc, "attempted_index", None))
    return ("ok", result)


CLASSIC_RUNS = [
    ("sum", (), 10, 1, RIGHT_TO_LEFT),
    ("sum", (), 10, 1, LEFT_TO_RIGHT),
    ("sum", (), 10, 10, RIGHT_TO_LEFT),
    ("sum", (), -1, 1, LEFT_TO_RIGHT),
    ("avg", ([6, 7, 8, 9],), None, None, None),
    ("avg", ([1, 2, 3],), None, None, None),
    ("avg", ([],), None, None, None),
    ("dot", ([], []), None, None, None),
    ("dot", ([1, 2, 3], [1, 2, 3]), None, None, None),
    ("dot", ([1, 2], [1, 2, 3]), None, None, None),
    ("merge", ([], []), None, None, None),
    ("merge", ([10], [2]), None, None, None),
    ("merge", ([1, 4, 6], [2, 4, 5, 8, 9]), None, None, None),
    ("insort", ([10],), None, None, None),
    ("insort", ([10, 3, 7, 17, 11],), None, None, None),
    ("insort_buggy", ([10, 3, 7, 17, 11],), None, None, None),
    ("insort_buggy", ([10],), None, None, None),
]


@pytest.mark.parametrize("name,inputs,low,high,direction", CLASSIC_RUNS)
def test_tracing_never_changes_the_outcome(name, inputs, low, high, direction):
    traced = traced_run(
        name, tuple(Vector(list(v)) for v in inputs),
        low=low, high=high, direction=direction,
    )
    if traced.ok:
        result = traced.result
        if isinstance(result, Vector):
            result = result.to_list()
        normalized = ("ok", result)
    else:
        normalized = (
            "error",
            type(traced.error).__name__,
            getattr(traced.error, "attempted_index", None),
        )
    assert normalized == untraced_outcome(name, inputs, low=low, high=high, direction=direction)


# -- value semantics: TraceEvent is an immutable value, TracedRun a mutable one ------

EVENT = TraceEvent(3, "visit", LEFT_TO_RIGHT, (0, 2), 1, "v[1] -> 7")


def test_trace_event_takes_its_fields_by_keyword():
    ev = TraceEvent(detail="v[1] -> 7", index=1, interval_before=(0, 2),
                    direction=LEFT_TO_RIGHT, kind="visit", step=3)
    assert ev == EVENT and hash(ev) == hash(EVENT)
    assert trace_interval(0, -1)[0] == TraceEvent(
        step=0, kind="stop", direction=RIGHT_TO_LEFT, interval_before=(0, -1), index=None,
        detail="[0..-1] is empty")


def test_trace_event_repr():
    assert repr(EVENT) == ("TraceEvent(step=3, kind='visit', direction='left_to_right', "
                           "interval_before=(0, 2), index=1, detail='v[1] -> 7')")


def test_trace_event_equals_only_trace_events_with_the_same_fields():
    fields = (3, "visit", LEFT_TO_RIGHT, (0, 2), 1, "v[1] -> 7")
    for other in (TraceEvent(4, *fields[1:]), TraceEvent(*fields[:5], "v[1] -> 8"), fields,
                  TracedRun(*fields[:3])):
        assert EVENT != other and other != EVENT


def test_trace_event_fields_cannot_be_assigned_or_deleted():
    for name in ("step", "kind", "direction", "interval_before", "index", "detail"):
        with pytest.raises(AttributeError):
            setattr(EVENT, name, 0)
        with pytest.raises(AttributeError):
            delattr(EVENT, name)
    assert EVENT == TraceEvent(3, "visit", LEFT_TO_RIGHT, (0, 2), 1, "v[1] -> 7")


def test_trace_event_and_traced_run_match_by_position():
    match traced_run("sum", low=1, high=1):
        case TracedRun(1, None, [TraceEvent(0, "visit", _, (1, 1), 1, _), *_]):
            pass
        case other:
            pytest.fail(f"no positional match for {other!r}")


def test_traced_run_is_mutable_unhashable_and_equal_by_value():
    run = TracedRun(result=3, error=None, events=[EVENT])
    assert repr(run) == f"TracedRun(result=3, error=None, events=[{EVENT!r}])"
    assert run == TracedRun(3, None, [EVENT]) and run.ok
    for other in (TracedRun(4, None, [EVENT]), TracedRun(3, None, []), (3, None, [EVENT])):
        assert run != other and other != run
    with pytest.raises(TypeError):
        hash(TracedRun(3, None, ()))  # unhashable even when every field is hashable
    run.result, run.error = 4, ValueError("late")
    assert run.result == 4 and not run.ok


@pytest.mark.parametrize("value", [
    EVENT,
    TraceEvent(0, "stop", RIGHT_TO_LEFT, (0, -1), None, "[0..-1] is empty"),
    TracedRun(7.5, None, [EVENT]),
    TracedRun(None, None, []),
], ids=repr)
def test_trace_values_survive_copy_deepcopy_and_pickle(value):
    pickled = [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in [copy.copy(value), copy.deepcopy(value), *pickled]:
        assert type(twin) is type(value) and twin == value
