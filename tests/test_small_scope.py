"""Small-scope exhaustive check: unobserved and observed runs agree on every small input.

Unobserved, ``insertion_sort_in_place``, ``merge_sorted``, ``dot_product`` and
``avg_vector`` read a window they have validated once without a check per
access; an operation with an observer on its inputs always goes through the
checked accessors.  Running every operation on every input up to a small
size both ways, and requiring the same result, the same final vector
contents and the same failure (type, attempted index, vector length,
operation name), shows that the unchecked loops compute what the checked
ones do.  The observed run is the reference, so no second implementation is
needed.  ``insert_step`` has no unchecked loop, so both of its runs are
checked; over every window, that shows a window whose reads
``[low..high+1]`` validate never raises.

Scope: every vector of length 0..6 over ``{0, 1, 2}`` (ties included), every
pair of vectors up to length 3 and of sorted vectors up to length 4, each
vector paired with itself and with its reverse, and every ``insert_step``
window with ``low`` in ``-2..n+1`` and ``high`` in ``-3..n+1``.

Comparing with ``==`` over ``{0, 1, 2}`` cannot tell equal elements apart, so
the unobserved sort is also checked by object identity on vectors drawn from
NaN, signed zeros, infinities and ints equal to floats: it must make the same
comparisons as the observed sort, so it leaves the same objects in the same
order, and it must keep equal elements in their input order.  The
unobserved sort bisects exact ints and floats without NaN, and bisection
barely recurses on 12 elements, so the identity check also runs on such
vectors of up to 300 elements with many ties.  Every other input runs
``insert_step``, observed or not: a logging ``float`` subclass sees exactly
the observed sort's comparisons, which checks ``insert_step`` against
itself and would catch a second unobserved path, and a ``bool``, a NaN, a
``Fraction`` or a ``Decimal`` make no bisection.

Equal results alone do not show that no unchecked access strays: a list
wraps a negative index and ``list.insert`` clamps any position, so a stray
access can touch the right element without raising, and an exact result
then does not change.  A witness closes that hole.  Each element list, of
the inputs and of a merge's result, is a ``list`` subclass that records
every index, slice and insert position as written, on the small-scope
inputs and the long ones above.  Each must lie in its list, none negative,
and the sort's must lie in the window its docstring proves for the element
it inserts.  On an input the sort may not bisect it writes through
``insert_step``'s checked swaps, and only in that window; on a bisected
input any write is a stray.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecintervals import algorithms
from vecintervals.algorithms import OPERATIONS, insert_step, insertion_sort_in_place
from vecintervals.intervals import LEFT_TO_RIGHT, RIGHT_TO_LEFT
from vecintervals.vectors import (
    IntervalConstraintError,
    OutOfBoundsError,
    Vector,
    VectorInterval,
)

VECTORS = [list(v) for n in range(7) for v in product((0, 1, 2), repeat=n)]
PAIRS = sorted(
    {(tuple(a), tuple(b)) for a, b in product([v for v in VECTORS if len(v) <= 3], repeat=2)}
    | {(tuple(a), tuple(b))
       for a, b in product([v for v in VECTORS if len(v) <= 4 and v == sorted(v)], repeat=2)}
    | {(tuple(v), tuple(v)) for v in VECTORS}
    | {(tuple(v), tuple(reversed(v))) for v in VECTORS}
)
CORRECT = [name for name, op in OPERATIONS.items() if op.arity and name != "insort_buggy"]
# every comparison outcome a float sort can meet: unordered, equal but distinct, int against float
TRICKY = (float("nan"), 0.0, -0.0, float("inf"), float("-inf"), 1, 1.0, 2, -1.5)
# many ties, across types and at the edges of float precision and range, none of them NaN
TIES = (0, 0.0, -0.0, 1, 1.0, float("inf"), float("-inf"), 2**53, 2.0**53, 2**53 + 1,
        10**400, -10**400)
# vectors of up to 300 of those ties, long enough for bisection to recurse
DEEP = st.integers(0, 300).flatmap(lambda n: st.lists(st.sampled_from(TIES), min_size=n, max_size=n))


class NoOpObserver:
    """The observer protocol, doing nothing: its presence alone forces the checked path."""

    def interval_visit(self, index, before, direction):
        pass

    def interval_stop(self, interval, direction):
        pass

    def element_visit(self, vec, index, elem, before, direction):
        pass

    def element_read(self, vec, index, value, in_bounds):
        pass

    def element_written(self, vec, index, value, in_bounds):
        pass

    def elements_swapped(self, vec, i, j, in_bounds):
        pass


class ReadCounter(NoOpObserver):
    """Counts the element reads and fold visits of each vector, keyed by the vector's label."""

    def __init__(self):
        self.reads = Counter()

    def element_visit(self, vec, index, elem, before, direction):
        self.reads[vec.label] += 1

    def element_read(self, vec, index, value, in_bounds):
        self.reads[vec.label] += 1


def outcome(run, inputs, observed=(), observer=None):
    """Run ``run`` on fresh vectors holding ``inputs``, ``observer`` on those at ``observed``.

    Returns the result (a list for a vector result), the inputs' final
    contents and the failure as (type, attempted_index, vector_length,
    operation_name), or None.
    """
    vecs = [Vector(xs, label=str(k)) for k, xs in enumerate(inputs)]
    for k in observed:
        vecs[k].observer = observer or NoOpObserver()
    result = failure = None
    try:
        result = run(*vecs)
    except Exception as exc:  # every failure is compared, whatever its type
        failure = (type(exc), getattr(exc, "attempted_index", None),
                   getattr(exc, "vector_length", None), getattr(exc, "operation_name", None))
    if isinstance(result, Vector):
        result = result.to_list()
    return result, [v.to_list() for v in vecs], failure


def agreed_outcome(run, inputs):
    """The outcome of ``run`` unobserved, after checking it equals the all-observed outcome."""
    plain = outcome(run, inputs)
    checked = outcome(run, inputs, observed=range(len(inputs)))
    failure = plain[2]
    assert failure is None or failure[0] is not IndexError, (inputs, failure)
    assert plain == checked, inputs
    return plain


def _inputs(arity):
    return [(v,) for v in VECTORS] if arity == 1 else PAIRS


@pytest.mark.parametrize("name", [name for name, op in OPERATIONS.items() if op.arity])
def test_unobserved_run_agrees_with_observed_run(name):
    op = OPERATIONS[name]
    for inputs in _inputs(op.arity):
        _, _, failure = agreed_outcome(op.run, inputs)
        if name in CORRECT:
            assert failure is None or failure[0] is not OutOfBoundsError, (name, inputs)


def test_interval_sum_agrees_with_observed_walk():
    run = OPERATIONS["sum"].run
    for low, high in product(range(-3, 4), repeat=2):
        for direction in (RIGHT_TO_LEFT, LEFT_TO_RIGHT):
            assert run(low, high, direction) == run(low, high, direction,
                                                    observer=NoOpObserver())
    # the walk alone decides the direction, observed or not
    for observer in (None, NoOpObserver()):
        with pytest.raises(ValueError):
            run(1, 3, "sideways", observer=observer)


def test_insert_step_agrees_on_every_window():
    for xs in VECTORS:
        n = len(xs)
        for low, high in product(range(-2, n + 2), range(-3, n + 2)):
            _, _, failure = agreed_outcome(lambda v: insert_step(v, low, high), (xs,))
            try:
                VectorInterval(low, high + 1, n)
            except IntervalConstraintError:
                continue
            # a window whose reads [low..high+1] validate cannot go out of bounds
            assert failure is None, (xs, low, high, failure)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(TRICKY), max_size=12))
def test_unobserved_sort_makes_the_observed_comparisons(drawn):
    # a fresh object per float, so equal floats are told apart by identity (small ints are shared)
    xs = [x * 1.0 if isinstance(x, float) else x for x in drawn]
    plain, checked = Vector(xs), Vector(xs)
    checked.observer = NoOpObserver()
    insertion_sort_in_place(plain)
    insertion_sort_in_place(checked)
    assert [id(x) for x in plain.to_list()] == [id(x) for x in checked.to_list()], drawn
    # the input position of each output element; a shared int takes its earliest unused position
    unused = {}
    for k, x in enumerate(xs):
        unused.setdefault(id(x), []).append(k)
    rank = {unused[id(x)].pop(0): r for r, x in enumerate(plain.to_list())}
    for i, j in combinations(range(len(xs)), 2):
        if xs[i] == xs[j]:
            assert rank[i] < rank[j], (drawn, i, j)


def sorted_both_ways(xs):
    """``xs`` sorted unobserved and with a no-op observer: two lists of the same objects."""
    plain, checked = Vector(xs), Vector(xs)
    checked.observer = NoOpObserver()
    insertion_sort_in_place(plain)
    insertion_sort_in_place(checked)
    return plain.to_list(), checked.to_list()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(DEEP)
def test_unobserved_sort_keeps_the_observed_order_at_depth(drawn):
    # a fresh object per element (small ints are shared), so equal elements are told apart
    xs = [x * 1.0 if isinstance(x, float) else x + 0 for x in drawn]
    plain, checked = sorted_both_ways(xs)
    assert [id(x) for x in plain] == [id(x) for x in checked], drawn


class LoggedFloat(float):
    """A float whose ``<=`` and ``<`` append (operator, id(self), id(other)) to ``log``."""

    log: list = []

    def __le__(self, other):
        LoggedFloat.log.append(("<=", id(self), id(other)))
        return float.__le__(self, other)

    def __lt__(self, other):
        LoggedFloat.log.append(("<", id(self), id(other)))
        return float.__lt__(self, other)


@pytest.fixture
def bisections(monkeypatch):
    """The ``(low, high)`` bounds of every bisection the sort makes while the test runs."""
    calls = []

    def spy(items, x, low, high):
        calls.append((low, high))
        return bisect_left(items, x, low, high)

    monkeypatch.setattr(algorithms, "bisect_left", spy)
    return calls


def test_float_subclass_is_sorted_with_the_observed_comparisons(bisections):
    rng = random.Random(25)
    for n in range(2, 40):
        xs = [LoggedFloat(rng.choice((0.0, -0.0, 1.0, 2.5, -1.5, float("inf")))) for _ in range(n)]
        logs, outputs = [], []
        for observer in (None, NoOpObserver()):
            vec = Vector(xs)
            vec.observer = observer
            LoggedFloat.log = []
            insertion_sort_in_place(vec)
            logs.append(LoggedFloat.log)
            outputs.append([id(x) for x in vec.to_list()])
        assert logs[0] == logs[1], xs
        assert outputs[0] == outputs[1], xs
    assert bisections == []


@pytest.mark.parametrize("xs, bisected", [
    ([3, 2.0, 1, 0.5], True),
    ([3, True, 1, 0.5], False),
    ([float("nan"), 3, 2.0, 1], False),
    ([3, 2.0, 1, float("nan")], False),
    ([Fraction(3), 2.0, 1, 0.5], False),
    ([Decimal(3), 2, 1, 0], False),
    ([3.0, LoggedFloat(2.0), 1.0, 0.5], False),
], ids=["int-float", "bool", "nan-first", "nan-last", "fraction", "decimal", "float-subclass"])
def test_only_exact_ints_and_floats_without_nan_are_bisected(xs, bisected, bisections):
    plain, checked = sorted_both_ways(xs)
    assert [id(x) for x in plain] == [id(x) for x in checked]
    assert bool(bisections) is bisected, bisections


@pytest.mark.parametrize("name", [name for name, op in OPERATIONS.items() if op.arity == 2])
def test_observer_on_one_input_sees_all_its_reads(name):
    run = OPERATIONS[name].run
    for inputs in PAIRS:
        both = ReadCounter()
        outcome(run, inputs, observed=(0, 1), observer=both)
        for k in (0, 1):
            alone = ReadCounter()
            outcome(run, inputs, observed=(k,), observer=alone)
            assert alone.reads[str(k)] == both.reads[str(k)], (inputs, k)


def test_buggy_sort_fails_at_index_n():
    run = OPERATIONS["insort_buggy"].run
    for xs in VECTORS:
        n = len(xs)
        result, (final,), failure = agreed_outcome(run, (xs,))
        if n < 2:
            assert (result, final, failure) == (xs, xs, None)
        else:
            assert failure == (OutOfBoundsError, n, n, "get"), xs


class Witness(list):
    """A list that logs ``(operation, key, length)`` for every index, slice and insert position.

    Iteration (``for x in items``, ``map``) bypasses these methods and needs no
    check, since it cannot leave the list; CPython's ``bisect_left`` reads
    through ``__getitem__``.
    """

    def __init__(self, items, log):
        super().__init__(items)
        self.log = log

    def __getitem__(self, key):
        self.log.append(("get", key, len(self)))
        return super().__getitem__(key)

    def __setitem__(self, key, value):
        self.log.append(("set", key, len(self)))
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self.log.append(("del", key, len(self)))
        super().__delitem__(key)

    def insert(self, index, value):
        self.log.append(("insert", index, len(self)))
        super().insert(index, value)


def inside(key, first, last):
    """Whether an index is in ``first..last``, or a slice's bounds in ``first..last+1``, as written.

    Lists wrap negative indices and ``list.insert`` clamps any position, so
    a stray position need not raise: only its written value shows it.
    """
    if isinstance(key, slice):
        return key.step is None and all(b is not None and first <= b <= last + 1
                                        for b in (key.start, key.stop))
    return first <= key <= last


def witnessed(run, inputs):
    """Every access ``run`` makes, unobserved, to the element lists of ``inputs`` and of its result.

    Each list is a ``Witness`` (a merge's result through a patched
    ``algorithms.Vector``).  The log also holds a ``("low", low)`` entry as
    the sort's countdown hands out each ``low``, and ``("bisect", low,
    high)`` and ``("bisected",)`` around each bisection.
    """
    log = []

    def vector(elements, **kwargs):
        vec = Vector(elements, **kwargs)
        vec._items = Witness(vec._items, log)
        return vec

    def marked_range(*args):
        # the sort's loop over low counts down; so does the dot product's, which no check reads
        span = range(*args)
        for value in span:
            if span.step < 0:
                log.append(("low", value))
            yield value

    def bisection(items, x, low, high):
        log.append(("bisect", low, high))
        place = bisect_left(items, x, low, high)
        log.append(("bisected",))
        return place

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algorithms, "Vector", vector)
        patch.setattr(algorithms, "range", marked_range, raising=False)
        patch.setattr(algorithms, "bisect_left", bisection)
        try:
            run(*[vector(xs) for xs in inputs])
        except (ArithmeticError, ValueError):  # an empty average, unequal lengths, an overflow
            pass
    return log


def strays(log):
    """The accesses that name a position outside their list, or a negative one."""
    accesses = [entry for entry in log if entry[0] in ("get", "set", "del", "insert")]
    # a position one past the end is an append for insert, and out of range for the rest
    return [(op, key, n) for op, key, n in accesses
            if not inside(key, 0, n if op == "insert" else n - 1)]


def sort_strays(log, xs):
    """The sort's accesses to ``xs`` that leave the window proved for the element it is inserting.

    While inserting ``low`` it reads only ``low..n-1``, bisects only
    ``low+2..n-1``, deletes exactly at ``low`` and inserts at ``low+1..n-1``.
    Only an input it may not bisect (an element not an exact ``int`` or
    ``float``, or a NaN) runs ``insert_step``, whose checked swaps write in
    ``low..n-1``; on any other input a write is a stray.
    """
    n = len(xs)
    # x != x, not list ==, which takes a NaN as equal to itself by identity
    bisectable = all(type(x) in (int, float) and not x != x for x in xs)
    found, low, bisection = [], None, None
    for entry in log:
        op, key = entry[0], entry[1:]
        if op == "low":
            (low,) = key
            continue
        if op == "bisected":
            bisection = None
            continue
        if op == "bisect":
            bisection = key
            ok = low + 2 <= key[0] and key[1] <= n
        elif op == "get":
            first, last = (bisection[0], bisection[1] - 1) if bisection else (low, n - 1)
            ok = inside(key[0], first, last)
        elif op == "del":
            ok = key[0] == low
        elif op == "insert":
            ok = inside(key[0], low + 1, n - 1)
        else:  # a set: insert_step's swap, on an input the sort may not bisect
            ok = not bisectable and inside(key[0], low, n - 1)
        if not ok:
            found.append((low, entry))
    return found


def assert_witnessed_in_window(name, inputs):
    log = witnessed(OPERATIONS[name].run, inputs)
    assert strays(log) == [], (name, inputs)
    if name == "insort":
        assert sort_strays(log, inputs[0]) == [], inputs
    return log


# what each unobserved loop is seen doing on the small-scope inputs, so the witness is not blind
WITNESSED = {"avg": set(), "dot": {"get"}, "merge": {"get", "set"},
             "insort": {"get", "bisect", "del", "insert"}}


@pytest.mark.parametrize("name", CORRECT)
def test_unobserved_accesses_stay_in_their_window(name):
    seen = set()
    for inputs in _inputs(OPERATIONS[name].arity):
        seen.update(entry[0] for entry in assert_witnessed_in_window(name, inputs))
    assert seen >= WITNESSED[name], seen


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(DEEP, st.lists(st.sampled_from(TRICKY), max_size=12)))
def test_unobserved_accesses_stay_in_their_window_at_depth(drawn):
    for name in CORRECT:
        inputs = (drawn,) if OPERATIONS[name].arity == 1 else (drawn, drawn[::-1])
        assert_witnessed_in_window(name, inputs)
