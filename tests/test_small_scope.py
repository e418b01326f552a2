"""Small-scope exhaustive check: unobserved and observed runs agree on every small input.

An unobserved operation may read a window it has validated once without a
check per access; an operation with an observer on its inputs always goes
through the checked accessors.  Running every operation on every input up to
a small size both ways, and requiring the same result, the same final vector
contents and the same failure (type, attempted index, vector length,
operation name), shows that no unchecked read strays on any of those
inputs: a stray one either reads a wrong element, which changes the result,
or escapes as a bare ``IndexError``.  The observed run is the reference, so
no second implementation is needed.

Scope: every vector of length 0..6 over ``{0, 1, 2}`` (ties included), every
pair of vectors up to length 3 and of sorted vectors up to length 4, each
vector paired with itself and with its reverse, and every ``insert_step``
window with ``low`` in ``-2..n+1`` and ``high`` in ``-3..n+1``.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

import pytest

from vecintervals.algorithms import OPERATIONS, insert_step
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
