"""Reference algorithms driven by interval decomposition.

Interval sums, vector average, dot product, merge of sorted vectors and
in-place insertion sort.  Each one reads or writes vector elements only at
indices drawn from a validated interval, so none of them can go out of
bounds; ``insertion_sort_buggy`` is the deliberate exception, kept to show
what the checked accessors report when the window is off by one.

The three hot loops prove their window once and then read the element list
directly: ``insertion_sort_in_place`` for all of its windows at once, and
``merge_sorted`` and ``dot_product`` over their inputs' full intervals.
They do so only when no observer is attached.  An observed run takes the
checked ``get``/``set``/``swap`` loop, so traces and access counts see
every step.  ``insert_step``, which takes its window from the caller, is
always checked, so a bad window gets its precise diagnostic.

``OPERATIONS`` is the one list of the operations the command line,
``traced_run`` and the selftest offer: adding an operation is adding a row.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .intervals import Interval, LEFT_TO_RIGHT, RIGHT_TO_LEFT, fold_lr, fold_rl
from .vectors import Vector, vfold_lr, vfold_rl


class EmptyVectorError(ValueError):
    """The average of a zero-length vector is undefined."""


class LengthMismatchError(ValueError):
    """Dot product requires vectors of equal length."""


def sum_interval_rl(low: int, high: int) -> int:
    """Sum of the integers in ``[low..high]``, folded highest-first (0 when empty)."""
    return _sum_interval(low, high, RIGHT_TO_LEFT)


def sum_interval_lr(low: int, high: int) -> int:
    """Same sum folded lowest-first; agrees with ``sum_interval_rl`` on every interval."""
    return _sum_interval(low, high, LEFT_TO_RIGHT)


def _sum_interval(low: int, high: int, direction: str, observer=None) -> int:
    fold = fold_rl if direction == RIGHT_TO_LEFT else fold_lr
    return fold(Interval(low, high), 0, lambda i, acc: i + acc, observer=observer)


def avg_vector(vec: Vector) -> float:
    """Arithmetic mean of the elements.

    The total is a vector fold over the full index interval, so every read
    is bounds-safe by construction.  Raises EmptyVectorError on length 0.
    """
    n = len(vec)
    if n == 0:
        raise EmptyVectorError("cannot average an empty vector")
    total = vfold_rl(vec, vec.full_interval(), 0, lambda elem, i, acc: elem + acc)
    return total / n


def dot_product(v1: Vector, v2: Vector) -> float:
    """Sum of pairwise products; 0 for empty vectors.

    The lengths are checked up front (LengthMismatchError), which makes v1's
    full interval a valid interval of v2 as well.  Unobserved, the products
    are then read straight from both element lists; observed, v1's interval
    is walked as a vector fold and each element is paired with a checked
    ``v2.get(i)``.  Both accumulate ``a[i] * b[i] + acc`` from the highest
    index down, so float results are identical either way.
    """
    if len(v1) != len(v2):
        raise LengthMismatchError(
            f"vector lengths differ: {len(v1)} and {len(v2)}"
        )
    if v1.observer is None and v2.observer is None:
        a, b, acc = v1._items, v2._items, 0
        for i in range(len(a) - 1, -1, -1):
            acc = a[i] * b[i] + acc
        return acc
    return vfold_lr(
        v1, v1.full_interval(), 0,
        lambda elem, i, acc: elem * v2.get(i) + acc,
    )


def merge_sorted(v1: Vector, v2: Vector) -> Vector:
    """Merge two non-decreasing vectors into a new sorted vector.

    One left-to-right walk over the result's full interval fills each slot
    with the head of one input, and a cursor per input advances through that
    input's interval.  The loop header fixes the count at ``len(v1) +
    len(v2)`` steps, one per element, whatever the inputs hold; sortedness of
    the output is only promised for sorted inputs.  On equal heads the
    element of ``v2`` is taken first.  With NaN elements the result is a
    permutation of the inputs and its order is unspecified.
    """
    res = Vector([0] * (len(v1) + len(v2)), label="result")
    res.observer = v1.observer if v1.observer is not None else v2.observer
    iv1, iv2, iv_res = v1.full_interval(), v2.full_interval(), res.full_interval()
    low1, high1 = iv1.low, iv1.high
    low2, high2 = iv2.low, iv2.high
    if res.observer is None:  # neither input is observed
        a, b, out = v1._items, v2._items, res._items
        for k in range(iv_res.low, iv_res.high + 1):
            if low2 > high2 or (low1 <= high1 and a[low1] < b[low2]):
                out[k] = a[low1]
                low1 += 1
            else:
                out[k] = b[low2]
                low2 += 1
        return res
    for k in range(iv_res.low, iv_res.high + 1):
        if low2 > high2 or (low1 <= high1 and v1.get(low1) < v2.get(low2)):
            res.set(k, v1.get(low1))
            low1 += 1
        else:
            res.set(k, v2.get(low2))
            low2 += 1
    return res


def insert_step(vec: Vector, low: int, high: int) -> None:
    """Sink ``vec[low]`` rightward by adjacent swaps until its neighbour is no smaller.

    Walks ``low..high`` comparing each element with its right neighbour, so
    it reads ``low..high+1``.  Every read and swap is checked, so a caller
    whose window is off gets OutOfBoundsError, nothing worse.  Stops early
    as soon as the pair is already ordered.
    """
    for i in range(low, high + 1):
        if vec.get(i) <= vec.get(i + 1):
            return
        vec.swap(i, i + 1)


def _sink(items: list, low: int, high: int) -> None:
    """``insert_step`` on the element list, for a window whose reads ``low..high+1`` are valid."""
    for i in range(low, high + 1):
        if items[i] <= items[i + 1]:
            return
        items[i], items[i + 1] = items[i + 1], items[i]


def insertion_sort_in_place(vec: Vector) -> None:
    """Sort the vector non-decreasing in place by adjacent swaps.

    Works suffix-first: element ``low`` is inserted into the already sorted
    ``low+1..n-1`` for ``low = n-1`` down to 0.  The recursion over the index
    interval is unrolled into a countdown loop so long vectors cannot exhaust
    the call stack.  Each insertion window is capped at ``n - 2``, keeping
    the right-neighbour reads of ``insert_step`` in bounds: window
    ``[low..n-2]`` reads ``low..n-1``, inside the full interval, for every
    ``low``.  That one proof covers every window of an unobserved sort,
    which therefore reads the element list directly and validates nothing
    per window.  With NaN elements the result is a permutation of the input
    and its order is unspecified.
    """
    n = len(vec)
    if vec.observer is None:
        items = vec._items
        for low in range(n - 1, -1, -1):
            _sink(items, low, n - 2)
        return
    for low in range(n - 1, -1, -1):
        insert_step(vec, low, n - 2)


def insertion_sort_buggy(vec: Vector) -> None:
    """Deliberately broken insertion sort, kept as an out-of-bounds exhibit.

    Identical to ``insertion_sort_in_place`` except the insertion window is
    ``n - 1`` instead of ``n - 2``, so the very first insertion probes index
    ``n`` and raises OutOfBoundsError on every vector of length 2 or more.
    Vectors of length 0 or 1 are left untouched.  Never use this to sort;
    it exists so the diagnostics have a realistic failure to report.
    """
    n = len(vec)
    if n < 2:
        return
    for low in range(n - 1, -1, -1):
        insert_step(vec, low, n - 1)


def _returning_vector(sort: Callable[[Vector], None]) -> Callable[[Vector], Vector]:
    """An in-place sort as an operation that returns the vector it sorted."""
    def run(vec: Vector) -> Vector:
        sort(vec)
        return vec
    return run


class _Operation(NamedTuple):
    """One operation the CLI, ``traced_run`` and the selftest offer, keyed by name in OPERATIONS.

    ``arity`` is the number of vector inputs; 0 means the operation takes an
    interval instead and ``run(low, high, direction, observer=None)`` folds it
    in that direction.  Otherwise ``run(*vectors)`` returns a number or a
    ``Vector``, and the inputs' observers see every step.
    """

    command: str
    arity: int
    run: Callable
    help: str


OPERATIONS = {
    "sum": _Operation("sum-interval", 0, _sum_interval, "sum the integers in [low..high]"),
    "avg": _Operation("avg", 1, avg_vector, "average of a vector"),
    "dot": _Operation("dot", 2, dot_product, "dot product of two vectors"),
    "merge": _Operation("merge", 2, merge_sorted, "merge two sorted vectors"),
    "insort": _Operation("insort", 1, _returning_vector(insertion_sort_in_place),
                         "insertion sort a vector"),
    "insort_buggy": _Operation("insort-buggy", 1, _returning_vector(insertion_sort_buggy),
                               "run the known-broken sort to show the out-of-bounds diagnostic"),
}
