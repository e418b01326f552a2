"""Reference algorithms driven by interval decomposition.

Interval sums, vector average, dot product, merge of sorted vectors and
in-place insertion sort.  Each one reads or writes vector elements only at
indices drawn from a validated interval, so none of them can go out of
bounds; ``insertion_sort_buggy`` is the deliberate exception, kept to show
what the checked accessors report when the window is off by one.

The four hot loops prove their window once and then read the element list
directly: ``insertion_sort_in_place`` for all of its windows at once, and
``merge_sorted``, ``dot_product`` and ``avg_vector`` over their inputs' full
intervals.  They do so only when no observer is attached, and the sort only
when every element is an exact ``int`` or ``float`` and none is NaN.  Such a
sort finds where each element goes by bisecting the sorted suffix (binary
insertion) and moves it there with one ``del`` and one ``list.insert``,
which shift the run it passed inside the list's own buffer.  Every other
sort runs ``insert_step``.  An observed run takes the checked
``get``/``set``/``swap`` loop (the fold, for the average), so traces and
access counts see every step, every adjacent swap of the sort included.
``insert_step``, which takes its window from the caller, is always checked,
so a bad window gets its precise diagnostic.  An unobserved interval sum
adds the walk's indices with the builtin ``sum``.

``OPERATIONS`` is the one list of the operations the command line,
``traced_run`` and the selftest offer: adding an operation is adding a row.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Callable
from operator import ne

from .intervals import LEFT_TO_RIGHT, RIGHT_TO_LEFT, _walk
from .vectors import Vector, vfold_lr, vfold_rl

# insertion_sort_buggy (an out-of-bounds exhibit) and OPERATIONS are imported by name
__all__ = ["EmptyVectorError", "LengthMismatchError", "avg_vector", "dot_product", "insert_step",
           "insertion_sort_in_place", "merge_sorted", "sum_interval_lr", "sum_interval_rl"]


# the exact types whose elements, NaN aside, Python compares in one total order (bool excluded)
_INT_OR_FLOAT = frozenset((int, float))


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
    # the walk reports every peel and the stop before it returns; int addition is exact in any order
    visit = None if observer is None else observer.interval_visit
    return sum(_walk(low, high, direction, observer, visit))


def avg_vector(vec: Vector) -> float:
    """Arithmetic mean of the elements.

    The total is a vector fold over the full index interval, so every read
    is bounds-safe by construction.  Unobserved, the elements are summed
    straight from the element list in the fold's completion order, so the
    total is the same to the bit.  Raises EmptyVectorError on length 0.
    """
    n = len(vec)
    if n == 0:
        raise EmptyVectorError("cannot average an empty vector")
    if vec.observer is None:
        # the fold's completion order: index 0 first, each element added on the left
        total = 0
        for x in vec._items:
            total = x + total
    else:
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


def insertion_sort_in_place(vec: Vector) -> None:
    """Sort the vector non-decreasing in place, stably, by insertion.

    Works suffix-first: element ``low`` is inserted into the already sorted
    ``low+1..n-1`` for ``low = n-1`` down to 0.  The recursion over the index
    interval is unrolled into a countdown loop so long vectors cannot exhaust
    the call stack.  Each insertion window is capped at ``n - 2``, keeping
    the right-neighbour reads of ``insert_step`` in bounds: window
    ``[low..n-2]`` reads ``low..n-1``, inside the full interval, for every
    ``low``.  That one proof covers every window of an unobserved sort
    whose elements all have the exact type ``int`` or ``float``, none NaN,
    which therefore reads the element list directly and validates nothing
    per window.  Their order is total, so once the element is found larger
    than its right neighbour, it finds its place by bisecting
    ``low+2..n-1``: the place ``insert_step`` stops at.  It moves the
    element with ``del items[low]`` and
    ``items.insert(p, x)`` instead of one adjacent swap per step: ``low`` is
    in ``0..n-2``, so the ``del`` is in range; the list then holds ``n-1``
    elements and ``p`` is in ``low+1..n-1``, so the insert is at most an
    append; ``x`` ends at ``p`` and the run it passed at ``low..p-1``.  The
    insert only refills the slot the ``del`` freed, and CPython resizes a
    list's buffer only when it is full or would fall below half full, so
    on a buffer of capacity ``n`` to ``2n - 1``, such as ``Vector`` makes
    from a list, neither reallocates: the sort allocates nothing.  It
    leaves the same objects in the same order as ``insert_step``.  Every
    other sort, observed or not (a NaN, a ``bool``, a ``Fraction``, a
    ``float`` subclass among the elements), runs ``insert_step`` over each
    window, so its accesses are checked and a trace reports every adjacent
    swap.  With NaN elements the result is a permutation of the input and
    its order is unspecified.
    """
    n = len(vec)
    items = vec._items
    # ints and floats without NaN are totally ordered: bisection finds where insert_step stops
    if (vec.observer is None and _INT_OR_FLOAT.issuperset(map(type, items))
            and not any(map(ne, items, items))):
        for low in range(n - 2, -1, -1):
            # insert_step(vec, low, n - 2)'s first comparison; x is the element it sinks
            x = items[low]
            if x <= items[low + 1]:
                continue
            p = bisect_left(items, x, low + 2, n) - 1
            # x passed items[low+1..p]: take x out, which shifts them left, and put it back at p
            del items[low]
            items.insert(p, x)
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


class _Operation(namedtuple("_Operation", "command arity run help")):
    """One operation the CLI, ``traced_run`` and the selftest offer, keyed by name in OPERATIONS.

    ``arity`` is the number of vector inputs; 0 means the operation takes an
    interval instead and ``run(low, high, direction, observer=None)`` folds it
    in that direction.  Otherwise ``run(*vectors)`` returns a number or a
    ``Vector``, and the inputs' observers see every step.
    """

    __slots__ = ()


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
