"""Closed integer intervals and their two recursive decompositions.

An ``Interval(low, high)`` stands for the set of integers ``low..high``
inclusive, and is empty exactly when ``low > high``.  Any pair of integers
is a legal interval; emptiness is a property, not a construction error.

A non-empty interval can be peeled apart in two ways: ``split_high`` removes
the highest index and leaves ``[low..high-1]``, ``split_low`` removes the
lowest and leaves ``[low+1..high]``.  Repeating one of the peels walks every
index exactly once and terminates on an empty interval, which is what makes
intervals a safe driver for index loops.  ``fold_rl`` and ``fold_lr`` package
the two walks as fold combinators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

A = TypeVar("A")

RIGHT_TO_LEFT = "right_to_left"
LEFT_TO_RIGHT = "left_to_right"


@dataclass(frozen=True)
class Interval:
    """The integers from ``low`` to ``high`` inclusive; empty when ``low > high``."""

    low: int
    high: int

    def is_empty(self) -> bool:
        return self.low > self.high

    def length(self) -> int:
        """Number of integers in the interval (0 when empty)."""
        if self.is_empty():
            return 0
        return self.high - self.low + 1

    def contains(self, index: int) -> bool:
        return self.low <= index <= self.high

    def __contains__(self, index: int) -> bool:
        return self.contains(index)

    def split_high(self) -> Step | None:
        """Peel off the highest index, or None when the interval is empty."""
        if self.is_empty():
            return None
        return Step(self.high, Interval(self.low, self.high - 1))

    def split_low(self) -> Step | None:
        """Peel off the lowest index, or None when the interval is empty."""
        if self.is_empty():
            return None
        return Step(self.low, Interval(self.low + 1, self.high))


@dataclass(frozen=True)
class Step:
    """One peel of a non-empty interval: the removed index and what remains."""

    index: int
    rest: Interval


def fold_rl(
    interval: Interval,
    base: A,
    combine: Callable[[int, A], A],
    *,
    observer=None,
) -> A:
    """Fold over the interval, peeling the highest index first.

    Satisfies ``fold_rl(iv, b, f) == f(iv.high, fold_rl(rest, b, f))`` for a
    non-empty ``iv`` with ``rest = iv.split_high().rest``, and returns ``base``
    on an empty interval.  The nesting bottoms out at ``low``, so ``combine``
    invocations complete from ``low`` upward even though the interval is
    consumed from ``high`` downward.

    The fold's loop is the unrolled form of that recursion; it handles
    intervals of any length without touching the call stack.  An observer
    (see the trace module) is told about each peel, in peel order, and about
    the empty interval that ends the walk.
    """
    return _fold(interval, base, combine, observer, RIGHT_TO_LEFT)


def fold_lr(
    interval: Interval,
    base: A,
    combine: Callable[[int, A], A],
    *,
    observer=None,
) -> A:
    """Fold over the interval, peeling the lowest index first.

    Mirror image of ``fold_rl``: satisfies
    ``fold_lr(iv, b, f) == f(iv.low, fold_lr(rest, b, f))`` with
    ``rest = iv.split_low().rest``.  Combine invocations complete from
    ``high`` downward; the peel order reported to an observer runs from
    ``low`` upward.
    """
    return _fold(interval, base, combine, observer, LEFT_TO_RIGHT)


def _walk(low: int, high: int, direction: str):
    """The walk over ``[low..high]`` that peels the end ``direction`` names.

    Returns ``(peels, before, stop, combines)``: the indices in peel order, a
    function giving the interval each index is peeled from, the bounds of the
    empty interval the walk ends on (the input itself when it is already
    empty), and the order in which a fold's combine calls complete, the
    reverse of the peels.  Intervals are only built for an observer, so an
    unobserved walk costs no allocation beyond its ranges.
    """
    if direction == RIGHT_TO_LEFT:
        peels, before, stop = (range(high, low - 1, -1), lambda i: Interval(low, i),
                               (low, min(high, low - 1)))
    elif direction == LEFT_TO_RIGHT:
        peels, before, stop = (range(low, high + 1), lambda i: Interval(i, high),
                               (max(low, high + 1), high))
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return peels, before, stop, peels[::-1]


def _fold(interval: Interval, base: A, combine: Callable[[int, A], A], observer,
          direction: str) -> A:
    peels, before, stop, combines = _walk(interval.low, interval.high, direction)
    if observer is not None:
        for i in peels:
            observer.interval_visit(i, before(i), direction)
        observer.interval_stop(Interval(*stop), direction)
    acc = base
    for i in combines:
        acc = combine(i, acc)
    return acc
