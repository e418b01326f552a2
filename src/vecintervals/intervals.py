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

from collections.abc import Callable

__all__ = ["Interval", "LEFT_TO_RIGHT", "RIGHT_TO_LEFT", "Step", "fold_lr", "fold_rl"]

RIGHT_TO_LEFT = "right_to_left"
LEFT_TO_RIGHT = "left_to_right"


class _Value:
    """An immutable value with the fields its class names in ``__match_args__``.

    Instances compare and hash by their field values, and compare equal only
    to instances of exactly the same class; the repr is
    ``Name(field=value, ...)``, and copy and pickle rebuild an instance
    through its constructor.  Assigning or deleting an attribute raises
    ``AttributeError``.  A subclass declares its fields as its ``__slots__``
    and sets them in ``__init__`` through the setters ``_slot_setters`` gives.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


def _slot_setters(cls) -> tuple:
    """The ``__set__`` of each field slot of ``cls``, in ``__match_args__`` order.

    Calling these pre-bound setters is the fastest way to fill the slots of
    an instance whose ``__setattr__`` refuses every assignment.
    """
    return tuple(getattr(cls, name).__set__ for name in cls.__match_args__)


class Interval(_Value):
    """The integers from ``low`` to ``high`` inclusive; empty when ``low > high``."""

    __slots__ = __match_args__ = ("low", "high")

    def __init__(self, low: int, high: int):
        _set_low(self, low)
        _set_high(self, high)

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


class Step(_Value):
    """One peel of a non-empty interval: the removed index and what remains."""

    __slots__ = __match_args__ = ("index", "rest")

    def __init__(self, index: int, rest: Interval):
        _set_index(self, index)
        _set_rest(self, rest)


(_set_low, _set_high), (_set_index, _set_rest) = _slot_setters(Interval), _slot_setters(Step)


def fold_rl(
    interval: Interval,
    base: object,
    combine: Callable[[int, object], object],
    *,
    observer=None,
) -> object:
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
    base: object,
    combine: Callable[[int, object], object],
    *,
    observer=None,
) -> object:
    """Fold over the interval, peeling the lowest index first.

    Mirror image of ``fold_rl``: satisfies
    ``fold_lr(iv, b, f) == f(iv.low, fold_lr(rest, b, f))`` with
    ``rest = iv.split_low().rest``.  Combine invocations complete from
    ``high`` downward; the peel order reported to an observer runs from
    ``low`` upward.
    """
    return _fold(interval, base, combine, observer, LEFT_TO_RIGHT)


def _walk(low: int, high: int, direction: str, observer=None, visit=None):
    """Walk ``[low..high]``, peeling the end ``direction`` names, and report it.

    With an observer, calls ``visit(i, interval i is peeled from, direction)``
    for each peel in peel order, then ``observer.interval_stop`` with the
    empty interval the walk ends on (the input's bounds when it is already
    empty).  Returns the order in which a fold's combine calls complete, the
    reverse of the peels.  Only an observed walk builds an ``Interval``.
    """
    if direction == RIGHT_TO_LEFT:
        peels, end, before = (range(high, low - 1, -1), min(high, low - 1),
                              lambda i: Interval(low, i))
    elif direction == LEFT_TO_RIGHT:
        peels, end, before = range(low, high + 1), max(low, high + 1), lambda i: Interval(i, high)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    if observer is not None:
        for i in peels:
            visit(i, before(i), direction)
        observer.interval_stop(before(end), direction)
    return peels[::-1]


def _fold(interval: Interval, base: object, combine: Callable[[int, object], object],
          observer, direction: str) -> object:
    visit = None if observer is None else observer.interval_visit
    acc = base
    for i in _walk(interval.low, interval.high, direction, observer, visit):
        acc = combine(i, acc)
    return acc
