"""Fixed-length vectors with checked access, and intervals validated against them.

``Vector`` is a mutable sequence of numbers whose length never changes.  Its
``get``/``set``/``swap`` operations are bounds-checked and raise
``OutOfBoundsError`` carrying the offending index, the vector length and the
operation name, so a failure says exactly what went wrong and where.

``VectorInterval`` is an ``Interval`` whose bounds were proven compatible
with a given vector length at construction time.  A non-empty one can only
name valid indices, which lets the vector folds below read elements without
a per-access check: the bounds reasoning happens once, up front.  The hot
loops in ``algorithms`` (average, dot product, merge and insertion sort)
rest on the same proof and read the element list directly, but only when
no observer is attached; an observed run uses the checked accessors, so the
observer is told of every access.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from .intervals import Interval, LEFT_TO_RIGHT, RIGHT_TO_LEFT, _slot_setters, _walk

__all__ = ["IntervalConstraintError", "OutOfBoundsError", "Vector", "VectorInterval",
           "VectorMismatchError", "vfold_lr", "vfold_rl"]


class OutOfBoundsError(IndexError):
    """Checked vector access outside ``0..len-1``, with a full diagnostic."""

    def __init__(self, attempted_index: int, vector_length: int, operation_name: str):
        self.attempted_index = attempted_index
        self.vector_length = vector_length
        self.operation_name = operation_name
        super().__init__(
            f"{operation_name}: index {attempted_index} is out of bounds "
            f"for a vector of length {vector_length}"
        )


class IntervalConstraintError(ValueError):
    """Interval bounds incompatible with the vector length they were checked against."""


class VectorMismatchError(ValueError):
    """A VectorInterval was used with a vector of a different length."""


class Vector:
    """A numeric vector of fixed length with bounds-checked element access.

    ``observer`` is a hook for the step tracer (see the trace module); it is
    None in normal use and every access method skips it with a single test.
    ``label`` is the vector's name in traces (``v`` unless given) and has no
    semantic effect.
    """

    __slots__ = ("_items", "label", "observer")

    def __init__(self, elements: Iterable[float], *, label: str = "v"):
        self._items = list(elements)
        self.label = label
        self.observer = None

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other) -> bool:
        if isinstance(other, Vector):
            return self._items == other._items
        return NotImplemented

    def __repr__(self) -> str:
        return f"Vector({self._items!r})"

    def __getstate__(self):
        # the slot state copy and pickle protocols 2+ build by default; pickle protocols
        # 0 and 1 refuse a __slots__ class that does not define it
        return None, {"_items": self._items, "label": self.label, "observer": self.observer}

    def to_list(self) -> list[float]:
        """Copy of the elements as a plain list."""
        return list(self._items)

    def full_interval(self) -> VectorInterval:
        """The interval of every valid index: ``[0..len-1]``, empty for length 0."""
        n = len(self._items)
        return VectorInterval(0, n - 1, n)

    def get(self, index: int) -> float:
        items = self._items
        ok = 0 <= index < len(items)
        if self.observer is not None:
            self.observer.element_read(self, index, items[index] if ok else None, ok)
        if not ok:
            raise OutOfBoundsError(index, len(items), "get")
        return items[index]

    def set(self, index: int, value: float) -> None:
        items = self._items
        ok = 0 <= index < len(items)
        if self.observer is not None:
            self.observer.element_written(self, index, value, ok)
        if not ok:
            raise OutOfBoundsError(index, len(items), "set")
        items[index] = value

    def swap(self, i: int, j: int) -> None:
        """Exchange elements i and j; on a bad index the vector is untouched."""
        items = self._items
        n = len(items)
        ok = 0 <= i < n and 0 <= j < n
        if self.observer is not None:
            self.observer.elements_swapped(self, i, j, ok)
        if not ok:
            raise OutOfBoundsError(j if 0 <= i < n else i, n, "swap")
        items[i], items[j] = items[j], items[i]


class VectorInterval(Interval):
    """An interval validated against a vector length at construction.

    Both bounds must be integers (objects with ``__index__``, as ``range``
    requires) with ``0 <= low <= vec_len`` and ``-1 <= high <= vec_len - 1``;
    anything else, a float or NaN included, raises ``IntervalConstraintError``
    naming the offending bound.  The rule admits every sub-range of valid
    indices plus the empty shapes that index walks shrink to (``high == low -
    1`` down to ``[vec_len..vec_len-1]`` and ``[0..-1]``), and nothing else.
    Inherits all interval operations; peeling a validated interval leaves a
    ``VectorInterval`` for the same length, as the bounds still satisfy the rule.
    """

    __slots__ = ("vec_len",)
    __match_args__ = ("low", "high", "vec_len")

    def __init__(self, low: int, high: int, vec_len: int):
        n = vec_len
        if not (hasattr(type(low), "__index__") and 0 <= low <= n):
            raise IntervalConstraintError(f"low bound {low!r} is not an index in 0..{n}")
        if not (hasattr(type(high), "__index__") and -1 <= high <= n - 1):
            raise IntervalConstraintError(f"high bound {high!r} is not an index in -1..{n - 1}")
        _set_low(self, low)
        _set_high(self, high)
        _set_vec_len(self, vec_len)

    def _peeled(self, low: int, high: int) -> VectorInterval:
        return VectorInterval(low, high, self.vec_len)


_set_low, _set_high, _set_vec_len = _slot_setters(VectorInterval)


def _require_pairing(vec: Vector, interval: VectorInterval) -> None:
    if not isinstance(interval, VectorInterval):
        raise TypeError("vector folds require a VectorInterval validated against the vector")
    if interval.vec_len != len(vec._items):
        raise VectorMismatchError(
            f"interval was validated for length {interval.vec_len}, "
            f"but the vector has length {len(vec._items)}"
        )


def vfold_rl(
    vec: Vector,
    interval: VectorInterval,
    base: object,
    combine: Callable[[float, int, object], object],
) -> object:
    """Fold over the vector elements named by ``interval``, highest index first.

    ``combine(element, index, acc)`` follows the same nesting as ``fold_rl``,
    so invocations complete from ``low`` upward while the interval is peeled
    from ``high`` downward.  The interval must have been validated against
    this vector's length (``VectorMismatchError`` otherwise); that validation
    is what makes the unchecked element reads here safe.
    """
    return _vfold(vec, interval, base, combine, RIGHT_TO_LEFT)


def vfold_lr(
    vec: Vector,
    interval: VectorInterval,
    base: object,
    combine: Callable[[float, int, object], object],
) -> object:
    """Mirror of ``vfold_rl``: lowest index peeled first, combine completes downward."""
    return _vfold(vec, interval, base, combine, LEFT_TO_RIGHT)


def _vfold(vec: Vector, interval: VectorInterval, base: object,
           combine: Callable[[float, int, object], object], direction: str) -> object:
    _require_pairing(vec, interval)
    items = vec._items
    obs = vec.observer
    acc = base
    for i in _walk(interval.low, interval.high, direction, obs,
                   lambda i, before, d: obs.element_visit(vec, i, items[i], before, d)):
        acc = combine(items[i], i, acc)
    return acc
