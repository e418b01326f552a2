"""The library's built-in example suite, runnable from the CLI.

Fifteen worked examples over the public operations, each with its expected
answer frozen in.  Sums are checked in both fold directions, averages and
dot products to within 0.01, merges and sorts element by element.
"""

from __future__ import annotations

from .algorithms import OPERATIONS
from .intervals import LEFT_TO_RIGHT, RIGHT_TO_LEFT, Interval, _Value, _slot_setters
from .vectors import Vector

NUMERIC_TOLERANCE = 0.01


class CaseResult(_Value):
    __slots__ = __match_args__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str):
        _set_name(self, name)
        _set_passed(self, passed)
        _set_detail(self, detail)


_set_name, _set_passed, _set_detail = _slot_setters(CaseResult)


def _check_empty(low: int, high: int, expected: bool) -> tuple[bool, str]:
    actual = Interval(low, high).is_empty()
    return actual == expected, f"is_empty({low}..{high}) = {actual}, expected {expected}"


def _check_operation(name: str, inputs: tuple, expected) -> tuple[bool, str]:
    """Run operation ``name`` on ``inputs``.

    Interval operations are checked in both directions, vector results element
    by element and numbers to within ``NUMERIC_TOLERANCE``.
    """
    op = OPERATIONS[name]
    if op.arity == 0:
        low, high = inputs
        rl, lr = (op.run(low, high, direction) for direction in (RIGHT_TO_LEFT, LEFT_TO_RIGHT))
        ok = rl == expected and lr == expected
        return ok, f"{name}({low}..{high}) = {rl} rl / {lr} lr, expected {expected}"
    actual = op.run(*(Vector(elements) for elements in inputs))
    if isinstance(actual, Vector):
        actual = actual.to_list()
        return actual == expected, f"{name} = {actual}, expected {expected}"
    ok = abs(actual - expected) <= NUMERIC_TOLERANCE
    return ok, f"{name} = {actual}, expected {expected} +- {NUMERIC_TOLERANCE}"


_CASES = (
    ("empty-check 3..4", _check_empty, 3, 4, False),
    ("empty-check 30..30", _check_empty, 30, 30, False),
    ("empty-check 5..4", _check_empty, 5, 4, True),
    ("sum 10..1 both directions", _check_operation, "sum", (10, 1), 0),
    ("sum 10..10 both directions", _check_operation, "sum", (10, 10), 10),
    ("sum -1..1 both directions", _check_operation, "sum", (-1, 1), 0),
    ("avg of [6,7,8,9]", _check_operation, "avg", ([6, 7, 8, 9],), 7.5),
    ("avg of [1,2,3]", _check_operation, "avg", ([1, 2, 3],), 2),
    ("dot of empty vectors", _check_operation, "dot", ([], []), 0),
    ("dot [1,2,3].[1,2,3]", _check_operation, "dot", ([1, 2, 3], [1, 2, 3]), 14),
    ("merge two empties", _check_operation, "merge", ([], []), []),
    ("merge [10] and [2]", _check_operation, "merge", ([10], [2]), [2, 10]),
    ("merge [1,4,6] and [2,4,5,8,9]", _check_operation, "merge", ([1, 4, 6], [2, 4, 5, 8, 9]),
     [1, 2, 4, 4, 5, 6, 8, 9]),
    ("insort singleton [10]", _check_operation, "insort", ([10],), [10]),
    ("insort [10,3,7,17,11]", _check_operation, "insort", ([10, 3, 7, 17, 11],),
     [3, 7, 10, 11, 17]),
)


def run_reference_cases() -> list[CaseResult]:
    """Run all fifteen reference cases; failures are reported, never raised."""
    results = []
    for name, check, *args in _CASES:
        try:
            passed, detail = check(*args)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CaseResult(name, passed, detail))
    return results
