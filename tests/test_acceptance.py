"""Acceptance gate: the checks a release must pass, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
enforces both the functional claim and a wall-clock budget.
"""

import functools
import itertools
import random
import time

import pytest

from vecintervals import (
    LEFT_TO_RIGHT,
    OutOfBoundsError,
    RIGHT_TO_LEFT,
    Vector,
    VectorInterval,
    IntervalConstraintError,
    avg_vector,
    dot_product,
    insertion_sort_in_place,
    merge_sorted,
    sum_interval_lr,
    sum_interval_rl,
    trace_interval,
    traced_run,
    vfold_lr,
    vfold_rl,
)
from vecintervals.algorithms import insertion_sort_buggy
from vecintervals.selftest import run_reference_cases

from oracles import merge_oracle, naive_dot, sort_oracle


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def runner():
            try:
                fn()
            except BaseException:
                print(f"FAIL  {label}")
                raise
            print(f"PASS  {label}")
        return runner
    return wrap


@criterion("reference examples: 15/15 within tolerance in under 1s")
def test_reference_example_suite():
    start = time.perf_counter()
    results = run_reference_cases()
    elapsed = time.perf_counter() - start
    assert len(results) == 15
    failed = [(r.name, r.detail) for r in results if not r.passed]
    assert failed == []
    assert elapsed < 1.0


@criterion("broken sort diagnosed, corrected sort clean, in under 1s")
def test_broken_sort_exhibit():
    start = time.perf_counter()
    with pytest.raises(OutOfBoundsError) as info:
        insertion_sort_buggy(Vector([10, 3, 7, 17, 11]))
    assert info.value.attempted_index >= 5
    assert info.value.vector_length == 5
    fixed = Vector([10, 3, 7, 17, 11])
    insertion_sort_in_place(fixed)  # must not raise
    assert fixed.to_list() == [3, 7, 10, 11, 17]
    assert time.perf_counter() - start < 1.0


@criterion("fold index safety: 10^4 random instrumented folds, 0 violations, under 10s")
def test_fold_index_safety():
    start = time.perf_counter()
    rng = random.Random(0xBEEF)
    violations = 0
    for _ in range(10_000):
        n = rng.randint(0, 30)
        vec = Vector([rng.randint(-1000, 1000) for _ in range(n)])
        low = rng.randint(0, n)
        high = rng.randint(low - 1, n - 1)
        iv = VectorInterval(low, high, n)
        for fold in (vfold_rl, vfold_lr):
            seen = []
            fold(vec, iv, None, lambda e, i, acc: seen.append(i))
            for i in seen:
                if not (low <= i <= high and 0 <= i < n):
                    violations += 1
    assert violations == 0
    assert time.perf_counter() - start < 10.0


@criterion("interval constructor: exhaustively sound for lengths 0..4, under 1s")
def test_interval_constructor_soundness():
    start = time.perf_counter()
    checked = 0
    for vec_len in range(0, 5):
        for low in range(-3, vec_len + 4):
            for high in range(-3, vec_len + 4):
                should_accept = (
                    0 <= low <= vec_len and -1 <= high <= vec_len - 1
                )
                if should_accept:
                    iv = VectorInterval(low, high, vec_len)
                    if not iv.is_empty():
                        assert 0 <= iv.low and iv.high < vec_len
                else:
                    with pytest.raises(IntervalConstraintError):
                        VectorInterval(low, high, vec_len)
                checked += 1
    assert checked == sum((vl + 7) ** 2 for vl in range(5))
    assert time.perf_counter() - start < 1.0


@criterion("oracle equivalence: 4 x 10^3 randomized trials, all exact, under 30s")
def test_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(0xF00D)

    for _ in range(1000):
        a = sorted(rng.randint(-50, 50) for _ in range(rng.randint(0, 50)))
        b = sorted(rng.randint(-50, 50) for _ in range(rng.randint(0, 50)))
        assert merge_sorted(Vector(a), Vector(b)).to_list() == merge_oracle(a, b)

    for _ in range(1000):
        items = [rng.randint(-1000, 1000) for _ in range(rng.randint(0, 100))]
        vec = Vector(items)
        insertion_sort_in_place(vec)
        assert vec.to_list() == sort_oracle(items)

    for _ in range(1000):
        low = rng.randint(-1000, 1000)
        high = rng.randint(-1000, 1000)
        closed_form = 0 if low > high else (low + high) * (high - low + 1) // 2
        assert sum_interval_rl(low, high) == closed_form
        assert sum_interval_lr(low, high) == closed_form

    for _ in range(1000):
        n = rng.randint(0, 50)
        a = [rng.randint(-100, 100) for _ in range(n)]
        b = [rng.randint(-100, 100) for _ in range(n)]
        assert dot_product(Vector(a), Vector(b)) == naive_dot(a, b)

    assert time.perf_counter() - start < 30.0


@criterion("trace fidelity: decomposition chain exact, tracing never changes outcomes, under 1s")
def test_trace_fidelity():
    start = time.perf_counter()

    events = trace_interval(-1, 1, RIGHT_TO_LEFT)
    assert [ev.kind for ev in events] == ["decompose", "decompose", "decompose", "stop"]
    assert [ev.index for ev in events] == [1, 0, -1, None]
    assert events[-1].interval_before == (-1, -2)

    def outcome_key(ok, result, error):
        if ok:
            if isinstance(result, Vector):
                result = result.to_list()
            return ("ok", result)
        return ("error", type(error).__name__, getattr(error, "attempted_index", None))

    runs = [
        ("sum", (), dict(low=10, high=1, direction=RIGHT_TO_LEFT)),
        ("sum", (), dict(low=10, high=1, direction=LEFT_TO_RIGHT)),
        ("sum", (), dict(low=10, high=10, direction=RIGHT_TO_LEFT)),
        ("sum", (), dict(low=-1, high=1, direction=LEFT_TO_RIGHT)),
        ("avg", ([6, 7, 8, 9],), {}),
        ("avg", ([1, 2, 3],), {}),
        ("avg", ([],), {}),
        ("dot", ([], []), {}),
        ("dot", ([1, 2, 3], [1, 2, 3]), {}),
        ("dot", ([1, 2], [1, 2, 3]), {}),
        ("merge", ([], []), {}),
        ("merge", ([10], [2]), {}),
        ("merge", ([1, 4, 6], [2, 4, 5, 8, 9]), {}),
        ("insort", ([10],), {}),
        ("insort", ([10, 3, 7, 17, 11],), {}),
        ("insort_buggy", ([10, 3, 7, 17, 11],), {}),
        ("insort_buggy", ([10],), {}),
    ]
    plain_ops = {
        "avg": lambda vs: avg_vector(vs[0]),
        "dot": lambda vs: dot_product(vs[0], vs[1]),
        "merge": lambda vs: merge_sorted(vs[0], vs[1]),
    }
    for name, inputs, kwargs in runs:
        traced = traced_run(name, tuple(Vector(list(v)) for v in inputs), **kwargs)
        try:
            if name == "sum":
                fn = (sum_interval_rl if kwargs["direction"] == RIGHT_TO_LEFT
                      else sum_interval_lr)
                plain = (True, fn(kwargs["low"], kwargs["high"]), None)
            elif name in plain_ops:
                vecs = [Vector(list(v)) for v in inputs]
                plain = (True, plain_ops[name](vecs), None)
            else:
                vec = Vector(list(inputs[0]))
                if name == "insort":
                    insertion_sort_in_place(vec)
                else:
                    insertion_sort_buggy(vec)
                plain = (True, vec, None)
        except (OutOfBoundsError, ValueError) as exc:
            plain = (False, None, exc)
        assert outcome_key(traced.ok, traced.result, traced.error) == outcome_key(*plain)

    assert time.perf_counter() - start < 1.0


@criterion("scale: reverse-sorted 10^4 insertion sort matches the oracle, under 60s")
def test_large_reverse_sorted_input():
    start = time.perf_counter()
    items = list(range(10_000, 0, -1))
    vec = Vector(items)
    insertion_sort_in_place(vec)
    assert vec.to_list() == sort_oracle(items)
    assert time.perf_counter() - start < 60.0
