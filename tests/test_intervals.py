"""Interval construction, emptiness, the two decompositions and the folds."""

import copy
import pickle
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import vecintervals.intervals
from vecintervals import (
    Interval,
    Step,
    Vector,
    VectorInterval,
    fold_lr,
    fold_rl,
    sum_interval_rl,
    vfold_lr,
    vfold_rl,
)

bounds = st.integers(min_value=-50, max_value=50)


def test_interval_fields():
    iv = Interval(3, 4)
    assert iv.low == 3 and iv.high == 4


def test_is_empty_examples():
    assert Interval(3, 4).is_empty() is False
    assert Interval(30, 30).is_empty() is False
    assert Interval(5, 4).is_empty() is True


def test_empty_interval_is_a_value_not_an_error():
    iv = Interval(10, 1)
    assert iv.is_empty()
    assert iv.low == 10 and iv.high == 1


def test_length_examples():
    # expected counts by enumeration: len(range(low, high + 1))
    assert Interval(3, 4).length() == 2
    assert Interval(30, 30).length() == 1
    assert Interval(5, 4).length() == 0
    assert Interval(-1, 1).length() == 3


@given(bounds, bounds)
def test_length_matches_enumeration(low, high):
    assert Interval(low, high).length() == len(range(low, high + 1))


def test_contains_examples():
    assert Interval(3, 7).contains(3)
    assert Interval(3, 7).contains(7)
    assert not Interval(3, 7).contains(8)
    assert not Interval(5, 4).contains(5)
    assert 0 in Interval(-1, 1)
    assert 2 not in Interval(-1, 1)


def test_split_high_examples():
    assert Interval(3, 4).split_high() == Step(4, Interval(3, 3))
    assert Interval(30, 30).split_high() == Step(30, Interval(30, 29))
    assert Interval(5, 4).split_high() is None


def test_split_low_examples():
    assert Interval(3, 4).split_low() == Step(3, Interval(4, 4))
    assert Interval(30, 30).split_low() == Step(30, Interval(31, 30))
    assert Interval(5, 4).split_low() is None


@given(bounds, bounds)
def test_split_laws(low, high):
    iv = Interval(low, high)
    for split in (Interval.split_high, Interval.split_low):
        step = split(iv)
        if iv.is_empty():
            assert step is None
        else:
            assert step.index in iv
            assert step.index not in step.rest
            assert step.rest.length() == iv.length() - 1


@given(bounds, bounds)
def test_repeated_peeling_visits_each_index_once(low, high):
    iv = Interval(low, high)
    seen = []
    while not iv.is_empty():
        step = iv.split_high()
        seen.append(step.index)
        iv = step.rest
    assert seen == list(range(high, low - 1, -1))


def test_interval_is_immutable_and_hashable():
    for value, names in ((Interval(1, 2), ("low", "high")),
                         (Step(2, Interval(1, 1)), ("index", "rest"))):
        for name in names:
            before = getattr(value, name)
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name) == before
        with pytest.raises(AttributeError):
            value.other = 0
    assert len({Interval(1, 2), Interval(1, 2), Interval(2, 1)}) == 2


# -- value semantics: Interval and Step are immutable values --------------------------

def test_interval_and_step_take_their_fields_by_keyword():
    iv = Interval(high=2, low=1)
    assert (iv.low, iv.high) == (1, 2)
    step = Step(rest=iv, index=3)
    assert (step.index, step.rest) == (3, iv)


def test_interval_and_step_reprs():
    assert repr(Interval(1, 2)) == "Interval(low=1, high=2)"
    assert repr(Interval(0, -1)) == "Interval(low=0, high=-1)"
    assert repr(Interval(3, 4).split_high()) == "Step(index=4, rest=Interval(low=3, high=3))"


@pytest.mark.parametrize("value, twin, unequal", [
    (Interval(1, 2), Interval(1, 2), [Interval(1, 3), Interval(0, 2), (1, 2), [1, 2], None]),
    (Step(2, Interval(1, 1)), Step(2, Interval(1, 1)),
     [Step(2, Interval(1, 2)), Step(1, Interval(1, 1)), (2, Interval(1, 1)), Interval(1, 1)]),
])
def test_interval_and_step_compare_and_hash_by_value_within_their_class(value, twin, unequal):
    assert value == twin and twin == value and value is not twin
    assert hash(value) == hash(twin)
    for other in unequal:
        assert value != other and other != value


def test_an_interval_never_equals_an_instance_of_a_subclass():
    class Sub(Interval):
        __slots__ = ()

    assert Interval(1, 2) != Sub(1, 2) and Sub(1, 2) != Interval(1, 2)
    assert Sub(1, 2) == Sub(1, 2)


def test_interval_and_step_match_by_position():
    match Interval(3, 5):
        case Interval(lo, hi):
            assert (lo, hi) == (3, 5)
        case _:
            pytest.fail("Interval did not match its positional pattern")
    match Interval(3, 5).split_low():
        case Step(i, Interval(lo, hi)):
            assert (i, lo, hi) == (3, 4, 5)
        case _:
            pytest.fail("Step did not match its positional pattern")


@pytest.mark.parametrize("value", [Interval(1, 2), Interval(5, 4), Step(2, Interval(1, 1))],
                         ids=repr)
def test_interval_and_step_survive_copy_deepcopy_and_pickle(value):
    pickled = [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in [copy.copy(value), copy.deepcopy(value), *pickled]:
        assert type(twin) is type(value) and twin == value


def test_fold_sum_examples():
    add = lambda i, acc: i + acc
    assert fold_rl(Interval(10, 1), 0, add) == 0
    assert fold_rl(Interval(10, 10), 0, add) == 10
    assert fold_rl(Interval(-1, 1), 0, add) == 0
    assert fold_lr(Interval(10, 1), 0, add) == 0
    assert fold_lr(Interval(10, 10), 0, add) == 10
    assert fold_lr(Interval(-1, 1), 0, add) == 0


def test_fold_empty_returns_base_unchanged():
    base = object()
    assert fold_rl(Interval(5, 4), base, lambda i, acc: acc) is base
    assert fold_lr(Interval(5, 4), base, lambda i, acc: acc) is base


@given(bounds, bounds)
def test_fold_rl_satisfies_its_recursion(low, high):
    # fold_rl(iv, b, f) == f(high, fold_rl(rest, b, f)) on non-empty iv
    pair = lambda i, acc: (i, acc)
    iv = Interval(low, high)
    if iv.is_empty():
        assert fold_rl(iv, "base", pair) == "base"
    else:
        rest = iv.split_high().rest
        assert fold_rl(iv, "base", pair) == (iv.high, fold_rl(rest, "base", pair))


@given(bounds, bounds)
def test_fold_lr_satisfies_its_recursion(low, high):
    pair = lambda i, acc: (i, acc)
    iv = Interval(low, high)
    if iv.is_empty():
        assert fold_lr(iv, "base", pair) == "base"
    else:
        rest = iv.split_low().rest
        assert fold_lr(iv, "base", pair) == (iv.low, fold_lr(rest, "base", pair))


# a vector folds like its interval: the rest of a peel is validated against the same
# vector, so a recursion written by the paper's recipe needs no second check
@pytest.mark.parametrize("vfold, peel", [(vfold_rl, VectorInterval.split_high),
                                         (vfold_lr, VectorInterval.split_low)])
@given(elements=st.lists(st.integers(), max_size=8), data=st.data())
def test_vector_folds_satisfy_their_recursion(vfold, peel, elements, data):
    # vfold(v, iv, b, f) == f(v[i], i, vfold(v, rest, b, f)) with i, rest = peel(iv)
    triple = lambda elem, i, acc: (elem, i, acc)
    low = data.draw(st.integers(0, len(elements)))
    iv = VectorInterval(low, data.draw(st.integers(low - 1, len(elements) - 1)), len(elements))
    vec = Vector(elements)
    if iv.is_empty():
        assert vfold(vec, iv, "base", triple) == "base"
    else:
        step = peel(iv)
        i, rest = step.index, step.rest
        assert vfold(vec, iv, "base", triple) == (elements[i], i, vfold(vec, rest, "base", triple))


def test_combine_invocation_orders_are_exact_reverses():
    # rl nests down to low, so its combine calls complete from low upward;
    # lr is the mirror image.
    low, high = -2, 3
    rl_calls, lr_calls = [], []
    fold_rl(Interval(low, high), None, lambda i, acc: rl_calls.append(i))
    fold_lr(Interval(low, high), None, lambda i, acc: lr_calls.append(i))
    assert rl_calls == list(range(low, high + 1))
    assert lr_calls == list(range(high, low - 1, -1))
    assert rl_calls == lr_calls[::-1]


@given(bounds, bounds)
def test_each_index_combined_exactly_once(low, high):
    iv = Interval(low, high)
    for fold in (fold_rl, fold_lr):
        calls = []
        fold(iv, None, lambda i, acc: calls.append(i))
        assert sorted(calls) == list(range(low, high + 1))
        assert len(calls) == iv.length()


@given(bounds, bounds)
def test_directions_agree_for_commutative_combine(low, high):
    add = lambda i, acc: i + acc
    assert fold_rl(Interval(low, high), 0, add) == fold_lr(Interval(low, high), 0, add)


def test_fold_sum_matches_closed_form_randomized():
    rng = random.Random(0xA11CE)
    add = lambda i, acc: i + acc
    for _ in range(1000):
        low = rng.randint(-1000, 1000)
        high = rng.randint(-1000, 1000)
        expected = 0 if low > high else (low + high) * (high - low + 1) // 2
        assert fold_rl(Interval(low, high), 0, add) == expected
        assert fold_lr(Interval(low, high), 0, add) == expected


def test_folds_handle_million_element_interval_without_recursion():
    # must not depend on the interpreter call stack
    limit = sys.getrecursionlimit()
    n = 10**6
    count = fold_rl(Interval(1, n), 0, lambda i, acc: acc + 1)
    assert count == n
    count = fold_lr(Interval(1, n), 0, lambda i, acc: acc + 1)
    assert count == n
    assert sys.getrecursionlimit() == limit


def test_unobserved_walks_build_no_interval(monkeypatch):
    # only an observer is told about the intervals of a walk, so a walk nobody
    # observes must not pay for building them
    iv = Interval(0, 9)
    vec = Vector(range(10))
    viv = vec.full_interval()

    def no_interval(*args):
        raise AssertionError(f"Interval{args} built by an unobserved walk")

    monkeypatch.setattr(vecintervals.intervals, "Interval", no_interval)
    add = lambda i, acc: i + acc
    vadd = lambda elem, i, acc: elem + acc
    assert fold_rl(iv, 0, add) == 45
    assert fold_lr(iv, 0, add) == 45
    assert vfold_rl(vec, viv, 0, vadd) == 45
    assert vfold_lr(vec, viv, 0, vadd) == 45
    assert sum_interval_rl(0, 9) == 45
