"""Checked vector access, interval validation and the vector folds."""

import copy
import pickle
import random

import pytest

from vecintervals import (
    Interval,
    IntervalConstraintError,
    OutOfBoundsError,
    Step,
    Vector,
    VectorInterval,
    VectorMismatchError,
    vfold_lr,
    vfold_rl,
)


def oob_fields(exc):
    return (exc.attempted_index, exc.vector_length, exc.operation_name)


def test_vector_basics():
    vec = Vector([6, 7, 8, 9])
    assert len(vec) == 4
    assert vec.to_list() == [6, 7, 8, 9]
    assert vec == Vector([6, 7, 8, 9])
    assert vec != Vector([6, 7, 8])
    assert len(Vector([])) == 0


def test_repr_shows_the_elements():
    assert repr(Vector([1, 2.5])) == "Vector([1, 2.5])"


def test_a_vector_never_equals_a_plain_list():
    assert Vector([1]) != [1]
    assert Vector([1]).__eq__([1]) is NotImplemented


def test_label_defaults_to_v():
    assert Vector([1]).label == "v"


def test_to_list_returns_a_copy():
    vec = Vector([1, 2])
    out = vec.to_list()
    out[0] = 99
    assert vec.get(0) == 1


def test_get_examples():
    vec = Vector([6, 7, 8, 9])
    assert vec.get(3) == 9
    with pytest.raises(OutOfBoundsError) as info:
        vec.get(4)
    assert oob_fields(info.value) == (4, 4, "get")
    with pytest.raises(OutOfBoundsError) as info:
        Vector([10]).get(-1)
    assert oob_fields(info.value) == (-1, 1, "get")


def test_set_examples():
    vec = Vector([6, 7, 8, 9])
    vec.set(0, 5)
    assert vec.to_list() == [5, 7, 8, 9]
    with pytest.raises(OutOfBoundsError) as info:
        vec.set(4, 0)
    assert oob_fields(info.value) == (4, 4, "set")
    with pytest.raises(OutOfBoundsError) as info:
        Vector([]).set(0, 1)
    assert oob_fields(info.value) == (0, 0, "set")


def test_swap_examples():
    vec = Vector([10, 3])
    vec.swap(0, 1)
    assert vec.to_list() == [3, 10]
    vec.swap(1, 1)
    assert vec.to_list() == [3, 10]
    single = Vector([10])
    with pytest.raises(OutOfBoundsError) as info:
        single.swap(0, 1)
    assert oob_fields(info.value) == (1, 1, "swap")
    assert single.to_list() == [10], "failed swap must not modify the vector"


def test_oob_message_names_operation_index_and_length():
    with pytest.raises(OutOfBoundsError) as info:
        Vector([1, 2, 3]).get(7)
    message = str(info.value)
    assert "get" in message and "7" in message and "3" in message


def test_get_set_round_trip_randomized():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(1, 30)
        vec = Vector([rng.randint(-50, 50) for _ in range(n)])
        before = vec.to_list()
        i = rng.randrange(n)
        x = rng.randint(-50, 50)
        vec.set(i, x)
        assert vec.get(i) == x
        expected = before[:i] + [x] + before[i + 1:]
        assert vec.to_list() == expected


def test_swap_is_an_involution_randomized():
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(1, 30)
        vec = Vector([rng.randint(-50, 50) for _ in range(n)])
        before = vec.to_list()
        i, j = rng.randrange(n), rng.randrange(n)
        vec.swap(i, j)
        vec.swap(i, j)
        assert vec.to_list() == before


def accepts(vec_len, low, high):
    """Independent statement of the validation rule, for exhaustive checks."""
    return low >= 0 and low <= vec_len and -1 <= high <= vec_len - 1


def test_vector_interval_examples():
    iv = VectorInterval(0, 3, 4)
    assert (iv.low, iv.high, iv.vec_len) == (0, 3, 4)
    assert not iv.is_empty()
    empty = VectorInterval(0, -1, 4)
    assert empty.is_empty()
    with pytest.raises(IntervalConstraintError) as info:
        VectorInterval(0, 3, 3)
    assert "high" in str(info.value)
    with pytest.raises(IntervalConstraintError) as info:
        VectorInterval(-1, 2, 3)
    assert "low" in str(info.value)


def test_vector_interval_constructor_exhaustive():
    for vec_len in range(0, 5):
        for low in range(-3, vec_len + 4):
            for high in range(-3, vec_len + 4):
                if accepts(vec_len, low, high):
                    iv = VectorInterval(low, high, vec_len)
                    if not iv.is_empty():
                        assert 0 <= iv.low and iv.high <= vec_len - 1
                else:
                    with pytest.raises(IntervalConstraintError):
                        VectorInterval(low, high, vec_len)


@pytest.mark.parametrize("low, high", [(0, float("nan")), (float("nan"), 0), (0.5, 1.5),
                                       (None, 1), (0, None), ("0", 1)])
def test_vector_interval_rejects_bounds_that_are_not_integers(low, high):
    # NaN compares false with everything, so it fails no test of the form `low < 0`
    with pytest.raises(IntervalConstraintError) as info:
        VectorInterval(low, high, 3)
    assert ("low" if low != 0 else "high") in str(info.value)


def test_vector_interval_accepts_any_integer_type():
    np = pytest.importorskip("numpy")
    iv = VectorInterval(np.int64(0), np.int64(2), 3)
    assert list(range(iv.low, iv.high + 1)) == [0, 1, 2]
    assert VectorInterval(True, False, 3).is_empty()


def test_validated_interval_admits_interval_operations():
    iv = VectorInterval(0, 3, 4)
    assert iv.length() == 4
    assert 2 in iv
    assert iv.split_high() == Step(3, Interval(0, 2))
    assert iv.split_low() == Step(0, Interval(1, 3))


def test_vector_interval_is_immutable():
    iv = VectorInterval(0, 1, 2)
    with pytest.raises(AttributeError):
        iv.vec_len = 5
    for name in ("low", "high", "vec_len"):
        with pytest.raises(AttributeError):
            setattr(iv, name, 1)
        with pytest.raises(AttributeError):
            delattr(iv, name)
    assert (iv.low, iv.high, iv.vec_len) == (0, 1, 2)


def test_vector_interval_takes_its_fields_by_keyword_and_validates_them():
    assert VectorInterval(vec_len=3, high=2, low=0) == VectorInterval(0, 2, 3)
    with pytest.raises(IntervalConstraintError, match=r"^high bound 3 is not an index in -1..2$"):
        VectorInterval(low=0, high=3, vec_len=3)


def test_vector_interval_checks_low_before_high():
    with pytest.raises(IntervalConstraintError, match=r"^low bound -1 is not an index in 0..3$"):
        VectorInterval(-1, 9, 3)


def test_vector_interval_repr():
    assert repr(VectorInterval(0, 2, 3)) == "VectorInterval(low=0, high=2, vec_len=3)"
    assert repr(Vector([]).full_interval()) == "VectorInterval(low=0, high=-1, vec_len=0)"


def test_vector_interval_equals_only_vector_intervals():
    iv = VectorInterval(1, 2, 3)
    assert iv == VectorInterval(1, 2, 3) and hash(iv) == hash(VectorInterval(1, 2, 3))
    assert isinstance(iv, Interval)
    for other in (Interval(1, 2), VectorInterval(1, 2, 4), (1, 2, 3)):
        assert iv != other and other != iv


def test_vector_interval_matches_by_position():
    match VectorInterval(1, 2, 3):
        case VectorInterval(lo, hi, n):
            assert (lo, hi, n) == (1, 2, 3)
        case _:
            pytest.fail("VectorInterval did not match its positional pattern")


@pytest.mark.parametrize("iv", [VectorInterval(1, 2, 3), VectorInterval(0, -1, 0)], ids=repr)
def test_vector_interval_survives_copy_deepcopy_and_pickle(iv):
    pickled = [pickle.loads(pickle.dumps(iv, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in [copy.copy(iv), copy.deepcopy(iv), *pickled]:
        assert type(twin) is VectorInterval and twin == iv


def test_labelled_vector_survives_copy_deepcopy_and_pickle_at_every_protocol():
    vec = Vector([2, 1.5, -3], label="a")
    pickled = [pickle.loads(pickle.dumps(vec, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    shallow, deep = copy.copy(vec), copy.deepcopy(vec)
    for twin in [shallow, deep, *pickled]:
        assert type(twin) is Vector and twin == vec
        assert (twin.label, twin.observer) == ("a", None)
    # a shallow copy shares the element list
    assert shallow._items is vec._items and deep._items is not vec._items


def test_full_interval_examples():
    assert Vector([6, 7, 8, 9]).full_interval() == VectorInterval(0, 3, 4)
    assert Vector([]).full_interval() == VectorInterval(0, -1, 0)
    assert Vector([10]).full_interval() == VectorInterval(0, 0, 1)
    assert Vector([]).full_interval().is_empty()


def test_vfold_examples():
    add = lambda elem, i, acc: elem + acc
    vec = Vector([6, 7, 8, 9])
    assert vfold_rl(vec, vec.full_interval(), 0, add) == 30
    assert vfold_rl(vec, VectorInterval(2, 1, 4), 0, add) == 0
    assert vfold_rl(Vector([10]), Vector([10]).full_interval(), 0, add) == 10
    v123 = Vector([1, 2, 3])
    assert vfold_lr(v123, v123.full_interval(), 0, add) == 6
    empty = Vector([])
    assert vfold_lr(empty, empty.full_interval(), 0, add) == 0
    assert vfold_lr(Vector([2]), Vector([2]).full_interval(), 0, add) == 2


def test_vfold_rejects_interval_validated_for_another_length():
    vec3 = Vector([1, 2, 3])
    iv4 = Vector([1, 2, 3, 4]).full_interval()
    for fold in (vfold_rl, vfold_lr):
        with pytest.raises(VectorMismatchError):
            fold(vec3, iv4, 0, lambda e, i, acc: acc)


def test_vfold_rejects_unvalidated_plain_interval():
    vec = Vector([1, 2, 3])
    with pytest.raises(TypeError):
        vfold_rl(vec, Interval(0, 2), 0, lambda e, i, acc: acc)


def test_vfold_visits_each_element_once_in_order():
    vec = Vector([5, 6, 7, 8])
    iv = VectorInterval(1, 3, 4)
    rl_seen, lr_seen = [], []
    vfold_rl(vec, iv, None, lambda e, i, acc: rl_seen.append((i, e)))
    vfold_lr(vec, iv, None, lambda e, i, acc: lr_seen.append((i, e)))
    assert rl_seen == [(1, 6), (2, 7), (3, 8)]
    assert lr_seen == [(3, 8), (2, 7), (1, 6)]


def test_vfold_passes_matching_element_for_each_index():
    rng = random.Random(5150)
    for _ in range(100):
        n = rng.randint(0, 20)
        items = [rng.randint(-99, 99) for _ in range(n)]
        vec = Vector(items)
        low = rng.randint(0, n) if n else 0
        high = rng.randint(low - 1, n - 1)
        iv = VectorInterval(low, high, n)
        for fold in (vfold_rl, vfold_lr):
            pairs = []
            fold(vec, iv, None, lambda e, i, acc: pairs.append((i, e)))
            assert all(items[i] == e for i, e in pairs)
            assert sorted(i for i, _ in pairs) == list(range(low, high + 1))


def test_instrumented_vfolds_never_leave_interval_or_vector_bounds():
    # every index handed to combine must lie inside both the requested
    # interval and the vector's own index range
    rng = random.Random(90210)
    violations = 0
    for _ in range(2000):
        n = rng.randint(0, 30)
        vec = Vector([rng.randint(-100, 100) for _ in range(n)])
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
