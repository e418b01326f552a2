"""Sums, average, dot product, merge and insertion sort against independent oracles."""

import random

import pytest

from vecintervals import (
    EmptyVectorError,
    LengthMismatchError,
    OutOfBoundsError,
    Vector,
    avg_vector,
    dot_product,
    insert_step,
    insertion_sort_in_place,
    merge_sorted,
    sum_interval_lr,
    sum_interval_rl,
)
from vecintervals.algorithms import insertion_sort_buggy
from vecintervals.oracles import merge_oracle, naive_dot, naive_sum, sort_oracle


# -- interval sums -------------------------------------------------------

def test_sum_interval_examples():
    for sum_fn in (sum_interval_rl, sum_interval_lr):
        assert sum_fn(10, 1) == 0
        assert sum_fn(10, 10) == 10
        assert sum_fn(-1, 1) == 0
        assert sum_fn(1, 4) == 10  # naive_sum(1, 4)


def test_sum_interval_matches_naive_oracle_randomized():
    rng = random.Random(101)
    for _ in range(1000):
        low = rng.randint(-1000, 1000)
        high = rng.randint(-1000, 1000)
        expected = naive_sum(low, high)
        assert sum_interval_rl(low, high) == expected
        assert sum_interval_lr(low, high) == expected


# -- average -------------------------------------------------------------

def test_avg_examples():
    assert avg_vector(Vector([6, 7, 8, 9])) == pytest.approx(7.5, abs=0.01)
    assert avg_vector(Vector([1, 2, 3])) == pytest.approx(2, abs=0.01)
    assert avg_vector(Vector([10])) == pytest.approx(10, abs=0.01)


def test_avg_of_empty_vector_raises():
    with pytest.raises(EmptyVectorError):
        avg_vector(Vector([]))


def test_avg_matches_plain_mean_randomized():
    rng = random.Random(202)
    for _ in range(300):
        n = rng.randint(1, 100)
        items = [rng.uniform(-1000, 1000) for _ in range(n)]
        assert avg_vector(Vector(items)) == pytest.approx(sum(items) / n, rel=1e-9)


# -- dot product -----------------------------------------------------------

def test_dot_examples():
    assert dot_product(Vector([]), Vector([])) == pytest.approx(0, abs=0.01)
    assert dot_product(Vector([1, 2, 3]), Vector([1, 2, 3])) == pytest.approx(14, abs=0.01)
    assert dot_product(Vector([1, 0]), Vector([0, 1])) == pytest.approx(0, abs=0.01)


def test_dot_length_mismatch_raises():
    with pytest.raises(LengthMismatchError):
        dot_product(Vector([1, 2]), Vector([1, 2, 3]))
    with pytest.raises(LengthMismatchError):
        dot_product(Vector([]), Vector([0]))


def test_dot_matches_naive_oracle_randomized():
    rng = random.Random(303)
    for _ in range(1000):
        n = rng.randint(0, 50)
        a = [rng.randint(-100, 100) for _ in range(n)]
        b = [rng.randint(-100, 100) for _ in range(n)]
        assert dot_product(Vector(a), Vector(b)) == naive_dot(a, b)


def test_dot_properties_randomized():
    rng = random.Random(404)
    for _ in range(200):
        n = rng.randint(0, 20)
        a = [rng.randint(-50, 50) for _ in range(n)]
        b = [rng.randint(-50, 50) for _ in range(n)]
        assert dot_product(Vector(a), Vector(b)) == dot_product(Vector(b), Vector(a))
        assert dot_product(Vector(a), Vector([0] * n)) == 0
        assert dot_product(Vector(a), Vector(a)) >= 0


# -- merge -----------------------------------------------------------------

def test_merge_examples():
    assert merge_sorted(Vector([]), Vector([])).to_list() == []
    assert merge_sorted(Vector([10]), Vector([2])).to_list() == [2, 10]
    assert merge_sorted(
        Vector([1, 4, 6]), Vector([2, 4, 5, 8, 9])
    ).to_list() == [1, 2, 4, 4, 5, 6, 8, 9]


def test_merge_leaves_inputs_untouched():
    a, b = Vector([1, 4, 6]), Vector([2, 4, 5, 8, 9])
    merge_sorted(a, b)
    assert a.to_list() == [1, 4, 6]
    assert b.to_list() == [2, 4, 5, 8, 9]


def test_merge_ties_take_second_vector_first():
    # equal values, distinguishable by numeric type (no coercion on store)
    out = merge_sorted(Vector([4]), Vector([4.0])).to_list()
    assert out == [4, 4]
    assert [type(x) for x in out] == [float, int]


def test_merge_matches_oracle_randomized():
    rng = random.Random(505)
    for _ in range(400):
        n1, n2 = rng.randint(0, 50), rng.randint(0, 50)
        a = sorted(rng.randint(0, 20) for _ in range(n1))  # dense range forces ties
        b = sorted(rng.randint(0, 20) for _ in range(n2))
        assert merge_sorted(Vector(a), Vector(b)).to_list() == merge_oracle(a, b)


def test_merge_result_properties_randomized():
    rng = random.Random(606)
    for _ in range(200):
        a = sorted(rng.randint(-30, 30) for _ in range(rng.randint(0, 40)))
        b = sorted(rng.randint(-30, 30) for _ in range(rng.randint(0, 40)))
        out = merge_sorted(Vector(a), Vector(b)).to_list()
        assert len(out) == len(a) + len(b)
        assert all(out[i] <= out[i + 1] for i in range(len(out) - 1))
        assert sorted(out) == sorted(a + b)


def test_merge_on_unsorted_inputs_terminates_and_keeps_multiset():
    # sortedness of the output is only promised for sorted inputs; the
    # element count and multiset hold regardless
    rng = random.Random(707)
    for _ in range(200):
        a = [rng.randint(-20, 20) for _ in range(rng.randint(0, 30))]
        b = [rng.randint(-20, 20) for _ in range(rng.randint(0, 30))]
        out = merge_sorted(Vector(a), Vector(b)).to_list()
        assert len(out) == len(a) + len(b)
        assert sorted(out) == sorted(a + b)


def test_merge_handles_real_nan_elements():
    # NaN compares false with everything, so the order is unspecified, but
    # every slot is still filled with exactly one input element
    nan = float("nan")
    out = merge_sorted(Vector([nan]), Vector([1.0])).to_list()
    assert len(out) == 2
    assert 1.0 in out and any(x != x for x in out)


# -- insertion sort ----------------------------------------------------------

def test_insert_step_examples():
    vec = Vector([3, 7, 10, 17, 11])
    insert_step(vec, 3, 3)
    assert vec.to_list() == [3, 7, 10, 11, 17]
    vec = Vector([5, 1, 2])
    insert_step(vec, 0, 1)
    assert vec.to_list() == [1, 2, 5]
    vec = Vector([1, 2, 3])
    insert_step(vec, 0, 1)
    assert vec.to_list() == [1, 2, 3], "already-placed element must stop immediately"


def test_insert_step_empty_window_is_a_no_op():
    vec = Vector([2, 1])
    insert_step(vec, 1, 0)
    assert vec.to_list() == [2, 1]


def test_insertion_sort_examples():
    vec = Vector([10])
    insertion_sort_in_place(vec)
    assert vec.to_list() == [10]
    vec = Vector([10, 3, 7, 17, 11])
    insertion_sort_in_place(vec)
    assert vec.to_list() == [3, 7, 10, 11, 17]
    vec = Vector([])
    insertion_sort_in_place(vec)
    assert vec.to_list() == []


def test_insertion_sort_matches_oracle_randomized():
    rng = random.Random(808)
    for _ in range(400):
        items = [rng.randint(-100, 100) for _ in range(rng.randint(0, 100))]
        vec = Vector(items)
        insertion_sort_in_place(vec)
        assert vec.to_list() == sort_oracle(items)


def test_insertion_sort_is_idempotent():
    rng = random.Random(909)
    for _ in range(50):
        items = [rng.randint(-20, 20) for _ in range(rng.randint(0, 30))]
        vec = Vector(items)
        insertion_sort_in_place(vec)
        once = vec.to_list()
        insertion_sort_in_place(vec)
        assert vec.to_list() == once


def test_insertion_sort_never_goes_out_of_bounds():
    rng = random.Random(1010)
    for _ in range(300):
        vec = Vector([rng.randint(-50, 50) for _ in range(rng.randint(0, 60))])
        insertion_sort_in_place(vec)  # any OutOfBoundsError fails the test


# -- the deliberately broken sort -------------------------------------------

def simulate_buggy_walk(items):
    """Independent re-creation of the broken window over a plain list.

    Mirrors the off-by-one variant with explicit bounds checks; returns the
    first illegally probed index, or None when the walk completes.
    """
    xs = list(items)
    n = len(xs)
    for low in range(n - 1, -1, -1):
        i = low
        while i <= n - 1:
            for probe in (i, i + 1):
                if not 0 <= probe < n:
                    return probe
            if xs[i] <= xs[i + 1]:
                break
            xs[i], xs[i + 1] = xs[i + 1], xs[i]
            i += 1
    return None


def test_buggy_sort_fails_on_the_classic_input():
    vec = Vector([10, 3, 7, 17, 11])
    with pytest.raises(OutOfBoundsError) as info:
        insertion_sort_buggy(vec)
    assert info.value.attempted_index >= 5
    assert info.value.vector_length == 5


def test_buggy_sort_leaves_tiny_vectors_alone():
    vec = Vector([10])
    insertion_sort_buggy(vec)
    assert vec.to_list() == [10]
    vec = Vector([])
    insertion_sort_buggy(vec)
    assert vec.to_list() == []


def test_buggy_sort_fails_on_every_permutation_up_to_length_five():
    import itertools

    for n in range(2, 6):
        for perm in itertools.permutations(range(n)):
            expected_probe = simulate_buggy_walk(perm)
            assert expected_probe is not None, "simulation says this input should fail"
            with pytest.raises(OutOfBoundsError) as info:
                insertion_sort_buggy(Vector(perm))
            assert info.value.attempted_index == expected_probe
            assert info.value.attempted_index >= n
            assert info.value.vector_length == n


def test_corrected_sort_succeeds_where_buggy_fails():
    items = [10, 3, 7, 17, 11]
    with pytest.raises(OutOfBoundsError):
        insertion_sort_buggy(Vector(items))
    vec = Vector(items)
    insertion_sort_in_place(vec)
    assert vec.to_list() == sort_oracle(items)
