"""The naive reference implementations themselves."""

import pytest

from oracles import merge_oracle, naive_dot, naive_sum, sort_oracle


def test_naive_sum():
    assert naive_sum(1, 4) == 10
    assert naive_sum(10, 1) == 0
    assert naive_sum(-1, 1) == 0
    assert naive_sum(5, 5) == 5


def test_naive_dot():
    assert naive_dot([], []) == 0
    assert naive_dot([1, 2, 3], [1, 2, 3]) == 14
    assert naive_dot([2], [3]) == 6
    with pytest.raises(ValueError):
        naive_dot([1], [1, 2])


def test_sort_oracle():
    assert sort_oracle([]) == []
    assert sort_oracle([10, 3, 7, 17, 11]) == [3, 7, 10, 11, 17]
    assert sort_oracle([1, 1, 0]) == [0, 1, 1]


def test_sort_oracle_does_not_mutate_its_input():
    items = [3, 1, 2]
    sort_oracle(items)
    assert items == [3, 1, 2]


def test_merge_oracle():
    assert merge_oracle([], []) == []
    assert merge_oracle([10], [2]) == [2, 10]
    assert merge_oracle([1, 4, 6], [2, 4, 5, 8, 9]) == [1, 2, 4, 4, 5, 6, 8, 9]
