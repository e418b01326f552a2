"""Plain-list twins: the library's algorithms, step for step, on bare lists.

Each twin performs the same element operations in the same order as the
library function it mirrors, but indexes a Python list directly, with no
bounds checks, observer tests or fold combinators.  Time(library) divided by
time(twin) is the safety tax.  Because the arithmetic happens in the same
order, a twin's output must equal the library's exactly; the benchmark
rejects the ratio otherwise.
"""

from __future__ import annotations


def insort(xs: list) -> list:
    """``insertion_sort_in_place``: suffix-first insertion by adjacent swaps."""
    n = len(xs)
    for low in range(n - 1, -1, -1):
        i = low
        while i <= n - 2:
            if xs[i] <= xs[i + 1]:
                break
            xs[i], xs[i + 1] = xs[i + 1], xs[i]
            i += 1
    return xs


def merge(a: list, b: list) -> list:
    """``merge_sorted``: two-pointer merge; on equal heads ``b`` goes first."""
    n1, n2 = len(a), len(b)
    out = [None] * (n1 + n2)
    i = j = k = 0
    while i < n1 or j < n2:
        if i >= n1:
            out[k] = b[j]
            j += 1
        elif j >= n2:
            out[k] = a[i]
            i += 1
        elif a[i] < b[j]:
            out[k] = a[i]
            i += 1
        else:
            out[k] = b[j]
            j += 1
        k += 1
    return out


def dot(a: list, b: list):
    """``dot_product``: products accumulated from the highest index down."""
    acc = 0
    for i in range(len(a) - 1, -1, -1):
        acc = a[i] * b[i] + acc
    return acc


def avg(xs: list):
    """``avg_vector``: elements accumulated from index 0 up, then divided."""
    acc = 0
    for i in range(len(xs)):
        acc = xs[i] + acc
    return acc / len(xs)


def sum_rl(low: int, high: int) -> int:
    """``sum_interval_rl``: ``fold_rl`` completes its combines from ``low`` upward."""
    acc = 0
    for i in range(low, high + 1):
        acc = i + acc
    return acc


def sum_lr(low: int, high: int) -> int:
    """``sum_interval_lr``: ``fold_lr`` completes its combines from ``high`` downward."""
    acc = 0
    for i in range(high, low - 1, -1):
        acc = i + acc
    return acc


def vfold_rl(xs: list, low: int, high: int, combine, base):
    """``vfold_rl`` over ``[low..high]`` with the same combine, low index first."""
    acc = base
    for i in range(low, high + 1):
        acc = combine(xs[i], i, acc)
    return acc


def vfold_lr(xs: list, low: int, high: int, combine, base):
    """``vfold_lr`` over ``[low..high]`` with the same combine, high index first."""
    acc = base
    for i in range(high, low - 1, -1):
        acc = combine(xs[i], i, acc)
    return acc
