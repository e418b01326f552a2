"""The peak memory an unobserved ``insertion_sort_in_place`` allocates, by ``tracemalloc``.

Each insertion moves its element inside the list's own buffer, so the sort
should allocate nothing; a copy of the run an element passed would hold up
to 2000 pointers (16 KB) on ``INPUTS``.  ``BOUND`` leaves room for the
interpreter's own small allocations.

Standard library only, so ``tests/test_algorithms.py`` and
``tools/replay.py`` both run it, the latter on interpreters without pytest.
"""

from __future__ import annotations

import random
import tracemalloc

from vecintervals import Vector, insertion_sort_in_place

# the sort fails the probe when its peak reaches this many bytes
BOUND = 1024

INPUTS = {
    "reversed": list(range(2000, 0, -1)),
    "random": random.Random(1111).sample(range(2000), 2000),
    "few-valued": random.Random(1212).choices(range(4), k=2000),
}


def sort_peak(items: list) -> tuple[list, int]:
    """``items`` sorted by an unobserved ``Vector``, and the peak bytes traced during the sort."""
    vec = Vector(items)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        insertion_sort_in_place(vec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return vec.to_list(), peak - before
