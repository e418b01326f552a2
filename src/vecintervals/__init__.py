"""Bounds-safe vector processing driven by validated index intervals.

The core idea: instead of scattering index arithmetic through loops, describe
the indices to touch as a closed integer interval, validate it against the
vector's length once, and let fold combinators do the walking.  A validated
non-empty interval can only name valid indices, so the element accesses it
drives cannot go out of bounds; everything else goes through checked accessors
that fail with a precise diagnostic instead of reading garbage.

Each module names its public surface in its own ``__all__``, and the package
exports their union.  ``insertion_sort_buggy`` (an out-of-bounds exhibit),
``algorithms.OPERATIONS`` and ``trace.NO_DIRECTION`` stay out of it on
purpose; import them by name from their modules.
"""

from . import algorithms, intervals, trace, vectors
from .algorithms import *
from .intervals import *
from .trace import *
from .vectors import *

__version__ = "0.1.0"

__all__ = sorted(algorithms.__all__ + intervals.__all__ + trace.__all__ + vectors.__all__)
