"""One float-summation semantics on every interpreter.

From CPython 3.12 on, the built-in ``sum()`` compensates float additions
(Neumaier summation), so the same floats can sum to different last bits on
3.11 and on 3.12.  Reports, digests, cost-model fits and the event engine
are pinned bit-exact, so every float reduction that reaches them goes through
:func:`left_sum`: a plain left fold, which is what ``sum()`` computes up to
3.11, on every interpreter.  Pure-integer sums are exact in any order and
keep the built-in.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable


def left_sum(values: Iterable):
    """``0 + v0 + v1 + ...``, added left to right without compensation."""
    return functools.reduce(operator.add, values, 0)
