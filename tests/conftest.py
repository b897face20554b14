"""Shared fixtures for the test suite.

The execution helpers live in :mod:`repro.testing` so test modules can import
them absolutely (``from repro.testing import execute``) instead of relying on
relative imports into this conftest, which break under rootdir-based
collection.
"""

from __future__ import annotations

import builtins
import functools
import math
import operator

import numpy as np
import pytest

from repro.testing import execute, execute_values


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def run_output():
    return execute


@pytest.fixture
def run_values():
    return execute_values


def _compensated_sum(iterable, /, start=0):
    """CPython >= 3.12's built-in ``sum``: Neumaier-compensated exact floats.

    Ints run exactly until the first non-int; exact floats (not subclasses
    such as ``numpy.float64``) then accumulate with a running compensation,
    ints that fit a C long add uncompensated, and anything else falls back
    to plain ``+`` after folding the compensation in.
    """
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            result = result + item
            if type(item) not in (int, bool):
                break
        else:
            return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
            elif isinstance(item, int) and -2**63 <= item < 2**63:
                total += float(item)
            else:
                if compensation and math.isfinite(compensation):
                    total += compensation
                result = total + item
                break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


#: the built-in float ``sum()`` of CPython <= 3.11 and of CPython >= 3.12
BUILTIN_SUMS = {
    "left-fold": lambda iterable, /, start=0: functools.reduce(
        operator.add, iterable, start),
    "compensated": _compensated_sum,
}


@pytest.fixture(params=sorted(BUILTIN_SUMS))
def builtin_sum(request, monkeypatch):
    """Runs the test under each interpreter generation's built-in ``sum``.

    The process-wide step memo is emptied on both sides, so every step cost
    the test needs is simulated under the patched built-in and none leaks
    into later tests.
    """
    from repro.serve.scheduler import clear_step_cache

    clear_step_cache()
    monkeypatch.setattr(builtins, "sum", BUILTIN_SUMS[request.param])
    yield request.param
    monkeypatch.undo()
    clear_step_cache()
