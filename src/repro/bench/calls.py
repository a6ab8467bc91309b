"""Exact Python call counts: the work measure next to every timing.

A timing on a shared host moves with the host's load; the number of
Python-level calls a workload makes does not.  :func:`call_counts`
runs a thunk under :func:`sys.setprofile` and counts the ``call``
events (Python functions) and ``c_call`` events (built-ins and C
methods).  The counts are exact and repeat run after run, but only for
one interpreter version, so the result carries it.
"""

from __future__ import annotations

import platform
import sys
from typing import Callable, Dict


def call_counts(thunk: Callable[[], object]) -> Dict[str, object]:
    """Run ``thunk()`` once under a call-counting profiler.

    Returns ``{"calls", "c_calls", "total", "python", "result"}``:
    the Python and C call events the thunk made (its own frame
    included), their sum, the interpreter version the counts hold for,
    and what the thunk returned.  Warm the thunk first when one-time
    work (decoding, memoized tables) should not count."""
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = thunk()
    finally:
        sys.setprofile(previous)
    return {"calls": counts["call"], "c_calls": counts["c_call"],
            "total": counts["call"] + counts["c_call"],
            "python": platform.python_version(), "result": result}
