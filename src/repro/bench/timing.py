"""Steps/sec timing for interpreter benchmarks.

The dispatch benchmarks compare execution engines, so the quantity of
interest is *interpreted steps per second* — wall-clock alone would
conflate engine speed with workload size.  :func:`measure` runs
thunks that return a step count, taking turns, keeps the best of
``repeat`` runs of each (interpreter benchmarks are minimum-latency
measurements: anything above the minimum is scheduler/GC noise, not
engine cost) and returns a :class:`Timing` per thunk with both raw
and derived numbers.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Tuple


class Timing:
    """One measurement: steps, best wall-clock seconds, steps/sec."""

    __slots__ = ("steps", "seconds", "runs")

    def __init__(self, steps: int, seconds: float, runs: int):
        self.steps = steps
        self.seconds = seconds
        self.runs = runs

    @property
    def steps_per_sec(self) -> float:
        return self.steps / self.seconds if self.seconds else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "steps": self.steps,
            "seconds": self.seconds,
            "steps_per_sec": round(self.steps_per_sec, 1),
            "runs": self.runs,
        }

    def __repr__(self) -> str:
        return (f"<Timing {self.steps} steps in {self.seconds:.4f}s "
                f"= {self.steps_per_sec:,.0f}/s>")


def measure(thunks: Dict[str, Callable[[], int]],
            repeat: int = 3) -> Dict[str, Timing]:
    """Best-of-``repeat`` timing of each named thunk, which must
    return the number of interpreter steps it executed.

    The thunks take turns, one run of each per round, so a burst of
    host contention lands on all of them rather than on whichever one
    happened to be timing then.  Every run of a thunk must report the
    same step count — a differing count means the workload is not
    deterministic and the comparison would be meaningless, so it
    raises instead of averaging it away.
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    best: Dict[str, Tuple[int, float]] = {}
    for _ in range(repeat):
        for name, thunk in thunks.items():
            t0 = time.perf_counter()
            steps = thunk()
            elapsed = time.perf_counter() - t0
            earlier = best.get(name)
            if earlier is not None and steps != earlier[0]:
                raise RuntimeError(
                    f"non-deterministic workload {name}: {steps} "
                    f"steps vs {earlier[0]} on an earlier run")
            if earlier is None or elapsed < earlier[1]:
                best[name] = (steps, elapsed)
    return {name: Timing(steps, seconds, repeat)
            for name, (steps, seconds) in best.items()}


def speedup(base: Timing, fast: Timing) -> float:
    """How many times more steps/sec ``fast`` does than ``base``."""
    if not base.steps_per_sec:
        return 0.0
    return fast.steps_per_sec / base.steps_per_sec
