"""repro.bench — experiment harness regenerating the paper's tables
and figures.

Each benchmark in ``benchmarks/`` drives one artifact of the
evaluation section through :class:`~repro.bench.harness.Report`,
which renders the same rows/series the paper reports and records
paper-vs-measured values for EXPERIMENTS.md.
"""

from repro.bench.harness import (Report, band_check,
                                 capture_trace, format_table, publish)
from repro.bench.timing import Timing, measure, speedup

__all__ = ["Report", "band_check", "capture_trace", "format_table",
           "publish", "Timing", "measure", "speedup"]
