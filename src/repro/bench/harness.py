"""Reporting utilities for the benchmark suite."""

from __future__ import annotations

import os
from typing import Iterable, List, Optional, Sequence, Tuple


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Plain-text table with right-aligned numeric columns."""
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.rjust(widths[i]) if
                               _numeric(cell) else cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell >= 1000:
            return f"{cell:,.0f}"
        return f"{cell:.2f}"
    return str(cell)


def _numeric(cell: str) -> bool:
    return bool(cell) and (cell[0].isdigit() or cell[0] in "+-.")


def band_check(name: str, value: float,
               band: Tuple[float, float]) -> str:
    lo, hi = band
    ok = lo <= value <= hi
    mark = "OK " if ok else "OUT"
    return f"[{mark}] {name}: measured {value:.2f}, paper {lo}-{hi}"


class Report:
    """Collects the lines of one regenerated table/figure and writes
    them to ``benchmarks/results/<name>.txt`` (and stdout)."""

    def __init__(self, name: str, title: str):
        self.name = name
        self.title = title
        self.lines: List[str] = [f"== {title} ==", ""]

    def add(self, text: str = "") -> None:
        self.lines.append(text)

    def table(self, headers, rows) -> None:
        self.lines.append(format_table(headers, rows))

    def band(self, name: str, value: float, band) -> bool:
        line = band_check(name, value, band)
        self.lines.append(line)
        return line.startswith("[OK")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def write(self, directory: Optional[str] = None) -> str:
        directory = directory or os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.dirname(os.path.abspath(__file__))))),
            "benchmarks", "results")
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.name}.txt")
        with open(path, "w") as handle:
            handle.write(self.text())
        print(self.text())
        return path


def publish(report: Report) -> None:
    """Print the report; a full run also rewrites the committed
    ``benchmarks/results`` copy, which smoke-sized numbers
    (``REPRO_BENCH_SMOKE=1``) must not replace."""
    if os.environ.get("REPRO_BENCH_SMOKE") == "1":
        print(report.text())
    else:
        report.write()


def capture_trace(program, path: str, entry: str = "main",
                  engine: Optional[str] = None) -> str:
    """Run ``program`` once with the observability layer attached and
    write a Chrome trace to ``path``.

    The ``REPRO_TRACE=<path>`` hook of the benchmark scripts: timing
    loops run unobserved (the tracer would distort them), then this
    captures one instrumented run for the same workload so a
    ``BENCH_*.json`` regeneration can also leave a profile behind.
    """
    from repro.obs import Observability
    from repro.runtime import run_partitioned

    obs = Observability(trace=True)
    run_partitioned(program, entry, engine=engine, observability=obs)
    return obs.write_trace(path)
