"""The state threaded through a pipeline run.

A :class:`CompilationContext` carries everything a pass may need: the
module under compilation, the analysis mode, the shared
:class:`~repro.pipeline.analyses.AnalysisCache`, the metrics registry
per-pass statistics are published into, an optional tracer, and the
results the analysis/partition passes deposit (``analysis`` and
``program``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.pipeline.analyses import AnalysisCache


@dataclass
class PassTiming:
    """Wall time and instruction-count delta of one executed pass."""

    name: str
    seconds: float
    instrs_before: int
    instrs_after: int
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def erased(self) -> int:
        return max(self.instrs_before - self.instrs_after, 0)

    @property
    def added(self) -> int:
        return max(self.instrs_after - self.instrs_before, 0)


class CompilationContext:
    """Everything shared between the passes of one pipeline run."""

    def __init__(self, module, mode: str = "hardened",
                 entries: Optional[Sequence[str]] = None,
                 sync_barriers: bool = True,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer=None,
                 cache: Optional[AnalysisCache] = None,
                 optimize: Optional[str] = None):
        self.module = module
        self.mode = mode
        self.entries = list(entries) if entries is not None else None
        self.sync_barriers = sync_barriers
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self.cache = cache if cache is not None else AnalysisCache()
        #: Placement policy name for the ``optimize-placement`` pass
        #: (None/"none" keeps the historical color-home placement).
        self.optimize = optimize
        #: AnalysisResult deposited by the ``secure-types`` pass.
        self.analysis = None
        #: Shared PartitionPlanner deposited by ``optimize-placement``.
        self.planner = None
        #: PlacementDecisions deposited by ``optimize-placement``.
        self.placement = None
        #: PartitionGraph deposited by ``optimize-placement``.
        self.placement_graph = None
        #: Before/after summary deposited by ``optimize-placement``.
        self.placement_report = None
        #: PartitionedProgram deposited by the ``partition`` pass.
        self.program = None
        #: One entry per executed pass, in order.
        self.timings: List[PassTiming] = []

    def record(self, timing: PassTiming) -> None:
        self.timings.append(timing)
        name = timing.name
        self.metrics.inc(f"pipeline.pass.runs[{name}]")
        self.metrics.inc(f"pipeline.pass.seconds[{name}]",
                         round(timing.seconds, 6))
        self.metrics.inc(f"pipeline.pass.erased[{name}]", timing.erased)
        self.metrics.inc(f"pipeline.pass.added[{name}]", timing.added)
        for key, value in timing.stats.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                self.metrics.inc(f"pipeline.pass.{key}[{name}]", value)

    def publish_cache_stats(self) -> None:
        stats = self.cache.stats()
        self.metrics.set("pipeline.analysis_cache.hits", stats["hits"])
        self.metrics.set("pipeline.analysis_cache.misses", stats["misses"])
