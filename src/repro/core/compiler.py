"""The Privagic compiler driver (paper Figure 5).

Pipeline (all stages are named passes scheduled by the
:class:`~repro.pipeline.manager.PassManager`)::

    MiniC source ──(frontend)──► IR module with secure types
        │
        ├─ mem2reg                         (§5.1)
        ├─ simplify-cfg / constfold / dce  (pre-analysis cleanup)
        ├─ multi-color struct rewriting    (§7.2, relaxed mode only)
        ├─ secure type analysis            (§6, stabilizing §5.2)
        └─ partitioning                    (§7)
                 │
                 ▼
    one module per color + interface functions + runtime metadata
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.analysis import AnalysisResult
from repro.core.colors import HARDENED, RELAXED
from repro.core.partition import PartitionedProgram
from repro.ir.module import Module
from repro.pipeline import CompilationContext, PassManager


class PrivagicCompiler:
    """Compiles an IR module (or MiniC source) into a partitioned
    program for the simulated SGX machine.

    Parameters
    ----------
    mode:
        ``"hardened"`` enforces confidentiality, integrity and Iago
        protection; ``"relaxed"`` drops the Iago protection but allows
        multi-color structures and F-value messaging (paper §5).
    sync_barriers:
        Generate the §7.3.3 synchronization barriers around visible
        effects (on by default).
    passes:
        Pipeline override (comma-separated names or pass instances);
        defaults to the Figure-5 pipeline
        (:data:`repro.pipeline.DEFAULT_PIPELINE`).
    metrics / tracer:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` and
        :class:`~repro.obs.tracer.Tracer` the per-pass statistics are
        published into (shared with the runtime's observability when
        compiling via the CLI).
    verify_each / time_passes / print_after_each:
        Forwarded to the :class:`~repro.pipeline.manager.PassManager`.
    """

    def __init__(self, mode: str = HARDENED, sync_barriers: bool = True,
                 passes=None, verify_each: Optional[bool] = None,
                 time_passes: bool = False,
                 print_after_each: bool = False,
                 metrics=None, tracer=None,
                 optimize: Optional[str] = None):
        self.mode = mode
        self.sync_barriers = sync_barriers
        self.passes = passes
        self.verify_each = verify_each
        self.time_passes = time_passes
        self.print_after_each = print_after_each
        self.metrics = metrics
        self.tracer = tracer
        #: Placement policy (``none``/``kl``) for the
        #: ``optimize-placement`` pass.
        self.optimize = optimize
        self.analysis: Optional[AnalysisResult] = None
        #: The full pipeline context of the last compilation.
        self.context: Optional[CompilationContext] = None

    def compile_module(self, module: Module,
                       entries: Optional[Sequence[str]] = None
                       ) -> Optional[PartitionedProgram]:
        """Run the pass pipeline over ``module`` (mutates it).

        Returns the partitioned program, or None when a custom
        pipeline stops before the ``partition`` pass (the optimized
        module is then available as ``self.context.module``).
        """
        manager = PassManager(self.passes, verify_each=self.verify_each,
                              time_passes=self.time_passes,
                              print_after_each=self.print_after_each)
        self.context = manager.run(module, mode=self.mode,
                                   entries=entries,
                                   sync_barriers=self.sync_barriers,
                                   metrics=self.metrics,
                                   tracer=self.tracer,
                                   optimize=self.optimize)
        self.analysis = self.context.analysis
        return self.context.program

    def compile_source(self, source: str, module_name: str = "app",
                       entries: Optional[Sequence[str]] = None,
                       frontend: Optional[str] = None
                       ) -> Optional[PartitionedProgram]:
        """Compile source end to end.  ``frontend`` names a registered
        source language (default MiniC); see
        :func:`repro.secval.frontend_by_name`."""
        if frontend is None or frontend == "minic":
            from repro.frontend import compile_source as frontend_compile
            module = frontend_compile(source, module_name)
        else:
            from repro.secval import frontend_by_name
            module = frontend_by_name(frontend).compile_source(
                source, module_name)
        return self.compile_module(module, entries=entries)


def compile_and_partition(source: str, mode: str = HARDENED,
                          entries: Optional[Sequence[str]] = None,
                          sync_barriers: bool = True,
                          passes=None, optimize: Optional[str] = None,
                          frontend: Optional[str] = None
                          ) -> PartitionedProgram:
    """One-call convenience used by examples and tests."""
    compiler = PrivagicCompiler(mode, sync_barriers, passes=passes,
                                optimize=optimize)
    return compiler.compile_source(source, entries=entries,
                                   frontend=frontend)
