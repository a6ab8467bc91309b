"""The pass manager: named pipelines over a compilation context.

The Figure-5 toolchain is expressed as a default pipeline of named
passes rather than a hard-coded call sequence, so stages can be
inspected (``--print-after-each``), timed (``--time-passes``),
reordered or dropped (``--passes mem2reg,dce``), and verified after
every step (``REPRO_VERIFY_EACH_PASS=1``).
"""

from __future__ import annotations

import os
import sys
import time
from typing import Iterable, List, Optional, Sequence, Union

from repro.errors import IRError
from repro.pipeline.context import CompilationContext, PassTiming
from repro.pipeline.passes import (
    ConstFoldPass,
    DCEPass,
    FunctionPass,
    Mem2RegPass,
    OptimizePlacementPass,
    PartitionPass,
    Pass,
    SecureTypeAnalysisPass,
    SimplifyCFGPass,
    StructRewritePass,
    VerifyPass,
)

#: Every pass the manager can schedule by name.
PASS_REGISTRY = {cls.name: cls for cls in (
    Mem2RegPass, SimplifyCFGPass, ConstFoldPass, DCEPass,
    StructRewritePass, SecureTypeAnalysisPass, OptimizePlacementPass,
    PartitionPass, VerifyPass,
)}

#: The paper's Figure-5 compile pipeline, with the optimization trio
#: (constfold, simplify-cfg, dce) run between mem2reg and the struct
#: rewriting to shrink the type-inference workload.  Constant folding
#: runs first so branch conditions it proves constant cascade into
#: simplify-cfg's branch folding, and DCE last to sweep the operands
#: both passes orphaned.
DEFAULT_PIPELINE = ("mem2reg", "constfold", "simplify-cfg", "dce",
                    "struct-rewrite", "secure-types",
                    "optimize-placement", "partition")

#: Same pipeline without partitioning — ``repro analyze`` stops after
#: the placement optimizer, so it can report the partition plan and
#: quality without materializing chunks.
ANALYZE_PIPELINE = DEFAULT_PIPELINE[:DEFAULT_PIPELINE.index("partition")]

#: What the MiniC frontend runs on freshly generated IR.
FRONTEND_PIPELINE = ("verify",)

#: Environment switch for satellite-1 debugging: verify after every pass.
VERIFY_EACH_ENV = "REPRO_VERIFY_EACH_PASS"

PipelineSpec = Union[str, Sequence[Union[str, Pass]], None]


def parse_pipeline(spec: PipelineSpec) -> List[Pass]:
    """Resolve a pipeline description into pass instances.

    Accepts a comma-separated string (``"mem2reg,dce"``), an iterable
    of names and/or :class:`Pass` instances, or None (the default
    pipeline).  Unknown names raise :class:`IRError` listing the
    available passes.
    """
    if spec is None:
        spec = DEFAULT_PIPELINE
    if isinstance(spec, str):
        spec = [part.strip() for part in spec.split(",") if part.strip()]
    passes: List[Pass] = []
    for item in spec:
        if isinstance(item, Pass):
            passes.append(item)
            continue
        cls = PASS_REGISTRY.get(item)
        if cls is None:
            known = ", ".join(sorted(PASS_REGISTRY))
            raise IRError(f"unknown pass {item!r}; available: {known}")
        passes.append(cls())
    return passes


class PassManager:
    """Runs a pipeline of passes over a :class:`CompilationContext`.

    Parameters
    ----------
    passes:
        Pipeline description (see :func:`parse_pipeline`); defaults to
        :data:`DEFAULT_PIPELINE`.
    verify_each:
        Run :func:`verify_module` after every pass (uses a fresh
        analysis cache so stale cached trees cannot mask breakage).
        Defaults to the ``REPRO_VERIFY_EACH_PASS`` environment switch.
    time_passes:
        Collect and render per-pass wall times (always collected into
        metrics; this controls the human-readable table).
    print_after_each:
        Print the module IR after every pass to ``stream``.
    stream:
        Destination for diagnostics (default ``sys.stderr``).
    """

    def __init__(self, passes: PipelineSpec = None,
                 verify_each: Optional[bool] = None,
                 time_passes: bool = False,
                 print_after_each: bool = False,
                 stream=None):
        self.passes = parse_pipeline(passes)
        if verify_each is None:
            verify_each = os.environ.get(VERIFY_EACH_ENV, "") not in (
                "", "0")
        self.verify_each = verify_each
        self.time_passes = time_passes
        self.print_after_each = print_after_each
        self.stream = stream

    # -- driving ---------------------------------------------------------------

    def run(self, target, mode: str = "hardened",
            entries: Optional[Sequence[str]] = None,
            sync_barriers: bool = True, metrics=None,
            tracer=None, optimize: Optional[str] = None
            ) -> CompilationContext:
        """Run the pipeline over ``target`` (a Module or an existing
        :class:`CompilationContext`) and return the context."""
        if isinstance(target, CompilationContext):
            ctx = target
        else:
            ctx = CompilationContext(target, mode=mode, entries=entries,
                                     sync_barriers=sync_barriers,
                                     metrics=metrics, tracer=tracer,
                                     optimize=optimize)
        for p in self.passes:
            self._run_one(ctx, p)
        ctx.publish_cache_stats()
        if self.time_passes:
            print(self.render_timings(ctx), file=self._out())
        return ctx

    def _run_one(self, ctx: CompilationContext, p: Pass) -> None:
        before = ctx.module.instruction_count()
        ts_us = ctx.tracer.now_us() if ctx.tracer is not None else 0.0
        t0 = time.perf_counter()
        stats = p.run(ctx) or {}
        seconds = time.perf_counter() - t0
        after = ctx.module.instruction_count()
        timing = PassTiming(p.name, seconds, before, after, dict(stats))
        ctx.record(timing)
        if ctx.tracer is not None:
            ctx.tracer.pass_span(p.name, ts_us, seconds * 1e6,
                                 {"instrs_before": before,
                                  "instrs_after": after, **{
                                      k: v for k, v in stats.items()
                                      if isinstance(v, (int, float))}})
        if not p.preserves_cfg:
            ctx.cache.invalidate()
        if self.verify_each:
            self._verify_after(ctx, p)
        if self.print_after_each:
            self._print_after(ctx, p)

    def _verify_after(self, ctx: CompilationContext, p: Pass) -> None:
        # A deliberately fresh cache: verifying through the shared one
        # would trust exactly the data a buggy pass failed to
        # invalidate.
        from repro.ir.verifier import verify_module
        try:
            verify_module(ctx.module)
            if ctx.program is not None:
                for module in ctx.program.modules.values():
                    verify_module(module)
        except IRError as error:
            raise IRError(f"after pass '{p.name}': {error}") from error

    def _print_after(self, ctx: CompilationContext, p: Pass) -> None:
        from repro.ir.printer import print_module
        out = self._out()
        print(f"; === IR after {p.name} ===", file=out)
        if ctx.program is not None:
            for color in ctx.program.colors:
                print(f"; --- partition {color} ---", file=out)
                print(print_module(ctx.program.modules[color]), file=out)
        else:
            print(print_module(ctx.module), file=out)

    def _out(self):
        return self.stream if self.stream is not None else sys.stderr

    # -- reporting -------------------------------------------------------------

    @staticmethod
    def render_timings(ctx: CompilationContext) -> str:
        """Human-readable per-pass timing table (``--time-passes``)."""
        lines = ["=== pass timings ==="]
        total = 0.0
        for t in ctx.timings:
            total += t.seconds
            delta = t.instrs_after - t.instrs_before
            extra = "".join(
                f" {k}={v}" for k, v in sorted(t.stats.items()))
            lines.append(f"{t.name:<14} {t.seconds * 1e3:8.2f} ms  "
                         f"instrs {t.instrs_before:>5} -> "
                         f"{t.instrs_after:<5} ({delta:+d}){extra}")
        lines.append(f"{'total':<14} {total * 1e3:8.2f} ms")
        return "\n".join(lines)
