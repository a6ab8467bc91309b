"""Compiler-pipeline benchmark: wall-clock cost of each Privagic
stage (frontend, mem2reg, analysis, partitioning) on the full
minicache application — the repository's own performance regression
guard."""

from repro.apps.minicache.minic_source import FULL_ANNOTATED
from repro.core.analysis import analyze_module
from repro.core.colors import HARDENED
from repro.core.compiler import compile_and_partition
from repro.core.structs import rewrite_multicolor_structs
from repro.frontend import compile_source
from repro.ir.passes import mem2reg


def bench_frontend(benchmark):
    module = benchmark(compile_source, FULL_ANNOTATED)
    assert module.defined_functions()


def bench_mem2reg(benchmark):
    def run():
        module = compile_source(FULL_ANNOTATED)
        return mem2reg(module)
    promoted = benchmark(run)
    assert promoted > 10


def bench_analysis(benchmark):
    def run():
        module = compile_source(FULL_ANNOTATED)
        mem2reg(module)
        rewrite_multicolor_structs(module, HARDENED)
        return analyze_module(module, HARDENED)
    analysis = benchmark(run)
    assert not analysis.errors


def bench_full_pipeline(benchmark):
    program = benchmark(compile_and_partition, FULL_ANNOTATED,
                        HARDENED)
    assert "store" in program.modules


def bench_partitioned_execution(benchmark):
    """End-to-end: run 20 requests through the partitioned program on
    the worker/channel runtime."""
    from repro.apps.minicache.minic_source import DECLASSIFY_EXTERNALS
    from repro.runtime import PrivagicRuntime

    program = compile_and_partition(FULL_ANNOTATED, HARDENED)

    def run():
        runtime = PrivagicRuntime(program, DECLASSIFY_EXTERNALS,
                                  max_steps=50_000_000)
        return runtime.run("serve", [20])

    result = benchmark(run)
    assert result == 20
