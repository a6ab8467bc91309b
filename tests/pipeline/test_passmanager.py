"""Unit tests for the pass manager: pipeline parsing, context
threading, per-pass metrics/tracing, and the verify-each safety net."""

import io

import pytest

from repro.errors import IRError, SecureTypeError
from repro.frontend import compile_source
from repro.obs import MetricsRegistry, Tracer
from repro.obs.tracer import CAT_PIPELINE
from repro.pipeline import (
    ANALYZE_PIPELINE,
    DEFAULT_PIPELINE,
    CompilationContext,
    Pass,
    PassManager,
    parse_pipeline,
)

FIG7 = """
    int unsafe_g = 0;
    int color(blue) blue_g = 10;
    int color(red) red_g = 0;
    void g(int n) { blue_g = n; red_g = n; }
    int f(int y) { g(21); return 42; }
    entry int main() { unsafe_g = 1; int x = f(blue_g); return x; }
"""


def fig7_module():
    return compile_source(FIG7, "fig7")


# -- pipeline parsing ---------------------------------------------------------


def test_parse_pipeline_accepts_comma_string():
    names = [p.name for p in parse_pipeline("mem2reg, dce")]
    assert names == ["mem2reg", "dce"]


def test_parse_pipeline_none_is_the_default_pipeline():
    names = [p.name for p in parse_pipeline(None)]
    assert names == list(DEFAULT_PIPELINE)
    assert names[-1] == "partition"
    assert ANALYZE_PIPELINE[-1] == "optimize-placement"


def test_parse_pipeline_accepts_pass_instances():
    class Custom(Pass):
        name = "custom"

        def run(self, ctx):
            return {}

    passes = parse_pipeline(["mem2reg", Custom()])
    assert [p.name for p in passes] == ["mem2reg", "custom"]


def test_unknown_pass_name_lists_the_available_passes():
    with pytest.raises(IRError, match="unknown pass 'typo'"):
        parse_pipeline("mem2reg,typo")
    with pytest.raises(IRError, match="mem2reg"):
        parse_pipeline("typo")


# -- running ------------------------------------------------------------------


def test_default_pipeline_partitions(capsys):
    ctx = PassManager().run(fig7_module(), mode="relaxed")
    assert ctx.program is not None
    assert ctx.analysis is not None
    assert sorted(ctx.program.colors) == ["S", "blue", "red"]
    executed = [t.name for t in ctx.timings]
    assert executed == list(DEFAULT_PIPELINE)


def test_analyze_pipeline_stops_before_partition():
    ctx = PassManager(ANALYZE_PIPELINE).run(fig7_module(),
                                            mode="relaxed")
    assert ctx.analysis is not None
    assert ctx.program is None


BROKEN = """
    long color(blue) secret = 1;
    long out = 0;
    entry void main() { out = secret; }
"""


def test_secure_type_errors_are_collected_not_raised():
    # Storing a blue value into an uncolored global violates the
    # typing rules.  The analysis pass must deposit the errors
    # without raising; only `partition` raises.
    ctx = PassManager(ANALYZE_PIPELINE).run(
        compile_source(BROKEN, "broken"))
    assert ctx.analysis is not None
    assert ctx.analysis.errors
    with pytest.raises(SecureTypeError):
        PassManager().run(compile_source(BROKEN, "broken"))


def test_run_accepts_an_existing_context():
    ctx = CompilationContext(fig7_module(), mode="relaxed")
    out = PassManager("mem2reg").run(ctx)
    assert out is ctx
    assert [t.name for t in ctx.timings] == ["mem2reg"]


# -- observability ------------------------------------------------------------


def test_per_pass_metrics_are_published():
    metrics = MetricsRegistry()
    PassManager().run(fig7_module(), mode="relaxed", metrics=metrics)
    for name in DEFAULT_PIPELINE:
        assert metrics[f"pipeline.pass.runs[{name}]"].get() == 1
        assert f"pipeline.pass.seconds[{name}]" in metrics
    assert metrics["pipeline.pass.promoted[mem2reg]"].get() > 0
    # The analysis cache was exercised (and hit) during the run.
    assert metrics["pipeline.analysis_cache.misses"].get() > 0
    assert metrics["pipeline.analysis_cache.hits"].get() > 0


def test_pass_spans_land_on_the_pipeline_track():
    tracer = Tracer()
    PassManager().run(fig7_module(), mode="relaxed", tracer=tracer)
    spans = [e for e in tracer.events
             if e.get("cat") == CAT_PIPELINE]
    assert [e["name"] for e in spans] == list(DEFAULT_PIPELINE)
    for span in spans:
        assert span["ph"] == "X"
        assert "instrs_before" in span["args"]


def test_time_passes_renders_a_table():
    stream = io.StringIO()
    PassManager("mem2reg,dce", time_passes=True,
                stream=stream).run(fig7_module(), mode="relaxed")
    text = stream.getvalue()
    assert "=== pass timings ===" in text
    assert "mem2reg" in text and "dce" in text and "total" in text


def test_print_after_each_prints_module_ir():
    stream = io.StringIO()
    PassManager("mem2reg", print_after_each=True,
                stream=stream).run(fig7_module(), mode="relaxed")
    text = stream.getvalue()
    assert "; === IR after mem2reg ===" in text
    assert "define i32 @main()" in text


# -- verify-each --------------------------------------------------------------


class BreakTerminatorPass(Pass):
    """Deliberately corrupts the module: drops main's terminator."""

    name = "break-terminator"

    def run(self, ctx):
        entry = ctx.module.functions["main"].blocks[0]
        entry.instructions[-1].erase()
        return {}


def test_verify_each_catches_a_broken_pass():
    manager = PassManager(["mem2reg", BreakTerminatorPass()],
                          verify_each=True)
    with pytest.raises(IRError,
                       match="after pass 'break-terminator'"):
        manager.run(fig7_module(), mode="relaxed")


def test_verify_each_defaults_from_the_environment(monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY_EACH_PASS", "1")
    assert PassManager().verify_each is True
    monkeypatch.setenv("REPRO_VERIFY_EACH_PASS", "0")
    assert PassManager().verify_each is False
    monkeypatch.delenv("REPRO_VERIFY_EACH_PASS")
    assert PassManager().verify_each is False


def test_verify_each_passes_on_a_clean_full_pipeline():
    ctx = PassManager(verify_each=True).run(fig7_module(),
                                            mode="relaxed")
    assert ctx.program is not None
