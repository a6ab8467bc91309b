"""The optimize-placement pass: scheduling, context wiring, stats."""

import pytest

from repro.errors import PlacementError
from repro.frontend import compile_source
from repro.pipeline import ANALYZE_PIPELINE, DEFAULT_PIPELINE, PassManager

FIG6 = """
    int unsafe_g = 0;
    int color(blue) blue_g = 10;
    int color(red) red_g = 0;

    void g(int n) {
        blue_g = n;
        red_g = n;
        printf("Hello\\n");
    }

    int f(int y) { g(21); return 42; }

    entry int main() {
        unsafe_g = 1;
        int x = f(blue_g);
        return x;
    }
"""


def _module():
    return compile_source(FIG6, "fig6")


def test_pass_is_scheduled_before_partition():
    assert "optimize-placement" in DEFAULT_PIPELINE
    assert DEFAULT_PIPELINE.index("optimize-placement") < \
        DEFAULT_PIPELINE.index("partition")
    assert "optimize-placement" in ANALYZE_PIPELINE


def _pass_stats(ctx, name):
    for timing in ctx.timings:
        if timing.name == name:
            return timing.stats
    raise AssertionError(f"pass {name} never ran")


def test_default_run_leaves_placement_untouched():
    ctx = PassManager().run(_module(), mode="relaxed")
    assert ctx.program is not None
    assert ctx.placement is None
    assert ctx.placement_graph is None
    assert _pass_stats(ctx, "optimize-placement")["placement_moves"] == 0


def test_kl_run_populates_the_placement_context():
    ctx = PassManager().run(_module(), mode="relaxed", optimize="kl")
    assert ctx.program is not None
    assert ctx.placement is not None and ctx.placement.moves > 0
    assert ctx.placement_graph is not None
    assert ctx.placement_report["policy"] == "kl"
    stats = _pass_stats(ctx, "optimize-placement")
    assert stats == {"placement_moves": ctx.placement.moves}
    # The shared planner: partition must reuse the planned protocol
    # the graph was built from.
    assert ctx.planner is not None


def test_unknown_policy_raises_through_the_pipeline():
    with pytest.raises(PlacementError, match="did you mean"):
        PassManager().run(_module(), mode="relaxed", optimize="kq")
