"""The placement layer: partition graph, policies, verifiers and the
differential safety rail.

The invariant under test everywhere: a placement policy may only touch
color-neutral protocol instructions (barrier tokens).  Secret-typed
code never changes modules, and every optimized partition behaves
byte-identically to the unoptimized one on every interpreter engine.
"""

import pytest

from repro.core.colors import RELAXED
from repro.core.compiler import PrivagicCompiler
from repro.core.placement import (
    KLPolicy,
    NonePolicy,
    PlacementDecisions,
    format_partition_stats,
    optimize_placement,
    partition_stats,
    policy_by_name,
    verify_decisions,
    verify_placement,
)
from repro.core.analysis import location_color
from repro.core.colors import is_named
from repro.errors import PlacementError
from repro.ir.instructions import Call, Load, Store
from repro.ir.interp import ENGINES
from repro.ir.module import Function
from repro.ir.values import GlobalVariable
from repro.runtime import run_partitioned

#: The paper's Figure 6 running example: g@blue and g@red host no
#: visible effects (the printf's barrier home is the untrusted
#: chunk), so both are legal barrier-elision targets.
FIG6 = """
    int unsafe_g = 0;
    int color(blue) blue_g = 10;
    int color(red) red_g = 0;

    void g(int n) {
        blue_g = n;
        red_g = n;
        printf("Hello\\n");
    }

    int f(int y) {
        g(21);
        return 42;
    }

    entry int main() {
        unsafe_g = 1;
        int x = f(blue_g);
        return x;
    }
"""

TOKEN_CALLS = ("__privagic_token_send", "__privagic_token_recv")


def _compile(optimize=None):
    compiler = PrivagicCompiler(RELAXED, optimize=optimize)
    program = compiler.compile_source(FIG6)
    return compiler, program


@pytest.fixture(scope="module")
def none_arm():
    return _compile()


@pytest.fixture(scope="module")
def kl_arm():
    return _compile(optimize="kl")


# -- the partition graph -------------------------------------------------------


def test_graph_nodes_carry_color_constraints(kl_arm):
    graph = kl_arm[0].context.placement_graph
    assert graph.specs()
    pinned = [node for node in graph.nodes.values() if node.pinned]
    movable = [node for node in graph.nodes.values() if not node.pinned]
    # fig7 has both: the untrusted chunk hosts the printf (pinned),
    # the enclave chunks of g host only colored stores (movable).
    assert pinned and movable
    for node in pinned:
        assert node.effects > 0
    assert any(edge.kind == "token" for edge in graph.edges)
    for edge in graph.edges:
        assert edge.count > 0 and edge.cycles > 0


def test_enclave_edges_cost_more_than_untrusted_ones(kl_arm):
    graph = kl_arm[0].context.placement_graph
    crossing = [e for e in graph.edges if e.crosses_enclave]
    flat = [e for e in graph.edges if not e.crosses_enclave]
    assert crossing, "fig7 traffic must cross into the enclaves"
    if flat:
        assert (min(e.cycles / e.count for e in crossing)
                > max(e.cycles / e.count for e in flat))


# -- policy lookup -------------------------------------------------------------


def test_policy_by_name_resolves_each_policy():
    assert isinstance(policy_by_name("none"), NonePolicy)
    assert isinstance(policy_by_name(" KL "), KLPolicy)


def test_unknown_policy_gets_a_did_you_mean_hint():
    with pytest.raises(PlacementError, match="did you mean 'kl'"):
        policy_by_name("k1")
    with pytest.raises(PlacementError, match="choose from: none, kl"):
        policy_by_name("simulated-annealing")


# -- the none policy is bit-identical ------------------------------------------


def test_none_policy_is_bit_identical_to_no_optimizer(none_arm):
    _, baseline = none_arm
    _, program = _compile(optimize="none")
    assert program.chunk_colors == baseline.chunk_colors
    for color in baseline.colors:
        assert program.modules[color].instruction_count() == \
            baseline.modules[color].instruction_count()
    for engine in ENGINES:
        result_a, rt_a = run_partitioned(baseline, "main",
                                         engine=engine)
        result_b, rt_b = run_partitioned(program, "main",
                                         engine=engine)
        assert (result_a, rt_a.machine.stdout, rt_a.stats.messages) \
            == (result_b, rt_b.machine.stdout, rt_b.stats.messages)


# -- the kl policy: measurable and safe ----------------------------------------


def test_kl_cuts_messages_20pct_with_identical_behavior(none_arm,
                                                        kl_arm):
    _, baseline = none_arm
    compiler, program = kl_arm
    assert compiler.context.placement.moves > 0
    for engine in ENGINES:
        result_a, rt_a = run_partitioned(baseline, "main",
                                         engine=engine)
        result_b, rt_b = run_partitioned(program, "main",
                                         engine=engine)
        assert result_b == result_a == 42
        assert rt_b.machine.stdout == rt_a.machine.stdout == "Hello\n"
        reduction = 100.0 * (rt_a.stats.messages
                             - rt_b.stats.messages) \
            / rt_a.stats.messages
        assert reduction >= 20.0, (
            f"{engine}: kl reduced messages only {reduction:.1f}%")


def _colored_accesses(program):
    """Every load/store through a colored global, tagged with the
    module it lives in — the footprint of the secret-typed code."""
    accesses = []
    for color, module in sorted(program.modules.items()):
        for fn in module.defined_functions():
            for instr in fn.instructions():
                if not isinstance(instr, (Load, Store)):
                    continue
                pointer = instr.ptr
                if not isinstance(pointer, GlobalVariable):
                    continue
                home = location_color(pointer.value_type, program.mode)
                if is_named(home):
                    accesses.append((color, type(instr).__name__,
                                     pointer.name))
    return sorted(accesses)


def _census(program):
    """Per-module instruction counts, split into barrier-token calls
    and everything else."""
    tokens, others = {}, {}
    for color, module in sorted(program.modules.items()):
        for fn in module.defined_functions():
            for instr in fn.instructions():
                callee = getattr(instr, "callee", None) \
                    if isinstance(instr, Call) else None
                name = callee.name if isinstance(callee, Function) \
                    else ""
                bucket = tokens if name in TOKEN_CALLS else others
                bucket[color] = bucket.get(color, 0) + 1
    return tokens, others


def test_secret_typed_code_is_never_relocated(none_arm, kl_arm):
    """The dedicated relocation test: between none and kl, every
    colored-global access stays in exactly the same module, and the
    only per-module instruction delta is elided barrier tokens."""
    _, baseline = none_arm
    _, optimized = kl_arm
    assert _colored_accesses(optimized) == _colored_accesses(baseline)
    base_tokens, base_others = _census(baseline)
    opt_tokens, opt_others = _census(optimized)
    assert opt_others == base_others
    assert sum(opt_tokens.values()) < sum(base_tokens.values())
    for color, count in opt_tokens.items():
        assert count <= base_tokens.get(color, 0)
    verify_placement(optimized)
    verify_placement(baseline)


# -- decision verification -----------------------------------------------------


def test_verify_decisions_rejects_unknown_chunks(none_arm):
    compiler, _ = none_arm
    _, graph, _ = optimize_placement(compiler.analysis, "none")
    bogus = PlacementDecisions(
        policy="kl",
        barrier_exempt={"no_such_spec": frozenset({"blue"})})
    with pytest.raises(PlacementError, match="unknown chunk"):
        verify_decisions(graph, bogus)


def test_verify_decisions_refuses_to_silence_effects(none_arm):
    compiler, _ = none_arm
    _, graph, _ = optimize_placement(compiler.analysis, "none")
    pinned = [key for key, node in graph.nodes.items() if node.pinned]
    assert pinned
    spec, color = pinned[0]
    bogus = PlacementDecisions(
        policy="kl", barrier_exempt={spec: frozenset({color})})
    with pytest.raises(PlacementError, match="visible effect"):
        verify_decisions(graph, bogus)


# -- reporting -----------------------------------------------------------------


def test_placement_report_shows_the_savings(kl_arm):
    compiler, _ = kl_arm
    report = compiler.context.placement_report
    assert report["policy"] == "kl"
    assert report["decisions"]["moves"] > 0
    assert report["modeled_cost_cycles"]["kl"] < \
        report["modeled_cost_cycles"]["none"]
    assert report["modeled_savings_pct"] > 0
    assert report["static_messages"]["token"] > 0


def test_partition_stats_table(none_arm):
    _, program = none_arm
    rows = partition_stats(program)
    by_color = {row["color"]: row for row in rows}
    assert set(by_color) == set(program.colors)
    untrusted = by_color[program.untrusted]
    assert not untrusted["enclave"]
    assert untrusted["tcb_instructions"] == 0
    enclaves = [row for row in rows if row["enclave"]]
    assert enclaves and all(row["tcb_instructions"] > 0
                            for row in enclaves)
    text = format_partition_stats(rows)
    assert "color" in text and "tcb" in text
    for color in program.colors:
        assert color in text
