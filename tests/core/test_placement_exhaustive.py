"""Exhaustive check of the placement rule (ROADMAP item 13).

Placement's only move is to let a chunk skip its §7.3.3 barrier
tokens.  For each program below, this test enumerates every set of
token-sending exemptible chunks that ``verify_decisions`` accepts,
materializes each set and runs it on the decoded engine.  Every legal
set must behave identically, and the ``kl`` arm must send the fewest
executed messages of them all.  The score is executed messages, not
modeled cycles: messages are what the runtime actually pays.
"""

import itertools
import os
import random

import pytest

from repro.apps.minicache.minic_source import (DECLASSIFY_EXTERNALS,
                                               FULL_ANNOTATED)
from repro.core.colors import HARDENED, RELAXED
from repro.core.compiler import PrivagicCompiler
from repro.core.partition import partition
from repro.core.placement import (PlacementDecisions, optimize_placement,
                                  verify_decisions)
from repro.errors import PlacementError
from repro.runtime import run_partitioned
from repro.serve.engine import SecureKVEngine
from repro.serve.secure_source import SECURE_KV_SOURCE

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _example(name):
    with open(os.path.join(ROOT, "examples", name)) as handle:
        return handle.read()


def _kv_ops(count, seed=11):
    """The served-KV trace of benchmarks/bench_partition.py: mixed
    get/set/delete over 16 keys, sets dominating."""
    rng = random.Random(seed)
    keys = [f"key-{i}" for i in range(16)]
    ops = []
    for i in range(count):
        key = rng.choice(keys)
        roll = rng.random()
        if roll < 0.5:
            ops.append(("set", key, f"value-{i}"))
        elif roll < 0.9:
            ops.append(("get", key))
        else:
            ops.append(("delete", key))
    return ops


def _run_entry(entry, args=(), externals=None):
    def run(program):
        result, runtime = run_partitioned(program, entry, list(args),
                                          externals, engine="decoded")
        return result, runtime.machine.stdout, runtime.stats.messages
    return run


def _run_served(program):
    kv = SecureKVEngine(program=program, engine="decoded")
    ops = _kv_ops(32)
    replies = []
    for start in range(0, len(ops), 16):
        replies.extend(kv.execute(ops[start:start + 16]))
    return (tuple(replies), kv.runtime.machine.stdout,
            kv.runtime.stats.messages)


#: name -> (mode, source, frontend, run, legal sets, fewest messages)
PROGRAMS = {
    "fig7": (RELAXED, _example("fig7.c"), None, _run_entry("main"),
             4, 7),
    "minicache": (HARDENED, FULL_ANNOTATED, None,
                  _run_entry("run_cache", [50], DECLASSIFY_EXTERNALS),
                  16, 500),
    "served_kv": (HARDENED, SECURE_KV_SOURCE, None, _run_served, 4, 115),
    "secure_counter": (HARDENED, _example("secure_counter.mpy"),
                       "minipy", _run_entry("main"), 2, 2),
}


def _legal_exemption_sets(graph):
    """Every combination of token-sending exemptible chunks that
    ``verify_decisions`` accepts, as ``PlacementDecisions``."""
    senders = {(edge.spec, edge.src) for edge in graph.edges
               if edge.kind == "token"}
    candidates = sorted(key for key, node in graph.nodes.items()
                        if key in senders and graph.exemptible(node))
    legal = []
    for size in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            exempt = {}
            for spec, color in combo:
                exempt.setdefault(spec, set()).add(color)
            decisions = PlacementDecisions(
                policy="kl",
                barrier_exempt={spec: frozenset(colors)
                                for spec, colors in exempt.items()})
            try:
                verify_decisions(graph, decisions)
            except PlacementError:
                continue
            legal.append(decisions)
    return legal


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_kl_sends_the_fewest_messages_of_every_legal_exemption_set(name):
    mode, source, frontend, run, legal_count, fewest = PROGRAMS[name]
    compiler = PrivagicCompiler(mode)
    baseline = run(compiler.compile_source(source, frontend=frontend))
    analysis = compiler.analysis
    planner, graph, _ = optimize_placement(analysis, "none")

    outcomes = {}
    for decisions in _legal_exemption_sets(graph):
        program = partition(analysis, planner=planner,
                            placement=decisions)
        key = tuple(sorted((spec, tuple(sorted(colors))) for spec, colors
                           in decisions.barrier_exempt.items()))
        outcomes[key] = run(program)
    assert len(outcomes) == legal_count
    # The empty set is the none arm, rebuilt from the shared planner.
    assert outcomes[()] == baseline

    behaviors = {(result, stdout)
                  for result, stdout, _ in outcomes.values()}
    assert len(behaviors) == 1, f"{name}: exemption sets disagree"

    kl = PrivagicCompiler(mode, optimize="kl")
    kl_result, kl_stdout, kl_messages = run(
        kl.compile_source(source, frontend=frontend))
    assert (kl_result, kl_stdout) in behaviors
    assert min(messages for _, _, messages in outcomes.values()) \
        == kl_messages == fewest
