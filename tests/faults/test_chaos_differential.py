"""The chaos differential suite (acceptance criterion): across
hundreds of seeded fault schedules, on both engines, every run either
matches the fault-free run exactly or raises a typed RuntimeFault —
zero silently-wrong outcomes, and injected corruption of colored data
is always detected, never absorbed."""

import os

import pytest

from repro.core.compiler import compile_and_partition
from repro.errors import RuntimeFault
from repro.faults import FaultPlan
from repro.faults.differential import (
    SILENTLY_WRONG,
    chaos_sweep,
    classify,
    run_outcome,
    summarize,
)

FIG7_PATH = os.path.join(os.path.dirname(__file__), "..", "..",
                         "examples", "fig7.c")

#: The typed taxonomy a chaos run may end in — a bare RuntimeFault
#: (or an untyped exception, which run_outcome lets propagate) fails
#: the suite.
TYPED_FAULTS = {"DeadlockFault", "IagoFault", "EnclaveCrash",
                "WatchdogTimeout"}


@pytest.fixture(scope="module")
def fig7_program():
    with open(FIG7_PATH) as handle:
        return compile_and_partition(handle.read(), mode="relaxed")


def test_fig7_300_seeded_schedules_never_silently_wrong(fig7_program):
    """150 seeds x 2 engines = 300 schedules: the headline gate."""
    records = chaos_sweep(fig7_program, range(150))
    summary = summarize(records)
    assert summary["runs"] == 300
    assert summary[SILENTLY_WRONG] == 0, [
        r for r in records if r["verdict"] == SILENTLY_WRONG]
    # The sweep must actually exercise faults, not dodge them.
    assert summary["fired"] >= 40
    assert summary["typed-fault"] >= 20
    for record in records:
        if record["fault"]:
            assert record["fault"] in TYPED_FAULTS, record


def test_fig7_engines_agree_on_every_verdict(fig7_program):
    """Fault handling is engine-independent: the same seed yields the
    same verdict and the same fault class on both engines."""
    records = chaos_sweep(fig7_program, range(60))
    by_seed = {}
    for record in records:
        by_seed.setdefault(record["seed"], set()).add(
            (record["verdict"], record["fault"]))
    disagreements = {seed: sorted(v) for seed, v in by_seed.items()
                     if len(v) > 1}
    assert not disagreements


@pytest.mark.parametrize("engine", ["decoded", "legacy"])
@pytest.mark.parametrize("kind", ["spawn", "value", "token"])
def test_corruption_of_colored_data_is_always_detected(fig7_program,
                                                       kind, engine):
    """Corrupting the n-th message of each kind must never be
    absorbed: when the corruption lands, the run faults; when no
    message matched, the run is identical."""
    baseline = run_outcome(fig7_program, None, engine=engine)
    for nth in range(1, 5):
        plan = FaultPlan.parse(f"channel-corrupt:*:{kind}:{nth}")
        outcome = run_outcome(fig7_program, plan, engine=engine)
        verdict = classify(baseline, outcome)
        assert verdict != SILENTLY_WRONG, (kind, nth, outcome)
        if outcome.injected:
            # The corruption landed on a live message: the run must
            # not have completed with the honest result AND a wrong
            # message absorbed — either fault, or the typed check
            # removed it from the run entirely.
            assert outcome.status == "fault", (kind, nth, outcome)
            assert outcome.fault in TYPED_FAULTS
        else:
            assert verdict == "identical"


def test_restart_and_replay_is_exact(fig7_program):
    """An enclave crash recovered at the spawn-delivery boundary
    replays the spawn exactly: result and stdout identical."""
    baseline = run_outcome(fig7_program, None)
    for nth in (1, 2):
        plan = FaultPlan.parse(f"enclave-restart:*:{nth}")
        outcome = run_outcome(fig7_program, plan)
        if outcome.injected:
            assert classify(baseline, outcome) == "identical"


def test_minicache_seeded_schedules():
    """The §9.2 application under chaos, hardened mode: same
    contract as fig7."""
    from repro.apps.minicache.minic_source import (
        ANNOTATED_SOURCE, DECLASSIFY_EXTERNALS)

    program = compile_and_partition(ANNOTATED_SOURCE, mode="hardened")
    records = chaos_sweep(
        program, range(10), entry="run_cache", args=[40],
        externals=DECLASSIFY_EXTERNALS, max_steps=30_000_000)
    summary = summarize(records)
    assert summary[SILENTLY_WRONG] == 0, [
        r for r in records if r["verdict"] == SILENTLY_WRONG]
    assert summary["fired"] >= 5
    for record in records:
        if record["fault"]:
            assert record["fault"] in TYPED_FAULTS, record


@pytest.mark.chaos
def test_long_chaos_sweep(fig7_program):
    """The out-of-band randomized sweep (pytest -m chaos): an order
    of magnitude more seeds than the tier-1 gate."""
    records = chaos_sweep(fig7_program, range(1000))
    summary = summarize(records)
    assert summary[SILENTLY_WRONG] == 0, [
        r for r in records if r["verdict"] == SILENTLY_WRONG]
    assert summary["fired"] >= 300

    from repro.apps.minicache.minic_source import (
        ANNOTATED_SOURCE, DECLASSIFY_EXTERNALS)
    program = compile_and_partition(ANNOTATED_SOURCE, mode="hardened")
    records = chaos_sweep(
        program, range(100), entry="run_cache", args=[40],
        externals=DECLASSIFY_EXTERNALS, max_steps=30_000_000)
    assert summarize(records)[SILENTLY_WRONG] == 0

def test_kl_optimized_partition_keeps_the_chaos_contract():
    """The placement optimizer must not weaken fault detection: the
    kl-optimized fig7 partition runs the same fixed-seed sweep and
    still ends every run identical or typed-fault — elided barrier
    tokens are dead synchronization weight, not a lost detection."""
    with open(FIG7_PATH) as handle:
        source = handle.read()
    program = compile_and_partition(source, mode="relaxed",
                                    optimize="kl")
    records = chaos_sweep(program, range(30))
    summary = summarize(records)
    assert summary["runs"] == 60
    assert summary[SILENTLY_WRONG] == 0, [
        r for r in records if r["verdict"] == SILENTLY_WRONG]
    assert summary["fired"] >= 10
    for record in records:
        if record["fault"]:
            assert record["fault"] in TYPED_FAULTS, record
