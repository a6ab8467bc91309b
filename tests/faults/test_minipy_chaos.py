"""MiniPy arm of the chaos differential suite (satellite of the
frontend-neutral contract): the runtime fault story is frontend
independent, so a MiniPy secure program under the same seeded fault
schedules obeys the same contract — every run identical to the
fault-free baseline or a typed RuntimeFault, zero silently-wrong."""

import os

import pytest

from repro.core.compiler import compile_and_partition
from repro.faults.differential import (
    SILENTLY_WRONG,
    chaos_sweep,
    summarize,
)

MINIPY_PATH = os.path.join(os.path.dirname(__file__), "..", "..",
                           "examples", "secure_counter.mpy")

TYPED_FAULTS = {"DeadlockFault", "IagoFault", "EnclaveCrash",
                "WatchdogTimeout"}


@pytest.fixture(scope="module")
def minipy_program():
    with open(MINIPY_PATH) as handle:
        return compile_and_partition(handle.read(), mode="hardened",
                                     frontend="minipy")


def test_minipy_seeded_schedules_never_silently_wrong(minipy_program):
    """30 seeds on the decoded and legacy engines: the MiniPy gate."""
    records = chaos_sweep(minipy_program, range(30),
                          engines=("decoded", "legacy"))
    summary = summarize(records)
    assert summary["runs"] == 60
    assert summary[SILENTLY_WRONG] == 0, [
        r for r in records if r["verdict"] == SILENTLY_WRONG]
    assert summary["fired"] >= 10
    for record in records:
        if record["fault"]:
            assert record["fault"] in TYPED_FAULTS, record


def test_minipy_engines_agree_on_every_verdict(minipy_program):
    records = chaos_sweep(minipy_program, range(20),
                          engines=("decoded", "legacy"))
    by_seed = {}
    for record in records:
        by_seed.setdefault(record["seed"], set()).add(
            (record["verdict"], record["fault"]))
    disagreements = {seed: sorted(v) for seed, v in by_seed.items()
                     if len(v) > 1}
    assert not disagreements
