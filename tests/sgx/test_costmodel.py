"""Tests for the SGX cost model and cache/EPC estimators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sgx import (
    CostMeter,
    MACHINE_A,
    MACHINE_B,
    epc_fault_ratio,
    miss_ratio_scan,
    miss_ratio_uniform,
    miss_ratio_zipfian,
)
from repro.sgx.costmodel import MIB, GIB


def test_machine_geometries_match_paper():
    # §9.1: machine A ships SGXv1, 93 MiB EPC; machine B SGXv2,
    # 8131 MiB EPC, 22.5 MiB LLC.
    assert MACHINE_A.epc_bytes == 93 * MIB
    assert MACHINE_B.epc_bytes == 8131 * MIB
    assert MACHINE_B.llc_bytes == int(22.5 * MIB)


def test_enclave_miss_factor_in_eleos_band():
    # [30]: an LLC miss in enclave mode takes 5.6x-9.5x longer.
    assert 5.6 <= MACHINE_A.enclave_miss_factor <= 9.5


def test_privagic_message_cheaper_than_sdk_call():
    # §9.3.2: lock-free queue vs lock-based switchless call.
    assert MACHINE_A.privagic_message_cycles < \
        MACHINE_A.sdk_switchless_cycles


def test_meter_accumulates_and_breaks_down():
    meter = CostMeter(MACHINE_A)
    meter.memory_accesses(100, miss_ratio=0.5, in_enclave=False)
    meter.privagic_messages(2)
    meter.compute(1)
    assert meter.cycles > 0
    assert set(meter.breakdown) == {"llc_hit", "llc_miss",
                                    "privagic_msg", "compute"}
    assert meter.cycles == pytest.approx(sum(meter.breakdown.values()))


def test_enclave_misses_amplified():
    plain = CostMeter(MACHINE_A)
    plain.memory_accesses(1000, 0.5, in_enclave=False)
    enclave = CostMeter(MACHINE_A)
    enclave.memory_accesses(1000, 0.5, in_enclave=True)
    assert enclave.cycles > plain.cycles * 3


def test_epc_faults_add_cost():
    without = CostMeter(MACHINE_A)
    without.memory_accesses(1000, 0.5, True, epc_fault_ratio=0.0)
    with_faults = CostMeter(MACHINE_A)
    with_faults.memory_accesses(1000, 0.5, True, epc_fault_ratio=0.2)
    assert with_faults.cycles > without.cycles


def test_throughput_and_latency():
    meter = CostMeter(MACHINE_A)
    meter.charge("x", 3e9)  # one second at 3 GHz
    assert meter.seconds == pytest.approx(1.0)
    assert meter.throughput(1000) == pytest.approx(1000.0)
    assert meter.mean_latency_us(1000) == pytest.approx(1000.0)


# -- estimators --------------------------------------------------------------------


def test_uniform_miss_ratio_shape():
    llc = 9 * MIB
    assert miss_ratio_uniform(1 * MIB, llc) < 0.1
    assert miss_ratio_uniform(18 * MIB, llc) == pytest.approx(0.5,
                                                              abs=0.05)
    assert miss_ratio_uniform(1 * GIB, llc) > 0.95


def test_zipfian_misses_less_than_uniform():
    llc = 9 * MIB
    n, item = 100_000, 1056
    assert miss_ratio_zipfian(n, item, llc) < \
        miss_ratio_uniform(n * item, llc)


def test_scan_misses_beyond_cache():
    llc = 9 * MIB
    assert miss_ratio_scan(1 * MIB, llc) < 0.1
    assert miss_ratio_scan(100 * MIB, llc) > 0.9


def test_epc_fault_ratio_zero_within_epc():
    assert epc_fault_ratio(50 * MIB, 93 * MIB) == 0.0
    assert epc_fault_ratio(186 * MIB, 93 * MIB) == pytest.approx(0.5)
    assert epc_fault_ratio(186 * MIB, 93 * MIB, locality=0.1) == \
        pytest.approx(0.05)


@settings(max_examples=50, deadline=None)
@given(ws=st.floats(1e3, 1e12), cache=st.floats(1e3, 1e9))
def test_miss_ratios_are_probabilities(ws, cache):
    for f in (miss_ratio_uniform, miss_ratio_scan):
        assert 0.0 <= f(ws, cache) <= 1.0
    assert 0.0 <= epc_fault_ratio(ws, cache) <= 1.0


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 10**8))
def test_zipfian_ratio_bounded(n):
    assert 0.0 <= miss_ratio_zipfian(n, 1056, 9 * MIB) <= 1.0


def test_fig9_shapes_hold():
    """The headline Figure 9 ratios stay inside the paper's bands —
    this is the regression guard for the calibrated cost model."""
    from repro.apps.deployments import MapExperiment, PROFILES
    from repro.workloads import WORKLOAD_A

    bands = {
        "linkedlist": ((1.2, 1.7), (1.0, 1.3)),
        "rbtree": ((19.5, 26.7), (2.2, 2.7)),
        "hashmap": ((3.6, 6.1), (1.6, 2.7)),
    }
    for name, ((lo1, hi1), (lo2, hi2)) in bands.items():
        ex = MapExperiment(PROFILES[name], 100_000, WORKLOAD_A)
        up = ex.run("Unprotected").throughput_ops
        p1 = ex.run("Privagic-1").throughput_ops
        s1 = ex.run("Intel-sdk-1").throughput_ops
        assert lo1 <= up / p1 <= hi1, (name, up / p1)
        assert lo2 <= p1 / s1 <= hi2, (name, p1 / s1)


def test_fig10_shape_holds():
    from repro.apps.deployments import MapExperiment, PROFILES
    from repro.workloads import WORKLOAD_A

    ex = MapExperiment(PROFILES["hashmap"], 20_000, WORKLOAD_A)
    ratio = ex.run("Intel-sdk-2").mean_latency_us / \
        ex.run("Privagic-2").mean_latency_us
    assert 6.4 <= ratio <= 9.2


def test_fig8_shape_holds():
    from repro.apps.deployments import CacheExperiment
    from repro.workloads import WORKLOAD_A

    small = CacheExperiment(64 * MIB // 1024, WORKLOAD_A)
    up = small.run("Unprotected").throughput_ops
    pv = small.run("Privagic").throughput_ops
    sc = small.run("Scone").throughput_ops
    assert 8.5 <= pv / sc <= 10.0
    assert 1.05 <= up / pv <= 1.20
    big = CacheExperiment(32 * GIB // 1024, WORKLOAD_A)
    assert big.run("Privagic").throughput_ops / \
        big.run("Scone").throughput_ops >= 2.3


def test_fractional_counts_accumulate():
    """Regression: per-charge int() truncation lost fractional event
    counts — 10 calls of 1 access at miss_ratio 0.3 reported 0 misses
    and 10 hits.  Counts accumulate as floats and round at reporting."""
    meter = CostMeter(MACHINE_A)
    for _ in range(10):
        meter.memory_accesses(1, miss_ratio=0.3, in_enclave=False)
    assert meter.counts["llc_miss"] == 3
    assert meter.counts["llc_hit"] == 7
    # cycles were never truncated; the counts now match them
    assert meter.breakdown["llc_miss"] == pytest.approx(
        3 * MACHINE_A.llc_miss_cycles)


def test_fractional_epc_faults_accumulate():
    meter = CostMeter(MACHINE_A)
    for _ in range(8):
        meter.memory_accesses(1, miss_ratio=0.5, in_enclave=True,
                              epc_fault_ratio=0.25)
    assert meter.counts["llc_miss_enclave"] == 4
    assert meter.counts["epc_fault"] == 1


def test_compute_default_cycles_per_op():
    meter = CostMeter(MACHINE_A)
    meter.compute(2.5)
    assert meter.cycles == pytest.approx(
        2.5 * MACHINE_A.op_base_cycles)
    meter.compute(1, cycles_per_op=10.0)
    assert meter.counts["compute"] == 4  # round(3.5)


def test_charge_observer_sees_every_charge():
    seen = []
    meter = CostMeter(MACHINE_A)
    meter.set_observer(lambda kind, cycles, count:
                       seen.append((kind, cycles, count)))
    meter.privagic_messages(2)
    meter.memory_accesses(4, miss_ratio=0.5, in_enclave=False)
    assert [kind for kind, _, _ in seen] == \
        ["privagic_msg", "llc_hit", "llc_miss"]
    meter.set_observer(None)
    meter.ecalls(1)
    assert len(seen) == 3


def test_reset_clears_float_counts():
    meter = CostMeter(MACHINE_A)
    meter.memory_accesses(10, miss_ratio=0.5, in_enclave=False)
    meter.reset()
    assert meter.counts == {}
    assert meter.cycles == 0.0
