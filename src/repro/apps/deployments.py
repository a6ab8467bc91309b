"""Experiment drivers for the performance evaluation (§9.2, §9.3).

Two experiment shapes:

* :class:`MapExperiment` — the §9.3 data-structure benchmark: the
  benchmark thread "directly accesses the map in the same thread
  without involving the network", so per-operation costs *add up*
  (no pipelining).  Configurations: Unprotected, Privagic-1,
  Privagic-2, Intel-sdk-1, Intel-sdk-2.  Regenerates Figures 9/10.

* :class:`CacheExperiment` — the §9.2 memcached benchmark: YCSB
  clients over loopback against a multi-threaded server, so the
  untrusted request handling and the enclave map work *pipeline*;
  throughput is set by the slowest stage, latency by their sum.
  Configurations: Unprotected, Scone, Privagic.  Regenerates Figure 8.

Both charge the :class:`~repro.sgx.costmodel.CostMeter` with the four
cost classes of the model (LLC, EPC, boundary crossings, compute).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict

from repro.baselines.intelsdk import IntelSDKDeployment
from repro.baselines.scone import SconeDeployment
from repro.sgx.cache import (
    epc_fault_ratio,
    miss_ratio_scan,
    miss_ratio_uniform,
    miss_ratio_zipfian,
)
from repro.sgx.costmodel import CostMeter, CostParams, MACHINE_A, MACHINE_B
from repro.workloads.ycsb import Workload, WorkloadSpec


@dataclass
class StructureProfile:
    """Analytic access profile of a data structure, validated against
    the instrumented implementations."""

    name: str
    #: structural node visits per operation, as f(op, n_items)
    expected_accesses: Callable
    #: memory layout: bytes of structure per item (node + pointers)
    node_bytes: int
    #: LLC access pattern of the structural walk
    pattern: str            # "uniform" | "zipfian" | "scan"
    #: EPC locality (1.0 = every excess miss faults; smaller = the
    #: pattern's hot set keeps its pages resident)
    epc_locality: float = 1.0


def _list_accesses(op: str, n: int) -> float:
    return max(1.0, n / 2.0)


def _tree_accesses(op: str, n: int) -> float:
    if n <= 1:
        return 1.0
    depth = 1.39 * math.log2(n)
    return depth + (3.0 if op in ("update", "insert", "put") else 0.0)


def _hash_accesses(op: str, n: int) -> float:
    return 2.5


PROFILES: Dict[str, StructureProfile] = {
    "linkedlist": StructureProfile("linkedlist", _list_accesses,
                                   node_bytes=32, pattern="scan",
                                   epc_locality=0.02),
    "rbtree": StructureProfile("rbtree", _tree_accesses,
                               node_bytes=48, pattern="uniform",
                               epc_locality=1.0),
    "hashmap": StructureProfile("hashmap", _hash_accesses,
                                node_bytes=32, pattern="zipfian",
                                epc_locality=0.05),
}


@dataclass
class ExperimentResult:
    deployment: str
    structure: str
    workload: str
    operations: int
    cycles: float
    throughput_ops: float
    mean_latency_us: float
    breakdown: Dict[str, float] = field(default_factory=dict)

    def row(self) -> str:
        return (f"{self.deployment:<14} {self.structure:<11} "
                f"{self.workload:<3} "
                f"{self.throughput_ops:>14,.0f} op/s "
                f"{self.mean_latency_us:>10.2f} us")


class MapExperiment:
    """The §9.3 single-thread data-structure benchmark."""

    def __init__(self, profile: StructureProfile, n_items: int,
                 spec: WorkloadSpec, operations: int = 1_000_000,
                 params: CostParams = MACHINE_A):
        self.profile = profile
        self.n_items = n_items
        self.spec = spec
        self.operations = operations
        self.params = params

    # -- shared quantities ---------------------------------------------------------

    @property
    def working_set(self) -> float:
        return self.n_items * (self.profile.node_bytes
                               + self.spec.record_bytes)

    def _value_lines(self) -> float:
        return self.spec.record_bytes / self.params.cache_line

    def miss_ratio(self) -> float:
        pattern = self.profile.pattern
        if pattern == "uniform":
            return miss_ratio_uniform(self.working_set,
                                      self.params.llc_bytes)
        if pattern == "zipfian":
            return miss_ratio_zipfian(
                self.n_items,
                self.profile.node_bytes + self.spec.record_bytes,
                self.params.llc_bytes)
        return miss_ratio_scan(self.working_set, self.params.llc_bytes)

    def _epc_faults(self, enclave_fraction: float = 1.0) -> float:
        resident = self.working_set * enclave_fraction
        return epc_fault_ratio(resident, self.params.epc_bytes,
                               self.profile.epc_locality)

    def _miss_factor_override(self, meter: CostMeter) -> None:
        # Sequential scans hide the memory-encryption latency behind
        # prefetching; random patterns pay the full Eleos penalty.
        if self.profile.pattern == "scan":
            meter.params = CostParams(**{
                **self.params.__dict__,
                "enclave_miss_factor": 1.35})

    def _accesses_per_op(self) -> float:
        per_op = 0.0
        for kind, weight in Workload(self.spec, self.n_items,
                                     1).operation_mix().items():
            per_op += weight * self.profile.expected_accesses(
                kind, self.n_items)
        return per_op

    def _enclave_op_cycles(self, meter_params: CostParams) -> float:
        """Cycles of one map operation executed in enclave mode (used
        by the SDK spin model)."""
        probe = CostMeter(meter_params)
        self._charge_map_accesses(probe, in_enclave=True)
        return probe.cycles

    def _charge_map_accesses(self, meter: CostMeter,
                             in_enclave: bool,
                             enclave_fraction: float = 1.0) -> None:
        accesses = self._accesses_per_op() + self._value_lines()
        meter.memory_accesses(
            accesses, self.miss_ratio(), in_enclave,
            self._epc_faults(enclave_fraction) if in_enclave else 0.0)

    # -- configurations ------------------------------------------------------------------

    def run(self, deployment: str) -> ExperimentResult:
        meter = CostMeter(self.params)
        self._miss_factor_override(meter)
        charge = {
            "Unprotected": self._run_unprotected,
            "Privagic-1": self._run_privagic1,
            "Privagic-2": self._run_privagic2,
            "Intel-sdk-1": self._run_sdk1,
            "Intel-sdk-2": self._run_sdk2,
        }[deployment]
        charge(meter)
        total = meter.cycles * self.operations
        seconds = self.params.seconds(total)
        return ExperimentResult(
            deployment=deployment, structure=self.profile.name,
            workload=self.spec.name, operations=self.operations,
            cycles=total,
            throughput_ops=self.operations / seconds,
            mean_latency_us=seconds / self.operations * 1e6,
            breakdown=dict(meter.breakdown))

    def _run_unprotected(self, meter: CostMeter) -> None:
        meter.compute(1)
        self._charge_map_accesses(meter, in_enclave=False)

    def _run_privagic1(self, meter: CostMeter) -> None:
        # Request + reply through the lock-free queue; the colored map
        # is walked by the enclave worker.
        meter.compute(1)
        meter.privagic_messages(2)
        self._charge_map_accesses(meter, in_enclave=True)

    def _run_privagic2(self, meter: CostMeter) -> None:
        # Keys and values in two different enclaves: the §7.2 shell
        # walk in unsafe memory, the chain in the key enclave, the
        # value copy in the value enclave — more boundary crossings per
        # request (§9.3.2: "Privagic-2 pays a large cost to cross
        # multiple enclave boundaries for each request").
        meter.compute(1)
        meter.privagic_messages(6)
        structural = self._accesses_per_op()
        meter.memory_accesses(structural, self.miss_ratio(), True,
                              self._epc_faults(0.5))
        meter.memory_accesses(self._value_lines(), self.miss_ratio(),
                              True, self._epc_faults(0.5))
        # shell indirection walked in unsafe memory
        meter.memory_accesses(structural, self.miss_ratio(), False)

    def _run_sdk1(self, meter: CostMeter) -> None:
        meter.compute(1)
        enclave_cycles = self._enclave_op_cycles(meter.params)
        IntelSDKDeployment(1).charge_op(meter, enclave_cycles)
        self._charge_map_accesses(meter, in_enclave=True)

    def _run_sdk2(self, meter: CostMeter) -> None:
        meter.compute(1)
        enclave_cycles = self._enclave_op_cycles(meter.params)
        IntelSDKDeployment(2).charge_op(meter, enclave_cycles)
        # Same split as Privagic-2, plus staging copies through
        # untrusted memory in both directions.
        structural = self._accesses_per_op()
        meter.memory_accesses(structural, self.miss_ratio(), True,
                              self._epc_faults(0.5))
        meter.memory_accesses(self._value_lines(), self.miss_ratio(),
                              True, self._epc_faults(0.5))
        meter.memory_accesses(2 * self._value_lines(),
                              self.miss_ratio(), False)


class CacheExperiment:
    """The §9.2 memcached/YCSB benchmark on machine B (Figure 8)."""

    #: YCSB drives 6 clients x 6 threads over loopback; the server
    #: runs 7 threads (§9.2).  Client and server sides saturate, so
    #: aggregate throughput scales with the server worker count.
    server_threads = 6

    #: per-request untrusted work: loopback recv + send + event loop
    network_syscalls = 2
    parse_ops = 1

    def __init__(self, n_records: int, spec: WorkloadSpec,
                 operations: int = 8_000_000,
                 params: CostParams = MACHINE_B):
        self.spec = spec
        self.operations = operations
        self.params = params
        self.map = MapExperiment(PROFILES["hashmap"], n_records, spec,
                                 operations, params)

    @property
    def dataset_bytes(self) -> float:
        return self.map.working_set

    def _untrusted_request_cycles(self, meter: CostMeter) -> float:
        probe = CostMeter(self.params)
        probe.charge("syscall", self.network_syscalls * 1_800.0,
                     self.network_syscalls)
        probe.compute(self.parse_ops)
        # connection buffers, parsing state and the reply copy of the
        # (declassified) value, all in ordinary memory
        probe.memory_accesses(8 + self.map._value_lines(), 0.05,
                              in_enclave=False)
        meter.breakdown.update(probe.breakdown)
        return probe.cycles

    def run(self, deployment: str) -> ExperimentResult:
        meter = CostMeter(self.params)
        untrusted = self._untrusted_request_cycles(meter)

        if deployment == "Unprotected":
            map_probe = CostMeter(self.params)
            self.map._charge_map_accesses(map_probe, in_enclave=False)
            map_probe.compute(1)
            stages = [untrusted + map_probe.cycles]
        elif deployment == "Privagic":
            # Pipeline: the app thread parses request n+1 while the
            # enclave worker serves request n through the queue.
            map_probe = CostMeter(self.params)
            self.map._charge_map_accesses(map_probe, in_enclave=True)
            map_probe.compute(1)
            msg = 2 * self.params.privagic_message_cycles
            stages = [untrusted + msg, map_probe.cycles + msg]
        elif deployment == "Scone":
            map_probe = CostMeter(self.params)
            scone = SconeDeployment()
            scone.charge_request(
                map_probe,
                self.map._accesses_per_op(),
                self.map._value_lines(),
                self.map.miss_ratio(),
                self.map._epc_faults())
            # untrusted-side work also runs inside the enclave, with
            # each syscall exiting through the switchless layer
            # (already charged by charge_request); parsing buffers are
            # enclave memory.
            map_probe.memory_accesses(8, 0.05, in_enclave=True)
            stages = [map_probe.cycles]
        else:
            raise ValueError(deployment)

        latency_cycles = sum(stages)
        bottleneck = max(stages)
        seconds_per_op = self.params.seconds(bottleneck)
        throughput = self.server_threads / seconds_per_op
        return ExperimentResult(
            deployment=deployment, structure="minicache",
            workload=self.spec.name, operations=self.operations,
            cycles=latency_cycles * self.operations,
            throughput_ops=throughput,
            mean_latency_us=self.params.seconds(latency_cycles) * 1e6,
            breakdown=dict(meter.breakdown))
