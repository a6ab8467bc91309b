"""The SGX cost model.

The evaluation's performance phenomena come from four cost classes:

1. **LLC misses**, which in enclave mode cost 5.6–9.5× their normal
   price because of the memory-encryption engine (measured by Eleos,
   reference [30] of the paper; quoted in §9.2.3 and §9.3.2).
2. **EPC paging**: machine A's SGXv1 exposes only 93 MiB of EPC; an
   enclave working set beyond it pays a ~40 k-cycle EWB page swap.
3. **Enclave transitions**: an Intel-SDK switchless call synchronises
   through a lock (§9.3.2, references [40, 43]); a Scone switchless
   syscall is similar; a Privagic message is a push/pop on a lock-free
   SPSC queue and is several times cheaper.
4. **Plain computation**, charged per abstract operation.

:class:`CostParams` gathers the constants (two presets matching the
paper's machines A and B); :class:`CostMeter` accumulates simulated
cycles and converts to time/throughput.  The deployment models of
:mod:`repro.apps.deployments` charge against these meters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


@dataclass
class CostParams:
    """Cycle costs and machine geometry."""

    name: str = "machine"
    cpu_ghz: float = 3.0
    #: last-level cache size in bytes
    llc_bytes: int = 9 * MIB
    #: enclave page cache usable by enclaves, bytes
    epc_bytes: int = 93 * MIB
    cache_line: int = 64

    # memory access costs (cycles)
    llc_hit_cycles: float = 12.0
    llc_miss_cycles: float = 200.0
    #: multiplier on an LLC miss in enclave mode (Eleos: 5.6x-9.5x)
    enclave_miss_factor: float = 6.5
    #: cost of one EPC page swap (EWB + ELDU)
    epc_fault_cycles: float = 40_000.0

    # boundary-crossing costs (cycles)
    #: Privagic lock-free FIFO message: enqueue + dequeue + cache-line
    #: transfer (§9.3.2: cheaper than a lock-based switchless call)
    privagic_message_cycles: float = 700.0
    #: Intel SDK switchless call (lock-based, [40, 43])
    sdk_switchless_cycles: float = 3_500.0
    #: classic eenter/eexit ecall pair, for non-switchless paths
    ecall_cycles: float = 9_000.0
    #: Scone switchless system call from inside the enclave
    scone_syscall_cycles: float = 2_500.0

    # base per-operation compute (request parsing, hashing, ...)
    op_base_cycles: float = 400.0

    def seconds(self, cycles: float) -> float:
        return cycles / (self.cpu_ghz * 1e9)


#: Machine A of §9.1: i5-9500, 3 GHz, SGXv1, 93 MiB EPC, 9 MiB LLC.
MACHINE_A = CostParams(
    name="A (i5-9500, SGXv1)",
    cpu_ghz=3.0,
    llc_bytes=9 * MIB,
    epc_bytes=93 * MIB,
)

#: Machine B of §9.1: Xeon Gold 5415+, SGXv2, 8131 MiB EPC,
#: 22.5 MiB LLC.
MACHINE_B = CostParams(
    name="B (Xeon Gold 5415+, SGXv2)",
    cpu_ghz=2.9,
    llc_bytes=int(22.5 * MIB),
    epc_bytes=8131 * MIB,
)


class CostMeter:
    """Accumulates simulated cycles, broken down by cost class.

    Event counts accumulate as *floats* internally — fractional counts
    arise naturally (``memory_accesses`` splits ``n`` accesses by a
    miss ratio) and truncating them per call systematically undercounts
    across many small charges.  ``counts`` rounds only at reporting.
    """

    def __init__(self, params: CostParams):
        self.params = params
        self.cycles: float = 0.0
        self.breakdown: Dict[str, float] = {}
        self._counts: Dict[str, float] = {}
        #: optional ``fn(kind, cycles, count)`` called on every charge;
        #: ``None`` keeps charging free of observer work.
        self._observer: Optional[Callable[[str, float, float], None]] \
            = None

    def set_observer(
            self,
            fn: Optional[Callable[[str, float, float], None]]) -> None:
        """Attach/detach a per-charge observer (e.g. a tracer's
        ``cost_charge``)."""
        self._observer = fn

    @property
    def counts(self) -> Dict[str, int]:
        """Event counts per cost class, rounded for reporting."""
        return {kind: int(round(count))
                for kind, count in self._counts.items()}

    def charge(self, kind: str, cycles: float,
               count: float = 1) -> None:
        self.cycles += cycles
        self.breakdown[kind] = self.breakdown.get(kind, 0.0) + cycles
        self._counts[kind] = self._counts.get(kind, 0.0) + count
        if self._observer is not None:
            self._observer(kind, cycles, count)

    # -- cost classes -----------------------------------------------------------

    def memory_accesses(self, n: float, miss_ratio: float,
                        in_enclave: bool,
                        epc_fault_ratio: float = 0.0) -> None:
        """Charge ``n`` memory accesses with the given LLC miss ratio;
        in enclave mode misses are amplified and a fraction of them
        additionally faults on the EPC."""
        p = self.params
        hits = n * (1.0 - miss_ratio)
        misses = n * miss_ratio
        self.charge("llc_hit", hits * p.llc_hit_cycles, hits)
        miss_cost = p.llc_miss_cycles
        if in_enclave:
            miss_cost *= p.enclave_miss_factor
            self.charge("llc_miss_enclave", misses * miss_cost,
                        misses)
            if epc_fault_ratio > 0.0:
                faults = misses * epc_fault_ratio
                self.charge("epc_fault", faults * p.epc_fault_cycles,
                            faults)
        else:
            self.charge("llc_miss", misses * miss_cost, misses)

    def privagic_messages(self, n: int) -> None:
        self.charge("privagic_msg",
                    n * self.params.privagic_message_cycles, n)

    def ecalls(self, n: int) -> None:
        self.charge("ecall", n * self.params.ecall_cycles, n)

    def scone_syscalls(self, n: int) -> None:
        self.charge("scone_syscall",
                    n * self.params.scone_syscall_cycles, n)

    def compute(self, ops: float,
                cycles_per_op: Optional[float] = None) -> None:
        per_op = (cycles_per_op if cycles_per_op is not None
                  else self.params.op_base_cycles)
        self.charge("compute", ops * per_op, ops)

    # -- results --------------------------------------------------------------------

    @property
    def seconds(self) -> float:
        return self.params.seconds(self.cycles)

    def throughput(self, operations: int) -> float:
        """Operations per second for ``operations`` charged ops."""
        if self.cycles == 0:
            return float("inf")
        return operations / self.seconds

    def mean_latency_us(self, operations: int) -> float:
        if operations == 0:
            return 0.0
        return self.seconds / operations * 1e6

    def reset(self) -> None:
        self.cycles = 0.0
        self.breakdown.clear()
        self._counts.clear()
