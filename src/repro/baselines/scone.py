"""Scone-like full-embed deployment model (paper [5], §9.2).

Scone runs the complete application — with the musl C library and its
library OS — inside one enclave, calling the host kernel through
switchless system calls.  Two consequences the evaluation measures:

* a large TCB: §9.2.2 reports 51 271 KiB of binary loaded into the
  enclave (memcached 349 KiB + musl 14.7 MiB + libOS 36.2 MiB), about
  200× Privagic's 268 KiB;
* a high per-request cost: entering/leaving the enclave per request is
  slower than Privagic's message, and every network/lock operation is
  a system call issued from inside the enclave (§9.2.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sgx.costmodel import CostMeter, KIB, MIB


#: Table 4 constants (KiB of binary inside the enclave).
SCONE_TCB_KIB = 51_271
SCONE_MEMCACHED_KIB = 349
SCONE_MUSL_KIB = int(14.7 * 1024)
SCONE_LIBOS_KIB = int(36.2 * 1024)

#: lines of LLVM user code when the whole application is embedded
#: (§9.2.2: "78106 lines of LLVM code" + libraries).
SCONE_USER_CODE_LLVM_LINES = 78_106


@dataclass
class SconeCosts:
    """Per-request cost structure of the full-embed deployment."""

    #: enclave enter+leave to process one request
    request_entry_exits: int = 1
    #: system calls per request issued from the enclave: socket read,
    #: socket write, event loop, lock acquire/release, timers ...
    syscalls_per_request: int = 16
    #: all request-handling computation runs in enclave mode
    compute_ops: int = 3


class SconeDeployment:
    """Charges one memcached-style request under Scone."""

    name = "Scone"
    costs = SconeCosts()

    def charge_request(self, meter: CostMeter, struct_accesses: float,
                       value_lines: float, miss_ratio: float,
                       epc_faults: float) -> None:
        c = self.costs
        meter.ecalls(c.request_entry_exits)
        meter.scone_syscalls(c.syscalls_per_request)
        meter.compute(c.compute_ops)
        # Everything — parsing buffers, connection state, the map —
        # lives in the enclave, so every access pays enclave-mode
        # pricing.
        meter.memory_accesses(struct_accesses + value_lines,
                              miss_ratio, in_enclave=True,
                              epc_fault_ratio=epc_faults)
