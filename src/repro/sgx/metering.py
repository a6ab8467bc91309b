"""IR-level cost metering: attach a :class:`CostMeter` to a running
:class:`~repro.ir.interp.Machine`.

The Figure 8-10 experiments use analytic access counts; this module
does the converse: it charges the cost model from *actual* memory
accesses of an interpreted run (mode-aware: enclave accesses pay the
amplified miss price) and from the runtime's message counters.  Used
by tests and the metering ablation to cross-check the two levels.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List

from repro.ir.interp import ExecutionContext, Machine, UNSAFE_REGION
from repro.sgx.costmodel import CostMeter, CostParams, MACHINE_A


class MachineMeter:
    """Observes a machine's memory traffic and charges a cost meter.

    A crude one-slot-granularity cache model decides hits/misses: the
    most recently used ``resident_slots`` addresses are hits — enough
    to rank deployments on small IR-level runs without pretending to
    be the analytic model of :mod:`repro.sgx.cache`.  The recency set
    is an :class:`~collections.OrderedDict` used as a classic LRU
    (``move_to_end`` on hit, ``popitem(last=False)`` to evict), so
    every access is O(1) regardless of working-set size.

    ``track_colors=True`` additionally tallies LLC hits/misses per
    processor mode (``None``/untrusted vs enclave color) for the
    per-color profiles of :mod:`repro.obs` — off by default to keep
    the plain metering path lean.
    """

    def __init__(self, machine: Machine,
                 params: CostParams = MACHINE_A,
                 resident_slots: int = 4096,
                 track_colors: bool = False):
        self.machine = machine
        self.meter = CostMeter(params)
        self.resident_slots = resident_slots
        self._lru: "OrderedDict[int, None]" = OrderedDict()
        self.accesses_by_region: Dict[str, int] = {}
        self.track_colors = track_colors
        #: color (or "U" for normal mode) -> [llc_hits, llc_misses];
        #: populated only when ``track_colors`` is set.
        self.traffic_by_color: Dict[str, List[int]] = {}
        machine.access_hooks.append(self._on_access)

    def detach(self) -> "MachineMeter":
        """Stop observing.  Counters keep their values; the machine's
        memory subsystem (and the pre-decoded engine's inlined
        load/store fast path) goes back to paying zero observer
        overhead once the hook list is empty again."""
        if self._on_access in self.machine.access_hooks:
            self.machine.access_hooks.remove(self._on_access)
        return self

    def _on_access(self, ctx: ExecutionContext, addr: int, region: str,
                   rw: str) -> None:
        self.accesses_by_region[region] = \
            self.accesses_by_region.get(region, 0) + 1
        lru = self._lru
        hit = addr in lru
        if hit:
            lru.move_to_end(addr)
        else:
            lru[addr] = None
            if len(lru) > self.resident_slots:
                lru.popitem(last=False)
        in_enclave = ctx.mode is not None
        if self.track_colors:
            color = ctx.mode if in_enclave else "U"
            traffic = self.traffic_by_color.get(color)
            if traffic is None:
                traffic = self.traffic_by_color[color] = [0, 0]
            traffic[0 if hit else 1] += 1
        self.meter.memory_accesses(1, 0.0 if hit else 1.0, in_enclave)

    def charge_runtime_messages(self, runtime) -> None:
        """Add the boundary-crossing costs of a Privagic runtime."""
        self.meter.privagic_messages(runtime.stats.messages)

    def enclave_access_fraction(self) -> float:
        total = sum(self.accesses_by_region.values())
        if not total:
            return 0.0
        enclave = sum(count for region, count in
                      self.accesses_by_region.items()
                      if region != UNSAFE_REGION)
        return enclave / total

    @property
    def cycles(self) -> float:
        return self.meter.cycles
