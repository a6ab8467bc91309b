"""Processor modes, access checks and the attacker model.

Paper §2.1: *"In normal mode, the processor prevents access to the
memory of the enclaves.  When the processor enters the enclave mode,
it gains access to a single enclave [...] and the memory located
outside any enclave [...] The processor can, however, not access the
memory of the non-active enclaves in enclave mode."*

Paper §4 (threat model): the attacker fully controls the machine —
operating system, hypervisor and hardware — but cannot read or write
the memory of the enclaves.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import SGXAccessViolation
from repro.ir.interp import (
    ExecutionContext,
    Machine,
    UNSAFE_REGION,
    enclave_region,
)


class SGXAccessPolicy:
    """Access policy enforcing the SGX isolation semantics; install it
    with :meth:`attach`.

    A context's ``mode`` is ``None`` for normal mode or the active
    enclave's color for enclave mode (the Privagic runtime's workers
    run in the mode of their enclave).
    """

    def __init__(self):
        self.checked_accesses = 0
        self.denied: List[Tuple[str, str, int, str]] = []

    def attach(self, machine: Machine) -> "SGXAccessPolicy":
        machine.access_policy = self
        return self

    def detach(self, machine: Machine) -> "SGXAccessPolicy":
        """Uninstall the policy.  Besides the obvious, this re-arms
        the pre-decoded engine's unobserved memory fast path, which
        only engages while ``machine.access_policy`` is None."""
        if machine.access_policy is self:
            machine.access_policy = None
        return self

    def __call__(self, ctx: ExecutionContext, addr: int, region: str,
                 rw: str) -> None:
        self.checked_accesses += 1
        mode = ctx.mode
        if region == UNSAFE_REGION:
            return  # unsafe memory is accessible from both modes
        if not region.startswith("enclave:"):
            return
        active = enclave_region(mode) if mode is not None else None
        if region == active:
            return
        self.denied.append((ctx.name, rw, addr, region))
        raise SGXAccessViolation(
            f"{ctx.name} in {'enclave ' + mode if mode else 'normal'} "
            f"mode cannot {rw} {region} at address {addr}",
            address=addr, mode=mode or "normal", region=region)


class Attacker:
    """The §4 adversary: reads and writes all unsafe memory at will,
    observes every value there, but cannot see inside enclaves.

    The security tests use it in two ways:

    * :meth:`scan_for` — sweep unsafe memory for a sensitive value (a
      confidentiality breach if found);
    * :meth:`corrupt` / :meth:`poison_region` — overwrite unsafe
      memory to mount Iago-style attacks.
    """

    def __init__(self, machine: Machine):
        self.machine = machine

    # -- observation ----------------------------------------------------------

    def readable_addresses(self) -> List[int]:
        addrs: List[int] = []
        for alloc in self.machine.memory.live_allocations():
            if alloc.region == UNSAFE_REGION:
                addrs.extend(range(alloc.base, alloc.base + alloc.size))
        return addrs

    def dump_unsafe_memory(self) -> Dict[int, object]:
        return {addr: self.machine.memory.read(addr)
                for addr in self.readable_addresses()}

    def scan_for(self, value: object) -> List[int]:
        """Addresses in unsafe memory holding ``value`` — any hit is a
        leaked sensitive value."""
        return [addr for addr, v in self.dump_unsafe_memory().items()
                if v == value]

    def try_read_enclave(self, color: str) -> None:
        """Attempt to read any address of an enclave; always raises
        :class:`SGXAccessViolation` (the hardware guarantee)."""
        region = enclave_region(color)
        for alloc in self.machine.memory.live_allocations():
            if alloc.region == region:
                raise SGXAccessViolation(
                    f"attacker cannot read {region}",
                    address=alloc.base, mode="normal", region=region)
        raise SGXAccessViolation(f"attacker cannot read {region}",
                                 mode="normal", region=region)

    # -- corruption --------------------------------------------------------------

    def corrupt(self, addr: int, value: object) -> None:
        region = self.machine.memory.region_of(addr)
        if region != UNSAFE_REGION:
            raise SGXAccessViolation(
                f"attacker cannot write {region}", address=addr,
                mode="normal", region=region)
        self.machine.memory.write(addr, value)

    def poison_region(self, value: object) -> int:
        """Overwrite every unsafe slot with ``value``; returns how many
        slots were poisoned."""
        addrs = self.readable_addresses()
        for addr in addrs:
            self.machine.memory.write(addr, value)
        return len(addrs)

    def corrupt_global(self, name: str, value: object) -> None:
        for module in self.machine.modules:
            gv = module.globals.get(name)
            if gv is not None:
                self.corrupt(self.machine.global_address(gv), value)
                return
        raise KeyError(name)
