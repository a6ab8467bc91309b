"""Enclave lifecycle: creation, measurement, EPC accounting.

A TEE authenticates enclaves through remote attestation over a
*measurement* — a cryptographic hash of the code and initial data
loaded into the enclave (paper §1).  The simulator measures the
printed text of the module loaded into each enclave, which is also the
quantity behind the Table 4 TCB metric.
"""

from __future__ import annotations

import hashlib
from typing import Dict

from repro.errors import PrivagicError
from repro.ir.interp import Machine, enclave_region
from repro.ir.module import Module
from repro.ir.printer import print_module


class Enclave:
    """One simulated enclave: a color, a module, a measurement."""

    def __init__(self, color: str, module: Module):
        self.color = color
        self.module = module
        self.text = print_module(module)
        #: SHA-256 over code + initial data — the attestation quantity.
        self.measurement = hashlib.sha256(
            self.text.encode()).hexdigest()

    @property
    def region(self) -> str:
        return enclave_region(self.color)

    def code_lines(self) -> int:
        """Lines of IR text — the paper's "lines of LLVM code" user-
        code TCB metric (Table 4)."""
        return sum(1 for line in self.text.splitlines()
                   if line.strip() and not line.startswith(";"))

    def __repr__(self) -> str:
        return (f"<Enclave {self.color} measurement="
                f"{self.measurement[:12]}...>")


class EnclaveFaultModel:
    """Crash/restart accounting for simulated asynchronous enclave
    exits (AEX).

    Real SGX enclaves can be killed at any instruction by the
    untrusted OS; Privagic's protocol only promises that such a crash
    is *detected*, never silently absorbed.  The simulator injects
    crashes at the spawn-delivery boundary — before the chunk's first
    instruction has run — because that is the one window where a
    restart can replay the pending spawn exactly (no partial writes to
    roll back; mid-chunk crashes always take the abort path).

    :meth:`crash` decides the outcome of one injected crash: ``True``
    means the worker came back up (bounded by ``max_restarts`` per
    color) and the spawn should be replayed; ``False`` means the
    worker stays down and the caller must raise
    :class:`~repro.errors.EnclaveCrash`.
    """

    def __init__(self, max_restarts: int = 3):
        self.max_restarts = max_restarts
        #: color -> injected crash count
        self.crashes: Dict[str, int] = {}
        #: color -> successful restart count
        self.restarts: Dict[str, int] = {}

    def crash(self, color: str, chunk: str, recover: bool) -> bool:
        """Record a simulated AEX of ``color`` while delivering
        ``chunk``; returns whether the worker recovered."""
        self.crashes[color] = self.crashes.get(color, 0) + 1
        if not recover:
            return False
        used = self.restarts.get(color, 0)
        if used >= self.max_restarts:
            return False
        self.restarts[color] = used + 1
        return True


class EnclaveManager:
    """Tracks the enclaves of a machine: creation and attestation."""

    def __init__(self, machine: Machine, epc_bytes: int):
        self.machine = machine
        self.epc_bytes = epc_bytes
        self.enclaves: Dict[str, Enclave] = {}

    def create(self, color: str, module: Module) -> Enclave:
        if color in self.enclaves:
            raise PrivagicError(f"enclave {color} already exists")
        enclave = Enclave(color, module)
        self.enclaves[color] = enclave
        return enclave

    def attest(self, color: str, expected_measurement: str) -> bool:
        """Remote attestation: compare the enclave's measurement with
        the verifier's expectation."""
        enclave = self.enclaves.get(color)
        return (enclave is not None
                and enclave.measurement == expected_measurement)
