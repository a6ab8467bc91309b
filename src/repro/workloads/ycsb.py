"""YCSB workload specification and operation streams.

The evaluation's parameters (§9.2, §9.3): 1024-byte records, 8-byte
keys, zipfian request distribution by default, 8 000 000 operations
against memcached, 100 000 (one color) or 20 000 (two colors)
pre-loaded keys against the data structures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional

from repro.workloads.distributions import (
    LatestGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
)


class Operation(NamedTuple):
    kind: str   # "read" | "update" | "insert" | "rmw"
    key: int


@dataclass
class WorkloadSpec:
    """A YCSB workload mix."""

    name: str
    read: float = 0.0
    update: float = 0.0
    insert: float = 0.0
    rmw: float = 0.0      # read-modify-write (workload F)
    distribution: str = "zipfian"   # zipfian | uniform | latest
    record_bytes: int = 1024
    key_bytes: int = 8

    def mix(self) -> List:
        return [(self.read, "read"), (self.update, "update"),
                (self.insert, "insert"), (self.rmw, "rmw")]


WORKLOAD_A = WorkloadSpec("A", read=0.5, update=0.5)
WORKLOAD_B = WorkloadSpec("B", read=0.95, update=0.05)
WORKLOAD_C = WorkloadSpec("C", read=1.0)
WORKLOAD_D = WorkloadSpec("D", read=0.95, insert=0.05,
                          distribution="latest")
WORKLOAD_F = WorkloadSpec("F", read=0.5, rmw=0.5)

_SPECS = {w.name: w for w in (WORKLOAD_A, WORKLOAD_B, WORKLOAD_C,
                              WORKLOAD_D, WORKLOAD_F)}


def workload_by_name(name: str) -> WorkloadSpec:
    """Look up a workload by name.

    Accepts the canonical single letter in either case (``"A"``,
    ``"c"``) and the spelled-out aliases YCSB tooling uses
    (``"ycsb-a"``, ``"ycsb_a"``, ``"workload-a"``, ``"workloada"``).
    Unknown names raise a :class:`ValueError` that lists the valid
    choices instead of a bare ``KeyError``.
    """
    normalized = name.strip().upper().replace("_", "-")
    for prefix in ("YCSB-", "YCSB", "WORKLOAD-", "WORKLOAD"):
        if normalized.startswith(prefix) and \
                len(normalized) > len(prefix):
            normalized = normalized[len(prefix):]
            break
    spec = _SPECS.get(normalized)
    if spec is None:
        valid = ", ".join(_SPECS)
        raise ValueError(
            f"unknown YCSB workload {name!r}: valid workloads are "
            f"{valid} (aliases like 'ycsb-a' work too)")
    return spec


class Workload:
    """A reproducible stream of YCSB operations."""

    def __init__(self, spec: WorkloadSpec, record_count: int,
                 operation_count: int, seed: int = 42):
        self.spec = spec
        self.record_count = record_count
        self.operation_count = operation_count
        self.seed = seed
        self._chooser = self._make_chooser()
        import random
        self._op_rng = random.Random(seed ^ 0x5bd1e995)
        self._inserted = record_count

    def _make_chooser(self):
        if self.spec.distribution == "uniform":
            return UniformGenerator(self.record_count, self.seed)
        if self.spec.distribution == "latest":
            return LatestGenerator(self.record_count, seed=self.seed)
        return ScrambledZipfianGenerator(self.record_count,
                                         seed=self.seed)

    def operations(self) -> Iterator[Operation]:
        for _ in range(self.operation_count):
            yield self.next_operation()

    def next_operation(self) -> Operation:
        kind = self._pick_kind()
        if kind == "insert":
            key = self._inserted
            self._inserted += 1
            if hasattr(self._chooser, "grow"):
                self._chooser.grow()
        else:
            key = self._chooser.next()
        return Operation(kind, key)

    def _pick_kind(self) -> str:
        r = self._op_rng.random()
        acc = 0.0
        for weight, kind in self.spec.mix():
            acc += weight
            if r < acc:
                return kind
        return "read"

    # -- aggregate properties the cost model uses ---------------------------------

    @property
    def dataset_bytes(self) -> int:
        return self.record_count * (self.spec.record_bytes
                                    + self.spec.key_bytes)

    def operation_mix(self) -> Dict[str, float]:
        return {kind: weight for weight, kind in self.spec.mix()
                if weight > 0.0}


def dataset_sweep(min_bytes: int, max_bytes: int,
                  record_bytes: int = 1024) -> List[int]:
    """Record counts whose datasets span [min_bytes, max_bytes] in
    powers of two — the Figure 8 x-axis (1 MiB to 32 GiB)."""
    counts = []
    size = min_bytes
    while size <= max_bytes:
        counts.append(max(1, size // record_bytes))
        size *= 2
    return counts
