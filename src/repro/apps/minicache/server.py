"""The minicache server: central hash table + LRU + worker pool.

Mirrors the memcached architecture the paper describes (§9.2): an
event-based design where a listener dispatches requests to worker
threads; the workers share one central map and an LRU maintenance
structure.  The simulated worker pool is deterministic: requests are
dispatched round-robin and each worker keeps its own counters, which
the Figure 8 experiment aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.apps.minicache import protocol
from repro.apps.minicache.lru import LRUIndex
from repro.apps.minicache.protocol import Request
from repro.datastructures.hashmap import ChainingHashMap
from repro.datastructures.instrumented import AccessCounter


@dataclass
class CacheStats:
    gets: int = 0
    hits: int = 0
    sets: int = 0
    deletes: int = 0
    evictions: int = 0
    bad_requests: int = 0

    def merge(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            self.gets + other.gets, self.hits + other.hits,
            self.sets + other.sets, self.deletes + other.deletes,
            self.evictions + other.evictions,
            self.bad_requests + other.bad_requests)


class MiniCache:
    """The cache core shared by all workers."""

    def __init__(self, capacity_bytes: int = 64 * 1024 * 1024,
                 counter: Optional[AccessCounter] = None):
        self.counter = counter or AccessCounter()
        self.map = ChainingHashMap(counter=self.counter)
        self.lru = LRUIndex(capacity_bytes)
        self.stats = CacheStats()
        #: Optional ``key -> None`` callback fired for every LRU
        #: eviction.  The socket server (repro.serve) uses it to keep
        #: the enclave-side key index in sync with the untrusted
        #: store, so an evicted key does not read as an integrity
        #: violation later.
        self.on_evict = None

    # -- operations --------------------------------------------------------------

    def set(self, key: str, data: bytes) -> None:
        self.map.put(key, data)
        for victim in self.lru.add(key, len(data) + len(key)):
            self.map.delete(victim)
            self.stats.evictions += 1
            if self.on_evict is not None:
                self.on_evict(victim)
        self.stats.sets += 1

    def get(self, key: str) -> Optional[bytes]:
        value = self.map.get(key)
        self.stats.gets += 1
        if value is not None:
            self.stats.hits += 1
            self.lru.touch(key)
        return value

    def delete(self, key: str) -> bool:
        removed = self.map.delete(key)
        if removed:
            self.lru.remove(key)
            self.stats.deletes += 1
        return removed

    def __len__(self) -> int:
        return len(self.map)

    # -- protocol endpoint ----------------------------------------------------------

    def handle(self, raw_request: str) -> str:
        try:
            request = protocol.parse_request(raw_request)
        except protocol.ProtocolError:
            self.stats.bad_requests += 1
            return protocol.ERROR
        return self.dispatch(request)

    def dispatch(self, request: Request) -> str:
        if request.command == "set":
            self.set(request.key, request.data)
            return protocol.STORED
        if request.command == "get":
            value = self.get(request.key)
            if value is None:
                return protocol.END
            return protocol.encode_value(request.key, value)
        if request.command == "delete":
            return (protocol.DELETED if self.delete(request.key)
                    else protocol.NOT_FOUND)
        self.stats.bad_requests += 1
        return protocol.ERROR


class WorkerPool:
    """Round-robin dispatch over N workers sharing one cache — the
    paper's 7-thread memcached configuration (1 listener + workers).
    """

    def __init__(self, cache: MiniCache, workers: int = 6):
        self.cache = cache
        self.workers = workers
        self.per_worker_requests: List[int] = [0] * workers
        self._next = 0

    def submit(self, raw_request: str) -> str:
        worker = self._next
        self._next = (self._next + 1) % self.workers
        self.per_worker_requests[worker] += 1
        return self.cache.handle(raw_request)

    @property
    def total_requests(self) -> int:
        return sum(self.per_worker_requests)
