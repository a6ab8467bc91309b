"""repro.serve — the networked serving layer (paper §9.2-§9.3).

The evaluation measures partitioned memcached end-to-end: real
clients, real sockets, YCSB traffic.  This package is that missing
transport: one connection shell — listener, framing, per-connection
in-order replies, drain — that both serving loops run on
(:mod:`repro.serve.shell`), a selectors-based TCP server hosting the
compiled partitioned KV application behind the minicache text
protocol (:mod:`repro.serve.server`), the secure-engine bridge that batches
pending requests into single interpreter drives
(:mod:`repro.serve.engine`), incremental request/response framing
with malformed-input rejection (:mod:`repro.serve.framing`), a
multi-threaded YCSB load generator reporting throughput and latency
percentiles (:mod:`repro.serve.loadgen`), and the sharded
multi-process tier — consistent hashing
(:mod:`repro.serve.hashring`), per-shard worker processes
(:mod:`repro.serve.shard_worker`), the front router with cross-shard
integrity checking, exact crash replay and self-healing membership
(:mod:`repro.serve.router`), and the failure-detection primitives
the router composes — bounded-backoff connects, liveness probes,
per-shard circuit breakers (:mod:`repro.serve.health`).
"""

from repro.serve.engine import SecureKVEngine
from repro.serve.framing import FrameError, RequestFramer, ResponseFramer
from repro.serve.hashring import HashRing
from repro.serve.health import (
    CircuitBreaker,
    HealthMonitor,
    connect_with_backoff,
)
from repro.serve.loadgen import LoadClient, run_load
from repro.serve.router import RouterConfig, RouterThread, ShardRouter
from repro.serve.server import PrivagicServer, ServeConfig, ServerThread

__all__ = [
    "CircuitBreaker",
    "FrameError",
    "HashRing",
    "HealthMonitor",
    "LoadClient",
    "PrivagicServer",
    "RequestFramer",
    "ResponseFramer",
    "RouterConfig",
    "RouterThread",
    "SecureKVEngine",
    "ServeConfig",
    "ServerThread",
    "ShardRouter",
    "connect_with_backoff",
    "run_load",
]
