"""One shard of the sharded serving layer, as its own process.

The router (:mod:`repro.serve.router`) is the only thing that starts
these: :func:`worker_command` builds the argv, whose one argument is
the worker's whole configuration as JSON — a serialized
:class:`~repro.serve.server.ServeConfig` plus the chaos hooks below.
The worker hosts a complete single-shard stack — untrusted
:class:`MiniCache` store, compiled partitioned KV program, one
:class:`~repro.runtime.executor.PrivagicRuntime` enclave runtime, the
:class:`~repro.serve.server.PrivagicServer` batching loop — behind an
ephemeral loopback port, and announces readiness on stdout with a
single machine-readable line::

    SHARD_READY shard=2 port=43117 pid=71002

The router parses the ready line, connects, and pipelines routed
requests over the connection using the ordinary request/response
framing — a shard worker neither knows nor cares that its one client
is a router rather than a memcached user.  Process isolation is the
point: each shard owns a private interpreter (its own GIL, its own
simulated enclave memory), so shards execute truly concurrently on
multicore hosts, and a shard crash is a *process* death the router
can detect and repair rather than shared-state corruption.

Chaos hooks: ``crash_after`` simulates an asynchronous enclave exit
(AEX) by hard-exiting the process (with the
:class:`~repro.errors.EnclaveCrash` CLI code) before the drive that
would push the shard past that many served operations.  The exit is
deterministic in *operation count*, so seeded differential runs can
kill the same shard at the same point every time.  ``inject`` /
``chaos_seed`` arm the :mod:`repro.faults` injector inside the shard's own
runtime, exactly as ``repro serve`` does for the single-process
server.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import sys
import threading
from typing import List, Optional

from repro.errors import EnclaveCrash, RuntimeFault, fault_exit_code
from repro.faults import FaultInjector, FaultPlan
from repro.serve.engine import SecureKVEngine
from repro.serve.server import PrivagicServer, ServeConfig

#: The stdout announcement the router waits for.
READY_PREFIX = "SHARD_READY"


class CrashingKVEngine(SecureKVEngine):
    """A :class:`SecureKVEngine` that simulates an AEX: the process
    hard-exits before the drive that would cross ``crash_after``
    served operations (0 never crashes).  ``os._exit`` (no atexit,
    no flushing, no drain) is deliberate — a real AEX gives the
    enclave no chance to say goodbye either."""

    def __init__(self, *args, crash_after: int = 0, **kwargs):
        super().__init__(*args, **kwargs)
        self.crash_after = crash_after

    def execute(self, ops):
        if self.crash_after and \
                self.ops_served + len(ops) > self.crash_after:
            os._exit(fault_exit_code(EnclaveCrash("")))
        return super().execute(ops)


def worker_command(shard_id: int, config: ServeConfig,
                   crash_after: int = 0, inject: Optional[str] = None,
                   chaos_seed: Optional[int] = None) -> List[str]:
    """The argv that spawns one worker: its whole configuration is
    one JSON argument (the serialized :class:`ServeConfig` plus the
    chaos hooks), which :func:`main` loads back."""
    spec = {"shard_id": shard_id, "config": dataclasses.asdict(config),
            "crash_after": crash_after, "inject": inject,
            "chaos_seed": chaos_seed}
    # A -c entry rather than -m: runpy would import repro.serve (which
    # itself imports this module for the package exports) and then
    # execute the module a second time, warning about the shadow copy.
    return [sys.executable, "-c",
            "from repro.serve.shard_worker import main; "
            "raise SystemExit(main())", json.dumps(spec)]


def main() -> int:
    spec = json.loads(sys.argv[1])
    shard_id = spec["shard_id"]
    config = ServeConfig(**spec["config"])
    engine = CrashingKVEngine(crash_after=spec["crash_after"],
                              engine=config.engine,
                              max_steps=config.max_steps,
                              watchdog_steps=config.watchdog_steps)
    server = PrivagicServer(config, engine=engine)
    plan = FaultPlan.requested(spec["inject"], spec["chaos_seed"],
                               engine.program)
    if plan is not None:
        FaultInjector(plan).attach(engine.runtime)
    port = server.bind()
    if threading.current_thread() is threading.main_thread():
        # The router stops a shard with SIGTERM: drain, then exit 0.
        signal.signal(signal.SIGTERM,
                      lambda *_args: server.request_stop())
    print(f"{READY_PREFIX} shard={shard_id} port={port} "
          f"pid={os.getpid()}", flush=True)
    try:
        server.serve_forever()
    except RuntimeFault as fault:
        print(f"shard {shard_id}: "
              f"fault[{type(fault).__name__}]: {fault}",
              file=sys.stderr)
        return fault_exit_code(fault)
    return 0
