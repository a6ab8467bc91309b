"""The selectors-based TCP server hosting the partitioned KV app.

One thread, one event loop (the paper's memcached is event-based,
§9.2), on the connection shell of :mod:`repro.serve.shell`: the
listener, per-connection framing, in-order replies and shutdown live
there, and this module is the server's policy.  Complete requests are
*not* executed inline — they enter a bounded pending
queue, and each scheduling round pops up to ``batch`` of them into a
single :meth:`~repro.serve.engine.SecureKVEngine.execute` drive.
That is the batching the evaluation measures: enclave-transition and
scheduler fixed costs are paid per *round*, so many concurrent
clients share them (``serve.batch_size`` / ``serve.queue_depth``
histograms show the effect; ``bench_serve`` quantifies it).

Admission control: when the pending queue is full the request is
answered ``SERVER_BUSY`` without queueing and counted in
``serve.shed`` — the queue bounds memory and tail latency instead of
accepting unbounded work.  The answer still leaves in its turn: a
client that pipelines past the bound reads its earlier requests'
replies first.

Shutdown is drain-and-stop: :meth:`PrivagicServer.request_stop`
(signal-safe; the CLI wires SIGINT to it) stops accepting, the
remaining queue is executed, reply buffers are flushed, and only
then do the sockets close.  A :class:`~repro.errors.RuntimeFault`
raised by the engine mid-drive (chaos injection, integrity
violation) aborts instead: sockets close immediately and the typed
fault propagates to the caller — over TCP, a chaos run still ends
with the PR-4 exit codes.

Untrusted-store integrity: the cache holding the actual bytes is
untrusted (:class:`~repro.apps.minicache.server.MiniCache`); the
enclave index keeps a digest per key.  Every reply is cross-checked
and a mismatch raises :class:`~repro.errors.IagoFault` — the server
detects a lying store rather than serving its answer.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from repro.apps.minicache import protocol
from repro.apps.minicache.server import MiniCache
from repro.errors import IagoFault
from repro.obs.metrics import MetricsRegistry
from repro.serve.engine import SecureKVEngine
from repro.serve.shell import (
    IDLE_POLL,
    Connection,
    ConnectionShell,
    LoopThread,
    Slot,
)


@dataclass
class ServeConfig:
    """Tunables of one server instance."""

    host: str = "127.0.0.1"
    port: int = 0                  # 0 = ephemeral, see bind()
    batch: int = 16                # max requests per engine drive
    batch_window: float = 0.002    # adaptive coalescing cap, seconds
    queue_depth: int = 128         # pending-queue bound (admission)
    capacity_bytes: int = 64 * 1024 * 1024   # untrusted cache LRU
    engine: Optional[str] = None   # interpreter engine name
    max_steps: int = 50_000_000    # per-drive scheduler budget
    watchdog_steps: Optional[int] = None
    max_requests: Optional[int] = None  # accept N requests, then drain
    drain_timeout: float = 5.0     # reply-flush deadline on shutdown
    #: Self-terminate after having served at least one connection and
    #: then sitting connection-free for this long.  Shard workers run
    #: with this armed so a router death cannot strand worker
    #: processes: an orphaned worker notices its only client is gone
    #: and drains instead of lingering forever.  ``None`` disables it.
    orphan_timeout: Optional[float] = None


class _Pending(Slot):
    """A queued request: its reply slot, the parse result (``None``
    when unparseable) and the enqueue time in tracer microseconds."""

    __slots__ = ("request", "ts")


class PrivagicServer(ConnectionShell):
    """The serving loop (see module docstring).

    Parameters
    ----------
    config:
        A :class:`ServeConfig`; defaults throughout.
    registry:
        Publish ``serve.*`` metrics into an existing
        :class:`~repro.obs.metrics.MetricsRegistry` (the CLI passes
        the Observability registry so everything lands in one
        ``--stats`` dump); a private one is created otherwise.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer` for the
        per-request accept→enqueue→execute→reply span stream.
    engine:
        An existing :class:`SecureKVEngine` (tests, benchmarks with a
        shared pre-compiled program); built from the config if
        omitted.
    """

    metrics = "serve"

    def __init__(self, config: Optional[ServeConfig] = None,
                 registry: Optional[MetricsRegistry] = None,
                 tracer=None,
                 engine: Optional[SecureKVEngine] = None):
        super().__init__(config or ServeConfig(), registry, tracer)
        self.engine = engine if engine is not None else SecureKVEngine(
            engine=self.config.engine,
            max_steps=self.config.max_steps,
            watchdog_steps=self.config.watchdog_steps)
        self.cache = MiniCache(capacity_bytes=self.config.capacity_bytes)
        self._evicted: List[str] = []
        self.cache.on_evict = self._evicted.append
        self.pending: Deque[_Pending] = deque()
        self._accepted = 0          # requests admitted to the queue
        self._oldest_pending_ts = 0.0   # batch-window anchor
        self._orphan_since: Optional[float] = None

    def _round(self) -> None:
        before = self._accepted
        self._poll(0.0 if self.pending else IDLE_POLL)
        if self.pending and self._round_ready(before):
            self._drive_round()
        self._flush_replies()
        self._check_orphaned()

    def _drain(self) -> None:
        # Every admitted request is answered however long that takes;
        # only the reply flush is bounded by drain_timeout.
        self._close_listener()
        while self.pending:
            self._drive_round()
        super()._drain()

    def _check_orphaned(self) -> None:
        """Arm/advance the orphan clock (see
        :attr:`ServeConfig.orphan_timeout`)."""
        if self.config.orphan_timeout is None:
            return
        if self.connections or not self._next_conn_id:
            self._orphan_since = None
            return
        now = time.monotonic()
        if self._orphan_since is None:
            self._orphan_since = now
        elif now - self._orphan_since >= self.config.orphan_timeout:
            self.registry.inc("serve.orphan_exits")
            self._stop = True

    def _on_frame(self, conn: Connection, raw: str) -> None:
        full = len(self.pending) >= self.config.queue_depth
        if full or self._stop:
            # Admission control: answer in turn, never queue.
            self.registry.inc("serve.shed")
            if self.tracer is not None:
                self.tracer.serve_mark(
                    "shed", conn.track,
                    {"reason": "queue_full" if full else "draining"})
            self.answer(conn, protocol.SERVER_BUSY)
            return
        slot = _Pending(conn, raw)
        try:
            slot.request = protocol.parse_request(raw)
        except protocol.ProtocolError:
            slot.request = None
        slot.ts = self.tracer.now_us() if self.tracer is not None \
            else 0.0
        conn.slots.append(slot)
        if not self.pending:
            self._oldest_pending_ts = time.monotonic()
        self.pending.append(slot)
        self._accepted += 1
        self.registry.inc("serve.requests")
        if self.tracer is not None:
            self.tracer.serve_mark("enqueue", conn.track,
                                   {"depth": len(self.pending)})
        limit = self.config.max_requests
        if limit is not None and self._accepted >= limit:
            self._stop = True

    # -- the batched scheduling round --------------------------------------------

    def _round_ready(self, accepted_before: int) -> bool:
        """The adaptive batch window: drive now, or wait one more
        poll for co-arriving requests?

        Drive immediately when the batch is already full, when every
        open connection already has a request pending (closed-loop
        clients cannot send more until answered, so nothing further
        is coming — in particular a lone client never waits on a
        window), when the last poll produced *no* new requests, or
        when the oldest pending request has waited ``batch_window``
        seconds (bounded added latency even under a continuous
        trickle).  Only while requests are still streaming in does
        the loop take another zero-timeout poll first, so concurrent
        arrivals coalesce into one interpreter drive instead of
        fragmenting across many — batching can win, never lose.
        """
        if len(self.pending) >= self.config.batch:
            return True
        if len(self.pending) >= len(self.connections):
            return True
        if self._accepted == accepted_before:
            return True
        if time.monotonic() - self._oldest_pending_ts \
                >= self.config.batch_window:
            return True
        self.registry.inc("serve.window_waits")
        return False

    def _drive_round(self) -> None:
        """Pop up to ``batch`` pending requests and serve them with
        one engine drive."""
        batch: List[_Pending] = []
        while self.pending and len(batch) < self.config.batch:
            batch.append(self.pending.popleft())
        self.registry.observe("serve.batch_size", len(batch))
        self.registry.observe("serve.queue_depth",
                              len(self.pending) + len(batch))
        self.registry.inc("serve.drives")
        tracer = self.tracer
        t0 = tracer.now_us() if tracer is not None else 0.0
        steps_before = self.engine.steps
        responses = self._execute(batch)
        if tracer is not None:
            t1 = tracer.now_us()
            tracer.serve_span(
                "execute", "serve", t0, t1 - t0,
                {"batch": len(batch),
                 "steps": self.engine.steps - steps_before})
        for slot, response in zip(batch, responses):
            slot.response = response
            conn = slot.conn
            if conn.sock is None:
                continue
            if tracer is not None:
                tracer.serve_span("queued", conn.track, slot.ts,
                                  t0 - slot.ts)
                tracer.serve_mark("reply", conn.track,
                                  {"bytes": len(response)})
            self.pump(conn)

    def _execute(self, batch: List[_Pending]) -> List[str]:
        """Serve one batch: untrusted cache first (it owns the
        bytes), then a single secure drive over the whole batch, then
        the per-reply integrity cross-check."""
        responses: List[str] = []
        engine_ops: List[tuple] = []
        op_counts: List[int] = []
        for slot in batch:
            request = slot.request
            self._evicted.clear()
            response = self.cache.handle(slot.frame)
            responses.append(response)
            if request is None:
                op_counts.append(0)
                continue
            before = len(engine_ops)
            if request.command == "set":
                engine_ops.append(("set", request.key, request.data))
                # LRU victims leave the untrusted store; the enclave
                # index must forget them in the same round, in order.
                for victim in self._evicted:
                    engine_ops.append(("delete", victim))
            elif request.command == "get":
                engine_ops.append(("get", request.key))
            elif request.command == "delete":
                engine_ops.append(("delete", request.key))
            op_counts.append(len(engine_ops) - before)
        replies = self.engine.execute(engine_ops)
        index = 0
        for slot, response, count in zip(batch, responses, op_counts):
            if count:
                self._verify(slot.request, response,
                             replies[index:index + count])
                index += count
        return responses

    def _verify(self, request: protocol.Request, response: str,
                replies: List[int]) -> None:
        """Cross-check the untrusted store's answer against the
        enclave index (see module docstring)."""
        first = replies[0]
        if request.command == "get":
            value = protocol.parse_value_response(response)
            if value is None:
                if first != 0:
                    raise IagoFault(
                        f"untrusted store reports a miss for key "
                        f"{request.key!r} but the enclave index "
                        f"holds digest {first:#x}")
            elif SecureKVEngine.digest(value) != first:
                raise IagoFault(
                    f"untrusted store returned a value for key "
                    f"{request.key!r} that does not match the "
                    f"enclave digest")
        elif request.command == "set":
            bad = [r for r in replies if r != 1]
            if response != protocol.STORED or bad:
                raise IagoFault(
                    f"set of key {request.key!r} did not commit "
                    f"consistently (store: {response.strip()!r}, "
                    f"enclave replies: {replies})")
        elif request.command == "delete":
            store_found = response == protocol.DELETED
            if store_found != (first == 1):
                raise IagoFault(
                    f"delete of key {request.key!r} disagrees: "
                    f"store found={store_found}, enclave "
                    f"found={first == 1}")


class ServerThread(LoopThread):
    """Run a :class:`PrivagicServer` on a daemon thread (see
    :class:`~repro.serve.shell.LoopThread`)."""

    def __init__(self, config: Optional[ServeConfig] = None,
                 **kwargs):
        self.server = PrivagicServer(config, **kwargs)
        super().__init__(self.server, "repro-serve")
