"""The shard router: one front process, N shard-worker processes.

``repro serve --shards N`` turns the single-loop server of
:mod:`repro.serve.server` into a two-tier system:

* **Shard workers** (:mod:`repro.serve.shard_worker`): N child
  processes, each hosting a complete partitioned-KV stack — its own
  compiled program, enclave runtime, untrusted store and batching
  loop — behind a loopback port.  Each worker owns a private
  interpreter and a private (smaller) enclave index, so shards run
  in parallel on multicore hosts *and* every operation walks a chain
  that is ~N times shorter than the single-process index would be.

* **The router** (this module): accepts client connections with the
  ordinary request framing, consistent-hashes every key over the
  workers (:class:`~repro.serve.hashring.HashRing`), pipelines the
  raw frames down per-shard connections, and re-merges the replies.

**Ordering.**  Replies must reach each client in request order even
though different shards answer at different speeds.  Every admitted
request becomes a *slot* appended to its connection's FIFO; a shard
connection is itself a FIFO (one worker loop, replies in request
order), so the router pairs each incoming reply with the oldest
outstanding slot of that shard, and a connection flushes exactly the
ready *prefix* of its slot queue — a fast shard's replies wait in
their slots until the slow shard's earlier replies land.

**Integrity.**  Each worker already cross-checks its untrusted store
against its enclave index (a lying store dies as an
:class:`~repro.errors.IagoFault` inside the shard).  The router adds
a second, *cross-process* check: a digest ledger of every key it has
routed, recorded at forward time.  A shard that answers a ``get``
with bytes whose digest disagrees with the ledger, confirms a ``set``
with anything but ``STORED``, or reports a ``delete`` outcome that
contradicts the ledger raises :class:`IagoFault` at the router — a
whole lying shard *process* is detected, extending the PR-4 Iago
machinery across the process boundary.  (With ``strict_miss``, the
default, an unexpected miss is also a fault; disable it only when
shard caches are sized to evict, where a miss is legitimate.)

**Failure detection** (:mod:`repro.serve.health`).  A dead shard
announces itself as a connection error — but a wedged worker, a cut
link or a lost reply does not.  The router therefore runs a health
sweep every round: idle shards are probed with an ordinary ``get``
on a reserved ``__probe__`` key (flowing through the same slot FIFO
as client traffic, so a reply proves the whole pipeline), busy
shards are bounded by the age of their oldest in-flight request,
and every connect goes through bounded exponential-backoff retries
whose give-up is a typed :class:`~repro.errors.NetworkFault`.  A
per-shard circuit breaker caps *consecutive* recoveries so a
flapping shard cannot burn restarts forever.

**Recovery.**  On a confirmed death the router first distinguishes a
dead *link* from a dead *process*: if the worker process (or
external endpoint) is still there, it reconnects and rebuilds the
connection-level state by *exact replay* — the compacted log of
acknowledged mutations (final ``set`` frame per live key, in
first-insertion order) is replayed and every reply checked, then
the in-flight requests are re-forwarded in their original order.
Replay-then-reforward is idempotent, so a worker that had already
applied un-acked operations before the link died converges to the
same state.  A dead process is handled per ``on_death``:

* ``restart`` (default) — spawn a fresh worker under the same ring
  name, replay, re-forward; clients observe only added latency.
* ``rebalance`` — remove the shard from the hash ring and migrate
  its acked log to the new ring owners through their normal FIFOs
  (service never stalls); ``request_readd`` later runs the inverse
  migration, moving only the ~1/N arc back.
* ``degrade`` — remove the shard but *retain* its ledger-consistent
  acked state; requests for stranded keys are answered with a typed
  ``SHARD_UNAVAILABLE`` response instead of stalling the router,
  while the surviving keyspace serves normally.  ``request_readd``
  restores the stranded keys.
* ``fault`` — the death is a typed
  :class:`~repro.errors.EnclaveCrash`.

Either way: never a silently-wrong answer.
"""

from __future__ import annotations

import os
import selectors
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.apps.minicache import protocol
from repro.errors import (
    EnclaveCrash,
    IagoFault,
    NetworkFault,
    RuntimeFault,
)
from repro.faults.netchaos import NetChaos
from repro.faults.plan import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.serve.engine import SecureKVEngine
from repro.serve.framing import (
    FrameError,
    RequestFramer,
    ResponseFramer,
)
from repro.serve.hashring import HashRing
from repro.serve.health import (
    CircuitBreaker,
    HealthMonitor,
    connect_with_backoff,
    probe_key,
)
from repro.serve.shard_worker import READY_PREFIX, worker_command

#: Valid ``RouterConfig.on_death`` policies.
DEATH_POLICIES = ("restart", "rebalance", "degrade", "fault")


@dataclass
class RouterConfig:
    """Tunables of one router instance (front + workers)."""

    host: str = "127.0.0.1"
    port: int = 0                  # 0 = ephemeral
    shards: int = 2                # worker processes
    batch: int = 16                # per-worker drive batch
    batch_window: Optional[float] = None   # worker coalescing cap
    queue_depth: int = 128         # per-shard in-flight admission cap
    capacity_bytes: int = 64 * 1024 * 1024  # per-worker cache
    engine: Optional[str] = None
    max_steps: int = 50_000_000
    watchdog_steps: Optional[int] = None
    max_requests: Optional[int] = None  # route N requests, then drain
    idle_poll: float = 0.05
    drain_timeout: float = 10.0
    spawn_timeout: float = 60.0    # worker ready-line deadline
    connect_timeout: float = 10.0  # per-attempt shard connect cap
    connect_retries: int = 3       # extra connect attempts
    backoff_base: float = 0.05     # first retry pause (doubles)
    backoff_cap: float = 1.0       # retry pause ceiling
    replay_timeout: float = 30.0   # per-recv cap during replay
    #: Probe an idle shard after this many reply-free seconds
    #: (None disables probing).
    probe_interval: Optional[float] = None
    probe_timeout: float = 5.0     # unanswered probe => death
    #: A busy shard whose oldest in-flight request is older than
    #: this is dead (None disables the check).
    forward_timeout: Optional[float] = None
    replicas: int = 64             # ring points per shard
    #: Confirmed-death policy: restart | rebalance | degrade | fault.
    on_death: str = "restart"
    max_restarts: int = 3          # consecutive-recovery breaker budget
    strict_miss: bool = True       # unexpected miss => IagoFault
    #: shard index -> simulated-AEX op count (chaos, see
    #: repro.serve.shard_worker --crash-after).
    crash_after: Dict[int, int] = field(default_factory=dict)
    inject: Optional[str] = None   # per-worker fault schedule
    chaos_seed: Optional[int] = None
    #: Socket-chaos schedule (repro.faults.netchaos grammar) applied
    #: to the router's shard links and accepted client streams.
    net_inject: Optional[str] = None
    net_chaos_seed: Optional[int] = None
    #: Worker-side backstop: a spawned worker exits on its own after
    #: this many connection-free seconds (None disables), so a dead
    #: router cannot leave zombie shard processes behind.
    orphan_timeout: Optional[float] = None
    #: Pre-started shard endpoints (tests, in-process chaos sweeps):
    #: connect instead of spawning.  External shards cannot be
    #: respawned; a dead link is reconnected only under
    #: ``external_reconnect`` (or a rebalance/degrade policy) —
    #: otherwise death stays an EnclaveCrash.
    external_shards: Optional[Sequence[Tuple[str, int]]] = None
    external_reconnect: bool = False


class _Slot:
    """One admitted request awaiting its in-order reply.

    ``conn`` is ``None`` for router-internal slots — liveness probes
    (``command="probe"``) and rebalance traffic (``"migrate"`` /
    ``"evict"``) — which are verified like client slots but produce
    no client reply.  ``sent_at`` is the forward time the health
    sweep ages against.
    """

    __slots__ = ("conn", "command", "key", "expect", "frame",
                 "response", "sent_at")

    def __init__(self, conn: Optional["_ClientConn"],
                 command: Optional[str],
                 key: Optional[str], expect=None, frame: str = ""):
        self.conn = conn
        self.command = command
        self.key = key
        self.expect = expect
        self.frame = frame
        self.response: Optional[str] = None
        self.sent_at = 0.0


class _ClientConn:
    """One client session: framer in, ordered slot FIFO out."""

    __slots__ = ("sock", "addr", "conn_id", "framer", "slots", "out",
                 "closed", "close_after_flush", "requests")

    def __init__(self, sock: socket.socket, addr, conn_id: int):
        self.sock = sock
        self.addr = addr
        self.conn_id = conn_id
        self.framer = RequestFramer()
        self.slots: Deque[_Slot] = deque()
        self.out = bytearray()
        self.closed = False
        self.close_after_flush = False
        self.requests = 0

    @property
    def track(self) -> str:
        return f"conn.{self.conn_id}"


class _Shard:
    """Router-side state of one worker: process handle, pipelined
    connection, reply FIFO, and the acknowledged-mutation replay
    log."""

    __slots__ = ("index", "name", "proc", "port", "host", "sock",
                 "out", "rframer", "inflight", "acked_log",
                 "restarts", "forwarded", "breaker")

    def __init__(self, index: int, breaker_budget: int = 3):
        self.index = index
        self.name = f"shard{index}"
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.host = "127.0.0.1"
        self.sock: Optional[socket.socket] = None
        self.out = bytearray()
        self.rframer = ResponseFramer()
        self.inflight: Deque[_Slot] = deque()
        #: key -> the latest *acknowledged* set frame; replaying
        #: these (in order) reproduces the shard's acked state
        #: exactly.
        self.acked_log: Dict[str, str] = {}
        self.restarts = 0
        self.forwarded = 0
        self.breaker = CircuitBreaker(breaker_budget)

    @property
    def track(self) -> str:
        return f"shard.{self.index}"


class ShardRouter:
    """The front router loop (see module docstring).

    Lifecycle mirrors :class:`~repro.serve.server.PrivagicServer`:
    ``bind()`` then ``serve_forever()``; ``request_stop()`` drains; a
    :class:`RuntimeFault` (lying shard, unrecovered crash) aborts
    with the typed fault re-raised.
    """

    def __init__(self, config: Optional[RouterConfig] = None,
                 registry: Optional[MetricsRegistry] = None,
                 tracer=None):
        self.config = config or RouterConfig()
        if self.config.shards < 1:
            raise ValueError("a sharded server needs >= 1 shard")
        if self.config.on_death not in DEATH_POLICIES:
            raise ValueError(
                f"unknown on_death policy "
                f"{self.config.on_death!r} (expected one of "
                f"{', '.join(DEATH_POLICIES)})")
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.tracer = tracer
        self.shards: List[_Shard] = [
            _Shard(i, breaker_budget=self.config.max_restarts)
            for i in range(self.config.shards)]
        self._by_name = {shard.name: shard for shard in self.shards}
        self.ring = HashRing([shard.name for shard in self.shards],
                             replicas=self.config.replicas)
        self.monitor = HealthMonitor(
            probe_interval=self.config.probe_interval,
            probe_timeout=self.config.probe_timeout,
            forward_timeout=self.config.forward_timeout)
        self.netchaos: Optional[NetChaos] = None
        if self.config.net_inject:
            self.netchaos = NetChaos(
                FaultPlan.parse(self.config.net_inject,
                                seed=self.config.net_chaos_seed or 0),
                seed=self.config.net_chaos_seed or 0)
        #: key -> value digest, recorded at forward time — the
        #: cross-shard integrity ledger.
        self.ledger: Dict[str, int] = {}
        #: Degraded mode: key -> retained acked set frame of a dead,
        #: unmigrated shard.  Invariant: every lost key is still in
        #: the ledger with the retained frame's digest.
        self.lost: Dict[str, str] = {}
        self._readds: Deque[int] = deque()
        self.deaths = 0
        self.reconnects = 0
        self.rebalances = 0
        self.selector: Optional[selectors.BaseSelector] = None
        self.listener: Optional[socket.socket] = None
        self.connections: Dict[int, _ClientConn] = {}
        self.port: Optional[int] = None
        self.drained = False
        self.fault: Optional[BaseException] = None
        self._stop = False
        self._routed = 0
        self._next_conn_id = 0
        self._dirty_shards: set = set()
        self._dirty_conns: set = set()
        self._workers_up = False

    # -- lifecycle ---------------------------------------------------------------

    def bind(self) -> int:
        if self.listener is not None:
            return self.port
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.config.host, self.config.port))
        sock.listen(256)
        sock.setblocking(False)
        self.selector = selectors.DefaultSelector()
        self.selector.register(sock, selectors.EVENT_READ, None)
        self.listener = sock
        self.port = sock.getsockname()[1]
        return self.port

    def request_stop(self) -> None:
        """Signal-safe: ask the loop to drain and shut down."""
        self._stop = True

    def serve_forever(self) -> None:
        if self.listener is None:
            self.bind()
        try:
            self._start_workers()
            while not self._stop:
                self._round()
            self._drain()
        except RuntimeFault as fault:
            self.fault = fault
            self._abort()
            raise
        finally:
            self._stop_workers()
            self._close_listener()
            if self.selector is not None:
                self.selector.close()
                self.selector = None

    # -- worker management -------------------------------------------------------

    def _start_workers(self) -> None:
        if self._workers_up:
            return
        external = self.config.external_shards
        if external is not None:
            if len(external) != len(self.shards):
                raise ValueError(
                    f"{len(self.shards)} shard(s) configured but "
                    f"{len(external)} external endpoint(s) given")
            for shard, (host, port) in zip(self.shards, external):
                shard.port = port
                shard.host = host
                self._connect_shard(shard)
        else:
            # Overlap the N compile+bind startups, then collect the
            # ready lines in order.
            for shard in self.shards:
                shard.proc = self._spawn(
                    shard,
                    crash_after=self.config.crash_after.get(
                        shard.index, 0))
            for shard in self.shards:
                shard.port = self._await_ready(shard)
                self._connect_shard(shard)
        self._workers_up = True
        self._publish_ring()

    def _spawn(self, shard: _Shard,
               crash_after: int = 0) -> subprocess.Popen:
        argv = worker_command(
            shard.index, batch=self.config.batch,
            # Workers must never shed a routed request (the router's
            # admission cap is the only shedding point), so their
            # queue is strictly deeper than the in-flight cap.
            queue_depth=self.config.queue_depth * 2
            + self.config.batch,
            capacity_bytes=self.config.capacity_bytes,
            engine=self.config.engine,
            max_steps=self.config.max_steps,
            watchdog_steps=self.config.watchdog_steps,
            batch_window=self.config.batch_window,
            crash_after=crash_after,
            inject=self.config.inject,
            chaos_seed=self.config.chaos_seed,
            orphan_timeout=self.config.orphan_timeout)
        env = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        env["PYTHONPATH"] = package_root + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else "")
        return subprocess.Popen(argv, stdout=subprocess.PIPE,
                                env=env)

    def _await_ready(self, shard: _Shard) -> int:
        """Read the worker's ``SHARD_READY`` line; returns its port."""
        proc = shard.proc
        deadline = time.monotonic() + self.config.spawn_timeout
        fd = proc.stdout.fileno()
        line = bytearray()
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while b"\n" not in line:
                if proc.poll() is not None:
                    raise RuntimeFault(
                        f"shard {shard.index} worker exited with "
                        f"code {proc.returncode} before becoming "
                        f"ready")
                if time.monotonic() > deadline:
                    proc.kill()
                    raise RuntimeFault(
                        f"shard {shard.index} worker not ready "
                        f"within {self.config.spawn_timeout}s")
                if sel.select(0.1):
                    chunk = os.read(fd, 4096)
                    if not chunk:
                        continue
                    line += chunk
        text = bytes(line).split(b"\n", 1)[0].decode("latin-1")
        fields = dict(part.split("=", 1)
                      for part in text.split()[1:]) \
            if text.startswith(READY_PREFIX) else {}
        if "port" not in fields:
            raise RuntimeFault(
                f"shard {shard.index} worker announced {text!r}, "
                f"expected a {READY_PREFIX} line")
        return int(fields["port"])

    def _connect_stream(self, shard: _Shard) -> socket.socket:
        """One bounded-retry, chaos-wrapped connect to a shard
        endpoint; gives up as a typed NetworkFault."""
        wrap = None
        if self.netchaos is not None:
            chaos, name = self.netchaos, shard.name
            wrap = lambda s: chaos.wrap(s, name)  # noqa: E731
        sock = connect_with_backoff(
            (shard.host, shard.port),
            timeout=self.config.connect_timeout,
            retries=self.config.connect_retries,
            backoff_base=self.config.backoff_base,
            backoff_cap=self.config.backoff_cap,
            describe=f"shard {shard.index}", wrap=wrap)
        try:
            sock.setsockopt(socket.IPPROTO_TCP,
                            socket.TCP_NODELAY, 1)
        except OSError:
            pass
        return sock

    def _connect_shard(self, shard: _Shard) -> None:
        sock = self._connect_stream(shard)
        sock.setblocking(False)
        shard.sock = sock
        shard.rframer = ResponseFramer()
        self.selector.register(sock, selectors.EVENT_READ, shard)
        self.monitor.attach(shard.name)
        if self.tracer is not None:
            self.tracer.serve_mark(
                "shard-start", shard.track,
                {"port": shard.port,
                 "pid": shard.proc.pid if shard.proc else 0})

    def _publish_ring(self) -> None:
        """Rebalance telemetry: each shard's keyspace share (0 for
        shards currently off the ring)."""
        shares = self.ring.ownership()
        for shard in self.shards:
            self.registry.gauge(
                f"router.ring_share[{shard.index}]").set(
                round(shares.get(shard.name, 0.0), 4))
        if self.tracer is not None:
            self.tracer.serve_mark(
                "ring", "router",
                {shard.name: round(shares.get(shard.name, 0.0), 4)
                 for shard in self.shards})

    def _stop_workers(self) -> None:
        for shard in self.shards:
            if shard.sock is not None:
                try:
                    self.selector.unregister(shard.sock)
                except (KeyError, ValueError, OSError):
                    pass
                try:
                    shard.sock.close()
                except OSError:
                    pass
                shard.sock = None
            proc = shard.proc
            if proc is None:
                continue
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
            shard.proc = None
        self._workers_up = False

    # -- the event round ---------------------------------------------------------

    def _round(self, timeout: Optional[float] = None) -> None:
        self._dirty_shards.clear()
        self._dirty_conns.clear()
        while self._readds:
            self._readd_shard(self.shards[self._readds.popleft()])
        events = self.selector.select(
            self.config.idle_poll if timeout is None else timeout)
        for key, mask in events:
            data = key.data
            if data is None:
                self._accept_ready()
            elif isinstance(data, _Shard):
                if mask & selectors.EVENT_READ:
                    self._on_shard_readable(data)
                if data.sock is not None and \
                        mask & selectors.EVENT_WRITE:
                    self._flush_shard(data)
            else:
                if mask & selectors.EVENT_READ:
                    self._on_client_readable(data)
                if not data.closed and \
                        mask & selectors.EVENT_WRITE:
                    self._flush_conn(data)
        if self.monitor.enabled:
            self._health_sweep()
        # One coalesced write per shard/connection per round: the
        # frames routed this round reach each worker as a single
        # segment, which is what its batching loop turns into one
        # interpreter drive.
        for shard in list(self._dirty_shards):
            self._flush_shard(shard)
        for conn in list(self._dirty_conns):
            if not conn.closed:
                self._flush_conn(conn)

    # -- client side -------------------------------------------------------------

    def _accept_ready(self) -> None:
        while True:
            try:
                sock, addr = self.listener.accept()
            except (BlockingIOError, InterruptedError, OSError):
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP,
                                socket.TCP_NODELAY, 1)
            except OSError:
                pass
            if self.netchaos is not None:
                sock = self.netchaos.wrap(sock, "client")
            self._next_conn_id += 1
            conn = _ClientConn(sock, addr, self._next_conn_id)
            self.connections[sock.fileno()] = conn
            self.selector.register(sock, selectors.EVENT_READ, conn)
            self.registry.inc("router.connections")
            self.registry.gauge("router.open_connections").inc()
            if self.tracer is not None:
                self.tracer.serve_mark(
                    "accept", conn.track,
                    {"peer": f"{addr[0]}:{addr[1]}"})

    def _on_client_readable(self, conn: _ClientConn) -> None:
        try:
            data = conn.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_conn(conn)
            return
        if not data:
            self._close_conn(conn)
            return
        self.registry.inc("router.bytes_in", len(data))
        conn.framer.feed(data)
        frames, error = conn.framer.drain()
        for raw in frames:
            self._route(conn, raw)
        if error is not None:
            self.registry.inc("router.bad_frames")
            self._answer(conn, protocol.ERROR)
            conn.close_after_flush = True

    def _route(self, conn: _ClientConn, raw: str) -> None:
        conn.requests += 1
        if self._stop:
            self.registry.inc("router.shed")
            self._answer(conn, protocol.SERVER_BUSY)
            return
        try:
            request = protocol.parse_request(raw)
        except protocol.ProtocolError:
            # Recoverable garbage: the router answers ERROR itself
            # (in order, through the slot queue) — no shard hop.
            self.registry.inc("router.errors")
            self._answer(conn, protocol.ERROR)
            return
        if self.lost and request.key in self.lost:
            if request.command == "set":
                # A fresh set supersedes the stranded copy: the new
                # ring owner takes the key over.
                self.lost.pop(request.key, None)
            else:
                # Degraded mode: the owning shard is gone and its
                # state was not migrated — a typed refusal, never a
                # stall and never a silent miss.  State is
                # unchanged; the request can be retried after
                # request_readd().
                self.registry.inc("router.unavailable")
                self._answer(conn, protocol.SHARD_UNAVAILABLE)
                return
        shard = self._by_name[self.ring.lookup(request.key)]
        if len(shard.inflight) >= self.config.queue_depth:
            self.registry.inc("router.shed")
            self._answer(conn, protocol.SERVER_BUSY)
            return
        slot = _Slot(conn, request.command, request.key, frame=raw)
        # Forward-time ledger bookkeeping: the expectation each reply
        # will be verified against, consistent with the pipelined
        # prefix this shard will have applied by then.
        if request.command == "get":
            slot.expect = self.ledger.get(request.key)
        elif request.command == "set":
            slot.expect = SecureKVEngine.digest(request.data)
            self.ledger[request.key] = slot.expect
        elif request.command == "delete":
            slot.expect = request.key in self.ledger
            self.ledger.pop(request.key, None)
        conn.slots.append(slot)
        slot.sent_at = time.monotonic()
        shard.inflight.append(slot)
        shard.out += raw.encode("latin-1")
        shard.forwarded += 1
        self._dirty_shards.add(shard)
        self._routed += 1
        self.registry.inc("router.requests")
        self.registry.inc(f"router.forwarded[{shard.index}]")
        self.registry.observe(f"router.shard_depth[{shard.index}]",
                              len(shard.inflight))
        limit = self.config.max_requests
        if limit is not None and self._routed >= limit:
            self._stop = True

    def _answer(self, conn: _ClientConn, response: str) -> None:
        """Queue an immediate router-generated response, preserving
        per-connection order behind any in-flight slots."""
        slot = _Slot(conn, None, None)
        slot.response = response
        conn.slots.append(slot)
        self._pump_conn(conn)

    # -- shard side --------------------------------------------------------------

    def _on_shard_readable(self, shard: _Shard) -> None:
        try:
            data = shard.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as error:
            self._shard_died(shard, f"read failed: {error}")
            return
        if not data:
            self._shard_died(shard, "connection closed")
            return
        try:
            responses = shard.rframer.feed(data) or \
                shard.rframer.drain()
        except FrameError as error:
            raise IagoFault(
                f"shard {shard.index} reply stream "
                f"desynchronized: {error}")
        if responses:
            self.monitor.note_reply(shard.name)
            shard.breaker.close()
        for response in responses:
            if not shard.inflight:
                raise IagoFault(
                    f"shard {shard.index} sent an unsolicited "
                    f"reply {response[:32]!r}")
            slot = shard.inflight.popleft()
            self._verify(shard, slot, response)
            if slot.conn is not None:
                slot.response = response
                self._pump_conn(slot.conn)

    def _verify(self, shard: _Shard, slot: _Slot,
                response: str) -> None:
        """The cross-shard ledger check (see module docstring); also
        commits acknowledged mutations to the shard's replay log."""
        if response == protocol.SERVER_BUSY:
            raise RuntimeFault(
                f"shard {shard.index} shed a routed request — its "
                f"queue must be deeper than the router's in-flight "
                f"cap")
        if slot.command == "probe":
            # Probes get a reserved never-stored key: anything but a
            # clean miss is a lying shard.
            if response != protocol.END:
                raise IagoFault(
                    f"shard {shard.index} answered a liveness probe "
                    f"with {response[:32]!r}, expected a miss")
            return
        if slot.command == "migrate":
            if response != protocol.STORED:
                raise IagoFault(
                    f"migration of key {slot.key!r} into shard "
                    f"{shard.index} answered {response.strip()!r}, "
                    f"expected STORED")
            shard.acked_log[slot.key] = slot.frame
            return
        if slot.command == "evict":
            if response not in (protocol.DELETED,
                                protocol.NOT_FOUND):
                raise IagoFault(
                    f"eviction of key {slot.key!r} from shard "
                    f"{shard.index} answered {response.strip()!r}")
            shard.acked_log.pop(slot.key, None)
            return
        if slot.command == "get":
            if response == protocol.END:
                if slot.expect is not None:
                    if self.config.strict_miss:
                        raise IagoFault(
                            f"shard {shard.index} reports a miss "
                            f"for key {slot.key!r} but the router "
                            f"ledger holds digest "
                            f"{slot.expect:#x}")
                    # Relaxed: shard caches may evict; forget the
                    # key so the system stays consistent.
                    self.registry.inc("router.relaxed_misses")
                    self.ledger.pop(slot.key, None)
                    shard.acked_log.pop(slot.key, None)
                return
            try:
                value = protocol.parse_value_response(response)
            except protocol.ProtocolError as error:
                raise IagoFault(
                    f"shard {shard.index} answered key "
                    f"{slot.key!r} with an unparseable reply: "
                    f"{error}")
            if slot.expect is None:
                raise IagoFault(
                    f"shard {shard.index} returned a value for key "
                    f"{slot.key!r} the router ledger does not hold")
            if SecureKVEngine.digest(value) != slot.expect:
                raise IagoFault(
                    f"shard {shard.index} returned a value for key "
                    f"{slot.key!r} that does not match the router "
                    f"ledger digest")
        elif slot.command == "set":
            if response != protocol.STORED:
                raise IagoFault(
                    f"shard {shard.index} answered "
                    f"{response.strip()!r} to a set of key "
                    f"{slot.key!r}")
            shard.acked_log[slot.key] = slot.frame
        elif slot.command == "delete":
            found = response == protocol.DELETED
            if response not in (protocol.DELETED,
                                protocol.NOT_FOUND):
                raise IagoFault(
                    f"shard {shard.index} answered "
                    f"{response.strip()!r} to a delete of key "
                    f"{slot.key!r}")
            if found != slot.expect:
                raise IagoFault(
                    f"delete of key {slot.key!r} disagrees: shard "
                    f"{shard.index} found={found}, router ledger "
                    f"found={slot.expect}")
            shard.acked_log.pop(slot.key, None)

    # -- health: probes and timeouts ---------------------------------------------

    def _health_sweep(self) -> None:
        """Once per round: age every live shard against the health
        monitor's verdicts, and probe the idle ones."""
        now = time.monotonic()
        for shard in self.shards:
            if shard.sock is None or \
                    shard.name not in self.ring.nodes:
                continue
            oldest = shard.inflight[0].sent_at \
                if shard.inflight else None
            verdict = self.monitor.verdict(shard.name, oldest, now)
            if verdict is not None:
                self._shard_died(shard, verdict)
                continue
            if not self._stop and self.monitor.want_probe(
                    shard.name,
                    idle=not shard.inflight and not shard.out,
                    now=now):
                self._send_probe(shard, now)

    def _send_probe(self, shard: _Shard, now: float) -> None:
        """An ordinary ``get`` on the reserved probe key, straight
        down this shard's pipe (ring ownership is irrelevant — the
        probe tests the link, not the placement)."""
        key = probe_key(shard.name)
        frame = protocol.encode_get(key)
        slot = _Slot(None, "probe", key, frame=frame)
        slot.sent_at = now
        shard.inflight.append(slot)
        shard.out += frame.encode("latin-1")
        self._dirty_shards.add(shard)
        self.monitor.note_probe(shard.name, now)
        self.registry.inc("router.probes")

    # -- shard death and exact replay --------------------------------------------

    def _shard_died(self, shard: _Shard, why: str) -> None:
        if shard.sock is None:
            return
        try:
            self.selector.unregister(shard.sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            shard.sock.close()
        except OSError:
            pass
        shard.sock = None
        self._dirty_shards.discard(shard)
        shard.breaker.trip()
        self.deaths += 1
        exit_code = None
        process_alive = False
        proc = shard.proc
        if proc is not None:
            if proc.poll() is None:
                # A dead link under a live process is a *network*
                # failure, not a crash; give a just-killed worker a
                # short beat to be reaped before deciding which.
                try:
                    exit_code = proc.wait(timeout=0.25)
                except subprocess.TimeoutExpired:
                    process_alive = True
            else:
                exit_code = proc.returncode
        self.registry.inc("router.shard_deaths")
        if self.tracer is not None:
            self.tracer.serve_mark(
                "shard-crash", shard.track,
                {"why": why, "exit": exit_code,
                 "inflight": len(shard.inflight),
                 "process_alive": process_alive})
        if not shard.breaker.allow():
            raise NetworkFault(
                f"shard {shard.index} circuit breaker open after "
                f"{shard.breaker.failures} consecutive failures "
                f"(budget {self.config.max_restarts}); last: {why}")
        external = self.config.external_shards is not None
        on_death = self.config.on_death
        if process_alive or (external and (
                self.config.external_reconnect
                or on_death in ("rebalance", "degrade"))):
            try:
                self._reconnect_shard(shard)
                return
            except NetworkFault:
                # The endpoint is really gone, not just the link.
                if process_alive:
                    proc.kill()
                    exit_code = proc.wait()
                    process_alive = False
                if external and on_death not in ("rebalance",
                                                 "degrade"):
                    raise EnclaveCrash(
                        f"shard {shard.index} died ({why}) and its "
                        f"external endpoint refused reconnection; "
                        f"external shards cannot be respawned")
        if external and on_death not in ("rebalance",
                                         "degrade"):
            raise EnclaveCrash(
                f"shard {shard.index} died ({why}, exit "
                f"{exit_code}) with {len(shard.inflight)} "
                f"request(s) in flight and no process to restart")
        if proc is not None:
            if proc.stdout is not None:
                proc.stdout.close()
            shard.proc = None
        if on_death == "restart" and not external:
            self._restart_shard(shard)
        elif on_death == "rebalance":
            self._rebalance_away(shard, why)
        elif on_death == "degrade":
            self._degrade_shard(shard, why)
        else:
            raise EnclaveCrash(
                f"shard {shard.index} died ({why}, exit "
                f"{exit_code}) with {len(shard.inflight)} "
                f"request(s) in flight and recovery disabled")

    def _reconnect_shard(self, shard: _Shard) -> None:
        """Link-only recovery: the worker (or external endpoint) is
        alive, the connection is not.  Replay the acked log over a
        fresh stream, then re-forward — sound even though the worker
        already applied some un-acked operations, because replay
        resets it to exactly the acked state first and the re-applied
        suffix is the same frames in the same order."""
        t0 = time.monotonic()
        replayed = self._recover_link(shard)
        self.reconnects += 1
        self.registry.inc("router.shard_reconnects")
        if self.tracer is not None:
            self.tracer.serve_span(
                "shard-reconnect", shard.track,
                self.tracer.now_us(),
                (time.monotonic() - t0) * 1e6,
                {"replayed": replayed,
                 "reissued": len(shard.inflight)})

    def _restart_shard(self, shard: _Shard) -> None:
        """Exact restart-and-replay: fresh worker, replay the acked
        mutation log, re-forward the in-flight frames in order."""
        t0 = time.monotonic()
        # A --crash-after chaos fuse is deliberately not re-armed:
        # the injected AEX fires once, like a PR-4 enclave-restart.
        shard.proc = self._spawn(shard, crash_after=0)
        shard.port = self._await_ready(shard)
        shard.restarts += 1
        self.registry.inc("router.shard_restarts")
        replayed = self._recover_link(shard)
        if self.tracer is not None:
            self.tracer.serve_span(
                "shard-replay", shard.track,
                self.tracer.now_us(),
                (time.monotonic() - t0) * 1e6,
                {"replayed": replayed,
                 "reissued": len(shard.inflight)})

    def _recover_link(self, shard: _Shard) -> int:
        """The shared tail of every same-name recovery: replay the
        acked log, then re-forward the in-flight frames.  Slots stay
        in both FIFOs, so replies keep their original per-connection
        order; acknowledged state cannot be double-applied because
        the log only holds acked mutations and the re-forwarded
        frames were, by definition, not acked."""
        replayed = self._replay(shard)
        shard.out = bytearray()
        now = time.monotonic()
        for slot in shard.inflight:
            shard.out += slot.frame.encode("latin-1")
            slot.sent_at = now
        self.registry.inc("router.reissued_requests",
                          len(shard.inflight))
        self.selector.register(shard.sock, selectors.EVENT_READ,
                               shard)
        self.monitor.attach(shard.name, now)
        if shard.inflight and any(s.command == "probe"
                                  for s in shard.inflight):
            self.monitor.note_probe(shard.name, now)
        self._flush_shard(shard)
        return replayed

    def _replay(self, shard: _Shard) -> int:
        """Pipeline the compacted acked-mutation log into the fresh
        worker (blocking, verified): the shard's acknowledged state,
        rebuilt exactly."""
        sock = self._connect_stream(shard)
        sock.settimeout(self.config.replay_timeout)
        frames = list(shard.acked_log.values())
        framer = ResponseFramer()
        acked = 0
        try:
            for start in range(0, len(frames), 128):
                window = frames[start:start + 128]
                sock.sendall("".join(window).encode("latin-1"))
                need = start + len(window)
                while acked < need:
                    data = sock.recv(65536)
                    if not data:
                        raise RuntimeFault(
                            f"shard {shard.index} died again "
                            f"during replay ({acked}/{len(frames)} "
                            f"keys)")
                    framer.feed(data)
                    for response in framer.drain():
                        if response != protocol.STORED:
                            raise IagoFault(
                                f"replay into shard {shard.index} "
                                f"answered {response.strip()!r}, "
                                f"expected STORED")
                        acked += 1
        except (FrameError, OSError) as error:
            sock.close()
            raise RuntimeFault(
                f"replay into shard {shard.index} failed: {error}")
        sock.setblocking(False)
        shard.sock = sock
        shard.rframer = ResponseFramer()
        self.registry.inc("router.replayed_keys", len(frames))
        return len(frames)

    # -- ring rebalancing and degraded mode --------------------------------------

    def _internal_forward(self, shard: _Shard, command: str,
                          key: str, frame: str) -> None:
        """Queue a router-internal frame (migration / eviction) on a
        shard's normal FIFO — ordered like any client request, so
        migrated state lands before anything routed afterwards."""
        slot = _Slot(None, command, key, frame=frame)
        slot.sent_at = time.monotonic()
        shard.inflight.append(slot)
        shard.out += frame.encode("latin-1")
        self._dirty_shards.add(shard)

    def _reroute_inflight(self, shard: _Shard,
                          degrade: bool = False) -> int:
        """Move a dead shard's in-flight slots to the new ring
        owners, in their original order (after any migration frames
        already queued there).  Probes and evictions die with the
        shard; in degraded mode, reads/deletes of stranded keys are
        answered ``SHARD_UNAVAILABLE`` on the spot."""
        pending = shard.inflight
        shard.inflight = deque()
        shard.out = bytearray()
        now = time.monotonic()
        rerouted = 0
        for slot in pending:
            if slot.command in ("probe", "evict"):
                # The probe's link is gone; the evictee's copy died
                # with the shard (its migrated duplicate is
                # idempotent anyway).
                continue
            if degrade and slot.key in self.lost \
                    and slot.command in ("get", "delete"):
                if slot.command == "delete":
                    # The ledger already dropped this key at forward
                    # time; drop the stranded copy too so a re-add
                    # cannot resurrect it.
                    self.lost.pop(slot.key, None)
                self.registry.inc("router.unavailable")
                slot.response = protocol.SHARD_UNAVAILABLE
                self._pump_conn(slot.conn)
                continue
            if degrade and slot.command in ("set", "migrate"):
                self.lost.pop(slot.key, None)
            target = self._by_name[self.ring.lookup(slot.key)]
            slot.sent_at = now
            target.inflight.append(slot)
            target.out += slot.frame.encode("latin-1")
            self._dirty_shards.add(target)
            rerouted += 1
        self.registry.inc("router.reissued_requests", rerouted)
        return rerouted

    def _rebalance_away(self, shard: _Shard, why: str) -> None:
        """Remove a dead shard from the ring and migrate its acked
        state to the new owners through their normal FIFOs — the
        router keeps serving the whole keyspace while the migration
        drains."""
        if len(self.ring) <= 1:
            raise EnclaveCrash(
                f"shard {shard.index} died ({why}) and no other "
                f"shard remains to rebalance onto")
        self.ring.remove(shard.name)
        self.rebalances += 1
        self.registry.inc("router.rebalances")
        migrated = 0
        for key, frame in shard.acked_log.items():
            owner = self._by_name[self.ring.lookup(key)]
            self._internal_forward(owner, "migrate", key, frame)
            migrated += 1
        shard.acked_log = {}
        rerouted = self._reroute_inflight(shard)
        self._publish_ring()
        self.registry.inc("router.migrated_keys", migrated)
        if self.tracer is not None:
            self.tracer.serve_mark(
                "rebalance", shard.track,
                {"why": why, "migrated": migrated,
                 "rerouted": rerouted})

    def _degrade_shard(self, shard: _Shard, why: str) -> None:
        """Remove a dead shard from the ring *without* migration:
        its ledger-consistent acked state is retained in ``lost``,
        requests for those keys get a typed ``SHARD_UNAVAILABLE``
        answer, and the surviving keyspace serves on.  Stale entries
        (superseded or deleted in flight) are dropped here so a
        later re-add cannot resurrect them."""
        if len(self.ring) <= 1:
            raise EnclaveCrash(
                f"shard {shard.index} died ({why}) and no other "
                f"shard remains to serve the surviving keyspace")
        self.ring.remove(shard.name)
        self.registry.inc("router.degrades")
        for key, frame in shard.acked_log.items():
            data = protocol.parse_request(frame).data
            if self.ledger.get(key) == SecureKVEngine.digest(data):
                self.lost[key] = frame
        shard.acked_log = {}
        rerouted = self._reroute_inflight(shard, degrade=True)
        self._publish_ring()
        self.registry.gauge("router.lost_keys").set(len(self.lost))
        if self.tracer is not None:
            self.tracer.serve_mark(
                "degrade", shard.track,
                {"why": why, "lost": len(self.lost),
                 "rerouted": rerouted})

    def request_readd(self, index: int) -> None:
        """Thread-safe: ask the loop to bring shard ``index`` back
        onto the ring (respawn + inverse migration) at the next
        round.  The inverse of a rebalance/degrade removal."""
        self._readds.append(index)

    def _readd_shard(self, shard: _Shard) -> None:
        """Re-add a previously removed shard: fresh worker (or the
        revived external endpoint), ring re-insertion — the sorted
        rebuild restores the exact pre-removal ownership map — and
        the inverse migration, moving only the keys the ring now
        places on the returning shard (~1/N)."""
        if shard.name in self.ring.nodes:
            return
        if self.config.external_shards is None:
            shard.proc = self._spawn(shard, crash_after=0)
            shard.port = self._await_ready(shard)
        shard.acked_log = {}
        shard.inflight = deque()
        shard.out = bytearray()
        self._connect_shard(shard)
        shard.breaker.close()
        self.ring.add(shard.name)
        self.registry.inc("router.readds")
        moved = 0
        # Stranded (degraded-mode) keys first: their only copy is
        # the retained frame.
        for key in list(self.lost):
            owner = self._by_name[self.ring.lookup(key)]
            self._internal_forward(owner, "migrate", key,
                                   self.lost.pop(key))
            moved += 1
        self.registry.gauge("router.lost_keys").set(len(self.lost))
        # Then keys a survivor currently holds: copy the freshest
        # frame over (acked, or superseded by the survivor's own
        # in-flight tail), then evict the survivor's copy — the
        # eviction queues after that tail, so it lands last.
        for key in self.ledger:
            if self.ring.lookup(key) != shard.name:
                continue
            holder = None
            frame = None
            for other in self.shards:
                if other is shard:
                    continue
                if key in other.acked_log:
                    holder, frame = other, other.acked_log[key]
                for slot in other.inflight:
                    if slot.key != key:
                        continue
                    if slot.command in ("set", "migrate"):
                        holder, frame = other, slot.frame
                    elif slot.command == "delete":
                        frame = None
            if holder is None or frame is None:
                continue
            self._internal_forward(shard, "migrate", key, frame)
            self._internal_forward(holder, "evict", key,
                                   protocol.encode_delete(key))
            moved += 1
        self.registry.inc("router.migrated_keys", moved)
        self._publish_ring()
        if self.tracer is not None:
            self.tracer.serve_mark(
                "readd", shard.track, {"migrated": moved})

    # -- writes ------------------------------------------------------------------

    def _pump_conn(self, conn: _ClientConn) -> None:
        """Move the ready prefix of the slot queue into the output
        buffer; actual socket writes happen once per round."""
        slots = conn.slots
        while slots and slots[0].response is not None:
            slot = slots.popleft()
            if not conn.closed:
                conn.out += slot.response.encode("latin-1")
                self.registry.inc("router.replies")
        if conn.out and not conn.closed:
            self._dirty_conns.add(conn)

    def _flush_conn(self, conn: _ClientConn) -> None:
        while conn.out:
            try:
                sent = conn.sock.send(conn.out)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._close_conn(conn)
                return
            if sent <= 0:
                break
            self.registry.inc("router.bytes_out", sent)
            del conn.out[:sent]
        if conn.out:
            events = selectors.EVENT_READ | selectors.EVENT_WRITE
        else:
            events = selectors.EVENT_READ
            if conn.close_after_flush and not conn.slots:
                self._close_conn(conn)
                return
        try:
            self.selector.modify(conn.sock, events, conn)
        except (KeyError, ValueError, OSError):
            pass

    def _flush_shard(self, shard: _Shard) -> None:
        if shard.sock is None:
            return
        while shard.out:
            try:
                sent = shard.sock.send(shard.out)
            except (BlockingIOError, InterruptedError):
                break
            except OSError as error:
                self._shard_died(shard, f"write failed: {error}")
                return
            if sent <= 0:
                break
            del shard.out[:sent]
        events = selectors.EVENT_READ | selectors.EVENT_WRITE \
            if shard.out else selectors.EVENT_READ
        try:
            self.selector.modify(shard.sock, events, shard)
        except (KeyError, ValueError, OSError):
            pass

    def _close_conn(self, conn: _ClientConn) -> None:
        if conn.closed:
            return
        conn.closed = True
        try:
            self.selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        self.connections.pop(conn.sock.fileno(), None)
        try:
            conn.sock.close()
        except OSError:
            pass
        self._dirty_conns.discard(conn)
        self.registry.gauge("router.open_connections").dec()
        if self.tracer is not None:
            self.tracer.serve_mark("close", conn.track,
                                   {"requests": conn.requests})

    # -- teardown ----------------------------------------------------------------

    def _drain(self) -> None:
        """Graceful shutdown: resolve every in-flight slot, flush
        every reply, then stop the workers."""
        self._close_listener()
        deadline = time.monotonic() + self.config.drain_timeout
        while time.monotonic() < deadline and any(
                shard.inflight or shard.out
                for shard in self.shards):
            self._round(timeout=0.05)
        while time.monotonic() < deadline and any(
                conn.out for conn in self.connections.values()
                if not conn.closed):
            self._round(timeout=0.05)
        self.drained = not any(shard.inflight or shard.out
                               for shard in self.shards) \
            and not any(conn.out
                        for conn in self.connections.values())
        self.registry.gauge("router.ledger_keys").set(
            len(self.ledger))
        for conn in list(self.connections.values()):
            self._close_conn(conn)

    def _abort(self) -> None:
        self._close_listener()
        for conn in list(self.connections.values()):
            self._close_conn(conn)

    def _close_listener(self) -> None:
        if self.listener is None:
            return
        try:
            if self.selector is not None:
                self.selector.unregister(self.listener)
        except (KeyError, ValueError, OSError):
            pass
        try:
            self.listener.close()
        except OSError:
            pass
        self.listener = None

    # -- introspection -----------------------------------------------------------

    def final_digests(self) -> Dict[str, int]:
        """The ledger's view of the whole KV: key -> value digest.
        The chaos differential gate compares this against an oracle
        and against what the shards actually serve."""
        return dict(self.ledger)

    def stats(self) -> dict:
        return {
            "shards": len(self.shards),
            "ring_nodes": list(self.ring.nodes),
            "routed": self._routed,
            "ledger_keys": len(self.ledger),
            "lost_keys": len(self.lost),
            "restarts": sum(s.restarts for s in self.shards),
            "deaths": self.deaths,
            "reconnects": self.reconnects,
            "rebalances": self.rebalances,
            "per_shard_forwarded": {
                s.index: s.forwarded for s in self.shards},
        }


class RouterThread:
    """Run a :class:`ShardRouter` on a daemon thread — the shape the
    tests, the benchmark and the check.sh smoke share (mirrors
    :class:`~repro.serve.server.ServerThread`)."""

    def __init__(self, config: Optional[RouterConfig] = None,
                 **kwargs):
        self.router = ShardRouter(config, **kwargs)
        self.error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> int:
        port = self.router.bind()

        def run():
            try:
                self.router.serve_forever()
            except BaseException as error:
                self.error = error

        self._thread = threading.Thread(target=run, daemon=True,
                                        name="repro-serve-router")
        self._thread.start()
        return port

    def stop(self, timeout: float = 30.0) -> None:
        self.router.request_stop()
        self.join(timeout)

    def join(self, timeout: float = 30.0) -> None:
        if self._thread is None:
            return
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("router loop did not stop in time")

    def __enter__(self) -> "RouterThread":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._thread is not None and self._thread.is_alive():
            self.stop()
