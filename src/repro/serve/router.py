"""The shard router: one front process, N shard-worker processes.

``repro serve --shards N`` turns the single-loop server of
:mod:`repro.serve.server` into a two-tier system:

* **Shard workers** (:mod:`repro.serve.shard_worker`): N child
  processes, each hosting a complete partitioned-KV stack — its own
  compiled program, enclave runtime, untrusted store and batching
  loop — behind a loopback port.  Each worker owns a private
  interpreter and a private enclave index, so shards can run in
  parallel on multicore hosts.  The index is sized so that chains
  stay short at any key count, so sharding divides the work across
  processes, not the cost of one operation.

* **The router** (this module): accepts client connections with the
  ordinary request framing, consistent-hashes every key over the
  workers (:class:`~repro.serve.hashring.HashRing`), pipelines the
  raw frames down per-shard connections, and re-merges the replies.

**Ordering.**  Replies must reach each client in request order even
though different shards answer at different speeds.  The router runs
on the connection shell of :mod:`repro.serve.shell`: every request
becomes a *slot* in its connection's FIFO, and a connection flushes
exactly the answered *prefix* of that FIFO.  A shard connection is
itself a FIFO (one worker loop, replies in request order), so the
router pairs each incoming reply with the oldest outstanding slot of
that shard — a fast shard's replies wait in their slots until the
slow shard's earlier replies land.

**Integrity.**  Each worker already cross-checks its untrusted store
against its enclave index (a lying store dies as an
:class:`~repro.errors.IagoFault` inside the shard).  The router adds
a second, *cross-process* check: a digest ledger of every key it has
routed, recorded at forward time.  A shard that answers a ``get``
with bytes whose digest disagrees with the ledger, confirms a ``set``
with anything but ``STORED``, or reports a ``delete`` outcome that
contradicts the ledger raises :class:`IagoFault` at the router — a
whole lying shard *process* is detected, extending the PR-4 Iago
machinery across the process boundary.  A miss for a key the ledger
holds is a fault too.

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
dead *link* from a dead *process*: if the worker process is still
there, or the shard is an external endpoint (which cannot be
respawned, so one bounded reconnect is its only recovery), it
reconnects and rebuilds the connection-level state by *exact
replay*.  Replay is ordinary traffic on the shard's FIFO: the
compacted log of acknowledged mutations (final ``set`` frame per
live key, in first-insertion order) is queued as ``migrate`` slots,
then the in-flight requests follow in their original order, and
every reply is verified like any other.  The loop never waits on
it, so the other shards keep serving while one replays, and
anything routed to the replaying shard queues behind its replay.
Replay-then-reforward is idempotent, so a worker that had already
applied un-acked operations before the link died converges to the
same state.  The circuit breaker closes only when the last re-sent
slot is answered, so a shard that dies during every replay ends in
a :class:`~repro.errors.NetworkFault`; and a replay slot unanswered
for ``replay_timeout`` seconds is a confirmed death of the health
sweep, so a stalled replay never hangs the router.  A dead process
is handled per ``on_death``:

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
import time
from collections import deque
from dataclasses import dataclass, field, fields
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
from repro.serve.framing import FrameError, ResponseFramer
from repro.serve.hashring import HashRing
from repro.serve.health import (
    CircuitBreaker,
    HealthMonitor,
    connect_with_backoff,
    probe_key,
)
from repro.serve.server import ServeConfig
from repro.serve.shard_worker import READY_PREFIX, worker_command
from repro.serve.shell import (
    IDLE_POLL,
    Connection,
    ConnectionShell,
    LoopThread,
    Slot,
    Stream,
)

#: Valid ``RouterConfig.on_death`` policies.
DEATH_POLICIES = ("restart", "rebalance", "degrade", "fault")


@dataclass
class RouterConfig(ServeConfig):
    """Tunables of one router instance.  The inherited
    :class:`ServeConfig` fields configure the front (``host``,
    ``port``, ``max_requests``, ``drain_timeout``; ``queue_depth``
    is the per-shard in-flight admission cap) and every worker (see
    :meth:`ShardRouter._spawn`); the fields below are the router's
    own."""

    drain_timeout: float = 10.0
    shards: int = 2                # worker processes
    spawn_timeout: float = 60.0    # worker ready-line deadline
    connect_timeout: float = 10.0  # per-attempt shard connect cap
    connect_retries: int = 3       # extra connect attempts
    backoff_base: float = 0.05     # first retry pause (doubles)
    backoff_cap: float = 1.0       # retry pause ceiling
    #: A replayed slot unanswered this long is a confirmed death.
    replay_timeout: float = 30.0
    #: Probe an idle shard after this many reply-free seconds
    #: (None disables probing).
    probe_interval: Optional[float] = None
    probe_timeout: float = 5.0     # unanswered probe => death
    #: A busy shard whose oldest in-flight request is older than
    #: this is dead (None disables the check).
    forward_timeout: Optional[float] = None
    #: Confirmed-death policy: restart | rebalance | degrade | fault.
    on_death: str = "restart"
    max_restarts: int = 3          # consecutive-recovery breaker budget
    #: shard index -> simulated-AEX op count (chaos, see
    #: repro.serve.shard_worker.CrashingKVEngine).
    crash_after: Dict[int, int] = field(default_factory=dict)
    inject: Optional[str] = None   # per-worker fault schedule
    chaos_seed: Optional[int] = None
    #: Socket-chaos schedule (repro.faults.netchaos grammar) applied
    #: to the router's shard links and accepted client streams.
    net_inject: Optional[str] = None
    net_chaos_seed: Optional[int] = None
    #: Pre-started shard endpoints (tests, in-process chaos sweeps):
    #: connect instead of spawning.  External shards cannot be
    #: respawned: a dead one gets one bounded reconnect, and if that
    #: is refused its death is an EnclaveCrash (or a rebalance/degrade
    #: removal under those policies).
    external_shards: Optional[Sequence[Tuple[str, int]]] = None


class _Slot(Slot):
    """One routed request awaiting its in-order reply.

    ``conn`` is ``None`` for router-internal slots — liveness probes
    (``command="probe"``) and rebalance traffic (``"migrate"`` /
    ``"evict"``) — which are verified like client slots but produce
    no client reply.  ``sent_at`` is the forward time the health
    sweep ages against.
    """

    __slots__ = ("command", "key", "expect", "sent_at")

    def __init__(self, conn: Optional[Connection], command: str,
                 key: str, frame: str, expect=None):
        super().__init__(conn, frame)
        self.command = command
        self.key = key
        self.expect = expect
        self.sent_at = 0.0


class _Shard(Stream):
    """Router-side state of one worker: process handle, pipelined
    link (a shell :class:`~repro.serve.shell.Stream`), reply FIFO,
    and the acknowledged-mutation replay log."""

    __slots__ = ("index", "name", "proc", "port", "host", "rframer",
                 "inflight", "sent", "replaying", "acked_log",
                 "restarts", "forwarded", "breaker")

    def __init__(self, index: int, breaker_budget: int, on_read,
                 on_write):
        super().__init__(None, on_read, on_write)
        self.index = index
        self.name = f"shard{index}"
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.host = "127.0.0.1"
        self.rframer = ResponseFramer()
        #: The reply FIFO: every slot queued to this shard, oldest
        #: first; the first ``sent`` of them are on the wire.
        self.inflight: Deque[_Slot] = deque()
        self.sent = 0
        #: How many of the slots the latest bring-up re-sent (the
        #: head of ``inflight``) are still unanswered.
        self.replaying = 0
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


class ShardRouter(ConnectionShell):
    """The front router loop (see module docstring).

    Lifecycle is the shell's, as for
    :class:`~repro.serve.server.PrivagicServer`: ``bind()`` then
    ``serve_forever()``; ``request_stop()`` drains; a
    :class:`RuntimeFault` (lying shard, unrecovered crash) aborts
    with the typed fault re-raised.
    """

    metrics = "router"

    def __init__(self, config: Optional[RouterConfig] = None,
                 registry: Optional[MetricsRegistry] = None,
                 tracer=None):
        super().__init__(config or RouterConfig(), registry, tracer)
        if self.config.shards < 1:
            raise ValueError("a sharded server needs >= 1 shard")
        if self.config.on_death not in DEATH_POLICIES:
            raise ValueError(
                f"unknown on_death policy "
                f"{self.config.on_death!r} (expected one of "
                f"{', '.join(DEATH_POLICIES)})")
        self.shards: List[_Shard] = [
            _Shard(i, self.config.max_restarts,
                   self._on_shard_readable, self._flush_shard)
            for i in range(self.config.shards)]
        self._by_name = {shard.name: shard for shard in self.shards}
        self.ring = HashRing([shard.name for shard in self.shards])
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
        self._routed = 0
        self._dirty_shards: set = set()

    # -- worker management -------------------------------------------------------

    def _start(self) -> None:
        external = self.config.external_shards
        if external is not None:
            if len(external) != len(self.shards):
                raise ValueError(
                    f"{len(self.shards)} shard(s) configured but "
                    f"{len(external)} external endpoint(s) given")
            for shard, (host, port) in zip(self.shards, external):
                shard.port = port
                shard.host = host
        else:
            # Overlap the N compile+bind startups; the bring-ups
            # below collect the ready lines in order.
            for shard in self.shards:
                self._spawn(shard, self.config.crash_after.get(
                    shard.index, 0))
        for shard in self.shards:
            self._bring_up(shard)
        self._publish_ring()

    def _bring_up(self, shard: _Shard) -> None:
        """The one bring-up step of start, recovery and re-add:
        respawn the worker if it is gone (an external endpoint is
        never respawned), wait for its ready line, then connect."""
        if shard.proc is None and self.config.external_shards is None:
            # A crash_after chaos fuse is deliberately not re-armed:
            # the injected AEX fires once, as an enclave restart in
            # repro.faults does.
            self._spawn(shard)
        if shard.port is None:
            shard.port = self._await_ready(shard)
        self._connect_shard(shard)

    def _spawn(self, shard: _Shard, crash_after: int = 0) -> None:
        """Start ``shard``'s worker process; its port is unknown until
        :meth:`_await_ready` reads the ready line."""
        config = self.config
        worker = {f.name: getattr(config, f.name)
                  for f in fields(ServeConfig)}
        # The worker listens on loopback, never stops on its own
        # request count, and never sheds a routed request (the
        # router's admission cap is the only shedding point), so its
        # queue is strictly deeper than the in-flight cap.
        worker.update(host="127.0.0.1", port=0, max_requests=None,
                      queue_depth=config.queue_depth * 2 + config.batch)
        argv = worker_command(shard.index, ServeConfig(**worker),
                              crash_after, config.inject,
                              config.chaos_seed)
        env = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        env["PYTHONPATH"] = package_root + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else "")
        shard.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                      env=env)
        shard.port = None

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
        announced = dict(part.split("=", 1)
                         for part in text.split()[1:]) \
            if text.startswith(READY_PREFIX) else {}
        if "port" not in announced:
            raise RuntimeFault(
                f"shard {shard.index} worker announced {text!r}, "
                f"expected a {READY_PREFIX} line")
        return int(announced["port"])

    def _connect_shard(self, shard: _Shard) -> None:
        """Connect to ``shard`` (bounded retries, chaos-wrapped; the
        give-up is a typed NetworkFault) and queue its recovery down
        the new link: the acked log as ``migrate`` slots, then the
        in-flight slots in their original order.  Slots stay in
        their connections' FIFOs, so replies keep their order, and
        acknowledged state cannot be double-applied: the log holds
        only acked mutations, and the in-flight slots were, by
        definition, not acked."""
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
        sock.setblocking(False)
        shard.sock = sock
        shard.rframer = ResponseFramer()
        self.selector.register(sock, selectors.EVENT_READ, shard)
        now = time.monotonic()
        self.monitor.attach(shard.name, now)
        replayed = len(shard.acked_log)
        reissued, shard.inflight = shard.inflight, deque()
        for key, frame in shard.acked_log.items():
            self._forward(shard, _Slot(None, "migrate", key, frame))
        for slot in reissued:
            self._forward(shard, slot)
        shard.replaying = len(shard.inflight)
        if replayed or reissued:
            self.registry.inc("router.replayed_keys", replayed)
            self.registry.inc("router.reissued_requests",
                              len(reissued))
        self._time_probe(shard)
        if self.tracer is not None:
            self.tracer.serve_mark(
                "shard-start", shard.track,
                {"port": shard.port,
                 "pid": shard.proc.pid if shard.proc else 0,
                 "replayed": replayed, "reissued": len(reissued)})

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

    def _finish(self) -> None:
        """Stop every worker (spawned ones are terminated)."""
        self.registry.gauge("router.ledger_keys").set(len(self.ledger))
        for shard in self.shards:
            self._drop(shard)
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

    # -- the event round ---------------------------------------------------------

    def _round(self) -> None:
        while self._readds:
            self._readd_shard(self.shards[self._readds.popleft()])
        self._poll(IDLE_POLL)
        if self.monitor.enabled or any(
                shard.replaying for shard in self.shards):
            self._health_sweep()
        # One coalesced write per shard/connection per round: the
        # frames routed this round reach each worker as a single
        # segment, which is what its batching loop turns into one
        # interpreter drive.
        while self._dirty_shards:
            self._flush_shard(self._dirty_shards.pop())
        self._flush_replies()

    def _busy(self) -> bool:
        return any(shard.inflight or shard.out for shard in self.shards)

    def _wrap_client(self, sock):
        if self.netchaos is None:
            return sock
        return self.netchaos.wrap(sock, "client")

    # -- client side -------------------------------------------------------------

    def _on_frame(self, conn: Connection, raw: str) -> None:
        if self._stop:
            self.registry.inc("router.shed")
            self.answer(conn, protocol.SERVER_BUSY)
            return
        try:
            request = protocol.parse_request(raw)
        except protocol.ProtocolError:
            # Recoverable garbage: the router answers ERROR itself
            # (in order, through the slot queue) — no shard hop.
            self.registry.inc("router.errors")
            self.answer(conn, protocol.ERROR)
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
                self.answer(conn, protocol.SHARD_UNAVAILABLE)
                return
        shard = self._by_name[self.ring.lookup(request.key)]
        # Replayed slots were admitted before the death (or are
        # state, not requests), so they do not count against the cap.
        if len(shard.inflight) - shard.replaying \
                >= self.config.queue_depth:
            self.registry.inc("router.shed")
            self.answer(conn, protocol.SERVER_BUSY)
            return
        slot = _Slot(conn, request.command, request.key, raw)
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
        self._forward(shard, slot)
        shard.forwarded += 1
        self._routed += 1
        self.registry.inc("router.requests")
        self.registry.inc(f"router.forwarded[{shard.index}]")
        self.registry.observe(f"router.shard_depth[{shard.index}]",
                              len(shard.inflight))
        limit = self.config.max_requests
        if limit is not None and self._routed >= limit:
            self._stop = True

    def _forward(self, shard: _Shard,
                 slot: Optional[_Slot] = None) -> None:
        """Send ``slot`` down ``shard``'s pipe: it joins the shard's
        reply FIFO, and its frame the shard's next coalesced write.
        Every forward takes this one path — client requests, probes,
        migrations, evictions, replays, reroutes and re-issues — so
        each lands in the order it was queued, and migrated state
        reaches a shard before anything routed to it afterwards.

        At most ``queue_depth`` frames are unanswered on the wire, so
        a long replay or migration never overruns the worker's queue;
        the rest wait their turn in the FIFO, and each batch of
        replies calls ``_forward(shard)`` to send the next ones."""
        inflight = shard.inflight
        if slot is not None:
            inflight.append(slot)
        window = min(len(inflight), self.config.queue_depth)
        if shard.sent >= window:
            return
        now = time.monotonic()
        while shard.sent < window:
            queued = inflight[shard.sent]
            queued.sent_at = now
            shard.out += queued.frame.encode("latin-1")
            shard.sent += 1
        self._dirty_shards.add(shard)

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
        if not responses:
            return
        self.monitor.note_reply(shard.name)
        for response in responses:
            if not shard.sent:
                raise IagoFault(
                    f"shard {shard.index} sent an unsolicited "
                    f"reply {response[:32]!r}")
            slot = shard.inflight.popleft()
            shard.sent -= 1
            self._verify(shard, slot, response)
            if shard.replaying:
                shard.replaying -= 1
            if slot.conn is not None:
                slot.response = response
                self.pump(slot.conn)
        if not shard.replaying:
            # Only a finished replay ends the failure streak: a shard
            # that dies mid-replay every time must open the breaker.
            shard.breaker.close()
        self._forward(shard)
        self._time_probe(shard)

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
                    raise IagoFault(
                        f"shard {shard.index} reports a miss for key "
                        f"{slot.key!r} but the router ledger holds "
                        f"digest {slot.expect:#x}")
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
            oldest = shard.inflight[0].sent_at if shard.sent else None
            verdict = self.monitor.verdict(shard.name, oldest, now)
            if verdict is None and shard.replaying \
                    and now - oldest > self.config.replay_timeout:
                verdict = (f"replay unanswered for {now - oldest:.2f}s "
                           f"(replay_timeout="
                           f"{self.config.replay_timeout}s)")
            if verdict is not None:
                self._shard_died(shard, verdict)
                continue
            if not self._stop and self.monitor.want_probe(
                    shard.name,
                    idle=not shard.inflight and not shard.out,
                    now=now):
                self._send_probe(shard, now)

    def _time_probe(self, shard: _Shard) -> None:
        """Start the probe clock when a probe is ``shard``'s oldest
        outstanding slot.  Any reply resolves an outstanding probe,
        so a probe re-forwarded behind replayed slots is timed from
        when the replies ahead of it have arrived."""
        if shard.inflight and shard.inflight[0].command == "probe":
            self.monitor.note_probe(shard.name)

    def _send_probe(self, shard: _Shard, now: float) -> None:
        """An ordinary ``get`` on the reserved probe key, straight
        down this shard's pipe (ring ownership is irrelevant — the
        probe tests the link, not the placement)."""
        key = probe_key(shard.name)
        self._forward(shard, _Slot(None, "probe", key,
                                   protocol.encode_get(key)))
        self.monitor.note_probe(shard.name, now)
        self.registry.inc("router.probes")

    # -- shard death and recovery ------------------------------------------------

    def _shard_died(self, shard: _Shard, why: str) -> None:
        if not self._drop(shard):
            return
        self._dirty_shards.discard(shard)
        shard.out = bytearray()
        shard.sent = shard.replaying = 0
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
        if process_alive or external:
            # A live worker or an endpoint that cannot be respawned:
            # one bounded reconnect first.  Replay makes it sound even
            # though the worker already applied some un-acked
            # operations: the replay resets it to exactly the acked
            # state, and the re-applied suffix is the same frames in
            # the same order.
            try:
                self._bring_up(shard)
                self.reconnects += 1
                self.registry.inc("router.shard_reconnects")
                return
            except NetworkFault:
                # The endpoint is really gone, not just the link.
                if process_alive:
                    proc.kill()
                    exit_code = proc.wait()
                if external and on_death not in ("rebalance",
                                                 "degrade"):
                    raise EnclaveCrash(
                        f"shard {shard.index} died ({why}) and its "
                        f"external endpoint refused reconnection; "
                        f"external shards cannot be respawned")
        if proc is not None:
            if proc.stdout is not None:
                proc.stdout.close()
            shard.proc = None
        if on_death == "restart":
            shard.restarts += 1
            self.registry.inc("router.shard_restarts")
            self._bring_up(shard)
        elif on_death == "rebalance":
            self._rebalance_away(shard, why)
        elif on_death == "degrade":
            self._degrade_shard(shard, why)
        else:
            raise EnclaveCrash(
                f"shard {shard.index} died ({why}, exit "
                f"{exit_code}) with {len(shard.inflight)} "
                f"request(s) in flight and recovery disabled")

    # -- ring rebalancing and degraded mode --------------------------------------

    def _reroute_inflight(self, shard: _Shard,
                          degrade: bool = False) -> int:
        """Move a dead shard's in-flight slots to the new ring
        owners, in their original order (after any migration frames
        already queued there).  Probes and evictions die with the
        shard; in degraded mode, reads/deletes of stranded keys are
        answered ``SHARD_UNAVAILABLE`` on the spot."""
        pending = shard.inflight
        shard.inflight = deque()
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
                self.pump(slot.conn)
                continue
            if degrade and slot.command in ("set", "migrate"):
                self.lost.pop(slot.key, None)
            self._forward(self._by_name[self.ring.lookup(slot.key)], slot)
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
            self._forward(owner, _Slot(None, "migrate", key, frame))
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
        self._bring_up(shard)
        shard.breaker.close()
        self.ring.add(shard.name)
        self.registry.inc("router.readds")
        moved = 0
        # Stranded (degraded-mode) keys first: their only copy is
        # the retained frame.
        for key in list(self.lost):
            owner = self._by_name[self.ring.lookup(key)]
            self._forward(owner, _Slot(None, "migrate", key,
                                       self.lost.pop(key)))
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
            self._forward(shard, _Slot(None, "migrate", key, frame))
            self._forward(holder, _Slot(None, "evict", key,
                                        protocol.encode_delete(key)))
            moved += 1
        self.registry.inc("router.migrated_keys", moved)
        self._publish_ring()
        if self.tracer is not None:
            self.tracer.serve_mark(
                "readd", shard.track, {"migrated": moved})

    # -- shard writes ------------------------------------------------------------

    def _flush_shard(self, shard: _Shard) -> None:
        if shard.sock is None:
            return
        try:
            shard.flush(self.selector)
        except OSError as error:
            self._shard_died(shard, f"write failed: {error}")

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


class RouterThread(LoopThread):
    """Run a :class:`ShardRouter` on a daemon thread (see
    :class:`~repro.serve.shell.LoopThread`)."""

    timeout = 30.0

    def __init__(self, config: Optional[RouterConfig] = None,
                 **kwargs):
        self.router = ShardRouter(config, **kwargs)
        super().__init__(self.router, "repro-serve-router")
