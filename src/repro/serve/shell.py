"""The connection shell both serving loops run on.

The paper's memcached is event-based (§9.2): one thread, one
selectors loop.  :class:`ConnectionShell` is that loop's connection
half, written once for the single-process server
(:class:`~repro.serve.server.PrivagicServer`) and the shard router
(:class:`~repro.serve.router.ShardRouter`).  It owns:

* the non-blocking listener and the accept path;
* one :class:`~repro.serve.framing.RequestFramer` per connection;
* a per-connection *slot FIFO*.  Every request gets a :class:`Slot`
  in arrival order, and a connection writes exactly the answered
  prefix of its FIFO, so replies leave in request order however the
  loop answers them.  Immediate answers (``SERVER_BUSY``, ``ERROR``,
  ``SHARD_UNAVAILABLE``) are slots too and wait behind earlier
  requests;
* the non-blocking flush of any registered :class:`Stream` — client
  connections and the router's shard links alike;
* close-after-flush (a desynchronized connection gets ``ERROR`` and
  closes once its FIFO has emptied);
* listener close, drain and abort, and :class:`LoopThread`.

A serving loop subclasses the shell and supplies only its policy:
``_on_frame(conn, raw)`` takes one complete request (append a slot
now and fill ``slot.response`` later, or :meth:`answer` it at once),
``_round()`` runs one scheduling round (:meth:`_poll`, the loop's own
work, then :meth:`_flush_replies`), ``_busy()`` says whether work is
still owed at shutdown, and ``_start()``/``_finish()`` bracket the
loop.  A loop whose owed work must finish whatever it takes extends
:meth:`_drain` instead of ``_busy()``.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from collections import deque
from typing import Callable, Deque, Optional, Set

from repro.apps.minicache import protocol
from repro.errors import RuntimeFault
from repro.obs.metrics import MetricsRegistry
from repro.serve.framing import RequestFramer

#: Selector timeout of a round with nothing queued, seconds.
IDLE_POLL = 0.05

_READ = selectors.EVENT_READ
_READ_WRITE = selectors.EVENT_READ | selectors.EVENT_WRITE


class Slot:
    """One request's place in its connection's reply order.
    ``response`` stays ``None`` until the request is answered."""

    __slots__ = ("conn", "frame", "response")

    def __init__(self, conn: Optional["Connection"], frame: str = "",
                 response: Optional[str] = None):
        self.conn = conn
        self.frame = frame
        self.response = response


class Stream:
    """A socket registered with the loop's selector, plus its pending
    output.  ``on_read(stream)`` and ``on_write(stream)`` handle its
    selector events; ``sock`` is ``None`` once the stream is gone."""

    __slots__ = ("sock", "out", "on_read", "on_write")

    def __init__(self, sock, on_read: Callable, on_write: Callable):
        self.sock = sock
        self.out = bytearray()
        self.on_read = on_read
        self.on_write = on_write

    def flush(self, selector: selectors.BaseSelector) -> int:
        """Write as much of ``out`` as the socket takes without
        blocking, and keep WRITE interest while any remains.  Returns
        the bytes sent; a failed socket raises :class:`OSError`."""
        out = self.out
        total = 0
        while out:
            try:
                sent = self.sock.send(out)
            except (BlockingIOError, InterruptedError):
                break
            if sent <= 0:
                break
            del out[:sent]
            total += sent
        try:
            selector.modify(self.sock, _READ_WRITE if out else _READ,
                            self)
        except (KeyError, ValueError, OSError):
            pass
        return total


class Connection(Stream):
    """One client session: framer in, ordered slot FIFO out."""

    __slots__ = ("conn_id", "framer", "slots", "close_after_flush",
                 "requests")

    def __init__(self, sock, conn_id: int, on_read: Callable,
                 on_write: Callable):
        super().__init__(sock, on_read, on_write)
        self.conn_id = conn_id
        self.framer = RequestFramer()
        self.slots: Deque[Slot] = deque()
        self.close_after_flush = False
        self.requests = 0

    @property
    def track(self) -> str:
        return f"conn.{self.conn_id}"


class ConnectionShell:
    """The connection half of a serving loop (see module docstring).

    ``config`` needs ``host``, ``port`` and ``drain_timeout``;
    ``metrics`` is the prefix of the shell's metric names.
    """

    metrics: str

    def __init__(self, config, registry: Optional[MetricsRegistry],
                 tracer):
        self.config = config
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.tracer = tracer
        self.selector: Optional[selectors.BaseSelector] = None
        self.listener: Optional[socket.socket] = None
        self.connections: Set[Connection] = set()
        self.port: Optional[int] = None
        self.drained = False
        self.fault: Optional[BaseException] = None
        self._stop = False
        self._next_conn_id = 0
        self._dirty: Set[Connection] = set()
        prefix = self.metrics
        self._bytes_in = f"{prefix}.bytes_in"
        self._bytes_out = f"{prefix}.bytes_out"
        self._replies = f"{prefix}.replies"

    # -- policy hooks ------------------------------------------------------------

    def _on_frame(self, conn: Connection, raw: str) -> None:
        raise NotImplementedError

    def _round(self) -> None:
        raise NotImplementedError

    def _busy(self) -> bool:
        """Work the loop still owes at shutdown; the drain gives it
        ``drain_timeout`` to finish."""
        return False

    def _start(self) -> None:
        """Runs once before the first round."""

    def _finish(self) -> None:
        """Runs once after the loop, drained or aborted."""

    def _wrap_client(self, sock):
        """The stream an accepted client socket is served through."""
        return sock

    # -- lifecycle ---------------------------------------------------------------

    def bind(self) -> int:
        """Create and register the listening socket; returns the
        bound port (meaningful with the ephemeral ``port=0``)."""
        if self.listener is not None:
            return self.port
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.config.host, self.config.port))
        sock.listen(256)
        sock.setblocking(False)
        self.selector = selectors.DefaultSelector()
        self.selector.register(sock, _READ, None)
        self.listener = sock
        self.port = sock.getsockname()[1]
        return self.port

    def request_stop(self) -> None:
        """Ask the loop to drain and shut down.  Only sets a flag, so
        it is safe from signal handlers and other threads."""
        self._stop = True

    def serve_forever(self) -> None:
        """Run until :meth:`request_stop` (drains cleanly) or a
        :class:`RuntimeFault` (aborts, fault re-raised)."""
        if self.listener is None:
            self.bind()
        try:
            self._start()
            while not self._stop:
                self._round()
            self._drain()
        except RuntimeFault as fault:
            self.fault = fault
            self._abort()
            raise
        finally:
            self._finish()
            self._close_listener()
            if self.selector is not None:
                self.selector.close()
                self.selector = None

    def _poll(self, timeout: float) -> None:
        """One selector wait, dispatched: accepts, reads, writes."""
        for key, mask in self.selector.select(timeout):
            stream = key.data
            if stream is None:
                self._accept_ready()
                continue
            if mask & _READ and stream.sock is not None:
                stream.on_read(stream)
            if mask & selectors.EVENT_WRITE and stream.sock is not None:
                stream.on_write(stream)

    # -- client connections ------------------------------------------------------

    def _accept_ready(self) -> None:
        while True:
            try:
                sock, addr = self.listener.accept()
            except OSError:
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP,
                                socket.TCP_NODELAY, 1)
            except OSError:
                pass
            self._next_conn_id += 1
            conn = Connection(self._wrap_client(sock), self._next_conn_id,
                              self._on_readable, self._flush)
            self.connections.add(conn)
            self.selector.register(conn.sock, _READ, conn)
            self.registry.inc(f"{self.metrics}.connections")
            self.registry.gauge(f"{self.metrics}.open_connections").inc()
            if self.tracer is not None:
                self.tracer.serve_mark("accept", conn.track,
                                       {"peer": f"{addr[0]}:{addr[1]}"})

    def _on_readable(self, conn: Connection) -> None:
        try:
            data = conn.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close(conn)
            return
        if not data:
            self._close(conn)
            return
        self.registry.inc(self._bytes_in, len(data))
        conn.framer.feed(data)
        frames, error = conn.framer.drain()
        for raw in frames:
            conn.requests += 1
            self._on_frame(conn, raw)
        if error is not None:
            # Desync: ERROR in its turn, then cut the connection off.
            self.registry.inc(f"{self.metrics}.bad_frames")
            conn.close_after_flush = True
            self.answer(conn, protocol.ERROR)

    def answer(self, conn: Connection, response: str) -> None:
        """Answer a request at once, in its turn behind any earlier
        unanswered slots of ``conn``."""
        conn.slots.append(Slot(conn, response=response))
        self.pump(conn)

    def pump(self, conn: Connection) -> None:
        """Move the answered prefix of ``conn``'s slot FIFO into its
        output buffer; :meth:`_flush_replies` writes it."""
        slots = conn.slots
        while slots and slots[0].response is not None:
            response = slots.popleft().response
            if conn.sock is not None:
                conn.out += response.encode("latin-1")
                self.registry.inc(self._replies)
        if conn.out and conn.sock is not None:
            self._dirty.add(conn)

    def _flush_replies(self) -> None:
        """One coalesced write per connection answered this round."""
        dirty = self._dirty
        while dirty:
            conn = dirty.pop()
            if conn.sock is not None:
                self._flush(conn)

    def _flush(self, conn: Connection) -> None:
        try:
            sent = conn.flush(self.selector)
        except OSError:
            self._close(conn)
            return
        if sent:
            self.registry.inc(self._bytes_out, sent)
        if conn.close_after_flush and not conn.out and not conn.slots:
            self._close(conn)

    def _drop(self, stream: Stream) -> bool:
        """Unregister and close ``stream``'s socket; False when it
        was already gone."""
        sock = stream.sock
        if sock is None:
            return False
        stream.sock = None
        try:
            self.selector.unregister(sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            sock.close()
        except OSError:
            pass
        return True

    def _close(self, conn: Connection) -> None:
        if not self._drop(conn):
            return
        self.connections.discard(conn)
        self._dirty.discard(conn)
        self.registry.gauge(f"{self.metrics}.open_connections").dec()
        if self.tracer is not None:
            self.tracer.serve_mark("close", conn.track,
                                   {"requests": conn.requests})

    # -- teardown ----------------------------------------------------------------

    def _unflushed(self) -> bool:
        return any(conn.out for conn in self.connections)

    def _drain(self) -> None:
        """Graceful shutdown: stop accepting, finish the owed work and
        flush every reply (within ``drain_timeout``), then close."""
        self._close_listener()
        deadline = time.monotonic() + self.config.drain_timeout
        while (self._busy() or self._unflushed()) and \
                time.monotonic() < deadline:
            self._round()
        self.drained = not self._busy() and not self._unflushed()
        for conn in list(self.connections):
            self._close(conn)

    def _abort(self) -> None:
        """Fault path: no drain, close everything now."""
        self._close_listener()
        for conn in list(self.connections):
            self._close(conn)

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


class LoopThread:
    """Run a serving loop on a daemon thread — the shape tests,
    benchmarks and the check.sh smokes share.  A fault raised by the
    loop is kept in :attr:`error` (the typed :class:`RuntimeFault` a
    chaos run ends with)."""

    #: Default :meth:`stop`/:meth:`join` deadline, seconds.
    timeout = 10.0

    def __init__(self, loop: ConnectionShell, name: str):
        self.loop = loop
        self.name = name
        self.error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> int:
        """Bind, start serving in the background; returns the port."""
        port = self.loop.bind()

        def run():
            try:
                self.loop.serve_forever()
            except BaseException as error:   # captured for the owner
                self.error = error

        self._thread = threading.Thread(target=run, daemon=True,
                                        name=self.name)
        self._thread.start()
        return port

    def stop(self, timeout: Optional[float] = None) -> None:
        """Drain and join; raises if the loop did not finish."""
        self.loop.request_stop()
        self.join(timeout)

    def join(self, timeout: Optional[float] = None) -> None:
        if self._thread is None:
            return
        self._thread.join(self.timeout if timeout is None else timeout)
        if self._thread.is_alive():
            raise RuntimeError(f"{self.name} loop did not stop in time")

    def __enter__(self) -> "LoopThread":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._thread is not None and self._thread.is_alive():
            self.stop()
