"""Failure detection for the sharded serving tier.

The router of :mod:`repro.serve.router` talks to its shard workers
over plain TCP, and PR 4's adversary model makes that link part of
the untrusted host: a worker can wedge without closing its socket, a
connect can hang, a reply can simply never come.  This module holds
the three detection mechanisms the router composes, each one small
and separately testable:

* :func:`connect_with_backoff` — every connect the router makes
  (at start, after a death, on re-add) goes through one bounded
  exponential-backoff retry loop whose give-up is the typed
  :class:`~repro.errors.NetworkFault`, never a raw ``OSError``
  traceback and never an unbounded hang.

* :class:`HealthMonitor` — per-shard liveness bookkeeping.  Probes
  piggyback on the existing framing protocol: an idle shard is sent
  an ordinary ``get`` for a reserved ``__probe__<shard>`` key, which
  flows through the same slot FIFO as client traffic, so a probe
  reply proves the *whole* pipeline (socket, framer, worker loop) is
  alive, not just the TCP connection.  A busy shard needs no probe —
  its oldest in-flight slot's age is the liveness signal, bounded by
  ``forward_timeout``.

* :class:`CircuitBreaker` — a per-shard budget of *consecutive*
  recovery attempts.  Every detected death trips it; any subsequent
  reply from the shard closes it again.  When the budget is spent
  the router stops burning restarts on a flapping shard and
  surfaces a :class:`~repro.errors.NetworkFault` instead.

All timestamps are ``time.monotonic`` floats supplied by the caller,
so tests drive the clock explicitly.
"""

from __future__ import annotations

import socket
import time
from typing import Callable, Dict, Optional

from repro.errors import NetworkFault

#: Reserved key namespace for liveness probes.  Workers treat probe
#: gets as ordinary (missing) keys; the router never records them in
#: its ledger, so a probe answered with anything but a miss is a
#: lying shard.
PROBE_KEY_PREFIX = "__probe__"


def probe_key(shard_name: str) -> str:
    return f"{PROBE_KEY_PREFIX}{shard_name}"


def connect_with_backoff(address, timeout: float, retries: int,
                         backoff_base: float, backoff_cap: float,
                         describe: str = "shard link",
                         sleep: Callable[[float], None] = time.sleep,
                         wrap: Optional[Callable] = None
                         ) -> socket.socket:
    """``socket.create_connection`` with a bounded retry budget.

    Makes up to ``1 + retries`` attempts, sleeping
    ``min(backoff_cap, backoff_base * 2**attempt)`` between them.
    Exhausting the budget raises :class:`NetworkFault` carrying the
    last OS error.  ``wrap`` (the netchaos hook) is applied to the
    raw socket before it is returned, so injected faults cover the
    connect path too.
    """
    attempt = 0
    while True:
        try:
            sock = socket.create_connection(address, timeout=timeout)
            return wrap(sock) if wrap is not None else sock
        except OSError as error:
            if attempt >= retries:
                raise NetworkFault(
                    f"{describe}: connect to {address[0]}:"
                    f"{address[1]} failed after {attempt + 1} "
                    f"attempt(s): {error}")
            sleep(min(backoff_cap, backoff_base * (2 ** attempt)))
            attempt += 1


class CircuitBreaker:
    """Consecutive-failure budget for one shard's recovery path."""

    __slots__ = ("budget", "failures")

    def __init__(self, budget: int):
        self.budget = budget
        self.failures = 0

    def allow(self) -> bool:
        """May another recovery be attempted?"""
        return self.failures < self.budget

    def trip(self) -> None:
        self.failures += 1

    def close(self) -> None:
        """The shard answered: the failure streak is over."""
        self.failures = 0

    def __repr__(self) -> str:
        return (f"<CircuitBreaker {self.failures}/{self.budget}"
                f"{' OPEN' if not self.allow() else ''}>")


class _Record:
    __slots__ = ("last_reply", "probe_sent")

    def __init__(self, now: float):
        self.last_reply = now
        self.probe_sent: Optional[float] = None


class HealthMonitor:
    """Per-shard liveness bookkeeping (see module docstring).

    Parameters
    ----------
    probe_interval:
        Probe an *idle* shard after this many seconds without a
        reply; ``None`` disables probing.
    probe_timeout:
        A probe unanswered for this long is a confirmed failure.
    forward_timeout:
        A *busy* shard whose oldest in-flight request has waited
        this long is a confirmed failure; ``None`` disables it.
    """

    def __init__(self, probe_interval: Optional[float] = None,
                 probe_timeout: float = 5.0,
                 forward_timeout: Optional[float] = None):
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.forward_timeout = forward_timeout
        self._records: Dict[str, _Record] = {}

    @property
    def enabled(self) -> bool:
        return self.probe_interval is not None \
            or self.forward_timeout is not None

    def attach(self, name: str,
               now: Optional[float] = None) -> None:
        """(Re)start tracking a shard — call on every (re)connect."""
        self._records[name] = _Record(
            time.monotonic() if now is None else now)

    def note_reply(self, name: str,
                   now: Optional[float] = None) -> None:
        """Any reply proves the whole pipeline is alive; it also
        resolves an outstanding probe, whichever slot answered."""
        record = self._records.get(name)
        if record is None:
            return
        record.last_reply = time.monotonic() if now is None else now
        record.probe_sent = None

    def probe_outstanding(self, name: str) -> bool:
        record = self._records.get(name)
        return record is not None and record.probe_sent is not None

    def want_probe(self, name: str, idle: bool,
                   now: Optional[float] = None) -> bool:
        """Should the router send a probe this round?  Only idle
        shards are probed: a busy shard's in-flight age is already a
        stronger signal."""
        if self.probe_interval is None or not idle:
            return False
        record = self._records.get(name)
        if record is None or record.probe_sent is not None:
            return False
        now = time.monotonic() if now is None else now
        return now - record.last_reply >= self.probe_interval

    def note_probe(self, name: str,
                   now: Optional[float] = None) -> None:
        record = self._records.get(name)
        if record is not None:
            record.probe_sent = time.monotonic() if now is None \
                else now

    def verdict(self, name: str, oldest_sent_at: Optional[float],
                now: Optional[float] = None) -> Optional[str]:
        """The failure verdict for one shard, or ``None`` if it
        still looks alive.  ``oldest_sent_at`` is the forward time
        of the shard's oldest unanswered request (``None`` when
        idle)."""
        record = self._records.get(name)
        if record is None:
            return None
        now = time.monotonic() if now is None else now
        if record.probe_sent is not None \
                and now - record.probe_sent > self.probe_timeout:
            return (f"liveness probe unanswered for "
                    f"{now - record.probe_sent:.2f}s "
                    f"(probe_timeout={self.probe_timeout}s)")
        if self.forward_timeout is not None \
                and oldest_sent_at is not None \
                and now - oldest_sent_at > self.forward_timeout:
            return (f"oldest in-flight request unanswered for "
                    f"{now - oldest_sent_at:.2f}s "
                    f"(forward_timeout={self.forward_timeout}s)")
        return None
