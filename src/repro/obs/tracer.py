"""Structured tracing — typed events recorded in Chrome
``trace_event`` form.

The tracer answers the question the counters cannot: *when* did the
protocol of Figure 7 do what.  Each event is one plain dict already in
the Chrome/Perfetto ``trace_event`` shape (load the exported file in
``chrome://tracing`` or https://ui.perfetto.dev), so exporting is just
``json.dump`` and recording is one ``list.append`` — no classes, no
serialization pass, no per-event allocation beyond the dict itself.

Typed emitters (instead of a free-form ``emit(dict)``) keep the event
vocabulary closed and schema-checkable:

======================  =========================================
``step_burst``          one scheduler burst of an execution
                        context (complete event, dur = wall time,
                        args carry the interpreted step count)
``spawn``               a ``spawn`` message enqueued (§7.3.2)
``trampoline``          a blocked/idle worker starting a spawned
                        chunk (Fig 7 nested execution)
``reply``               a chunk's return value sent back (Fig 7 c5)
``channel_push/_pop``   a message crossing a channel, with the
                        queue depth after the operation (the
                        counter track is the queue-depth timeline)
``memory_access``       enclave/unsafe memory traffic, aggregated
                        and flushed as counter samples
``cost_charge``         simulated cycles by cost class, aggregated
                        and flushed as counter samples
``fault``               a fault-injection/detection/recovery event
                        from the chaos harness (repro.faults) or
                        the runtime's integrity checks
``serve_mark`` /        the socket server's request lifecycle
``serve_span``          (repro.serve): accept/shed instants on the
                        connection's track, and queued/execute/
                        reply spans per request or batch drive
======================  =========================================

Per-access events would dwarf the run being observed, so the two
high-frequency sources (memory accesses, cost charges) accumulate
into dicts and emit one counter sample every ``sample_every``
events; :meth:`flush` drains the remainder (detach calls it).

A tracer is attached by the owners of the hot paths (runtime,
channels, machine) checking ``if tracer is not None`` — exactly the
guard discipline of ``Machine.access_hooks`` — so a detached run pays
zero observer overhead.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional

#: Event categories (the ``cat`` field): used by the schema check and
#: by trace viewers for filtering.
CAT_INTERP = "interp"
CAT_RUNTIME = "runtime"
CAT_CHANNEL = "channel"
CAT_MEMORY = "mem"
CAT_COST = "cost"
CAT_PIPELINE = "pipeline"
CAT_FAULT = "fault"
CAT_SERVE = "serve"

CATEGORIES = (CAT_INTERP, CAT_RUNTIME, CAT_CHANNEL, CAT_MEMORY,
              CAT_COST, CAT_PIPELINE, CAT_FAULT, CAT_SERVE)

#: The single simulated process all tracks live in.
PID = 1


class Tracer:
    """Records typed events; exports a Chrome ``trace_event`` dict.

    Parameters
    ----------
    sample_every:
        Flush interval for the aggregated high-frequency sources
        (memory accesses and cost charges): one counter sample per
        ``sample_every`` underlying events.
    clock:
        Seconds-returning callable (injectable for deterministic
        tests); defaults to :func:`time.perf_counter`.
    """

    def __init__(self, sample_every: int = 256, clock=None):
        self._clock = clock or time.perf_counter
        self._t0 = self._clock()
        self.events: List[dict] = []
        self.sample_every = max(1, int(sample_every))
        self._tids: Dict[str, int] = {}
        # Aggregation state for the high-frequency sources.
        self._mem_counts: Dict[str, int] = {}
        self._mem_pending = 0
        self._cost_cycles: Dict[str, float] = {}
        self._cost_pending = 0

    # -- clock / track helpers ---------------------------------------------------

    def now_us(self) -> float:
        """Microseconds since the tracer was created."""
        return (self._clock() - self._t0) * 1e6

    def _tid(self, track: str) -> int:
        """Stable thread id for a named track, emitting the Chrome
        ``thread_name`` metadata event on first use."""
        tid = self._tids.get(track)
        if tid is None:
            tid = self._tids[track] = len(self._tids) + 1
            self.events.append({
                "name": "thread_name", "ph": "M", "pid": PID,
                "tid": tid, "args": {"name": track},
            })
        return tid

    # -- generic emitters --------------------------------------------------------

    def instant(self, name: str, cat: str, track: str,
                args: Optional[dict] = None) -> None:
        self.events.append({
            "name": name, "cat": cat, "ph": "i", "s": "t",
            "ts": self.now_us(), "pid": PID, "tid": self._tid(track),
            "args": args or {},
        })

    def complete(self, name: str, cat: str, track: str, ts_us: float,
                 dur_us: float, args: Optional[dict] = None) -> None:
        self.events.append({
            "name": name, "cat": cat, "ph": "X", "ts": ts_us,
            "dur": max(dur_us, 0.0), "pid": PID,
            "tid": self._tid(track), "args": args or {},
        })

    def counter(self, name: str, cat: str, values: dict) -> None:
        self.events.append({
            "name": name, "cat": cat, "ph": "C", "ts": self.now_us(),
            "pid": PID, "tid": 0, "args": dict(values),
        })

    # -- typed events ------------------------------------------------------------

    def pass_span(self, name: str, ts_us: float, dur_us: float,
                  args: Optional[dict] = None) -> None:
        """One compilation-pipeline pass, as a complete span on the
        ``pipeline`` track."""
        self.complete(name, CAT_PIPELINE, "pipeline", ts_us, dur_us,
                      args)

    def step_burst(self, ctx_name: str, mode: Optional[str],
                   steps: int, t0_us: float) -> None:
        """One scheduler burst: ``steps`` interpreted steps on the
        context's track, spanning ``t0_us`` to now."""
        self.complete("burst", CAT_INTERP, ctx_name, t0_us,
                      self.now_us() - t0_us,
                      {"steps": steps, "mode": mode or "U"})

    def spawn(self, chunk: str, src: str, dst: str,
              n_args: int) -> None:
        self.instant("spawn", CAT_RUNTIME, f"color.{src}",
                     {"chunk": chunk, "src": src, "dst": dst,
                      "f_args": n_args})

    def trampoline(self, chunk: str, color: str) -> None:
        self.instant("trampoline", CAT_RUNTIME, f"color.{color}",
                     {"chunk": chunk, "color": color})

    def reply(self, chunk: str, src: str, dst: str) -> None:
        self.instant("reply", CAT_RUNTIME, f"color.{src}",
                     {"chunk": chunk, "src": src, "dst": dst})

    def channel_push(self, src: str, dst: str, kind: str,
                     depth: int) -> None:
        self.instant("push", CAT_CHANNEL, f"chan.{src}->{dst}",
                     {"kind": kind, "depth": depth})
        self.counter(f"depth {src}->{dst}", CAT_CHANNEL,
                     {"pending": depth})

    def channel_pop(self, src: str, dst: str, kind: str,
                    depth: int) -> None:
        self.instant("pop", CAT_CHANNEL, f"chan.{src}->{dst}",
                     {"kind": kind, "depth": depth})
        self.counter(f"depth {src}->{dst}", CAT_CHANNEL,
                     {"pending": depth})

    def fault(self, event: str, kind: str,
              args: Optional[dict] = None) -> None:
        """One fault-injection or fault-detection event on the
        ``faults`` track.  ``event`` is ``inject`` (the chaos harness
        perturbed something), ``detect`` (an integrity check caught
        an anomaly, typed fault imminent) or ``recover`` (a crashed
        worker restarted and replayed its spawn)."""
        payload = {"kind": kind}
        if args:
            payload.update(args)
        self.instant(event, CAT_FAULT, "faults", payload)

    def serve_mark(self, event: str, track: str,
                   args: Optional[dict] = None) -> None:
        """One socket-server lifecycle instant (``accept``, ``shed``,
        ``close`` ...) on a serve-layer track (``conn.N`` or
        ``serve``)."""
        self.instant(event, CAT_SERVE, track, args)

    def serve_span(self, name: str, track: str, ts_us: float,
                   dur_us: float,
                   args: Optional[dict] = None) -> None:
        """One serve-layer phase as a complete span: per-request
        ``queued``/``reply`` on the connection's track, per-round
        ``execute`` on the ``serve`` track."""
        self.complete(name, CAT_SERVE, track, ts_us, dur_us, args)

    def memory_access(self, region: str, rw: str) -> None:
        """Aggregated: one counter sample per ``sample_every``
        accesses, carrying cumulative per-region read/write counts."""
        key = f"{region}.{rw}"
        self._mem_counts[key] = self._mem_counts.get(key, 0) + 1
        self._mem_pending += 1
        if self._mem_pending >= self.sample_every:
            self._flush_memory()

    def cost_charge(self, kind: str, cycles: float,
                    count: float) -> None:
        """Aggregated like :meth:`memory_access`: cumulative cycles by
        cost class, sampled every ``sample_every`` charges."""
        self._cost_cycles[kind] = \
            self._cost_cycles.get(kind, 0.0) + cycles
        self._cost_pending += 1
        if self._cost_pending >= self.sample_every:
            self._flush_cost()

    # -- aggregation flushing ----------------------------------------------------

    def _flush_memory(self) -> None:
        if self._mem_pending:
            self._mem_pending = 0
            self.counter("mem.accesses", CAT_MEMORY,
                         dict(self._mem_counts))

    def _flush_cost(self) -> None:
        if self._cost_pending:
            self._cost_pending = 0
            self.counter("cost.cycles", CAT_COST,
                         {k: round(v, 1)
                          for k, v in self._cost_cycles.items()})

    def flush(self) -> None:
        """Drain pending aggregated samples (called on detach)."""
        self._flush_memory()
        self._flush_cost()

    # -- export ------------------------------------------------------------------

    def chrome_trace(self) -> dict:
        """The trace as a Chrome ``trace_event`` JSON object."""
        self.flush()
        return {
            "traceEvents": list(self.events),
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs"},
        }

    def write_chrome(self, path: str) -> str:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle, indent=1)
            handle.write("\n")
        return path

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"<Tracer {len(self.events)} events>"
