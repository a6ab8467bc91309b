"""Socket-level fault injection for the serving tier.

PR 4's :mod:`repro.faults.injector` attacks the *in-process* channel
matrix; the sharded serving tier of :mod:`repro.serve.router` moved
the trust boundary onto real TCP sockets, which the adversary model
says belong to the untrusted host.  This module closes that gap: a
seeded, in-process interposition layer that wraps the router<->shard
and client<->router streams and injects the classic network failure
modes, driven by the same single-shot :class:`~repro.faults.plan.
FaultPlan` grammar (``net-reset:shard0:3``, ``net-slow:*:2:50``,
``net-short:shard1:1``, ``net-garble:shard0:4``).

Fault actions (selected per socket *operation*, counted per entry):

* ``net-reset`` — the next matching send/recv raises
  :class:`ConnectionResetError`; the router's death-detection and
  reconnect/replay machinery must absorb it.
* ``net-slow`` — a latency spike: the operation sleeps ``MS``
  milliseconds (default 25) first, exercising the timeout paths.
* ``net-short`` — a partial write (``send`` truncates to half) or a
  short read (``recv`` capped to a few bytes), exercising the
  buffered-write and incremental-framing paths; no bytes are lost.
* ``net-garble`` — received bytes are corrupted (one byte flipped)
  or truncated (the tail dropped after being consumed), so the
  framer sees a desynchronized or silently-stalled stream; detection
  is a :class:`~repro.serve.framing.FrameError` (an IagoFault at the
  router) or a health-layer timeout.

The end-to-end contract extends PR 4's lockstep differential: a
seeded load run with network faults must converge to a digest ledger
identical to the fault-free run, or die with a typed
:class:`~repro.errors.RuntimeFault` — zero silently-wrong responses
and zero hangs.  ``python -m repro.faults.netchaos --seeds 100``
runs that sweep standalone (router + 2 in-process shard servers).
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict, List, Optional, Sequence

from repro.faults.plan import NET_ACTIONS, FaultPlan

#: Which actions can fire on which socket operation.
_SEND_ACTIONS = ("net-reset", "net-slow", "net-short")
_RECV_ACTIONS = ("net-reset", "net-slow", "net-short", "net-garble")

#: net-short caps a recv to this many bytes, so framers must
#: reassemble headers split mid-token.
SHORT_READ_BYTES = 5


class NetChaos:
    """The shared fault engine: one per router, wrapping any number
    of streams.  Entry matching is single-shot and deterministic
    (``plan`` order, per-entry ``nth`` counters); garbling draws from
    a seeded private RNG so a run is a pure function of
    ``(plan, seed)``."""

    def __init__(self, plan: FaultPlan, seed: int = 0):
        self.plan = plan
        self.rng = random.Random(f"netchaos:{seed}")
        self.injected: Dict[str, int] = {}
        self.events = 0
        self._lock = threading.Lock()
        for entry in plan.entries:
            if entry.action not in NET_ACTIONS:
                raise ValueError(
                    f"netchaos plan holds a non-net entry "
                    f"{entry.spec()!r} (actions: "
                    f"{', '.join(NET_ACTIONS)})")

    def wrap(self, sock, endpoint: str) -> "ChaosSocket":
        """Interpose on one stream; ``endpoint`` is the plan-facing
        label (``shard0``.., or ``client``)."""
        return ChaosSocket(sock, endpoint, self)

    def pick(self, op: str, endpoint: str):
        """Count this socket operation against every live matching
        entry; return the first entry that just reached its ``nth``
        (or ``None``)."""
        actions = _SEND_ACTIONS if op == "send" else _RECV_ACTIONS
        with self._lock:
            self.events += 1
            chosen = None
            for entry in self.plan.entries:
                if entry.fired or entry.action not in actions:
                    continue
                if entry.target not in ("*", endpoint):
                    continue
                entry.matched += 1
                if entry.matched >= entry.nth and chosen is None:
                    entry.fired = True
                    self.injected[entry.action] = \
                        self.injected.get(entry.action, 0) + 1
                    chosen = entry
            return chosen

    def garble(self, data: bytes) -> bytes:
        """Corrupt received bytes: flip one byte, or drop the tail
        (the bytes were consumed from the kernel but never reach the
        framer — the silent-stall case only a timeout can catch)."""
        if not data:
            return data
        if len(data) > 1 and self.rng.random() < 0.5:
            return data[:self.rng.randint(1, len(data) - 1)]
        index = self.rng.randrange(len(data))
        mutated = bytearray(data)
        mutated[index] ^= 1 << self.rng.randrange(8)
        return bytes(mutated)


class ChaosSocket:
    """A socket proxy injecting the plan's faults.

    Everything not interposed on (``fileno``, ``setblocking``,
    ``setsockopt``, ``close``, ...) delegates to the real socket, so
    a wrapped socket still registers with ``selectors`` and honors
    blocking-mode changes."""

    def __init__(self, sock, endpoint: str, chaos: NetChaos):
        self._sock = sock
        self._endpoint = endpoint
        self._chaos = chaos

    def __getattr__(self, name):
        return getattr(self._sock, name)

    def _fire(self, op: str):
        entry = self._chaos.pick(op, self._endpoint)
        if entry is None:
            return None
        if entry.action == "net-reset":
            raise ConnectionResetError(
                104, f"injected reset on {self._endpoint} "
                     f"({entry.spec()})")
        if entry.action == "net-slow":
            time.sleep(int(entry.mode) / 1000.0)
        return entry

    def send(self, data):
        entry = self._fire("send")
        if entry is not None and entry.action == "net-short" \
                and len(data) > 1:
            data = bytes(data[:max(1, len(data) // 2)])
        return self._sock.send(data)

    def sendall(self, data):
        entry = self._fire("send")
        if entry is not None and entry.action == "net-short" \
                and len(data) > 1:
            # A partial write the caller never sees: two segments
            # instead of one, no bytes lost.
            half = max(1, len(data) // 2)
            self._sock.sendall(data[:half])
            return self._sock.sendall(data[half:])
        return self._sock.sendall(data)

    def recv(self, bufsize: int):
        entry = self._fire("recv")
        if entry is None:
            return self._sock.recv(bufsize)
        if entry.action == "net-short":
            return self._sock.recv(
                min(bufsize, SHORT_READ_BYTES))
        data = self._sock.recv(bufsize)
        if entry.action == "net-garble":
            return self._chaos.garble(data)
        return data

    def __repr__(self) -> str:
        return f"<ChaosSocket {self._endpoint} on {self._sock!r}>"


# -- the end-to-end differential sweep -------------------------------------------

IDENTICAL = "identical"
TYPED_FAULT = "typed-fault"
SILENTLY_WRONG = "silently-wrong"
HANG = "hang"


def _one_run(program, net_inject: Optional[str], chaos_seed: int,
             load_seed: int, ops: int, clients: int,
             records: int) -> dict:
    """One complete serving run: 2 in-process shard servers, the
    router (with chaos when ``net_inject``), a seeded lockstep load.
    Returns ``{"error", "report", "digests", "stats"}``."""
    from repro.serve import (
        RouterConfig,
        RouterThread,
        SecureKVEngine,
        ServeConfig,
        ServerThread,
    )
    from repro.serve.loadgen import run_load

    shards = [
        ServerThread(ServeConfig(port=0, batch=8),
                     engine=SecureKVEngine(program=program))
        for _ in range(2)]
    router: Optional[RouterThread] = None
    try:
        for shard in shards:
            shard.start()
        config = RouterConfig(
            port=0, shards=2, batch=8,
            external_shards=[("127.0.0.1", shard.server.port)
                             for shard in shards],
            probe_interval=0.25, probe_timeout=2.0,
            forward_timeout=2.5, connect_timeout=2.0,
            connect_retries=2, backoff_base=0.05, backoff_cap=0.2,
            replay_timeout=5.0, drain_timeout=5.0,
            net_inject=net_inject, net_chaos_seed=chaos_seed)
        router = RouterThread(config)
        router.start()
        load_error: Optional[BaseException] = None
        report: Optional[dict] = None
        try:
            report = run_load(
                "127.0.0.1", router.router.port, workload="A",
                clients=clients, ops=ops, records=records,
                value_bytes=24, seed=load_seed, lockstep=True)
        except Exception as error:
            # A router abort cuts client connections mid-response;
            # the verdict then belongs to the router's typed fault,
            # not the client-side symptom.
            load_error = error
        try:
            router.stop(timeout=10.0)
        except RuntimeError:
            pass
        return {"error": router.error if router.error is not None
                else load_error,
                "report": report,
                "digests": router.router.final_digests(),
                "stats": router.router.stats()}
    finally:
        if router is not None and router.error is None:
            try:
                router.stop(timeout=5.0)
            except RuntimeError:
                pass
        for shard in shards:
            try:
                shard.stop()
            except Exception:
                pass


def _classify(baseline: dict, outcome: dict) -> str:
    from repro.errors import RuntimeFault

    if isinstance(outcome["error"], RuntimeFault):
        return TYPED_FAULT
    if outcome["error"] is not None:
        return SILENTLY_WRONG
    report = outcome["report"]
    if report["dropped_connections"] or report["errors"] \
            or report.get("abandoned"):
        # Clients saw failures the router never typed: with
        # shard-link-only faults that is a broken contract.
        return SILENTLY_WRONG
    if outcome["digests"] == baseline["digests"]:
        return IDENTICAL
    return SILENTLY_WRONG


def netchaos_sweep(seeds: Sequence[int], load_seed: int = 42,
                   ops: int = 120, clients: int = 2,
                   records: int = 16, watchdog: float = 60.0,
                   progress=None) -> List[dict]:
    """The seeded network-chaos differential: one random net plan per
    seed against a fixed lockstep load, each run classified against
    the fault-free baseline's digest ledger.  Every run executes
    under a wall-clock watchdog — a hang is a verdict, not a stuck
    harness.

    Plans target only the shard links (``shard0``/``shard1`` — never
    the ``*`` wildcard, which would also match the wrapped client
    streams): client-side chaos legitimately changes which
    operations are admitted, so it is covered by unit tests rather
    than the ledger-equality differential.
    """
    from repro.serve.engine import compile_secure_kv

    program = compile_secure_kv()
    baseline = _run_with_watchdog(
        program, None, 0, load_seed, ops, clients, records, watchdog)
    if baseline is None:
        raise RuntimeError("fault-free baseline run hung")
    if baseline["error"] is not None:
        raise RuntimeError(
            f"fault-free baseline faulted: {baseline['error']!r}")
    report = baseline["report"]
    if report["dropped_connections"] or report["errors"]:
        raise RuntimeError(
            f"fault-free baseline saw client errors: {report}")
    records_out: List[dict] = []
    for seed in seeds:
        plan = FaultPlan.random_net(seed, shards=2)
        outcome = _run_with_watchdog(
            program, plan.spec(), seed, load_seed, ops, clients,
            records, watchdog)
        if outcome is None:
            verdict, fault = HANG, ""
        else:
            verdict = _classify(baseline, outcome)
            fault = type(outcome["error"]).__name__ \
                if outcome["error"] is not None else ""
        record = {"seed": seed, "plan": plan.spec(),
                  "verdict": verdict, "fault": fault}
        records_out.append(record)
        if progress is not None:
            progress(record)
    return records_out


def _run_with_watchdog(program, net_inject, chaos_seed, load_seed,
                       ops, clients, records,
                       watchdog: float) -> Optional[dict]:
    """Run :func:`_one_run` on a daemon thread; ``None`` on a hang
    (the thread is abandoned — the sweep process exits anyway)."""
    box: Dict[str, object] = {}

    def run():
        try:
            box["outcome"] = _one_run(
                program, net_inject, chaos_seed, load_seed, ops,
                clients, records)
        except BaseException as error:  # surface harness bugs
            box["raised"] = error

    thread = threading.Thread(target=run, daemon=True,
                              name="netchaos-run")
    thread.start()
    thread.join(watchdog)
    if thread.is_alive():
        return None
    if "raised" in box:
        raise box["raised"]  # type: ignore[misc]
    return box["outcome"]  # type: ignore[return-value]


def summarize(records: Sequence[dict]) -> Dict[str, int]:
    summary = {IDENTICAL: 0, TYPED_FAULT: 0, SILENTLY_WRONG: 0,
               HANG: 0, "runs": len(records)}
    for record in records:
        summary[record["verdict"]] += 1
    return summary


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone sweep (the check.sh netchaos smoke).  Exits 0 iff
    no run was silently wrong or hung."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.netchaos",
        description="seeded socket-chaos differential sweep "
                    "(router + 2 shards)")
    parser.add_argument("--seeds", type=int, default=20,
                        help="number of seeded net plans")
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--ops", type=int, default=120)
    parser.add_argument("--clients", type=int, default=2)
    parser.add_argument("--records", type=int, default=16)
    parser.add_argument("--load-seed", type=int, default=42)
    parser.add_argument("--watchdog", type=float, default=60.0,
                        help="per-run wall-clock deadline (s)")
    parser.add_argument("--verbose", action="store_true")
    options = parser.parse_args(argv)

    def progress(record):
        if options.verbose or record["verdict"] in (SILENTLY_WRONG,
                                                    HANG):
            print(f"  seed={record['seed']} "
                  f"verdict={record['verdict']} "
                  f"fault={record['fault'] or '-'} "
                  f"plan={record['plan']}")

    records = netchaos_sweep(
        range(options.base_seed, options.base_seed + options.seeds),
        load_seed=options.load_seed, ops=options.ops,
        clients=options.clients, records=options.records,
        watchdog=options.watchdog, progress=progress)
    summary = summarize(records)
    print(f"netchaos sweep: {summary['runs']} runs, "
          f"{summary[IDENTICAL]} identical, "
          f"{summary[TYPED_FAULT]} typed-fault, "
          f"{summary[SILENTLY_WRONG]} silently-wrong, "
          f"{summary[HANG]} hung")
    return 1 if summary[SILENTLY_WRONG] or summary[HANG] else 0


if __name__ == "__main__":
    raise SystemExit(main())
