"""The secure batch engine: one persistent partitioned runtime
driving the enclave-side KV index for the socket server.

The engine compiles :data:`~repro.serve.secure_source.
SECURE_KV_SOURCE` once at startup and keeps a single
:class:`~repro.runtime.executor.PrivagicRuntime` alive across
requests — globals (the bucket array, the allocator) persist in the
machine's simulated memory, so each :meth:`execute` call is one
interpreter drive of ``secure_batch`` over however many operations
the server batched.  After every drive the runtime's finished
application context and its worker group are retired
(:meth:`~repro.runtime.executor.PrivagicRuntime.retire_finished`),
so a server that handles millions of requests scans a constant-size
context list.

Keys and values cross into the enclave as 56-bit digests
(:meth:`SecureKVEngine.digest`): the untrusted cache stores the real
bytes, the enclave index stores an authenticated digest, and the
server compares the two on every reply — a lying untrusted store is
detected as an :class:`~repro.errors.IagoFault`, never silently
served.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import List, Optional, Sequence, Tuple

from repro.core.colors import HARDENED
from repro.core.compiler import compile_and_partition
from repro.errors import RuntimeFault
from repro.runtime import PrivagicRuntime
from repro.serve.secure_source import (
    OP_DELETE,
    OP_GET,
    OP_SET,
    SECURE_KV_SOURCE,
)
from repro.sgx import SGXAccessPolicy

#: An engine operation: ``("get", key)``, ``("delete", key)`` or
#: ``("set", key, value_bytes)``.
Op = Tuple


def compile_secure_kv(optimize: Optional[str] = None):
    """Compile and partition the served application (hardened mode).

    Split out so callers hosting many engines (the benchmark) can
    compile once and share the program.  ``optimize`` selects a
    placement policy (``repro.core.placement``) for the served
    partition."""
    return compile_and_partition(SECURE_KV_SOURCE, mode=HARDENED,
                                 optimize=optimize)


class SecureKVEngine:
    """The compiled partitioned KV application, persistently loaded.

    Parameters
    ----------
    program:
        A pre-compiled partitioned program (from
        :func:`compile_secure_kv`); compiled on demand if omitted.
    engine:
        Interpreter engine name (``decoded``/``legacy``), like the
        CLI's ``--engine``.  Serving uses the interpreter's default,
        ``decoded``; ``REPRO_ENGINE`` still wins when set.
    max_steps:
        Per-drive scheduler step budget.
    watchdog_steps:
        Optional per-context budget (chaos hardening).
    """

    OP_GET = OP_GET
    OP_SET = OP_SET
    OP_DELETE = OP_DELETE

    def __init__(self, program=None, engine: Optional[str] = None,
                 max_steps: int = 50_000_000,
                 watchdog_steps: Optional[int] = None):
        self.program = program if program is not None \
            else compile_secure_kv()
        self._feed: deque = deque()
        self._replies: List[int] = []
        self.runtime = PrivagicRuntime(
            self.program, self._externals(), max_steps=max_steps,
            engine=engine, watchdog_steps=watchdog_steps)
        SGXAccessPolicy().attach(self.runtime.machine)
        #: Totals over the engine's lifetime.
        self.drives = 0
        self.ops_served = 0

    # -- feed externals ----------------------------------------------------------

    def _externals(self) -> dict:
        """The untrusted externals bridging Python and MiniC: the
        request feed the entry loop pulls from, and the reply sink.
        (``classify``/``declassify`` are the identity — the simulated
        encrypt/decrypt of the paper's ignore functions.)"""
        feed = self._feed
        replies = self._replies

        def next_int(machine, ctx, args):
            return feed.popleft() if feed else 0

        return {
            "classify": lambda machine, ctx, args: args[0],
            "declassify": lambda machine, ctx, args: args[0],
            "next_request": next_int,
            "next_key": next_int,
            "next_value": next_int,
            "push_reply": lambda machine, ctx, args:
                replies.append(args[0]),
        }

    # -- digests -----------------------------------------------------------------

    @staticmethod
    def digest(data) -> int:
        """A 56-bit nonzero digest of a key or value.

        Seven bytes keep the digest well inside the simulated i64
        range (and clear of the Iago corruption sentinels at
        ``1 << 62``); the forced low bit keeps every digest distinct
        from the engine's ``0`` miss reply."""
        if isinstance(data, str):
            data = data.encode("utf-8", "surrogateescape")
        raw = hashlib.blake2b(data, digest_size=7).digest()
        return int.from_bytes(raw, "big") | 1

    # -- driving -----------------------------------------------------------------

    def execute(self, ops: Sequence[Op]) -> List[int]:
        """Run one batch of operations through the enclave index.

        Returns one integer reply per operation, in order: the value
        digest (or 0 for a miss) for ``get``, ``1`` for ``set``,
        ``1``/``0`` (found/not found) for ``delete``.
        """
        if not ops:
            return []
        feed = self._feed
        for op in ops:
            kind = op[0]
            if kind == "get":
                feed.extend((OP_GET, self.digest(op[1])))
            elif kind == "set":
                feed.extend((OP_SET, self.digest(op[1]),
                             self.digest(op[2])))
            elif kind == "delete":
                feed.extend((OP_DELETE, self.digest(op[1])))
            else:
                raise ValueError(f"unknown engine op {kind!r}")
        served = self.runtime.run("secure_batch", [len(ops)])
        replies = list(self._replies)
        self._replies.clear()
        if served != len(ops) or len(replies) != len(ops) or feed:
            feed.clear()
            raise RuntimeFault(
                f"secure_batch protocol violation: {len(ops)} op(s) "
                f"fed, {served} served, {len(replies)} replie(s)")
        self.runtime.retire_finished()
        self.drives += 1
        self.ops_served += len(ops)
        return replies

    # -- stats -------------------------------------------------------------------

    @property
    def steps(self) -> int:
        """Cumulative interpreter steps across all drives."""
        return self.runtime.machine.total_steps

    def stats(self) -> dict:
        return {
            "drives": self.drives,
            "ops": self.ops_served,
            "steps": self.steps,
            "messages": self.runtime.stats.messages,
            "contexts": len(self.runtime.machine.contexts),
        }
