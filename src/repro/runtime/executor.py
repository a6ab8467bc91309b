"""Worker contexts, trampolines and the partitioned-program scheduler.

For each application thread, the runtime runs a *worker* in each
enclave (paper §7.3).  Workers are idle interpreter contexts in
enclave mode; a ``spawn`` message makes a worker invoke a chunk, and a
context blocked in ``wait`` runs incoming spawns as trampolines before
retrying — exactly the nested execution of Figure 7, where ``g.U``
runs inside ``main.U``'s ``wait()``.

The runtime installs the ``__privagic_*`` externals the partitioner
emits:

=====================  ==========================================
``__privagic_spawn``   enqueue a spawn (+ F-argument conts) to the
                       worker owning the chunk's color
``__privagic_send``    send an F value (``cont``)
``__privagic_recv``    wait for an F value from a given chunk,
                       running trampolines while blocked
``__privagic_token_*`` synchronization-barrier tokens (§7.3.3)
=====================  ==========================================

The protocol is bound at decode time.  Each action is built once by a
``bind_*`` method from its endpoint names (chunk, color, reply flag).
The partitioner names them with string constants, so the decoded
engine binds each call site once (:mod:`repro.ir.engine`), much as the
paper's runtime pushes onto an already-resolved queue and starts a
chunk by function pointer.  The legacy engine's by-address externals
(:func:`_by_address`) read the names from memory on every call and run
the same action.  A trampoline reuses its chunk's plan (function,
F-slot layout, owning color) from the chunk's first delivery.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    DeadlockFault,
    RuntimeFault,
    WatchdogTimeout,
)
from repro.core.partition import PartitionedProgram
from repro.ir.interp import (
    BLOCK,
    ExecutionContext,
    Machine,
    PushCall,
)
from repro.runtime.channel import ChannelMatrix, Message, SpawnMessage
from repro.runtime.iago import install_iago_guards


def _parked_runnable(parked) -> bool:
    """Could a context parked on this wait make progress now?

    ``_wait_for`` succeeds in exactly two ways: the awaited
    ``(src, kind)`` message arrives, or a spawn toward its color is
    queued (run as a trampoline).  Any other queued message — e.g. a
    token toward this color that the wait is not selecting on — does
    not unblock it, so it must not wake the context."""
    group, me, src, kind = parked
    matrix = group.matrix
    if matrix.channel(src, me).pending(kind):
        return True
    return matrix.has_pending(me, "spawn")


class WorkerGroup:
    """The workers and channels of one application thread."""

    def __init__(self, runtime: "PrivagicRuntime", group_id: int):
        self.runtime = runtime
        self.group_id = group_id
        self.matrix = ChannelMatrix(runtime.tracer)
        if runtime.fault_injector is not None:
            self.matrix.set_adversary(runtime.fault_injector)
        #: color -> worker context (the untrusted "worker" is the
        #: application thread itself and is not stored here)
        self.workers: Dict[str, ExecutionContext] = {}

    def worker(self, color: str) -> ExecutionContext:
        if color not in self.workers:
            machine = self.runtime.machine
            ctx = machine.new_context(None, (), mode=color,
                                      name=f"worker.{self.group_id}.{color}")
            ctx.keep_alive = True
            ctx.privagic_group = self
            machine.contexts.append(ctx)
            self.workers[color] = ctx
        return self.workers[color]


class RuntimeStats:
    """Counters feeding the evaluation (message = boundary crossing).

    These totals agree by construction with the per-channel
    ``kind_sent`` counts (every increment here accompanies a channel
    push) and with what :meth:`repro.obs.observe.Observability.
    publish` exports; ``tests/obs/test_differential_stats.py`` keeps
    the three layers honest.
    """

    def __init__(self):
        self.spawns = 0
        self.values = 0
        self.tokens = 0
        self.boundary_crossings = 0
        self.trampoline_runs = 0
        #: Per-chunk profile: chunk name -> counts of spawns, inline
        #: F arguments, trampoline runs and replies.
        self.per_chunk: Dict[str, Dict[str, int]] = {}

    @property
    def messages(self) -> int:
        return self.spawns + self.values + self.tokens

    def chunk_event(self, chunk: str, key: str, n: int = 1) -> None:
        profile = self.per_chunk.get(chunk)
        if profile is None:
            profile = self.per_chunk[chunk] = {
                "spawns": 0, "f_args": 0, "trampolines": 0,
                "replies": 0}
        profile[key] += n

    def as_dict(self) -> Dict[str, int]:
        return {
            "spawns": self.spawns,
            "values": self.values,
            "tokens": self.tokens,
            "messages": self.messages,
            "boundary_crossings": self.boundary_crossings,
            "trampoline_runs": self.trampoline_runs,
        }


class PrivagicRuntime:
    """Loads a :class:`PartitionedProgram` and runs it."""

    def __init__(self, program: PartitionedProgram,
                 externals: Optional[dict] = None,
                 max_steps: int = 5_000_000,
                 engine: Optional[str] = None,
                 watchdog_steps: Optional[int] = None):
        self.program = program
        self.untrusted = program.untrusted
        self.stats = RuntimeStats()
        self.max_steps = max_steps
        #: Optional per-context step budget.  ``max_steps`` bounds the
        #: whole run; this bounds each context, so one spinning worker
        #: is reported as such instead of exhausting the global budget.
        self.watchdog_steps = watchdog_steps
        #: Optional :class:`repro.obs.tracer.Tracer`, installed by
        #: :class:`repro.obs.observe.Observability`; ``None`` keeps
        #: every runtime path free of observer work.
        self.tracer = None
        #: Optional :class:`repro.faults.FaultInjector` (the chaos
        #: harness), installed by ``FaultInjector.attach``; ``None``
        #: on the honest path.
        self.fault_injector = None
        self._groups: Dict[int, WorkerGroup] = {}
        self._next_group = 1
        #: Channel traffic of worker groups already retired by
        #: :meth:`retire_finished` — merged into :meth:`channel_traffic`
        #: so a long-lived serving runtime still reports its full
        #: measured history.
        self._retired_traffic: Dict[str, Dict[str, int]] = {}
        #: chunk name -> its trampoline plan (see :meth:`_chunk_plan`).
        self._plans: Dict[str, Tuple] = {}
        ext = {
            "__privagic_spawn": _by_address(2, self.bind_spawn),
            "__privagic_send": _by_address(1, self.bind_send),
            "__privagic_recv": _by_address(1, self.bind_recv),
            "__privagic_token_send": _by_address(1, self.bind_token_send),
            "__privagic_token_recv": _by_address(1, self.bind_token_recv),
            "thread_create": self._ext_thread_create,
        }
        if externals:
            ext.update(externals)
        self.machine = Machine(program.all_modules(), ext,
                               engine=engine)
        # Postcondition guards on the untrusted externals (Iago
        # defense, see repro.runtime.iago).  Installed unconditionally:
        # the honest handlers always pass, and a fault injector relies
        # on them to *detect* the corruption it introduces.
        install_iago_guards(self)

    # -- group / color helpers ----------------------------------------------------

    def group_of(self, ctx: ExecutionContext) -> WorkerGroup:
        group = getattr(ctx, "privagic_group", None)
        if group is None:
            group = WorkerGroup(self, self._next_group)
            self._next_group += 1
            self._groups[group.group_id] = group
            ctx.privagic_group = group
        return group

    def color_of(self, ctx: ExecutionContext) -> str:
        return ctx.mode if ctx.mode is not None else self.untrusted

    def _endpoint(self, ctx: ExecutionContext) -> Tuple[WorkerGroup, str]:
        """``(group_of(ctx), color_of(ctx))`` in one call: the protocol
        actions' hot path, where the group is almost always set."""
        try:
            group = ctx.privagic_group
        except AttributeError:
            group = self.group_of(ctx)
        mode = ctx.mode
        return group, mode if mode is not None else self.untrusted

    # -- the protocol ------------------------------------------------------------
    #
    # Each action is bound once to its endpoint names (chunk, color,
    # reply flag) and returns ``action(ctx, rest)``, where ``rest`` is
    # the call's remaining arguments.  The decoded engine binds when it
    # decodes a call whose names are string constants; the by-address
    # externals (:func:`_by_address`) bind on every call.

    def bind_spawn(self, chunk: str, reply: str):
        """Enqueue a spawn of ``chunk`` (+ its F arguments, one cont
        message each) to the worker owning the chunk's color; a
        non-empty ``reply`` asks for the return value back."""
        dst = self.program.chunk_colors.get(chunk)
        wants_reply = bool(reply)
        stats = self.stats

        def spawn(ctx: ExecutionContext, f_args):
            group, src = self._endpoint(ctx)
            if dst is None:
                raise RuntimeFault(f"spawn of unknown chunk {chunk!r}")
            group.matrix.channel(src, dst).push(
                SpawnMessage(chunk, f_args, src if wants_reply else None))
            count = len(f_args)
            stats.spawns += 1
            # Each F argument is a cont message in the paper's protocol.
            stats.values += count
            stats.chunk_event(chunk, "spawns")
            if count:
                stats.chunk_event(chunk, "f_args", count)
            self._count_crossing(src, dst, 1 + count)
            if self.tracer is not None:
                self.tracer.spawn(chunk, src, dst, count)
            # Make sure the destination worker exists.
            if dst != self.untrusted:
                group.worker(dst)
            return None
        return spawn

    def bind_send(self, dst: str):
        """Send an F value (``cont``) to color ``dst``."""
        def send(ctx: ExecutionContext, rest):
            group, src = self._endpoint(ctx)
            group.matrix.channel(src, dst).push(Message("value", rest[0]))
            self.stats.values += 1
            self._count_crossing(src, dst, 1)
            return None
        return send

    def bind_recv(self, src: str):
        """Wait for an F value from color ``src``."""
        def recv(ctx: ExecutionContext, rest):
            return self._wait_for(ctx, src, "value")
        return recv

    def bind_token_send(self, dst: str):
        """Send a synchronization-barrier token to color ``dst``."""
        def token_send(ctx: ExecutionContext, rest):
            group, src = self._endpoint(ctx)
            group.matrix.channel(src, dst).push(Message("token"))
            self.stats.tokens += 1
            self._count_crossing(src, dst, 1)
            return None
        return token_send

    def bind_token_recv(self, src: str):
        """Wait for a barrier token from color ``src``."""
        def token_recv(ctx: ExecutionContext, rest):
            result = self._wait_for(ctx, src, "token")
            if result is BLOCK or isinstance(result, PushCall):
                return result
            return None
        return token_recv

    def _wait_for(self, ctx: ExecutionContext, src: str, kind: str):
        """Wait for a message of ``kind`` from ``src``; while blocked,
        run incoming spawns as trampolines (Fig 7).

        A context that blocks here is *parked* on the exact wait —
        the awaited ``(src, kind)`` message and incoming spawns are
        the only two things that can unblock it, so the scheduler
        skips it until one of them is queued (retrying earlier could
        only re-produce BLOCK, since the wait's outcome depends
        solely on the channel contents)."""
        group, me = self._endpoint(ctx)
        message = group.matrix.channel(src, me).pop(kind)
        if message is not None:
            ctx.privagic_parked = None
            return message.value
        trampoline = self._pop_spawn(group, me)
        if trampoline is not None:
            ctx.privagic_parked = None
            return trampoline
        ctx.privagic_parked = (group, me, src, kind)
        return BLOCK

    def _pop_spawn(self, group: WorkerGroup,
                   me: str) -> Optional[PushCall]:
        for channel in group.matrix.incoming(me):
            message = channel.pop("spawn")
            if message is not None:
                return self._trampoline(group, message)
        return None

    def _trampoline(self, group: WorkerGroup,
                    message: SpawnMessage) -> PushCall:
        """Build the chunk invocation for a spawn message: slot the
        cont-carried F arguments into the chunk's signature and, if a
        reply is expected, send the return value back (Fig 7: c5).

        A spawn whose payload does not match the chunk's signature is
        a protocol violation (a buggy partitioner, or a forged message
        in unsafe memory); it faults loudly instead of being papered
        over with zero-padding or silent truncation.
        """
        chunk = message.chunk
        plan = self._plans.get(chunk)
        if plan is None:
            plan = self._chunk_plan(chunk)
        chunk_fn, me, n_args, f_slots = plan
        if len(message.args) != len(f_slots):
            raise RuntimeFault(
                f"spawn of chunk {chunk!r}: carries "
                f"{len(message.args)} F value(s) but the signature "
                f"has {len(f_slots)} F slot(s)")
        if self.fault_injector is not None:
            # Enclave fault injection fires at the spawn-delivery
            # boundary — before the chunk's first instruction — so a
            # restart can replay the exact same spawn (raises
            # EnclaveCrash when the worker stays down).
            self.fault_injector.on_spawn_delivery(me, chunk)
        if len(f_slots) == n_args:
            call_args: Sequence[object] = message.args
        else:
            call_args = [0] * n_args
            for slot, value in zip(f_slots, message.args):
                call_args[slot] = value
        push = PushCall(chunk_fn, call_args, replay=True)
        self.stats.trampoline_runs += 1
        self.stats.chunk_event(chunk, "trampolines")
        if self.tracer is not None:
            self.tracer.trampoline(chunk, me)
        if message.reply_to is not None:
            dst = message.reply_to

            def reply(result, dst=dst, me=me, group=group):
                group.matrix.channel(me, dst).push(
                    Message("value", result))
                self.stats.values += 1
                self.stats.chunk_event(chunk, "replies")
                self._count_crossing(me, dst, 1)
                if self.tracer is not None:
                    self.tracer.reply(chunk, me, dst)

            push.on_return = reply
        return push

    def _chunk_plan(self, chunk: str) -> Tuple:
        """``(function, owning color, argument count, F-slot
        positions)`` of ``chunk``, computed at its first delivery and
        reused by every later one.  A chunk whose partition metadata
        disagrees with its signature faults at every delivery and is
        never planned."""
        chunk_fn = self.machine.function_named(chunk)
        me = self.program.chunk_colors.get(chunk, self.untrusted)
        arg_colors = self.program.chunk_args.get(chunk, ())
        if len(arg_colors) != len(chunk_fn.args):
            raise RuntimeFault(
                f"spawn of chunk {chunk!r}: partition metadata lists "
                f"{len(arg_colors)} argument color(s) but "
                f"@{chunk_fn.name} takes {len(chunk_fn.args)}")
        f_slots = tuple(slot for slot, color in enumerate(arg_colors)
                        if color == "F")
        plan = self._plans[chunk] = (chunk_fn, me, len(arg_colors),
                                     f_slots)
        return plan

    def _ext_thread_create(self, machine: Machine,
                           ctx: ExecutionContext, args):
        """Partitioned programs create application threads through the
        interface functions; each new thread gets its own worker group.
        """
        fn = machine.function_at(int(args[0]))
        arg = args[1] if len(args) > 1 else 0
        child = machine.spawn(fn, [arg], mode=None,
                              name=f"{ctx.name}.child")
        # A fresh group: workers are per application thread (§7.3).
        self.group_of(child)
        return child.ctx_id

    def _count_crossing(self, src: str, dst: str, count: int) -> None:
        if src != dst:
            self.stats.boundary_crossings += count

    def message_stats(self) -> Dict[str, int]:
        """Per-kind protocol message totals aggregated over every
        worker group's channel matrix (one matrix per application
        thread)."""
        totals: Dict[str, int] = {"spawn": 0, "value": 0, "token": 0,
                                  "total": 0}
        for group in self._groups.values():
            for kind, count in group.matrix.message_stats().items():
                totals[kind] = totals.get(kind, 0) + count
        return totals

    def channel_traffic(self) -> Dict[str, Dict[str, int]]:
        """Measured per-channel message counts, aggregated over every
        worker group: ``{"src->dst": {kind: count}}`` (the enclave
        transitions the benchmarks report)."""
        traffic: Dict[str, Dict[str, int]] = {
            channel: dict(kinds)
            for channel, kinds in self._retired_traffic.items()}
        for group in self._groups.values():
            self._merge_traffic(traffic, group)
        return traffic

    @staticmethod
    def _merge_traffic(traffic: Dict[str, Dict[str, int]],
                       group) -> None:
        for (src, dst), channel in group.matrix.channels.items():
            per = traffic.setdefault(f"{src}->{dst}", {})
            for kind, count in channel.kind_sent.items():
                per[kind] = per.get(kind, 0) + count

    # -- scheduling ---------------------------------------------------------------------

    def start(self, entry: str, args: Sequence[object] = ()) \
            -> ExecutionContext:
        """Spawn the interface function of ``entry`` on a fresh
        application thread (normal mode)."""
        ctx = self.machine.spawn(entry, list(args), mode=None,
                                 name=f"app.{entry}")
        self.group_of(ctx)
        return ctx

    def run(self, entry: str = "main",
            args: Sequence[object] = ()) -> object:
        """Run ``entry`` to completion and return its result."""
        main = self.start(entry, args)
        self.run_until_done(main)
        return main.result

    #: Scheduling quantum: a runnable context keeps stepping for up
    #: to this many steps before the next context is scheduled
    #: (bursts also end early on BLOCK, finish, or a spawn).  The
    #: real runtime runs workers on concurrent threads (§7.3), so no
    #: particular interleaving is promised — the quantum only has to
    #: be deterministic and bounded, so that a context spinning on
    #: shared memory cannot starve the others forever.
    BURST = 256

    def run_until_done(self, main: ExecutionContext) -> None:
        steps = 0
        contexts = self.machine.contexts
        while not self._quiescent(main):
            progressed = False
            snapshot = list(contexts)
            for ctx in snapshot:
                if ctx.finished:
                    continue
                if not ctx.stack:  # idle
                    if not getattr(ctx, "keep_alive", False):
                        continue
                    group = getattr(ctx, "privagic_group", None)
                    if group is None:
                        continue
                    me = self.color_of(ctx)
                    # Fast path: an idle worker with no queued spawn
                    # cannot make progress — skip it without touching
                    # its channels.
                    if not group.matrix.has_pending(me, "spawn"):
                        continue
                    push = self._pop_spawn(group, me)
                    if push is not None:
                        ctx.push_external_call(push.function, push.args)
                        if push.on_return is not None:
                            ctx.stack[-1].on_return = push.on_return
                        progressed = True
                    continue
                parked = getattr(ctx, "privagic_parked", None)
                if parked is not None and not _parked_runnable(parked):
                    # Fast path: a parked context whose awaited
                    # message hasn't arrived (and with no spawn to
                    # trampoline) cannot make progress — stepping it
                    # would only re-produce BLOCK.
                    continue
                before = ctx.steps
                ctx.step()
                steps += 1
                if steps > self.max_steps:
                    self._global_timeout()
                if ctx.steps > before or ctx.finished:
                    progressed = True
                    if not ctx.finished:
                        burst, _advanced = ctx.run_burst(
                            min(self.BURST, self.max_steps - steps + 1),
                            contexts)
                        steps += burst
                        if steps > self.max_steps:
                            self._global_timeout()
                if (self.watchdog_steps is not None
                        and not ctx.finished
                        and ctx.steps > self.watchdog_steps):
                    self._watchdog_timeout(ctx)
            if not progressed:
                self._report_deadlock()

    def retire_finished(self) -> int:
        """Drop finished application contexts and the worker groups
        that served them; returns the number of contexts retired.

        Each :meth:`run` leaves its finished application context and
        its (idle, ``keep_alive``) workers in ``machine.contexts``.
        One-shot callers never notice, but a long-lived host driving
        thousands of runs on one runtime (the repro.serve engine)
        would scan an ever-growing context list on every scheduler
        round.  A group is retired only when no live context belongs
        to it and its channels are drained, so calling this between
        runs is always safe."""
        live_groups = set()
        kept: List[ExecutionContext] = []
        retired = 0
        contexts = self.machine.contexts
        for ctx in contexts:
            if getattr(ctx, "keep_alive", False):
                continue        # workers: decided per group below
            if ctx.finished:
                retired += 1
                continue
            kept.append(ctx)
            group = getattr(ctx, "privagic_group", None)
            if group is not None:
                live_groups.add(group.group_id)
        for group_id in sorted(self._groups):
            group = self._groups[group_id]
            if group_id in live_groups or group.matrix.pending():
                kept.extend(group.workers.values())
            else:
                retired += len(group.workers)
                self._merge_traffic(self._retired_traffic, group)
                del self._groups[group_id]
        contexts[:] = kept
        return retired

    def _quiescent(self, main: ExecutionContext) -> bool:
        """Done when the application thread finished, every worker is
        idle and no message is in flight."""
        if not main.finished:
            return False
        for ctx in self.machine.contexts:
            if not ctx.finished and not ctx.idle:
                return False
        for group in self._groups.values():
            if group.matrix.pending():
                return False
        return True

    def _note_detect(self, kind: str, args: Dict[str, object]) -> None:
        """Record a runtime-side fault detection with the injector
        counters and the tracer before a typed fault is raised."""
        injector = self.fault_injector
        if injector is not None:
            injector.on_detect(kind, args)
        tracer = self.tracer
        if tracer is not None:
            fault = getattr(tracer, "fault", None)
            if fault is not None:
                fault("detect", kind, args)

    def _context_lines(self) -> List[str]:
        """One diagnostic line per live context: current location,
        step count, and — for parked contexts — the awaited
        ``(src, kind)`` that would unblock them."""
        lines: List[str] = []
        for ctx in self.machine.contexts:
            if ctx.finished:
                continue
            where = "idle"
            if ctx.stack:
                frame = ctx.stack[-1]
                instr = (frame.block.instructions[frame.index]
                         if frame.index < len(frame.block.instructions)
                         else None)
                where = (f"@{frame.function.name}:{frame.block.name} "
                         f"{instr.opcode if instr else '?'}")
            parked = getattr(ctx, "privagic_parked", None)
            if parked is not None:
                _group, _me, src, kind = parked
                where += f" [parked on ({src!r}, {kind!r})]"
            lines.append(f"  {ctx.name} mode={ctx.mode} "
                         f"steps={ctx.steps}: {where}")
        return lines

    def _channel_lines(self) -> List[str]:
        """One diagnostic line per non-empty channel: pending counts
        broken down by kind, plus the head of the queue."""
        lines: List[str] = []
        for group in self._groups.values():
            for _key, channel in sorted(group.matrix.channels.items()):
                if len(channel):
                    by_kind = {
                        kind: channel.pending(kind)
                        for kind in ("spawn", "value", "token")
                        if channel.pending(kind)}
                    lines.append(
                        f"  pending {channel!r} by-kind={by_kind}: "
                        f"head={channel.queue[:3]}")
        return lines

    def _global_timeout(self) -> None:
        self._note_detect("watchdog", {"scope": "run"})
        raise WatchdogTimeout(
            f"partitioned run exceeded {self.max_steps} steps")

    def _watchdog_timeout(self, ctx: ExecutionContext) -> None:
        self._note_detect("watchdog", {"scope": "context",
                                       "context": ctx.name})
        lines = [f"context {ctx.name} exceeded its watchdog budget of "
                 f"{self.watchdog_steps} step(s):"]
        lines += self._context_lines()
        lines += self._channel_lines()
        raise WatchdogTimeout("\n".join(lines))

    def _report_deadlock(self) -> None:
        self._note_detect("deadlock", {})
        lines = ["partitioned execution deadlocked:"]
        lines += self._context_lines()
        lines += self._channel_lines()
        raise DeadlockFault("\n".join(lines))


def _by_address(count: int, bind):
    """The external of one protocol action, for calls that name their
    endpoints by C-string address: decode the first ``count``
    arguments, bind the action to them, run it on the rest.  Its
    ``endpoints`` attribute lets the decoded engine bind the action
    once per call site instead (:mod:`repro.ir.engine`)."""
    def external(machine: Machine, ctx: ExecutionContext, args):
        names = [machine.read_cstring(int(arg)) for arg in args[:count]]
        return bind(*names)(ctx, args[count:])
    external.endpoints = (count, bind)
    return external


def run_partitioned(program: PartitionedProgram, entry: str = "main",
                    args: Sequence[object] = (),
                    externals: Optional[dict] = None,
                    max_steps: int = 5_000_000,
                    engine: Optional[str] = None,
                    observability=None,
                    watchdog_steps: Optional[int] = None,
                    fault_injector=None
                    ) -> Tuple[object, PrivagicRuntime]:
    """Convenience wrapper: load, run, return (result, runtime).

    ``engine`` picks the interpreter engine ("decoded" or "legacy");
    None uses ``REPRO_ENGINE`` or the default (see repro.ir.interp).
    ``observability`` is an optional :class:`repro.obs.Observability`
    attached for the duration of the run and detached afterwards
    (also on error), so its trace and metrics cover exactly this run.
    ``fault_injector`` is an optional :class:`repro.faults.
    FaultInjector` attached the same way (after observability, so its
    events reach the tracer).
    """
    runtime = PrivagicRuntime(program, externals, max_steps, engine,
                              watchdog_steps=watchdog_steps)
    if observability is not None:
        observability.attach(runtime)
    if fault_injector is not None:
        fault_injector.attach(runtime)
    try:
        result = runtime.run(entry, args)
    finally:
        if fault_injector is not None:
            fault_injector.detach()
        if observability is not None:
            observability.detach()
    return result, runtime
