"""Unit tests for the runtime channels and worker bookkeeping."""

import pytest

from repro.runtime.channel import Channel, ChannelMatrix, Message, SpawnMessage


def test_channel_fifo_order():
    ch = Channel("blue", "S")
    ch.push(Message("value", 1))
    ch.push(Message("value", 2))
    assert ch.pop_kind(["value"]).value == 1
    assert ch.pop_kind(["value"]).value == 2
    assert ch.pop_kind(["value"]) is None


def test_channel_selective_receive():
    """A wait for a value skips queued spawns and vice versa —
    trampoline-on-wait needs this (§7.3.2)."""
    ch = Channel("blue", "S")
    ch.push(SpawnMessage("g$F@S", [21], None))
    ch.push(Message("token"))
    ch.push(Message("value", 42))
    assert ch.pop_kind(["value"]).value == 42
    spawn = ch.pop_kind(["spawn"])
    assert spawn.chunk == "g$F@S" and spawn.args == [21]
    assert ch.pop_kind(["token"]).kind == "token"
    assert len(ch) == 0


def test_channel_counters():
    ch = Channel("a", "b")
    for i in range(5):
        ch.push(Message("value", i))
    ch.pop_kind(["value"])
    assert ch.sent == 5
    assert ch.received == 1
    assert len(ch) == 4


def test_matrix_per_pair_channels():
    matrix = ChannelMatrix()
    ab = matrix.channel("a", "b")
    ba = matrix.channel("b", "a")
    assert ab is not ba
    assert matrix.channel("a", "b") is ab
    ab.push(Message("value", 1))
    assert matrix.pending() == 1
    assert matrix.incoming("b") == (ab,)
    assert matrix.total_messages() == 1


def test_spawn_message_payload():
    msg = SpawnMessage("f$blue@red", [1, 2], reply_to="S")
    assert msg.kind == "spawn"
    assert msg.reply_to == "S"
    assert "f$blue@red" in repr(msg)


def test_runtime_stats_counting():
    from repro.core.colors import RELAXED
    from repro.core.compiler import compile_and_partition
    from repro.runtime import PrivagicRuntime

    program = compile_and_partition("""
        long color(blue) total = 0;
        entry int main() {
            total = total + 1;
            return 0;
        }
    """, mode=RELAXED)
    runtime = PrivagicRuntime(program)
    runtime.run("main")
    stats = runtime.stats
    assert stats.spawns >= 1             # main's blue chunk
    assert stats.trampoline_runs >= 1
    assert stats.boundary_crossings >= stats.spawns
    assert stats.as_dict()["messages"] == stats.messages


def test_deadlock_reported_not_hung():
    """A chunk waiting for a message nobody sends must fail loudly."""
    from repro.errors import RuntimeFault
    from repro.core.partition import PartitionedProgram
    from repro.core.analysis import AnalysisResult
    from repro.ir import Function, FunctionType, IRBuilder, Module, I64
    from repro.ir.types import PointerType, I8
    from repro.runtime import PrivagicRuntime

    # Hand-build a program whose single function waits on a channel
    # that never receives anything.
    module = Module("stuck")
    recv = module.add_function(Function(
        "__privagic_recv", FunctionType(I64, [PointerType(I8)]),
        attributes=["extern"]))
    fn = module.add_function(Function("main", FunctionType(I64, [])))
    b = IRBuilder(fn.add_block("entry"))
    from repro.ir.values import Constant
    from repro.ir.types import ArrayType
    value = b.call(recv, [Constant(ArrayType(I8, 5), "blue")])
    b.ret(value)

    analysis = AnalysisResult(module, "relaxed")
    program = PartitionedProgram(analysis)
    program.modules["S"] = module
    runtime = PrivagicRuntime(program)
    with pytest.raises(RuntimeFault) as excinfo:
        runtime.run("main")
    assert "deadlock" in str(excinfo.value)


def test_mixed_backlog_fifo_within_kind():
    """A mixed spawn/value/token backlog must dequeue FIFO *within*
    each kind, however the kinds interleave on the wire."""
    ch = Channel("blue", "S")
    ch.push(Message("value", "v1"))
    ch.push(SpawnMessage("a$F@S", [1], None))
    ch.push(Message("token", "t1"))
    ch.push(Message("value", "v2"))
    ch.push(SpawnMessage("b$F@S", [2], None))
    ch.push(Message("token", "t2"))
    ch.push(Message("value", "v3"))
    assert [ch.pop("value").value for _ in range(3)] == \
        ["v1", "v2", "v3"]
    assert [ch.pop("spawn").chunk for _ in range(2)] == \
        ["a$F@S", "b$F@S"]
    assert [ch.pop("token").value for _ in range(2)] == ["t1", "t2"]
    assert len(ch) == 0
    assert ch.pop("value") is None


def test_pop_kind_global_fifo_across_kinds():
    """pop_kind with several kinds must honor arrival order across
    the per-kind queues (the seq numbers, not queue order)."""
    ch = Channel("blue", "S")
    ch.push(Message("token", "t1"))
    ch.push(Message("value", "v1"))
    ch.push(Message("token", "t2"))
    got = [ch.pop_kind(["value", "token"]).value for _ in range(3)]
    assert got == ["t1", "v1", "t2"]


def test_message_stats_per_kind_counts():
    """Regression: message_stats() used to report all zeros (the
    per-channel loop body was `pass`).  A spawn's inline F argument
    counts as one extra ``value`` message — the protocol sends it as a
    ``cont`` (Fig 7), so channel totals agree with RuntimeStats."""
    matrix = ChannelMatrix()
    ch = matrix.channel("blue", "S")
    ch.push(SpawnMessage("g$F@S", [21], None))
    ch.push(Message("value", 1))
    ch.push(Message("value", 2))
    matrix.channel("S", "blue").push(Message("token"))
    stats = matrix.message_stats()
    assert stats["spawn"] == 1
    assert stats["value"] == 3
    assert stats["token"] == 1
    assert stats["total"] == 5
    # Draining the queues must not change what was *sent*.
    ch.pop("value")
    assert matrix.message_stats() == stats


def test_pending_counters_stay_consistent():
    """The O(1) pending counters must track push/pop/pop_kind."""
    ch = Channel("a", "b")
    assert ch.pending() == 0
    ch.push(Message("value", 1))
    ch.push(Message("token"))
    ch.push(Message("value", 2))
    assert ch.pending() == 3 == len(ch)
    assert ch.pending("value") == 2
    assert ch.pending("token") == 1
    assert ch.pending("spawn") == 0
    ch.pop("token")
    assert ch.pending() == 2
    ch.pop_kind(["value", "token"])
    assert ch.pending() == 1 and ch.pending("value") == 1
    ch.pop("value")
    assert ch.pending() == 0 == len(ch)


def test_matrix_has_pending_by_kind():
    matrix = ChannelMatrix()
    matrix.channel("blue", "S").push(Message("token"))
    assert matrix.has_pending("S")
    assert matrix.has_pending("S", "token")
    assert not matrix.has_pending("S", "spawn")
    assert not matrix.has_pending("blue")


def test_queue_property_is_a_snapshot():
    """Regression: ``Channel.queue`` must be a fresh list — mutating
    it (observers, debuggers, injectors) must not change delivery."""
    ch = Channel("a", "b")
    ch.push(Message("value", 1))
    ch.push(Message("value", 2))
    view = ch.queue
    assert [m.value for m in view] == [1, 2]
    view.clear()
    del view
    assert ch.pending() == 2
    assert ch.pop("value").value == 1
    other = ch.queue
    other.append(Message("value", 99))
    assert ch.pending() == 1
    assert ch.pop("value").value == 2
    assert ch.pop("value") is None


def test_matrix_incoming_is_immutable():
    """Regression: ``ChannelMatrix.incoming`` hands out its cache on
    the scheduler fast path — callers must not be able to mutate it."""
    matrix = ChannelMatrix()
    matrix.channel("a", "b")
    view = matrix.incoming("b")
    assert isinstance(view, tuple)
    # A later channel registration must invalidate the cache.
    cb = matrix.channel("c", "b")
    assert cb in matrix.incoming("b")
    assert len(matrix.incoming("b")) == 2


def test_tampered_message_fails_authentication():
    """A payload rewritten while queued in unsafe memory must be
    detected at delivery, not absorbed (satellite: channel auth)."""
    from repro.errors import IagoFault

    ch = Channel("U", "green")
    ch.push(Message("value", 41))
    ch.queue[0].value = 42  # the adversary rewrites unsafe memory
    with pytest.raises(IagoFault, match="failed authentication"):
        ch.pop("value")


def test_tampered_spawn_args_fail_authentication():
    from repro.errors import IagoFault

    ch = Channel("U", "green")
    ch.push(SpawnMessage("g$F@green", [21], "U"))
    ch.queue[0].args[0] = 22
    with pytest.raises(IagoFault, match="failed authentication"):
        ch.pop("spawn")


def test_duplicate_delivery_is_a_replay():
    """Re-delivering an already-delivered message (a dup injected
    into unsafe memory) trips the per-kind sequence check."""
    from repro.errors import IagoFault

    ch = Channel("U", "green")
    message = Message("value", 7)
    ch.push(message)
    assert ch.pop("value").value == 7
    ch._enqueue(message)  # the adversary re-queues the old message
    with pytest.raises(IagoFault, match="replayed"):
        ch.pop("value")


def test_dropped_message_is_a_gap():
    """Losing a message from unsafe memory makes the next same-kind
    delivery jump the sequence — detected as a gap."""
    from repro.errors import IagoFault

    ch = Channel("U", "green")
    ch.push(Message("value", 1))
    ch.push(Message("value", 2))
    dropped = ch._queues["value"].popleft()  # adversary drops #1
    ch.count -= 1
    assert dropped.value == 1
    with pytest.raises(IagoFault, match="dropped or reordered"):
        ch.pop("value")


def test_deadlock_report_names_parked_wait_and_pending_kinds():
    """Satellite: the deadlock report must carry each parked
    context's awaited (src, kind) and per-channel pending-by-kind
    counts, and raise the typed DeadlockFault."""
    from repro.errors import DeadlockFault
    from repro.core.partition import PartitionedProgram
    from repro.core.analysis import AnalysisResult
    from repro.ir import Function, FunctionType, IRBuilder, Module, I64
    from repro.ir.types import ArrayType, PointerType, I8
    from repro.ir.values import Constant
    from repro.runtime import PrivagicRuntime

    module = Module("stuck")
    recv = module.add_function(Function(
        "__privagic_recv", FunctionType(I64, [PointerType(I8)]),
        attributes=["extern"]))
    send = module.add_function(Function(
        "__privagic_send", FunctionType(I64, [PointerType(I8), I64]),
        attributes=["extern"]))
    fn = module.add_function(Function("main", FunctionType(I64, [])))
    b = IRBuilder(fn.add_block("entry"))
    # Send a value to a color nobody reads, then wait on one that
    # never sends: the report must show both sides.
    b.call(send, [Constant(ArrayType(I8, 4), "red"),
                  Constant(I64, 7)])
    value = b.call(recv, [Constant(ArrayType(I8, 5), "blue")])
    b.ret(value)

    analysis = AnalysisResult(module, "relaxed")
    program = PartitionedProgram(analysis)
    program.modules["S"] = module
    runtime = PrivagicRuntime(program)
    with pytest.raises(DeadlockFault) as excinfo:
        runtime.run("main")
    report = str(excinfo.value)
    assert "deadlock" in report
    assert "parked on ('blue', 'value')" in report
    assert "by-kind={'value': 1}" in report
    assert "S->red" in report
