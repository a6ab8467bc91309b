"""Socket-level chaos: the net-* plan grammar, the deterministic
interposition layer, and the lockstep network-chaos differential."""

import socket
import time

import pytest

from repro.faults.netchaos import (
    HANG,
    IDENTICAL,
    SHORT_READ_BYTES,
    SILENTLY_WRONG,
    TYPED_FAULT,
    NetChaos,
    netchaos_sweep,
    summarize,
)
from repro.faults.plan import FaultPlan, FaultSpecError

# -- the net-* grammar ----------------------------------------------------------


def test_net_plan_parses_and_roundtrips():
    spec = ("net-reset:shard0:3,net-slow:*:2:50,"
            "net-short:shard1:1,net-garble:shard0:4")
    plan = FaultPlan.parse(spec)
    assert plan.spec() == spec
    reset, slow, short, garble = plan.entries
    assert (reset.action, reset.target, reset.nth) \
        == ("net-reset", "shard0", 3)
    assert (slow.target, slow.nth, slow.mode) == ("*", 2, "50")
    assert short.nth == 1
    assert garble.action == "net-garble"


def test_net_slow_defaults_to_25ms():
    plan = FaultPlan.parse("net-slow:shard0:1")
    assert plan.entries[0].mode == "25"
    assert plan.spec() == "net-slow:shard0:1:25"


@pytest.mark.parametrize("spec", [
    "net-reset:shard0",             # missing NTH
    "net-reset:shard0:0",           # occurrence below 1
    "net-reset:shard0:x",           # non-integer NTH
    "net-slow:shard0:1:0",          # non-positive delay
    "net-slow:shard0:1:fast",       # non-integer delay
    "net-short:shard0:1:extra",     # trailing field
    "net-wobble:shard0:1",          # unknown action
])
def test_bad_net_specs_are_typed_errors(spec):
    with pytest.raises(FaultSpecError):
        FaultPlan.parse(spec)


def test_random_net_plans_are_reproducible():
    one = FaultPlan.random_net(7, shards=2)
    two = FaultPlan.random_net(7, shards=2)
    assert one.spec() == two.spec()
    assert 1 <= len(one.entries) <= 3
    for entry in one.entries:
        assert entry.action.startswith("net-")
        # Shard-only plans never draw the ``*`` wildcard: at runtime
        # it would match the wrapped *client* streams too, making
        # client-visible connection errors look silently-wrong to
        # the ledger differential.
        assert entry.target in ("shard0", "shard1")
    assert FaultPlan.random_net(8, shards=2).spec() != one.spec() \
        or FaultPlan.random_net(9, shards=2).spec() != one.spec()


def test_random_net_can_target_the_client_side():
    specs = "".join(
        FaultPlan.random_net(seed, shards=1, include_client=True,
                             count=3).spec()
        for seed in range(40))
    assert "client" in specs


# -- the chaos engine -----------------------------------------------------------


def test_chaos_rejects_non_net_entries():
    plan = FaultPlan.parse("enclave-crash:red:1")
    with pytest.raises(ValueError):
        NetChaos(plan)


def test_pick_counts_per_entry_and_fires_once():
    chaos = NetChaos(FaultPlan.parse("net-reset:shard0:3"))
    assert chaos.pick("send", "shard0") is None
    assert chaos.pick("recv", "shard1") is None   # wrong endpoint
    assert chaos.pick("send", "shard0") is None
    entry = chaos.pick("recv", "shard0")          # 3rd shard0 op
    assert entry is not None and entry.fired
    assert chaos.pick("send", "shard0") is None   # single-shot
    assert chaos.injected == {"net-reset": 1}


def test_wildcard_entries_match_any_endpoint():
    chaos = NetChaos(FaultPlan.parse("net-slow:*:2:10"))
    assert chaos.pick("send", "shard0") is None
    assert chaos.pick("send", "client") is not None


def test_garble_only_fires_on_recv():
    chaos = NetChaos(FaultPlan.parse("net-garble:shard0:1"))
    # Sends never count against a recv-only action.
    for _ in range(5):
        assert chaos.pick("send", "shard0") is None
    assert chaos.pick("recv", "shard0") is not None


def test_garble_is_seeded_and_corrupting():
    data = b"VALUE user1 0 24\r\n"
    one = NetChaos(FaultPlan.parse("net-garble:*:1"), seed=5)
    two = NetChaos(FaultPlan.parse("net-garble:*:1"), seed=5)
    other = NetChaos(FaultPlan.parse("net-garble:*:1"), seed=6)
    mangled = [one.garble(data) for _ in range(8)]
    assert mangled == [two.garble(data) for _ in range(8)]
    assert any(item != data for item in mangled)
    assert mangled != [other.garble(data) for _ in range(8)]
    for item in mangled:
        # Truncated tail or a single flipped bit — never growth.
        assert 1 <= len(item) <= len(data)
    assert one.garble(b"") == b""


# -- the socket proxy -----------------------------------------------------------


def chaos_pair(spec, seed=0):
    left, right = socket.socketpair()
    chaos = NetChaos(FaultPlan.parse(spec), seed=seed)
    return chaos.wrap(left, "shard0"), right, chaos


def test_injected_reset_raises_connection_reset():
    wrapped, peer, _ = chaos_pair("net-reset:shard0:2")
    try:
        wrapped.sendall(b"one")
        with pytest.raises(ConnectionResetError) as excinfo:
            wrapped.sendall(b"two")
        assert "injected reset" in str(excinfo.value)
    finally:
        wrapped.close()
        peer.close()


def test_short_write_is_lossless():
    wrapped, peer, chaos = chaos_pair("net-short:shard0:1")
    try:
        wrapped.sendall(b"get user1\r\n")
        received = peer.recv(64)
        while len(received) < 11:
            received += peer.recv(64)
        assert received == b"get user1\r\n"
        assert chaos.injected == {"net-short": 1}
    finally:
        wrapped.close()
        peer.close()


def test_short_read_caps_the_buffer():
    wrapped, peer, _ = chaos_pair("net-short:shard0:1")
    try:
        peer.sendall(b"VALUE user1 0 4\r\nabcd\r\nEND\r\n")
        first = wrapped.recv(65536)
        assert len(first) == SHORT_READ_BYTES
        rest = b""
        while len(first) + len(rest) < 28:
            rest += wrapped.recv(65536)
        assert first + rest == b"VALUE user1 0 4\r\nabcd\r\nEND\r\n"
    finally:
        wrapped.close()
        peer.close()


def test_slow_op_stalls_for_the_plan_delay():
    wrapped, peer, _ = chaos_pair("net-slow:shard0:1:60")
    try:
        started = time.monotonic()
        wrapped.sendall(b"x")
        assert time.monotonic() - started >= 0.05
        assert peer.recv(16) == b"x"
    finally:
        wrapped.close()
        peer.close()


def test_proxy_delegates_everything_else():
    wrapped, peer, _ = chaos_pair("net-reset:shard0:9")
    try:
        assert wrapped.fileno() == wrapped._sock.fileno()
        wrapped.setblocking(False)
        assert not wrapped._sock.getblocking()
        assert "shard0" in repr(wrapped)
    finally:
        wrapped.close()
        peer.close()


# -- the lockstep differential --------------------------------------------------


@pytest.mark.net
def test_small_sweep_is_identical_or_typed():
    records = netchaos_sweep(
        seeds=[1, 2, 3], ops=60, clients=2, records=12,
        watchdog=60.0)
    summary = summarize(records)
    assert summary["runs"] == 3
    assert summary[SILENTLY_WRONG] == 0
    assert summary[HANG] == 0
    assert summary[IDENTICAL] + summary[TYPED_FAULT] == 3
    for record in records:
        assert record["plan"]
        if record["verdict"] == TYPED_FAULT:
            assert record["fault"]


@pytest.mark.chaos
def test_acceptance_sweep_100_seeds():
    records = netchaos_sweep(
        seeds=list(range(100)), ops=120, clients=2, records=16,
        watchdog=120.0)
    summary = summarize(records)
    assert summary[SILENTLY_WRONG] == 0
    assert summary[HANG] == 0
    assert summary[IDENTICAL] + summary[TYPED_FAULT] == 100
