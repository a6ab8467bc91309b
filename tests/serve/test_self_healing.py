"""Self-healing sharded serving: probe/timeout failure detection,
link reconnection, circuit breakers, ring rebalancing, degraded
mode, and shard re-add with inverse migration."""

import signal
import socket
import threading
import time

import pytest

from repro.apps.minicache import protocol
from repro.errors import NetworkFault, fault_exit_code
from repro.serve.engine import SecureKVEngine
from repro.serve.loadgen import LoadClient, LoadError, run_load
from repro.serve.router import RouterConfig, RouterThread
from repro.serve.server import ServeConfig, ServerThread

from tests.serve.test_shard_router import (
    FakeShard,
    keys_for_each_shard,
    make_router,
)

pytestmark = pytest.mark.net


def wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# -- typed connect failures -----------------------------------------------------


def test_connect_refused_is_a_typed_network_fault():
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()
    config = RouterConfig(
        port=0, shards=1,
        external_shards=[("127.0.0.1", dead_port)],
        connect_timeout=0.5, connect_retries=1,
        backoff_base=0.01, backoff_cap=0.02)
    rt = RouterThread(config)
    rt.start()
    rt.join(timeout=30.0)
    assert isinstance(rt.error, NetworkFault)
    assert fault_exit_code(rt.error) == 9
    assert "connect" in str(rt.error)


# -- link failures: reconnect, probes, breakers ---------------------------------


def test_link_reset_reconnects_with_exact_state():
    # Dropping the TCP link (endpoint stays alive) is a *network*
    # failure: the router reconnects, replays the acked log, and the
    # client never sees an error.
    fakes = [FakeShard(), FakeShard()]
    with make_router(fakes=fakes,
                     connect_timeout=2.0, connect_retries=2,
                     backoff_base=0.01, backoff_cap=0.05) as rt:
        client = LoadClient("127.0.0.1", rt.router.port)
        expected = {}
        for i in range(20):
            value = f"v{i}".encode()
            assert client.set(f"user{i}", value) == protocol.STORED
            expected[f"user{i}"] = value
        fakes[0].drop()
        for i in range(20):
            assert protocol.parse_value_response(
                client.get(f"user{i}")) == expected[f"user{i}"]
        client.close()
        rt.stop()
    for fake in fakes:
        fake.close()
    assert rt.error is None
    stats = rt.router.stats()
    assert stats["reconnects"] == 1
    assert stats["restarts"] == 0


def test_other_shards_serve_while_one_replays():
    # Replay is ordinary traffic on the recovering shard's FIFO: while
    # shard 0 holds back its replay replies, the loop keeps serving,
    # and a request for a key on shard 1 is answered at once.
    holding = threading.Event()
    release = threading.Event()
    hold = {"sets": False}

    def held_replay(request):
        if hold["sets"] and request.command == "set":
            holding.set()
            release.wait(10.0)
        return fakes[0].honest(request)

    fakes = [FakeShard(respond=held_replay), FakeShard()]
    with make_router(fakes=fakes, replay_timeout=5.0,
                     connect_timeout=2.0, connect_retries=2,
                     backoff_base=0.01, backoff_cap=0.05) as rt:
        (key0,), (key1,) = keys_for_each_shard(rt.router)
        client = LoadClient("127.0.0.1", rt.router.port, timeout=5.0)
        assert client.set(key0, b"zero") == protocol.STORED
        assert client.set(key1, b"one") == protocol.STORED
        hold["sets"] = True
        fakes[0].drop()
        assert holding.wait(5.0), "shard 0 never started its replay"
        started = time.monotonic()
        assert protocol.parse_value_response(client.get(key1)) \
            == b"one"
        assert time.monotonic() - started < 1.0
        release.set()
        assert protocol.parse_value_response(client.get(key0)) \
            == b"zero"
        client.close()
        rt.stop()
    release.set()
    for fake in fakes:
        fake.close()
    assert rt.error is None
    assert rt.router.stats()["reconnects"] == 1


class ReplayCutter:
    """A fake shard that, once armed, cuts each of its next ``cuts``
    sessions after answering ``after`` frames — a link that dies a
    few frames into every replay."""

    def __init__(self, cuts: int, after: int = 3):
        self.cuts = cuts
        self.after = after
        self.armed = False
        self.session = None
        self.answered = 0
        self.fake = FakeShard(respond=self.respond)

    def respond(self, request):
        conn = self.fake.conn
        if not self.armed:
            return self.fake.honest(request)
        if conn is not self.session:
            self.session, self.answered = conn, 0
        if self.answered < 0:
            return None                  # this session was cut
        if self.cuts and self.answered == self.after:
            self.cuts -= 1
            self.answered = -1
            self.fake.drop()
            return None
        self.answered += 1
        return self.fake.honest(request)


def _cut_replays(cuts):
    """Set keys on both shards, reset shard 0's link, and read every
    key back while shard 0's replays are cut ``cuts`` times."""
    cutter = ReplayCutter(cuts)
    other = FakeShard()
    with make_router(fakes=[cutter.fake, other], max_restarts=3,
                     connect_timeout=2.0, connect_retries=2,
                     backoff_base=0.01, backoff_cap=0.05) as rt:
        keys0, keys1 = keys_for_each_shard(rt.router, count=8)
        client = LoadClient("127.0.0.1", rt.router.port, timeout=5.0)
        expected = {}
        for key in keys0 + keys1:
            expected[key] = f"value-{key}".encode()
            assert client.set(key, expected[key]) == protocol.STORED
        cutter.armed = True
        cutter.fake.drop()
        got = {}
        try:
            for key in keys0 + keys1:
                got[key] = protocol.parse_value_response(
                    client.get(key))
        except (LoadError, OSError):
            pass
        client.close()
        rt.stop()
    cutter.fake.close()
    other.close()
    return rt, expected, got


def test_replay_cut_once_recovers_exactly():
    rt, expected, got = _cut_replays(cuts=1)
    assert rt.error is None
    assert got == expected
    stats = rt.router.stats()
    assert stats["deaths"] == 2
    assert stats["reconnects"] == 2
    assert rt.router.final_digests() == {
        key: SecureKVEngine.digest(value)
        for key, value in expected.items()}


def test_replay_cut_every_time_opens_the_circuit_breaker():
    rt, _expected, _got = _cut_replays(cuts=100)
    assert isinstance(rt.error, NetworkFault)
    assert "circuit breaker" in str(rt.error)
    assert rt.router.stats()["deaths"] == 3


def test_unanswered_probes_open_the_circuit_breaker():
    # The shard answers real traffic but swallows liveness probes:
    # the router must detect the wedge while idle, reconnect once,
    # and surface a typed NetworkFault when the breaker's budget is
    # spent — never hang.
    def deaf_to_probes(request):
        if request.key.startswith("__probe__"):
            return None
        return fake.honest(request)

    fake = FakeShard(respond=deaf_to_probes)
    with make_router(fakes=[fake],
                     probe_interval=0.15, probe_timeout=0.4,
                     max_restarts=2, replay_timeout=2.0,
                     connect_timeout=2.0, connect_retries=1,
                     backoff_base=0.01, backoff_cap=0.02) as rt:
        client = LoadClient("127.0.0.1", rt.router.port, timeout=5.0)
        assert client.set("k", b"v") == protocol.STORED
        rt.join(timeout=30.0)
        client.close()
    fake.close()
    assert isinstance(rt.error, NetworkFault)
    assert fault_exit_code(rt.error) == 9
    assert "circuit breaker" in str(rt.error)
    stats = rt.router.stats()
    assert stats["deaths"] == 2
    assert stats["reconnects"] == 1
    assert rt.router.registry.counter("router.probes").get() >= 1


def test_forward_timeout_detects_a_wedged_busy_shard():
    # A shard that accepts requests and never answers: the oldest
    # in-flight request's age is the death signal.
    fake = FakeShard(respond=lambda request: None)
    with make_router(fakes=[fake],
                     forward_timeout=0.3, max_restarts=1,
                     connect_timeout=2.0, connect_retries=1,
                     backoff_base=0.01, backoff_cap=0.02) as rt:
        client = LoadClient("127.0.0.1", rt.router.port, timeout=5.0)
        client.sock.sendall(
            protocol.encode_get("k").encode("latin-1"))
        rt.join(timeout=30.0)
        client.close()
    fake.close()
    assert isinstance(rt.error, NetworkFault)
    assert "circuit breaker" in str(rt.error)


# -- rebalancing ----------------------------------------------------------------


def test_rebalance_after_kill_serves_every_key():
    with make_router(shards=2, batch=8, on_death="rebalance") as rt:
        client = LoadClient("127.0.0.1", rt.router.port)
        expected = {}
        for i in range(30):
            value = f"value{i}".encode()
            assert client.set(f"user{i}", value) == protocol.STORED
            expected[f"user{i}"] = value
        rt.router.shards[0].proc.send_signal(signal.SIGKILL)
        # Every key keeps serving through the survivor — the dead
        # shard's acked state was migrated, not lost.
        for i in range(30):
            assert protocol.parse_value_response(
                client.get(f"user{i}")) == expected[f"user{i}"]
        client.close()
        rt.stop()
    assert rt.error is None
    assert rt.router.drained
    stats = rt.router.stats()
    assert stats["rebalances"] == 1
    assert len(stats["ring_nodes"]) == 1
    assert stats["lost_keys"] == 0
    registry = rt.router.registry
    assert registry.value("router.migrated_keys") > 0
    assert rt.router.final_digests() == {
        key: SecureKVEngine.digest(value)
        for key, value in expected.items()}


def test_rebalanced_run_converges_to_the_clean_ledger():
    # The acceptance differential: a mid-run kill answered by ring
    # rebalancing must end in the byte-identical digest ledger of
    # the kill-free run.
    def final_state(crash_after, on_death):
        with make_router(shards=2, batch=8, on_death=on_death,
                         crash_after=crash_after) as rt:
            run_load("127.0.0.1", rt.router.port, workload="A",
                     clients=3, ops=240, records=32, seed=29,
                     value_bytes=16, lockstep=True)
            rt.stop()
        assert rt.error is None
        assert rt.router.drained
        return rt.router.final_digests()

    clean = final_state({}, "restart")
    rebalanced = final_state({0: 60}, "rebalance")
    assert clean == rebalanced


# -- degraded mode and re-add ---------------------------------------------------


def test_degrade_types_lost_keys_and_serves_survivors():
    with make_router(shards=2, batch=8, on_death="degrade") as rt:
        (shard0_keys,), (shard1_keys,) = \
            keys_for_each_shard(rt.router, count=1)
        client = LoadClient("127.0.0.1", rt.router.port)
        assert client.set(shard0_keys, b"doomed") == protocol.STORED
        assert client.set(shard1_keys, b"alive") == protocol.STORED
        rt.router.shards[0].proc.send_signal(signal.SIGKILL)
        # First request after the kill triggers detection; keys owned
        # by the dead shard answer SHARD_UNAVAILABLE — typed, not a
        # stall — while the survivor's keyspace serves on.
        assert wait_until(
            lambda: client.get(shard0_keys)
            == protocol.SHARD_UNAVAILABLE)
        assert client.delete(shard0_keys) \
            == protocol.SHARD_UNAVAILABLE
        assert protocol.parse_value_response(
            client.get(shard1_keys)) == b"alive"
        # A set of a lost key re-homes it on the survivor.
        assert client.set(shard0_keys, b"rehomed") == protocol.STORED
        assert protocol.parse_value_response(
            client.get(shard0_keys)) == b"rehomed"
        client.close()
        rt.stop()
    assert rt.error is None
    stats = rt.router.stats()
    assert len(stats["ring_nodes"]) == 1
    assert stats["lost_keys"] == 0       # re-homed by the set
    assert rt.router.registry.value("router.unavailable") >= 2


def test_readd_after_degrade_restores_lost_keys():
    with make_router(shards=2, batch=8, on_death="degrade") as rt:
        client = LoadClient("127.0.0.1", rt.router.port)
        expected = {}
        for i in range(30):
            value = f"value{i}".encode()
            assert client.set(f"user{i}", value) == protocol.STORED
            expected[f"user{i}"] = value
        before = rt.router.ring.assignments(sorted(expected))
        rt.router.shards[0].proc.send_signal(signal.SIGKILL)
        # Touch the router until the death is detected and the ring
        # has shrunk.
        assert wait_until(
            lambda: client.get("user0") is not None
            and len(rt.router.stats()["ring_nodes"]) == 1)
        assert rt.router.stats()["lost_keys"] > 0
        rt.router.request_readd(0)
        assert wait_until(
            lambda: len(rt.router.stats()["ring_nodes"]) == 2)
        # The sorted ring rebuild restores the exact pre-removal
        # ownership, and the inverse migration repopulates the
        # returning shard — every key reads back, none unavailable.
        assert wait_until(
            lambda: rt.router.stats()["lost_keys"] == 0)
        for i in range(30):
            assert protocol.parse_value_response(
                client.get(f"user{i}")) == expected[f"user{i}"]
        assert rt.router.ring.assignments(sorted(expected)) == before
        client.close()
        rt.stop()
    assert rt.error is None
    assert rt.router.drained
    assert rt.router.registry.value("router.readds") == 1
    assert rt.router.final_digests() == {
        key: SecureKVEngine.digest(value)
        for key, value in expected.items()}


def test_readd_after_rebalance_restores_ownership():
    with make_router(shards=3, batch=8, on_death="rebalance") as rt:
        client = LoadClient("127.0.0.1", rt.router.port)
        expected = {}
        for i in range(36):
            value = f"value{i}".encode()
            assert client.set(f"user{i}", value) == protocol.STORED
            expected[f"user{i}"] = value
        before = rt.router.ring.assignments(sorted(expected))
        rt.router.shards[1].proc.send_signal(signal.SIGKILL)
        assert wait_until(
            lambda: client.get("user0") is not None
            and len(rt.router.stats()["ring_nodes"]) == 2)
        rt.router.request_readd(1)
        assert wait_until(
            lambda: len(rt.router.stats()["ring_nodes"]) == 3)
        for i in range(36):
            assert protocol.parse_value_response(
                client.get(f"user{i}")) == expected[f"user{i}"]
        assert rt.router.ring.assignments(sorted(expected)) == before
        client.close()
        rt.stop()
    assert rt.error is None
    assert rt.router.drained
    assert rt.router.final_digests() == {
        key: SecureKVEngine.digest(value)
        for key, value in expected.items()}


def test_last_shard_death_cannot_rebalance():
    from repro.errors import EnclaveCrash

    with make_router(shards=1, batch=4, on_death="rebalance") as rt:
        client = LoadClient("127.0.0.1", rt.router.port, timeout=5.0)
        assert client.set("k", b"v") == protocol.STORED
        rt.router.shards[0].proc.send_signal(signal.SIGKILL)
        with pytest.raises((LoadError, OSError)):
            for i in range(50):
                client.set(f"fill{i}", b"v")
        client.close()
        rt.join()
    assert isinstance(rt.error, EnclaveCrash)


# -- worker orphan backstop -----------------------------------------------------


def test_orphaned_server_exits_after_its_last_connection():
    thread = ServerThread(ServeConfig(port=0, orphan_timeout=0.2))
    port = thread.start()
    client = LoadClient("127.0.0.1", port)
    assert client.set("k", b"v") == protocol.STORED
    client.close()
    # No request_stop(): the server notices it is orphaned and
    # drains on its own.
    thread.join(timeout=10.0)
    assert thread.error is None
    assert thread.server.drained
    assert thread.server.registry.value("serve.orphan_exits") == 1


def test_server_without_orphan_timeout_keeps_waiting():
    thread = ServerThread(ServeConfig(port=0))
    port = thread.start()
    client = LoadClient("127.0.0.1", port)
    assert client.set("k", b"v") == protocol.STORED
    client.close()
    time.sleep(0.3)
    assert thread._thread.is_alive()
    thread.stop()
