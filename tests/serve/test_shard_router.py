"""The shard router: ordering across shards, the cross-process
integrity ledger, and exact restart-and-replay recovery."""

import signal
import socket
import threading
import time

import pytest

from repro.apps.minicache import protocol
from repro.errors import EnclaveCrash, IagoFault, fault_exit_code
from repro.serve.engine import SecureKVEngine
from repro.serve.framing import RequestFramer
from repro.serve.loadgen import LoadClient, LoadError, run_load
from repro.serve.router import RouterConfig, RouterThread

pytestmark = pytest.mark.net


# -- fake shards: scripted worker endpoints -------------------------------------


class FakeShard:
    """A scripted shard endpoint: accepts the router's connection,
    frames requests like a real worker, and answers through a
    ``respond(request) -> response`` hook (honest dict-backed by
    default).  Lets the tests control reply timing and content
    without real worker processes."""

    def __init__(self, respond=None):
        self.listener = socket.socket(socket.AF_INET,
                                      socket.SOCK_STREAM)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(1)
        self.port = self.listener.getsockname()[1]
        self.store = {}
        self.respond = respond or self.honest
        self.conn = None
        self._stop = False
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def honest(self, request):
        if request.command == "set":
            self.store[request.key] = request.data
            return protocol.STORED
        if request.command == "get":
            value = self.store.get(request.key)
            if value is None:
                return protocol.END
            return protocol.encode_value(request.key, value)
        if request.command == "delete":
            return protocol.DELETED \
                if self.store.pop(request.key, None) is not None \
                else protocol.NOT_FOUND
        return protocol.ERROR

    def _run(self):
        # Loop-accept: a router reconnect (or replay stream) after a
        # dropped link gets a fresh session against the same store.
        self.listener.settimeout(0.2)
        while not self._stop:
            try:
                conn, _addr = self.listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self._serve(conn)

    def _serve(self, conn):
        self.conn = conn
        conn.settimeout(0.2)
        framer = RequestFramer()
        try:
            while not self._stop:
                try:
                    data = conn.recv(65536)
                except socket.timeout:
                    continue
                except OSError:
                    return
                if not data:
                    return
                framer.feed(data)
                frames, _error = framer.drain()
                for raw in frames:
                    response = self.respond(protocol.parse_request(raw))
                    if response is not None:
                        try:
                            conn.sendall(response.encode("latin-1"))
                        except OSError:
                            return
        finally:
            conn.close()

    def drop(self):
        """Reset the live connection (the listener keeps accepting):
        a link failure without endpoint death."""
        conn = self.conn
        if conn is not None:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass

    def close(self):
        self._stop = True
        try:
            self.listener.close()
        except OSError:
            pass


def make_router(shards=2, fakes=None, **kwargs):
    if fakes is not None:
        kwargs["external_shards"] = [("127.0.0.1", fake.port)
                                     for fake in fakes]
        shards = len(fakes)
    config = RouterConfig(port=0, shards=shards, **kwargs)
    return RouterThread(config)


def keys_for_each_shard(router, count=1):
    """Deterministic keys owned by shard0, shard1, ... (``count``
    keys each), straight from the router's own ring."""
    wanted = {shard.name: [] for shard in router.shards}
    index = 0
    while any(len(keys) < count for keys in wanted.values()):
        key = f"user{index}"
        owner = router.ring.lookup(key)
        if len(wanted[owner]) < count:
            wanted[owner].append(key)
        index += 1
    return [wanted[shard.name] for shard in router.shards]


# -- ordering -------------------------------------------------------------------


def test_roundtrip_through_fake_shards():
    fakes = [FakeShard(), FakeShard()]
    with make_router(fakes=fakes) as rt:
        client = LoadClient("127.0.0.1", rt.router.port)
        assert client.set("k1", b"hello") == protocol.STORED
        assert protocol.parse_value_response(client.get("k1")) \
            == b"hello"
        assert client.get("missing") == protocol.END
        assert client.delete("k1") == protocol.DELETED
        assert client.delete("k1") == protocol.NOT_FOUND
        client.close()
        rt.stop()
    for fake in fakes:
        fake.close()
    assert rt.error is None
    assert rt.router.drained


def test_slow_shard_does_not_reorder_a_connection():
    # Shard 0 answers with a delay; a pipelined burst alternating
    # between the slow and fast shard must still come back in
    # request order — the fast shard's replies wait in their slots.
    delay = {"seconds": 0.05}
    fakes = [None, None]

    def slow(request):
        time.sleep(delay["seconds"])
        return fakes[0].honest(request)

    fakes[0] = FakeShard(respond=slow)
    fakes[1] = FakeShard()
    with make_router(fakes=fakes) as rt:
        (slow_keys,), (fast_keys,) = keys_for_each_shard(rt.router)
        client = LoadClient("127.0.0.1", rt.router.port)
        assert client.set(slow_keys, b"slowval") == protocol.STORED
        assert client.set(fast_keys, b"fastval") == protocol.STORED
        burst = "".join(
            protocol.encode_get(slow_keys if i % 2 == 0
                                else fast_keys)
            for i in range(8))
        client.sock.sendall(burst.encode("latin-1"))
        for i in range(8):
            value = protocol.parse_value_response(
                client._read_response())
            expected = b"slowval" if i % 2 == 0 else b"fastval"
            assert value == expected, f"reply {i} out of order"
        client.close()
        rt.stop()
    for fake in fakes:
        fake.close()
    assert rt.error is None


def test_two_connections_interleave_independently():
    fakes = [FakeShard(), FakeShard()]
    with make_router(fakes=fakes) as rt:
        a = LoadClient("127.0.0.1", rt.router.port)
        b = LoadClient("127.0.0.1", rt.router.port)
        assert a.set("shared", b"one") == protocol.STORED
        assert protocol.parse_value_response(b.get("shared")) == b"one"
        assert b.set("shared", b"two") == protocol.STORED
        assert protocol.parse_value_response(a.get("shared")) == b"two"
        a.close()
        b.close()
        rt.stop()
    for fake in fakes:
        fake.close()
    assert rt.error is None


# -- the integrity ledger -------------------------------------------------------


def test_lying_shard_get_is_an_iago_fault():
    def lying(request):
        if request.command == "get":
            return protocol.encode_value(request.key, b"forged!")
        return fake.honest(request)

    fake = FakeShard(respond=lying)
    with make_router(fakes=[fake]) as rt:
        client = LoadClient("127.0.0.1", rt.router.port, timeout=5.0)
        assert client.set("k", b"honest") == protocol.STORED
        with pytest.raises((LoadError, OSError)):
            client.get("k")
            client.get("k")     # in case the reply raced the abort
        client.close()
        rt.join()
    fake.close()
    assert isinstance(rt.error, IagoFault)
    assert fault_exit_code(rt.error) == 5


def test_lying_shard_miss_is_an_iago_fault():
    def denying(request):
        if request.command == "get":
            return protocol.END      # claims the key is gone
        return fake.honest(request)

    fake = FakeShard(respond=denying)
    with make_router(fakes=[fake]) as rt:
        client = LoadClient("127.0.0.1", rt.router.port, timeout=5.0)
        assert client.set("k", b"kept") == protocol.STORED
        with pytest.raises((LoadError, OSError)):
            client.get("k")
            client.get("k")
        client.close()
        rt.join()
    fake.close()
    assert isinstance(rt.error, IagoFault)


def test_unsolicited_shard_reply_is_an_iago_fault():
    def chatty(request):
        return fake.honest(request) + protocol.STORED

    fake = FakeShard(respond=chatty)
    with make_router(fakes=[fake]) as rt:
        client = LoadClient("127.0.0.1", rt.router.port, timeout=5.0)
        with pytest.raises((LoadError, OSError)):
            client.set("k", b"v")
            client.get("k")
        client.close()
        rt.join()
    fake.close()
    assert isinstance(rt.error, IagoFault)


def test_desynchronized_shard_stream_is_an_iago_fault():
    def garbage(request):
        return "VALUE k 0 notanumber\r\n"

    fake = FakeShard(respond=garbage)
    with make_router(fakes=[fake]) as rt:
        client = LoadClient("127.0.0.1", rt.router.port, timeout=5.0)
        with pytest.raises((LoadError, OSError)):
            client.get("k")
            client.get("k")
        client.close()
        rt.join()
    fake.close()
    assert isinstance(rt.error, IagoFault)


# -- recovery: real worker processes --------------------------------------------


@pytest.fixture
def expected_digest():
    return SecureKVEngine.digest


def test_sigkill_mid_run_recovers_with_exact_state(expected_digest):
    with make_router(shards=2, batch=8) as rt:
        client = LoadClient("127.0.0.1", rt.router.port)
        expected = {}
        for i in range(40):
            value = f"value{i}".encode()
            assert client.set(f"user{i}", value) == protocol.STORED
            expected[f"user{i}"] = value
        victim = rt.router.shards[0]
        victim.proc.send_signal(signal.SIGKILL)
        # Every key must still read back correctly through the
        # replayed worker — and every reply passes the ledger check.
        for i in range(40):
            response = client.get(f"user{i}")
            assert protocol.parse_value_response(response) \
                == expected[f"user{i}"]
        client.close()
        rt.stop()
    assert rt.error is None
    assert rt.router.drained
    assert sum(s.restarts for s in rt.router.shards) == 1
    assert rt.router.final_digests() == {
        key: expected_digest(value)
        for key, value in expected.items()}


def test_crash_after_fuse_recovers_in_flight_requests():
    # The chaos fuse kills shard 0 at a deterministic op count while
    # load is in flight; recovery must replay acked state and
    # re-forward the in-flight frames — clients see no errors.
    config = dict(shards=2, batch=8, crash_after={0: 50})
    with make_router(**config) as rt:
        report = run_load("127.0.0.1", rt.router.port, workload="A",
                          clients=4, ops=300, records=48, seed=11,
                          value_bytes=16)
        rt.stop()
    assert rt.error is None
    assert report["errors"] == 0
    assert report["dropped_connections"] == 0
    assert report["ops"] == 300
    registry = rt.router.registry
    assert registry.counter("router.shard_restarts").get() == 1
    assert registry.counter("router.replayed_keys").get() > 0


def test_crashed_run_converges_to_the_crash_free_state():
    # The differential gate: the same seeded lockstep load with and
    # without a mid-run shard kill must end in the same ledger —
    # exact replay, not approximately-recovered state.
    def final_state(crash_after):
        with make_router(shards=2, batch=8,
                         crash_after=crash_after) as rt:
            run_load("127.0.0.1", rt.router.port, workload="A",
                     clients=3, ops=240, records=32, seed=29,
                     value_bytes=16, lockstep=True)
            rt.stop()
        assert rt.error is None
        assert rt.router.drained
        return rt.router.final_digests()

    clean = final_state({})
    crashed = final_state({0: 60})
    assert clean == crashed


def test_no_recover_makes_a_shard_death_an_enclave_crash():
    with make_router(shards=2, batch=4, on_death="fault") as rt:
        client = LoadClient("127.0.0.1", rt.router.port, timeout=5.0)
        assert client.set("k", b"v") == protocol.STORED
        rt.router.shards[0].proc.send_signal(signal.SIGKILL)
        with pytest.raises((LoadError, OSError)):
            for i in range(50):
                client.set(f"fill{i}", b"v")
        client.close()
        rt.join()
    assert isinstance(rt.error, EnclaveCrash)
    assert fault_exit_code(rt.error) == 6


def test_external_shard_death_is_an_enclave_crash():
    # External endpoints cannot be respawned: death is typed, even
    # with recovery on.
    fake = FakeShard()
    with make_router(fakes=[fake]) as rt:
        client = LoadClient("127.0.0.1", rt.router.port, timeout=5.0)
        assert client.set("k", b"v") == protocol.STORED
        fake.close()
        with pytest.raises((LoadError, OSError)):
            for i in range(50):
                client.set(f"fill{i}", b"v")
        client.close()
        rt.join()
    assert isinstance(rt.error, EnclaveCrash)


# -- lifecycle ------------------------------------------------------------------


def test_max_requests_drains_and_stops():
    rt = make_router(shards=2, batch=2, max_requests=6)
    rt.start()
    client = LoadClient("127.0.0.1", rt.router.port)
    for i in range(6):
        assert client.set(f"k{i}", b"v") == protocol.STORED
    client.close()
    rt.join()
    assert rt.error is None
    assert rt.router.drained
    assert rt.router.registry.counter("router.requests").get() == 6


def test_loadgen_against_real_shards_all_workloads():
    with make_router(shards=2, batch=8) as rt:
        for name in ("A", "C", "F"):
            report = run_load("127.0.0.1", rt.router.port,
                              workload=name, clients=2, ops=30,
                              records=16, value_bytes=16, seed=3)
            assert report["dropped_connections"] == 0
            assert report["errors"] == 0
            assert report["ops"] == 30
        rt.stop()
    assert rt.error is None
    registry = rt.router.registry
    assert registry.counter("router.requests").get() > 0
    for shard in rt.router.shards:
        assert f"router.ring_share[{shard.index}]" in registry
