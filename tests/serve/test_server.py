"""The TCP server over real loopback sockets: sessions, batching,
backpressure, integrity cross-checks, graceful drain, chaos."""

import socket
import time

import pytest

from repro.apps.minicache import protocol
from repro.errors import (
    DeadlockFault,
    IagoFault,
    fault_exit_code,
)
from repro.serve.engine import SecureKVEngine, compile_secure_kv
from repro.serve.loadgen import LoadClient, LoadError, run_load
from repro.serve.server import ServeConfig, ServerThread

pytestmark = pytest.mark.net


@pytest.fixture(scope="module")
def program():
    return compile_secure_kv()


def make_server(program, **config_kwargs):
    config = ServeConfig(port=0, **config_kwargs)
    return ServerThread(config,
                        engine=SecureKVEngine(program=program))


def test_set_get_delete_roundtrip(program):
    with make_server(program, batch=4) as st:
        client = LoadClient("127.0.0.1", st.server.port)
        assert client.set("k1", b"hello") == protocol.STORED
        value = protocol.parse_value_response(client.get("k1"))
        assert value == b"hello"
        assert client.get("missing") == protocol.END
        assert client.delete("k1") == protocol.DELETED
        assert client.delete("k1") == protocol.NOT_FOUND
        assert client.get("k1") == protocol.END
        client.close()
    assert st.error is None
    assert st.server.drained


def test_malformed_line_gets_error_and_connection_survives(program):
    with make_server(program) as st:
        client = LoadClient("127.0.0.1", st.server.port)
        assert client.request("bogus command\r\n") == protocol.ERROR
        assert client.request("\r\n") == protocol.ERROR
        # Still serving afterwards.
        assert client.set("k", b"v") == protocol.STORED
        client.close()
    assert st.error is None


def test_desync_gets_error_then_close(program):
    with make_server(program) as st:
        client = LoadClient("127.0.0.1", st.server.port)
        assert client.request("set k 0 0 zz\r\n") == protocol.ERROR
        # The connection is cut: the next request never answers.
        with pytest.raises((LoadError, OSError)):
            client.sock.settimeout(2.0)
            client.request("get k\r\n")
        client.close()
        assert st.server.registry.counter("serve.bad_frames").get() \
            == 1
    assert st.error is None


def test_pipelined_requests_are_batched(program):
    with make_server(program, batch=8) as st:
        client = LoadClient("127.0.0.1", st.server.port)
        # One write carrying many requests: the server's scheduling
        # round should batch them into few drives.
        burst = "".join(protocol.encode_set(f"k{i}", b"v")
                        for i in range(8))
        client.sock.sendall(burst.encode("latin-1"))
        for _ in range(8):
            assert client._read_response() == protocol.STORED
        client.close()
        st.stop()
        hist = st.server.registry.histogram("serve.batch_size")
        assert hist.count < 8           # fewer drives than requests
        assert hist.max > 1             # real batching happened
        assert "serve.queue_depth" in st.server.registry
    assert st.error is None


def test_backpressure_sheds_with_server_busy(program):
    # queue_depth=1 and a burst from one socket: the surplus must be
    # answered SERVER_BUSY and counted, not queued without bound.
    with make_server(program, batch=1, queue_depth=1) as st:
        client = LoadClient("127.0.0.1", st.server.port)
        burst = "".join(protocol.encode_get(f"k{i}")
                        for i in range(12))
        client.sock.sendall(burst.encode("latin-1"))
        responses = [client._read_response() for _ in range(12)]
        shed = [r for r in responses if r == protocol.SERVER_BUSY]
        served = [r for r in responses if r == protocol.END]
        assert len(shed) + len(served) == 12
        assert shed                      # some were shed...
        assert served                    # ...but not all
        client.close()
        st.stop()
        assert st.server.registry.counter("serve.shed").get() \
            == len(shed)
    assert st.error is None


def test_graceful_drain_serves_queued_requests(program):
    with make_server(program, batch=4) as st:
        client = LoadClient("127.0.0.1", st.server.port)
        burst = "".join(protocol.encode_set(f"k{i}", b"v")
                        for i in range(6))
        client.sock.sendall(burst.encode("latin-1"))
        # Stop immediately: already-queued requests must still be
        # answered before the socket closes.
        time.sleep(0.05)
        st.stop()
        responses = []
        client.sock.settimeout(5.0)
        try:
            for _ in range(6):
                responses.append(client._read_response())
        except (LoadError, OSError):
            pass
        assert responses and all(
            r in (protocol.STORED, protocol.SERVER_BUSY)
            for r in responses)
        client.close()
    assert st.error is None
    assert st.server.drained


def test_drain_answers_admitted_requests_past_drain_timeout(program):
    # Driving the queue takes longer than drain_timeout; every admitted
    # request is still answered (the deadline bounds the flush only).
    st = make_server(program, batch=1, drain_timeout=0.2)
    st.start()
    handle = st.server.cache.handle

    def slow_handle(frame):
        time.sleep(0.03)
        return handle(frame)

    st.server.cache.handle = slow_handle
    client = LoadClient("127.0.0.1", st.server.port)
    keys = [f"k{i}" for i in range(16)]
    client.sock.sendall("".join(protocol.encode_set(key, value_of(key))
                                for key in keys).encode("latin-1"))
    time.sleep(0.05)
    st.stop()
    client.sock.settimeout(5.0)
    replies = [client._read_response() for _ in keys]
    client.close()
    assert replies == [protocol.STORED] * len(keys)
    assert st.error is None
    assert st.server.drained


def test_eviction_keeps_enclave_index_consistent(program):
    # A tiny LRU forces evictions; the on_evict hook must retire the
    # victims from the enclave index too, or later gets would be
    # flagged as integrity violations.
    with make_server(program, batch=4, capacity_bytes=128) as st:
        client = LoadClient("127.0.0.1", st.server.port)
        for i in range(12):
            assert client.set(f"key{i}", b"x" * 32) == protocol.STORED
        for i in range(12):
            response = client.get(f"key{i}")
            assert response == protocol.END or \
                protocol.parse_value_response(response) == b"x" * 32
        client.close()
        st.stop()
        assert st.server.cache.stats.evictions > 0
    assert st.error is None


def test_lying_store_is_detected_as_iago(program):
    # Corrupt the untrusted store behind the server's back: the next
    # get must cross-check against the enclave digest and fault.
    with make_server(program, batch=4) as st:
        client = LoadClient("127.0.0.1", st.server.port)
        assert client.set("k", b"honest") == protocol.STORED
        st.server.cache.map.put("k", b"forged")
        with pytest.raises((LoadError, OSError)):
            client.sock.settimeout(5.0)
            client.get("k")
            client.get("k")      # in case the reply raced the abort
        client.close()
        st.join()
    assert isinstance(st.error, IagoFault)
    assert fault_exit_code(st.error) == 5


def test_chaos_over_tcp_ends_with_typed_fault(program):
    from repro.faults import FaultInjector, FaultPlan

    st = make_server(program, batch=4)
    injector = FaultInjector(FaultPlan.parse(
        "channel-drop:*:spawn:1", seed=0))
    injector.attach(st.server.engine.runtime)
    st.start()
    client = LoadClient("127.0.0.1", st.server.port, timeout=5.0)
    with pytest.raises((LoadError, OSError)):
        client.set("k", b"v")
    client.close()
    st.join()
    assert isinstance(st.error, DeadlockFault)
    assert fault_exit_code(st.error) == 4
    assert injector.injected_total() == 1


def test_max_requests_drains_and_stops(program):
    st = make_server(program, batch=2, max_requests=3)
    st.start()
    client = LoadClient("127.0.0.1", st.server.port)
    for i in range(3):
        assert client.set(f"k{i}", b"v") == protocol.STORED
    client.close()
    st.join()
    assert st.error is None
    assert st.server.drained
    assert st.server.registry.counter("serve.requests").get() == 3


def test_loadgen_run_load_all_workloads(program):
    with make_server(program, batch=8) as st:
        for name in ("A", "B", "C", "D", "F"):
            report = run_load("127.0.0.1", st.server.port,
                              workload=name, clients=2, ops=30,
                              records=16, value_bytes=16,
                              seed=3)
            assert report["dropped_connections"] == 0
            assert report["errors"] == 0
            assert report["ops"] == 30
            assert report["ops_per_s"] > 0
            assert report["p99_ms"] >= report["p50_ms"] >= 0
        st.stop()
    assert st.error is None


def test_serve_tracer_spans(program):
    from repro.obs.export import validate_chrome_trace
    from repro.obs.tracer import Tracer

    tracer = Tracer()
    config = ServeConfig(port=0, batch=4)
    st = ServerThread(config, tracer=tracer,
                      engine=SecureKVEngine(program=program))
    with st:
        client = LoadClient("127.0.0.1", st.server.port)
        client.set("k", b"v")
        client.get("k")
        client.close()
        st.stop()
    assert st.error is None
    names = {event.get("name") for event in tracer.events}
    # The request lifecycle: accept -> enqueue -> execute -> reply.
    for expected in ("accept", "enqueue", "queued", "execute",
                     "reply", "close"):
        assert expected in names, expected
    validate_chrome_trace(tracer.chrome_trace())


# -- per-connection reply order ---------------------------------------------------
#
# Every key gets its own value, so a reply delivered to the wrong
# request is visible.  Each burst goes out in one write, so the loop
# frames it in one read.


def value_of(key):
    return f"value-of-{key}".encode()


def pipelined(client, frames):
    """Send ``frames`` in one write; return the replies read until
    every frame is answered or the server closes the connection,
    and whether it closed."""
    client.sock.settimeout(5.0)
    client.sock.sendall("".join(frames).encode("latin-1"))
    replies = []
    try:
        while len(replies) < len(frames):
            replies.append(client._read_response())
        client.sock.settimeout(0.5)
        return replies, client.sock.recv(1) == b""
    except socket.timeout:
        return replies, False
    except (LoadError, OSError):
        return replies, True


def assert_answers_in_order(keys, replies, served):
    """The first ``served`` gets are answered with their own values;
    every later reply is either its own value or ``SERVER_BUSY``, and
    at least one was shed."""
    assert len(replies) == len(keys), replies
    for index, (key, reply) in enumerate(zip(keys, replies)):
        if reply == protocol.SERVER_BUSY:
            assert index >= served, (index, replies)
        else:
            assert protocol.parse_value_response(reply) == \
                value_of(key), (index, replies)
    assert protocol.SERVER_BUSY in replies, replies


CUTOFF_BURST = [protocol.encode_set("k0", value_of("k0")),
                protocol.encode_get("k0"),
                protocol.encode_set("k1", value_of("k1")),
                protocol.encode_get("k1"),
                protocol.encode_set("k2", value_of("k2")),
                protocol.encode_get("k2")]

#: What CUTOFF_BURST reads back when the third request is the last
#: one accepted: everything after it is shed, in its turn.
CUTOFF_REPLIES = [protocol.STORED, protocol.encode_value("k0",
                                                         value_of("k0")),
                  protocol.STORED] + [protocol.SERVER_BUSY] * 3

DESYNC_BURST = [protocol.encode_get("k0"), protocol.encode_get("k1"),
                "set k 0 0 zz\r\n", protocol.encode_get("k0")]

DESYNC_REPLIES = [protocol.encode_value("k0", value_of("k0")),
                  protocol.encode_value("k1", value_of("k1")),
                  protocol.ERROR]


def test_shed_replies_wait_their_turn(program):
    keys = [f"k{i}" for i in range(8)]
    with make_server(program, batch=1, queue_depth=2) as st:
        client = LoadClient("127.0.0.1", st.server.port)
        for key in keys:
            assert client.set(key, value_of(key)) == protocol.STORED
        replies, closed = pipelined(
            client, [protocol.encode_get(key) for key in keys])
        assert not closed
        assert_answers_in_order(keys, replies, served=2)
        client.close()
    assert st.error is None


def test_max_requests_cutoff_mid_burst_keeps_order(program):
    st = make_server(program, batch=2, max_requests=3)
    st.start()
    client = LoadClient("127.0.0.1", st.server.port)
    replies, closed = pipelined(client, CUTOFF_BURST)
    client.close()
    st.join()
    assert replies == CUTOFF_REPLIES
    assert closed
    assert st.error is None
    assert st.server.drained


def test_bad_frame_answers_earlier_requests_first(program):
    with make_server(program, batch=4) as st:
        client = LoadClient("127.0.0.1", st.server.port)
        for key in ("k0", "k1"):
            assert client.set(key, value_of(key)) == protocol.STORED
        replies, closed = pipelined(client, DESYNC_BURST)
        assert replies == DESYNC_REPLIES
        assert closed
        client.close()
    assert st.error is None
