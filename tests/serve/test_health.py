"""Failure-detection primitives: bounded-backoff connects, the
liveness monitor, and the per-shard circuit breaker — all driven
with explicit clocks, no sleeping."""

import socket

import pytest

from repro.errors import NetworkFault, fault_exit_code
from repro.serve.health import (
    CircuitBreaker,
    HealthMonitor,
    connect_with_backoff,
    probe_key,
)

# -- connect_with_backoff -------------------------------------------------------


def closed_port():
    """A loopback port with nothing listening on it."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def test_connect_succeeds_first_try():
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    try:
        sock = connect_with_backoff(
            ("127.0.0.1", listener.getsockname()[1]),
            timeout=2.0, retries=0, backoff_base=0.01,
            backoff_cap=0.1)
        sock.close()
    finally:
        listener.close()


def test_connect_exhaustion_is_a_typed_network_fault():
    port = closed_port()
    sleeps = []
    with pytest.raises(NetworkFault) as excinfo:
        connect_with_backoff(
            ("127.0.0.1", port), timeout=0.5, retries=3,
            backoff_base=0.01, backoff_cap=0.02,
            describe="shard 7", sleep=sleeps.append)
    # 1 + retries attempts; exponential backoff capped.
    assert sleeps == [0.01, 0.02, 0.02]
    assert "shard 7" in str(excinfo.value)
    assert "4 attempt(s)" in str(excinfo.value)
    assert fault_exit_code(excinfo.value) == 9


def test_connect_retries_until_a_listener_appears():
    port = closed_port()
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)

    def open_late(_pause):
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", port))
        listener.listen(1)

    try:
        sock = connect_with_backoff(
            ("127.0.0.1", port), timeout=2.0, retries=2,
            backoff_base=0.0, backoff_cap=0.0, sleep=open_late)
        sock.close()
    finally:
        listener.close()


def test_connect_applies_the_wrap_hook():
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    wrapped = []
    try:
        sock = connect_with_backoff(
            ("127.0.0.1", listener.getsockname()[1]),
            timeout=2.0, retries=0, backoff_base=0.01,
            backoff_cap=0.1,
            wrap=lambda s: wrapped.append(s) or s)
        assert wrapped == [sock]
        sock.close()
    finally:
        listener.close()


# -- CircuitBreaker -------------------------------------------------------------


def test_breaker_opens_at_budget_and_closes_on_reply():
    breaker = CircuitBreaker(budget=2)
    assert breaker.allow()
    breaker.trip()
    assert breaker.allow()          # 1 of 2
    breaker.trip()
    assert not breaker.allow()      # budget spent
    breaker.close()                 # any reply ends the streak
    assert breaker.allow()
    assert "OPEN" not in repr(breaker)


# -- HealthMonitor --------------------------------------------------------------


def test_monitor_disabled_without_either_timeout():
    monitor = HealthMonitor()
    assert not monitor.enabled
    assert HealthMonitor(probe_interval=1.0).enabled
    assert HealthMonitor(forward_timeout=1.0).enabled


def test_probe_only_after_the_idle_interval():
    monitor = HealthMonitor(probe_interval=5.0, probe_timeout=2.0)
    monitor.attach("shard0", now=100.0)
    assert not monitor.want_probe("shard0", idle=True, now=104.0)
    assert monitor.want_probe("shard0", idle=True, now=105.0)
    # Busy shards are never probed: their in-flight age is the
    # stronger signal.
    assert not monitor.want_probe("shard0", idle=False, now=110.0)


def test_outstanding_probe_suppresses_another():
    monitor = HealthMonitor(probe_interval=5.0, probe_timeout=2.0)
    monitor.attach("shard0", now=0.0)
    assert monitor.want_probe("shard0", idle=True, now=6.0)
    monitor.note_probe("shard0", now=6.0)
    assert monitor.probe_outstanding("shard0")
    assert not monitor.want_probe("shard0", idle=True, now=7.0)


def test_unanswered_probe_is_a_verdict():
    monitor = HealthMonitor(probe_interval=5.0, probe_timeout=2.0)
    monitor.attach("shard0", now=0.0)
    monitor.note_probe("shard0", now=6.0)
    assert monitor.verdict("shard0", None, now=7.9) is None
    verdict = monitor.verdict("shard0", None, now=8.1)
    assert verdict is not None and "probe" in verdict


def test_any_reply_resolves_the_probe():
    monitor = HealthMonitor(probe_interval=5.0, probe_timeout=2.0)
    monitor.attach("shard0", now=0.0)
    monitor.note_probe("shard0", now=6.0)
    monitor.note_reply("shard0", now=7.0)
    assert not monitor.probe_outstanding("shard0")
    assert monitor.verdict("shard0", None, now=100.0) is None \
        or "probe" not in monitor.verdict("shard0", None, now=100.0)


def test_old_inflight_request_is_a_verdict():
    monitor = HealthMonitor(forward_timeout=3.0)
    monitor.attach("shard0", now=0.0)
    assert monitor.verdict("shard0", 10.0, now=12.9) is None
    verdict = monitor.verdict("shard0", 10.0, now=13.1)
    assert verdict is not None and "in-flight" in verdict
    # Idle shards have no oldest request to age.
    assert monitor.verdict("shard0", None, now=1000.0) is None


def test_untracked_shard_has_no_verdict():
    monitor = HealthMonitor(probe_interval=1.0, forward_timeout=1.0)
    assert monitor.verdict("ghost", 0.0, now=100.0) is None
    assert not monitor.want_probe("ghost", idle=True, now=100.0)
    monitor.note_reply("ghost")          # must not raise
    monitor.note_probe("ghost")


def test_probe_key_namespace():
    assert probe_key("shard3") == "__probe__shard3"
