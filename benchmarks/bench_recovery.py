"""Recovery benchmark — the measured cost of each death policy.

A fixed seeded lockstep load (workload A, 2 shards) runs four times:
with no failure, and with a deterministic mid-run shard kill (the
``--kill-shard`` AEX fuse) answered by each recovery policy —
``restart`` (respawn + exact replay), ``rebalance`` (ring removal +
acked-log migration to the survivor) and ``degrade`` followed by a
shard re-add (the inverse migration).  Every arm must finish with
zero client-visible errors, and the restart/rebalance/readd arms
must converge to the digest ledger of the clean run — the benchmark
measures what exactness *costs*, it never trades it away.

Reported per arm: end-to-end ops/s, client p99, and the recovery
work actually performed (keys replayed / migrated, requests
reissued).  The headline ratios are each policy's throughput
against the clean run at identical load — i.e. the price of one
mid-run shard death under that policy.

Results go to ``BENCH_recovery.json`` at the repo root plus the
usual benchmark report.  Smoke mode (``REPRO_BENCH_SMOKE=1`` or
``--smoke``) shrinks the op counts for CI and only prints the
report: the committed ``benchmarks/results/recovery.txt`` keeps the
full-run numbers.
"""

import json
import os
import platform
import sys

import pytest

from repro.bench import Report, publish
from repro.serve.router import RouterConfig, RouterThread

pytestmark = [pytest.mark.slow, pytest.mark.net]

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

CLIENTS = 3
OPS = 180 if SMOKE else 900
RECORDS = 32 if SMOKE else 128
VALUE_BYTES = 24 if SMOKE else 64
KILL_AT = 40 if SMOKE else 200     # shard0 op count before the AEX
SEED = 29


def _one_arm(kill, on_death, readd=False):
    """One measured run: fresh 2-shard router, the same seeded
    lockstep load, an optional deterministic shard0 kill answered by
    ``on_death`` (and an optional re-add request queued right after
    the load so the inverse migration is part of the measured
    drain)."""
    from repro.serve.loadgen import run_load

    config = RouterConfig(
        port=0, shards=2, batch=8, on_death=on_death,
        crash_after={0: KILL_AT} if kill else {})
    with RouterThread(config) as rt:
        report = run_load("127.0.0.1", rt.router.port, workload="A",
                          clients=CLIENTS, ops=OPS, records=RECORDS,
                          value_bytes=VALUE_BYTES, seed=SEED,
                          lockstep=True)
        if readd:
            import time
            rt.router.request_readd(0)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline \
                    and len(rt.router.ring.nodes) < 2:
                time.sleep(0.02)
            if len(rt.router.ring.nodes) < 2:
                raise RuntimeError("re-add did not complete")
        rt.stop()
    if rt.error is not None:
        raise rt.error
    if report["dropped_connections"] or report["errors"] \
            or report.get("abandoned"):
        raise RuntimeError(f"{on_death} arm saw client failures: "
                           f"{report}")
    registry = rt.router.registry
    return {
        "ops_per_s": report["ops_per_s"],
        "p50_ms": report["p50_ms"],
        "p99_ms": report["p99_ms"],
        "unavailable": report.get("unavailable", 0),
        "replayed_keys": registry.value("router.replayed_keys"),
        "migrated_keys": registry.value("router.migrated_keys"),
        "reissued_requests":
            registry.value("router.reissued_requests"),
        "lost_keys": rt.router.stats()["lost_keys"],
        "digests": rt.router.final_digests(),
    }


def run_recovery_comparison():
    results = {
        "meta": {
            "python": platform.python_version(),
            "smoke": SMOKE,
            "clients": CLIENTS,
            "ops": OPS,
            "records": RECORDS,
            "value_bytes": VALUE_BYTES,
            "kill_at": KILL_AT,
            "seed": SEED,
        },
        "arms": {},
    }
    # Warm once so the clean arm is not paying import costs.
    _one_arm(kill=False, on_death="restart")
    arms = results["arms"]
    arms["clean"] = _one_arm(kill=False, on_death="restart")
    arms["restart"] = _one_arm(kill=True, on_death="restart")
    arms["rebalance"] = _one_arm(kill=True, on_death="rebalance")
    arms["degrade_readd"] = _one_arm(kill=True, on_death="degrade",
                                     readd=True)
    clean_digests = arms["clean"].pop("digests")
    for name in ("restart", "rebalance", "degrade_readd"):
        arm = arms[name]
        exact = arm.pop("digests") == clean_digests
        arm["ledger_identical"] = exact
        if not exact:
            raise RuntimeError(
                f"{name} arm diverged from the clean ledger")
        arm["vs_clean"] = round(
            arm["ops_per_s"] / arms["clean"]["ops_per_s"], 3)
    return results


def _repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_json(results) -> str:
    name = ("BENCH_recovery.smoke.json" if results["meta"]["smoke"]
            else "BENCH_recovery.json")
    path = os.path.join(_repo_root(), name)
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def regenerate_recovery_report() -> Report:
    report = Report("recovery",
                    "Recovery: the cost of one mid-run shard death")
    results = run_recovery_comparison()
    arms = results["arms"]
    rows = [("clean", arms["clean"]["ops_per_s"],
             arms["clean"]["p99_ms"], 0, 0, "1.000x", "-")]
    for name in ("restart", "rebalance", "degrade_readd"):
        arm = arms[name]
        rows.append((name, arm["ops_per_s"], arm["p99_ms"],
                     arm["replayed_keys"], arm["migrated_keys"],
                     f"{arm['vs_clean']:.3f}x",
                     "yes" if arm["ledger_identical"] else "NO"))
    report.table(("policy", "ops/s", "p99 ms", "replayed",
                  "migrated", "vs clean", "ledger identical"), rows)
    report.add()
    report.add(f"load: YCSB-A, {CLIENTS} lockstep clients, "
               f"{OPS} ops, {RECORDS} records, shard0 killed at "
               f"op {KILL_AT}")
    report.add("every arm finished with zero client-visible errors; "
               "all recovery ledgers byte-identical to the clean run")
    path = write_json(results)
    report.add(f"machine-readable results: {os.path.basename(path)}")
    if not SMOKE:
        for name in ("restart", "rebalance", "degrade_readd"):
            # Exactness is asserted above; the perf gate is loose on
            # purpose — restart pays a full process respawn, so the
            # floor only catches pathological recovery stalls.
            assert arms[name]["vs_clean"] >= 0.2, \
                f"{name}: one shard death cost more than 5x " \
                f"throughput ({arms[name]['vs_clean']}x)"
        assert arms["rebalance"]["migrated_keys"] > 0
        assert arms["restart"]["replayed_keys"] > 0
    return report


def bench_recovery(benchmark):
    publish(benchmark(regenerate_recovery_report))


if __name__ == "__main__":
    if "--smoke" in sys.argv and not SMOKE:
        os.environ["REPRO_BENCH_SMOKE"] = "1"
        os.execv(sys.executable, [sys.executable, __file__])
    publish(regenerate_recovery_report())
