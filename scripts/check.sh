#!/bin/sh
# Repo check: lean gate + tier-1 test suite + interpreter-dispatch
# smoke run.
#
# Usage: scripts/check.sh [extra pytest args]
#   REPRO_ENGINE=legacy scripts/check.sh   # check the legacy engine
#
# The dispatch benchmark runs in smoke mode (tiny workloads, no 5x
# assertion, writes BENCH_interp.smoke.json) so the whole script
# stays CI-fast; its fresh decoded/legacy ratios are gated against
# smoke-scale floors.  Run `python benchmarks/bench_interp_dispatch.py`
# for real numbers.  A passing run leaves the working tree unchanged.
set -e
cd "$(dirname "$0")/.."
export PYTHONPATH=src

# Lean gate: no unused import in src/repro, tests, benchmarks,
# scripts or examples.
python scripts/lean.py

# An explicit -m overrides the addopts default, so exclude both
# out-of-band marker families here.
python -m pytest -x -q -m "not slow and not chaos" "$@"
REPRO_BENCH_SMOKE=1 python benchmarks/bench_interp_dispatch.py
# BENCH_interp smoke gate: the decoded/legacy step-rate ratio just
# measured must clear a floor per workload.  A ratio carries across
# hosts where absolute steps/s do not.  The benchmark alternates the
# engines' runs and keeps the best of 7 each.  The litmus floor sits
# just below the lowest of 80 such smoke runs on a busy 2-vCPU host
# (3.65x; median about 5.1x).  fig7 stays at 2.0x: its lowest run
# there was 1.86x (median about 2.5x), so it cannot rise, and host
# noise alone can rarely trip it.  The floors catch the decoded
# engine losing a large part of its lead, such as a fallback onto
# legacy stepping (about 1x); smaller regressions need the full
# benchmark.
python - <<'PYEOF'
import json

FLOORS = {"litmus": 3.5, "fig7": 2.0}
with open("BENCH_interp.smoke.json") as handle:
    workloads = json.load(handle)["workloads"]
for name, floor in FLOORS.items():
    ratio = workloads[name]["speedup"]
    assert ratio >= floor, \
        f"smoke {name}: decoded {ratio}x legacy, floor {floor}x"
print("bench smoke gate: " + ", ".join(
    f"{name} decoded {workloads[name]['speedup']}x legacy "
    f"(floor {floor}x)" for name, floor in FLOORS.items()) + " OK")
PYEOF
rm -f BENCH_interp.smoke.json

# CLI smoke: run the Fig 7 example with tracing and validate the
# output parses as Chrome trace_event JSON.
TRACE_OUT=$(mktemp /tmp/repro-trace.XXXXXX.json)
python -m repro run examples/fig7.c --mode relaxed \
    --trace "$TRACE_OUT" --stats > /dev/null
python -c "import sys; \
    from repro.obs.export import validate_chrome_trace_file; \
    n = validate_chrome_trace_file(sys.argv[1]); \
    print(f'cli smoke: trace OK ({n} events)')" "$TRACE_OUT"
rm -f "$TRACE_OUT"

# Pass-pipeline smoke: run an explicit optimization pipeline with the
# inspection flags, and check the per-pass metrics reach --stats.
REPRO_VERIFY_EACH_PASS=1 python -m repro compile examples/fig7.c \
    --mode relaxed \
    --passes 'mem2reg,constfold,simplify-cfg,dce' \
    --print-after-each --time-passes --stats > /tmp/repro-pipeline.out \
    2> /dev/null
grep -q "pipeline.pass.seconds\[mem2reg\]" /tmp/repro-pipeline.out
grep -q "pipeline.pass.runs\[dce\]" /tmp/repro-pipeline.out
echo "cli smoke: pass pipeline OK (per-pass metrics present)"
rm -f /tmp/repro-pipeline.out

# Chaos smoke: a fixed-seed differential sweep on Fig 7 — every
# seeded fault schedule must end identical to the fault-free run or
# in a typed RuntimeFault (exit 1 on any silently-wrong outcome).
python -m repro.faults.differential examples/fig7.c \
    --seeds 16 --base-seed 1234
# And one explicit injection through the CLI: dropping the first
# spawn must exit with the DeadlockFault code (4).
if python -m repro run examples/fig7.c --mode relaxed \
    --inject 'channel-drop:*:spawn:1' > /dev/null 2>&1; then
    echo "chaos smoke: injected drop did NOT fault" >&2
    exit 1
else
    status=$?
    if [ "$status" -ne 4 ]; then
        echo "chaos smoke: expected exit 4, got $status" >&2
        exit 1
    fi
fi
echo "chaos smoke: typed-fault/identical contract OK"

# Frontend smoke: the MiniPy frontend through the same CLI —
# extension auto-detection must agree with an explicit --frontend,
# and the secure(...)-annotated counter must partition and run.
MINIPY_AUTO=$(python -m repro run examples/secure_counter.mpy \
    --mode hardened)
MINIPY_NAMED=$(python -m repro run examples/secure_counter.mpy \
    --mode hardened --frontend minipy)
if [ "$MINIPY_AUTO" != "$MINIPY_NAMED" ]; then
    echo "frontend smoke: auto-detect and --frontend disagree" >&2
    exit 1
fi
echo "$MINIPY_AUTO" | grep -q "main() = 5"
echo "frontend smoke: minipy OK (auto-detect == --frontend minipy)"

# Cross-language smoke: the MiniPy workload script driving MiniC
# enclave logic through one shared module (repro.secval.compile_cross)
# must partition with zero confinement violations and agree on every
# engine (the script asserts all of that).
python examples/cross_language.py > /dev/null
echo "frontend smoke: cross-language vault OK"

# Chaos smoke, MiniPy arm: the same identical-or-typed contract must
# hold for a MiniPy-lowered partition.
python -m repro.faults.differential examples/secure_counter.mpy \
    --seeds 16 --base-seed 1234 --mode hardened

# Optimizer smoke: the kl placement policy on Fig 7 must preserve the
# program's observable behavior exactly (result + stdout) while the
# partition report shows it actually elided messages.
PLAIN_OUT=$(python -m repro run examples/fig7.c --mode relaxed \
    | grep -v '^messages:')
KL_OUT=$(python -m repro run examples/fig7.c --mode relaxed \
    --optimize kl | grep -v '^messages:')
if [ "$PLAIN_OUT" != "$KL_OUT" ]; then
    echo "optimizer smoke: kl changed program behavior:" >&2
    echo "  none: $PLAIN_OUT" >&2
    echo "  kl:   $KL_OUT" >&2
    exit 1
fi
python -m repro analyze examples/fig7.c --mode relaxed \
    --optimize kl --partition-stats > /tmp/repro-placement.out
grep -q '"policy": "kl"' /tmp/repro-placement.out
grep -q "tcb" /tmp/repro-placement.out
rm -f /tmp/repro-placement.out
echo "optimizer smoke: kl placement OK (behavior identical to none)"

# Chaos smoke, optimized arm: the same fixed-seed sweep against the
# kl-optimized partition — barrier elision must never turn a fault
# into a silently-wrong run.
python -m repro.faults.differential examples/fig7.c \
    --seeds 16 --base-seed 1234 --optimize kl

# Serve smoke: host the partitioned KV app on an ephemeral port, push
# 200 YCSB-C ops through real sockets, and check a clean drain with
# actual request batching (nonzero serve.batch_size histogram).
python - <<'PYEOF'
from repro.serve import SecureKVEngine, ServeConfig, ServerThread
from repro.serve.engine import compile_secure_kv
from repro.serve.loadgen import run_load

config = ServeConfig(port=0, batch=16)
with ServerThread(config,
                  engine=SecureKVEngine(
                      program=compile_secure_kv())) as st:
    report = run_load("127.0.0.1", st.server.port, workload="C",
                      clients=4, ops=200, records=32,
                      value_bytes=32, seed=5)
    st.stop()
assert st.error is None, st.error
assert st.server.drained, "server did not drain cleanly"
assert report["dropped_connections"] == 0, report
assert report["errors"] == 0, report
hist = st.server.registry.histogram("serve.batch_size")
assert hist.count > 0 and hist.max >= 1, hist.get()
print(f"serve smoke: {report['ops']} ops over TCP OK "
      f"({report['ops_per_s']} ops/s, "
      f"mean batch {hist.mean:.1f}, drained cleanly)")
PYEOF

# Served-KV cost smoke: preload 1024 keys, then 256 seeded mixed
# ops with every reply checked against a dict model. Steps and
# messages are exact counts, so the gate holds on any host: messages
# per request must equal the protocol's 911/256 (a change here means
# the protocol or partition changed), and steps per request must stay
# at or below 60 (58.11 measured).
python - <<'PYEOF'
import random

from repro.serve.engine import SecureKVEngine, compile_secure_kv

engine = SecureKVEngine(program=compile_secure_kv())
digest = SecureKVEngine.digest
rng = random.Random(14)
keys = [f"key{i}" for i in range(1024)]
candidates = keys + ["absent"]
model = {key: b"v0-" + key.encode() for key in keys}
for start in range(0, len(keys), 64):
    engine.execute([("set", key, model[key])
                    for key in keys[start:start + 64]])
ops, expected = [], []
for _ in range(256):
    key = rng.choice(candidates)
    roll = rng.random()
    if roll < 0.5:
        ops.append(("get", key))
        expected.append(digest(model[key]) if key in model else 0)
    elif roll < 0.9:
        value = b"%d" % rng.randrange(1 << 30)
        ops.append(("set", key, value))
        model[key] = value
        expected.append(1)
    else:
        ops.append(("delete", key))
        expected.append(1 if model.pop(key, None) is not None else 0)
steps, messages = engine.steps, engine.runtime.stats.messages
replies = []
for start in range(0, len(ops), 16):
    replies += engine.execute(ops[start:start + 16])
assert replies == expected, "kv smoke: a reply disagrees with the model"
steps = engine.steps - steps
messages = engine.runtime.stats.messages - messages
print(f"kv smoke: {len(ops)} ops over {len(keys)} keys, every reply "
      f"checked: {steps / len(ops):.2f} steps/request, "
      f"{messages / len(ops):.3f} messages/request")
assert messages == 911, f"kv smoke: {messages} messages, expected 911"
assert steps <= 60 * len(ops), \
    f"kv smoke: {steps / len(ops):.2f} steps/request, bound 60"
PYEOF

# Sharded-serve smoke: 2 shard-worker processes behind the
# consistent-hash router, a YCSB-A run through real sockets, then a
# shard-kill recovery check — the deterministic crash fuse fires
# mid-run and the router must restart the shard and replay its state
# exactly (zero client-visible errors, ledger intact).
python - <<'PYEOF'
from repro.serve import RouterConfig, RouterThread
from repro.serve.loadgen import run_load

with RouterThread(RouterConfig(port=0, shards=2, batch=8)) as rt:
    report = run_load("127.0.0.1", rt.router.port, workload="A",
                      clients=4, ops=200, records=32,
                      value_bytes=32, seed=5)
    rt.stop()
assert rt.error is None, rt.error
assert rt.router.drained, "router did not drain cleanly"
assert report["dropped_connections"] == 0, report
assert report["errors"] == 0, report
stats = rt.router.stats()
assert stats["ledger_keys"] > 0 and stats["restarts"] == 0, stats
print(f"shard smoke: {report['ops']} ops over 2 shards OK "
      f"({report['ops_per_s']} ops/s, "
      f"ledger={stats['ledger_keys']} keys)")

with RouterThread(RouterConfig(port=0, shards=2, batch=8,
                               crash_after={0: 50})) as rt:
    report = run_load("127.0.0.1", rt.router.port, workload="A",
                      clients=4, ops=200, records=32,
                      value_bytes=32, seed=5)
    rt.stop()
assert rt.error is None, rt.error
assert rt.router.drained, "router did not drain after recovery"
assert report["errors"] == 0, report
assert report["dropped_connections"] == 0, report
registry = rt.router.registry
restarts = registry.counter("router.shard_restarts").get()
replayed = registry.counter("router.replayed_keys").get()
assert restarts == 1, f"expected 1 restart, saw {restarts}"
assert replayed > 0, "recovery replayed no keys"
print(f"shard smoke: kill+recovery OK (1 restart, "
      f"{replayed} keys replayed, no client-visible errors)")
PYEOF

# Netchaos smoke: a fixed-seed socket-chaos differential sweep —
# every injected reset/slow/short/garble schedule must end identical
# to the clean run or in a typed fault (the module exits 1 on any
# silently-wrong or hung run); the shell-level timeout guarantees
# the smoke itself cannot hang the check.
timeout 300 python -m repro.faults.netchaos --seeds 8 \
    --base-seed 1234 --ops 80
echo "netchaos smoke: identical-or-typed contract OK"

# Self-healing smoke: kill a shard mid-run (the deterministic
# crash fuse) with the rebalance policy — the ring must shrink, the
# dead shard's acked state must migrate to the survivor, and the run
# must stay client-clean with the same final ledger as an unkilled
# run.
timeout 300 python - <<'PYEOF'
from repro.serve import RouterConfig, RouterThread
from repro.serve.loadgen import run_load


def one_run(kill):
    config = RouterConfig(port=0, shards=2, batch=8,
                          on_death="rebalance",
                          crash_after={0: 60} if kill else {})
    with RouterThread(config) as rt:
        report = run_load("127.0.0.1", rt.router.port, workload="A",
                          clients=3, ops=240, records=32,
                          value_bytes=24, seed=7, lockstep=True)
        rt.stop()
    assert rt.error is None, rt.error
    assert rt.router.drained, "router did not drain"
    assert report["errors"] == 0, report
    assert report["dropped_connections"] == 0, report
    assert report.get("abandoned", 0) == 0, report
    return rt

clean = one_run(kill=False)
killed = one_run(kill=True)
stats = killed.router.stats()
assert stats["rebalances"] == 1, stats
assert len(stats["ring_nodes"]) == 1, stats
assert stats["lost_keys"] == 0, stats
migrated = killed.router.registry.counter(
    "router.migrated_keys").get()
assert migrated > 0, "rebalance migrated no keys"
assert killed.router.final_digests() == \
    clean.router.final_digests(), \
    "rebalanced ledger diverged from the clean run"
print(f"self-healing smoke: kill+rebalance OK ({migrated} keys "
      f"migrated, ledger identical to the clean run)")

# Degraded mode: kill a shard under on_death=degrade and check a
# lost key answers the typed SHARD_UNAVAILABLE response (not a
# stall), while the survivor's keyspace keeps serving.
from repro.apps.minicache import protocol
from repro.serve.loadgen import LoadClient

config = RouterConfig(port=0, shards=2, batch=8, on_death="degrade",
                      crash_after={0: 40})
with RouterThread(config) as rt:
    client = LoadClient("127.0.0.1", rt.router.port)
    values = {}
    for i in range(60):
        key = f"user{i}"
        assert client.set(key, b"x%d" % i) == protocol.STORED
        values[key] = b"x%d" % i
    lost = served = 0
    for key, value in values.items():
        response = client.get(key)
        if response == protocol.SHARD_UNAVAILABLE:
            lost += 1
        else:
            assert protocol.parse_value_response(response) == value
            served += 1
    client.close()
    rt.stop()
assert rt.error is None, rt.error
assert lost > 0, "no key answered SHARD_UNAVAILABLE"
assert served > 0, "no surviving key kept serving"
assert len(rt.router.stats()["ring_nodes"]) == 1
print(f"self-healing smoke: degraded mode OK ({lost} keys typed "
      f"SHARD_UNAVAILABLE, {served} keys kept serving)")
PYEOF

# BENCH_interp regression gate: the committed dispatch numbers must
# keep the decoded engine >= 5x legacy on the fig7 workload, so
# interpreter throughput is enforced going forward, not just recorded.
python - <<'PYEOF'
import json

with open("BENCH_interp.json") as handle:
    workloads = json.load(handle)["workloads"]
fig7 = workloads["fig7"]
assert fig7["speedup"] >= 5.0, \
    f"committed fig7 decoded speedup below 5x: {fig7['speedup']}x"
print(f"bench gate: fig7 decoded {fig7['speedup']}x legacy OK")
PYEOF

# BENCH_serve regression gate: the committed shard sweep must show
# sharded serving beating the single-process batched server at 16
# clients (and >=4x at the 8-shard/64-client tentpole cell).
python - <<'PYEOF'
import json

with open("BENCH_serve.json") as handle:
    sweep = json.load(handle)["shard_sweep"]
single16 = sweep["single"]["16"]["ops_per_s"]
best16 = max(cells["16"]["ops_per_s"]
             for cells in sweep["sharded"].values())
assert best16 > single16, \
    f"sharded @16 clients lost: {best16} <= {single16} ops/s"
gate = sweep["speedup_vs_single"]["8"]["64"]
assert gate >= 4.0, f"8-shard @64 clients below 4x: {gate}x"
print(f"bench gate: sharded @16 clients {best16} > single "
      f"{single16} ops/s; 8 shards @64 clients {gate}x OK")
PYEOF

# BENCH_partition regression gate: the committed partition-quality
# report must keep the optimizer honest — modeled cost never above
# the unoptimized baseline on any workload, and the best measured
# message reduction (fig7/minicache, kl arm) at or above 20%.
python - <<'PYEOF'
import json

with open("BENCH_partition.json") as handle:
    workloads = json.load(handle)["workloads"]
best = 0.0
for name, workload in workloads.items():
    arms = workload["policies"]
    none = arms["none"]
    for policy in ("kl",):
        arm = arms[policy]
        assert arm["modeled_cost_cycles"] <= none["modeled_cost_cycles"], \
            f"{name}/{policy}: modeled cost regressed vs none"
    assert workload["differential"]["identical"], \
        f"{name}: optimized arms were not byte-identical to none"
    if name in ("fig7", "minicache"):
        best = max(best,
                   workload["reduction_vs_none"]["kl"]["messages_pct"])
assert best >= 20.0, \
    f"best kl message reduction below 20%: {best:.1f}%"
print(f"bench gate: partition quality OK "
      f"(best kl message reduction {best:.1f}%)")
PYEOF
