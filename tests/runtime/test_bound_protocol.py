"""The runtime protocol bound at decode time.

The decoded engine binds each ``__privagic_*`` call whose chunk and
color operands are string constants to its action once, when the call
is decoded; the legacy engine reads the names by address on every
call and runs the same action.  These tests pin that the two paths
are observably identical, that a wrapper installed after decoding
still intercepts the bound calls, that a steady-state served drive
never refingerprints the IR, and that the trampoline's checks keep
their fault texts.
"""

import os
import random

import pytest

import repro.ir.engine as engine_module
from repro.apps.minicache.minic_source import (DECLASSIFY_EXTERNALS,
                                               FULL_ANNOTATED)
from repro.core.colors import HARDENED, RELAXED
from repro.core.compiler import compile_and_partition
from repro.errors import RuntimeFault
from repro.faults import FaultInjector, FaultPlan
from repro.ir.interp import ENGINES
from repro.runtime.executor import PrivagicRuntime
from repro.serve.engine import SecureKVEngine, compile_secure_kv
from repro.serve.secure_source import SECURE_KV_SOURCE

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


def _example(name):
    with open(os.path.join(ROOT, "examples", name)) as handle:
        return handle.read()


def _kv_ops(seed, count, keys):
    rng = random.Random(seed)
    ops = []
    for _ in range(count):
        key = rng.choice(keys + ["absent"])
        roll = rng.random()
        if roll < 0.5:
            ops.append(("get", key))
        elif roll < 0.9:
            ops.append(("set", key, b"%d" % rng.randrange(1 << 30)))
        else:
            ops.append(("delete", key))
    return ops


def _observed(runtime, result):
    return {
        "result": result,
        "stdout": runtime.machine.stdout,
        "steps": runtime.machine.total_steps,
        "messages": runtime.stats.messages,
        "stats": runtime.stats.as_dict(),
        "per_chunk": runtime.stats.per_chunk,
        "channel_traffic": runtime.channel_traffic(),
    }


def _run_program(source, mode, frontend, entry, args, externals):
    def run(engine, optimize):
        program = compile_and_partition(source, mode=mode,
                                        frontend=frontend,
                                        optimize=optimize)
        runtime = PrivagicRuntime(program, externals, engine=engine)
        return _observed(runtime, runtime.run(entry, args))
    return run


def _run_served(engine, optimize):
    keys = [f"key{i}" for i in range(48)]
    kv = SecureKVEngine(program=compile_secure_kv(optimize=optimize),
                        engine=engine)
    for start in range(0, len(keys), 16):
        kv.execute([("set", key, b"v0") for key in keys[start:start + 16]])
    ops = _kv_ops(14, 64, keys)
    replies = []
    for start in range(0, len(ops), 16):
        replies += kv.execute(ops[start:start + 16])
    return _observed(kv.runtime, replies)


PROGRAMS = {
    "fig7": _run_program(_example("fig7.c"), RELAXED, "minic", "main",
                         (), None),
    "minicache": _run_program(FULL_ANNOTATED, HARDENED, "minic", "serve",
                              [20], DECLASSIFY_EXTERNALS),
    "served_kv": _run_served,
    "secure_counter": _run_program(_example("secure_counter.mpy"),
                                   HARDENED, "minipy", "main", (), None),
}


@pytest.mark.parametrize("optimize", [None, "kl"])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_bound_and_by_address_paths_agree(name, optimize):
    """Result, stdout, steps, messages, the per-chunk profile and the
    per-channel traffic are identical on the decoded engine (bound
    endpoints) and the legacy engine (names read by address)."""
    runs = {engine: PROGRAMS[name](engine, optimize) for engine in ENGINES}
    assert runs["decoded"] == runs["legacy"]
    assert runs["decoded"]["messages"] > 0


def _warm_engine():
    """A served engine after a drive that ran every kind of op."""
    kv = SecureKVEngine(program=compile_secure_kv(), engine="decoded")
    kv.execute([("set", "a", b"1"), ("set", "b", b"2"), ("get", "a"),
                ("delete", "b"), ("get", "b")])
    return kv


def test_decoded_protocol_reads_no_c_string():
    kv = _warm_engine()
    machine = kv.runtime.machine
    reads = []
    original = machine.read_cstring
    machine.read_cstring = lambda *args: reads.append(args) or \
        original(*args)
    assert kv.execute([("set", "c", b"3"), ("get", "c"),
                       ("delete", "c")]) == [1, kv.digest(b"3"), 1]
    assert reads == []


def test_steady_state_drive_never_fingerprints(monkeypatch):
    kv = _warm_engine()
    calls = []
    original = engine_module._fingerprint
    monkeypatch.setattr(engine_module, "_fingerprint",
                        lambda fn: calls.append(fn) or original(fn))
    for _ in range(3):
        kv.execute([("set", "a", b"9"), ("get", "a"), ("delete", "a"),
                    ("get", "missing")])
    assert calls == []


@pytest.mark.parametrize("target", ["__privagic_recv", "next_key"])
def test_iago_plan_attached_after_a_warm_drive_still_fires(target):
    """The injector wraps ``machine.externals[target]`` after the
    calls were decoded and bound; the wrapper must still see (and
    corrupt) the call, and detaching must restore the bound path."""
    kv = _warm_engine()
    injector = FaultInjector(FaultPlan.parse(f"iago-retval:{target}:1"))
    injector.attach(kv.runtime)
    try:
        try:
            kv.execute([("set", "k", b"1"), ("get", "k")])
        except RuntimeFault:
            pass  # a typed fault is an allowed outcome of corruption
    finally:
        injector.detach()
    assert injector.injected == {"iago-retval": 1}
    assert kv.execute([("set", "k", b"2"), ("get", "k")]) == \
        [1, kv.digest(b"2")]


def test_served_kv_engines_agree_on_memory_image():
    """Bound endpoints intern their strings at the first execution, in
    operand order, so memory matches the legacy engine's exactly."""
    images = {}
    for engine in ENGINES:
        kv = SecureKVEngine(program=compile_and_partition(
            SECURE_KV_SOURCE, mode=HARDENED), engine=engine)
        kv.execute([("set", "a", b"1"), ("get", "a"), ("delete", "a")])
        memory = kv.runtime.machine.memory
        images[engine] = (dict(memory._slots),
                          [(a.base, a.size, a.region, a.label, a.live)
                           for a in memory._allocs])
    assert images["decoded"] == images["legacy"]


TWO_COLOR = """
    int color(blue) blue_g = 10;
    int color(red) red_g = 0;

    void g(int n) {
        blue_g = n;
        red_g = n;
    }

    int f(int y) {
        g(21);
        return 42;
    }

    entry int main() {
        int x = f(blue_g);
        return x;
    }
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_metadata_arity_fault_keeps_its_text(engine):
    """A chunk whose partition metadata disagrees with its signature
    faults at its first delivery with the same text as before its
    plan was cached, and is never planned."""
    program = compile_and_partition(TWO_COLOR, mode=RELAXED)
    program.chunk_args["g$F@red"] = program.chunk_args["g$F@red"] + ("F",)
    runtime = PrivagicRuntime(program, engine=engine)
    with pytest.raises(RuntimeFault) as fault:
        runtime.run("main")
    assert str(fault.value) == (
        "spawn of chunk 'g$F@red': partition metadata lists 2 "
        "argument color(s) but @g$F@red takes 1")
    assert "g$F@red" not in runtime._plans
