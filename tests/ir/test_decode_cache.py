"""Decoded-engine regression tests: cache invalidation soundness, the
bounded decode cache, code reuse across runs, and mid-run fault and
watchdog parity with the legacy engine."""

import pytest

from repro.core.colors import RELAXED
from repro.core.compiler import compile_and_partition
from repro.errors import RuntimeFault, WatchdogTimeout
from repro.frontend import compile_source
from repro.ir.engine import _fingerprint, decode_function
from repro.ir.instructions import BinOp
from repro.ir.interp import ENGINES, Machine
from repro.ir.values import Constant
from repro.runtime.executor import PrivagicRuntime

HOT_LOOP = """
    int main() {
        int acc = 1;
        for (int i = 0; i < 200; i = i + 1) {
            acc = acc + i * 3 - (acc / 7);
        }
        return acc;
    }
"""

FAULTING_LOOP = """
    int main() {
        int acc = 0;
        for (int i = 0; i < 100; i = i + 1) {
            acc = acc + 1000 / (50 - i);
        }
        return acc;
    }
"""


def _result(module, engine):
    machine = Machine(module, engine=engine)
    ctx = machine.spawn("main", name="main")
    machine.run()
    return ctx.result


def _find_const_binop(fn, op, const):
    for block in fn.blocks:
        for instr in block.instructions:
            if isinstance(instr, BinOp) and instr.op == op:
                for i, operand in enumerate(instr.operands):
                    if (isinstance(operand, Constant)
                            and operand.value == const):
                        return instr, i
    raise AssertionError(f"no {op} by {const} in @{fn.name}")


# -- cache invalidation -------------------------------------------------------


def test_fingerprint_is_structural():
    module = compile_source(HOT_LOOP)
    fn = module.functions["main"]
    before = _fingerprint(fn)
    instr, index = _find_const_binop(fn, "mul", 3)
    instr.set_operand(index, Constant(instr.type, 5))
    after = _fingerprint(fn)
    # Same shape — the old (n_blocks, n_instrs) fingerprint is blind
    # to this mutation; the structural hash must not be.
    assert before[0] == after[0] and before[1] == after[1]
    assert before != after


def test_inplace_mutation_invalidates_across_runs():
    """Mutating IR between runs (same block/instruction counts) must
    re-decode: stale cached closures would replay the old constant."""
    module = compile_source(HOT_LOOP)
    machine = Machine(module, engine="decoded")
    ctx = machine.spawn("main", name="main")
    machine.run()
    original = ctx.result

    fn = module.functions["main"]
    instr, index = _find_const_binop(fn, "mul", 3)
    instr.set_operand(index, Constant(instr.type, 5))

    ctx2 = machine.spawn("main", name="main2")
    machine.run()
    mutated = ctx2.result

    oracle = compile_source(HOT_LOOP.replace("i * 3", "i * 5"))
    assert mutated == _result(oracle, "legacy")
    assert mutated != original


def test_decode_cache_is_bounded():
    """Repeated compiles of mutated IR must evict, not accumulate
    (a long-running server would otherwise leak dead code)."""
    module = compile_source(HOT_LOOP)
    machine = Machine(module, engine="decoded")
    machine._decoded_cache_cap = 4
    fn = module.functions["main"]
    instr, index = _find_const_binop(fn, "mul", 3)
    for value in range(20):
        instr.set_operand(index, Constant(instr.type, value))
        machine._decode_epoch += 1  # simulate a run boundary
        decode_function(machine, fn)
        assert len(machine._decoded_cache) <= 4
    # Same-key recompiles replace the entry: one function, one slot.
    assert len(machine._decoded_cache) == 1


def test_unchanged_code_is_reused_across_runs():
    module = compile_source(HOT_LOOP)
    machine = Machine(module, engine="decoded")
    fn = module.functions["main"]
    machine.spawn("main", name="a")
    machine.run()
    code = machine._decoded_cache[fn]
    machine.spawn("main", name="b")
    machine.run()
    assert machine._decoded_cache[fn] is code


# -- parity with the legacy engine --------------------------------------------


def test_midtrace_fault_parity():
    """A division fault deep inside a hot loop must surface the
    identical message at the identical step on both engines."""
    module = compile_source(FAULTING_LOOP)
    outcomes = {}
    for engine in ENGINES:
        machine = Machine(module, engine=engine)
        machine.spawn("main", name="main")
        with pytest.raises(RuntimeFault) as exc:
            machine.run()
        outcomes[engine] = (str(exc.value), machine.total_steps)
    assert outcomes["decoded"] == outcomes["legacy"]
    assert "division by zero" in outcomes["decoded"][0]


def test_watchdog_accounting_is_engine_independent():
    """Per-context watchdog budgets must trip at the same point on
    both engines: fused runs charge ctx.steps exactly and never run
    past their burst budget."""
    source = """
        int color(U) unsafe_g = 0;
        entry int main() {
            unsafe_g = 1;
            int acc = 0;
            for (int i = 0; i < 100000; i = i + 1) { acc = acc + i; }
            return acc;
        }
    """
    program = compile_and_partition(source, mode=RELAXED)
    outcomes = {}
    for engine in ENGINES:
        runtime = PrivagicRuntime(program, engine=engine,
                                  watchdog_steps=5_000)
        with pytest.raises(WatchdogTimeout) as exc:
            runtime.run("main")
        outcomes[engine] = (str(exc.value),
                            runtime.machine.total_steps)
    assert outcomes["decoded"] == outcomes["legacy"]
