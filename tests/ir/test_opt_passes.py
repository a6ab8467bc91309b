"""Unit tests for the new optimization passes (simplify-cfg,
constfold), the DCE fixpoint, and the verifier gaps they exposed."""

import pytest

from repro.errors import IRError
from repro.frontend import compile_source
from repro.ir import (
    Function,
    FunctionType,
    I8,
    I32,
    IRBuilder,
    Module,
    verify_function,
    verify_module,
)
from repro.ir.interp import Machine
from repro.ir.passes import (
    constant_fold,
    dead_code_elimination,
    mem2reg,
    simplify_cfg,
)


def new_function(name="f", params=(I32,), pnames=("x",), ret=I32):
    module = Module("m")
    fn = module.add_function(
        Function(name, FunctionType(ret, list(params)), list(pnames)))
    return module, fn, IRBuilder(fn.add_block("entry"))


# -- simplify-cfg -------------------------------------------------------------


def test_constant_branch_becomes_a_jump():
    module, fn, b = new_function()
    then_b = fn.add_block("then")
    else_b = fn.add_block("else")
    b.branch(b.const_bool(True), then_b, else_b)
    b.position_at_end(then_b)
    b.ret(b.const_int(1))
    b.position_at_end(else_b)
    b.ret(b.const_int(2))

    assert simplify_cfg(fn) > 0
    verify_function(fn)
    # The not-taken arm is unreachable and removed; the taken arm is
    # merged into the entry.
    assert len(fn.blocks) == 1
    assert Machine(module).run_function("f", [0]) == 1


def test_constant_branch_updates_phis_of_the_dead_arm():
    module, fn, b = new_function()
    then_b = fn.add_block("then")
    else_b = fn.add_block("else")
    join = fn.add_block("join")
    b.branch(b.const_bool(False), then_b, else_b)
    b.position_at_end(then_b)
    b.jump(join)
    b.position_at_end(else_b)
    b.jump(join)
    b.position_at_end(join)
    phi = b.phi(I32)
    phi.add_incoming(b.const_int(10), then_b)
    phi.add_incoming(b.const_int(20), else_b)
    b.ret(phi)

    assert simplify_cfg(fn) > 0
    verify_function(fn)
    assert Machine(module).run_function("f", [0]) == 20


def test_jump_chains_are_merged():
    module, fn, b = new_function()
    middle = fn.add_block("middle")
    last = fn.add_block("last")
    val = b.add(fn.args[0], b.const_int(1))
    b.jump(middle)
    b.position_at_end(middle)
    val2 = b.mul(val, b.const_int(2))
    b.jump(last)
    b.position_at_end(last)
    b.ret(val2)

    assert simplify_cfg(fn) > 0
    verify_function(fn)
    assert len(fn.blocks) == 1
    assert Machine(module).run_function("f", [20]) == 42


def test_join_points_are_never_merged():
    # Rule-4 coloring depends on control-dependence regions: a block
    # with two predecessors must survive even when its predecessor
    # ends in a plain jump.
    module, fn, b = new_function()
    then_b = fn.add_block("then")
    else_b = fn.add_block("else")
    join = fn.add_block("join")
    cond = b.cmp("sgt", fn.args[0], b.const_int(0))
    b.branch(cond, then_b, else_b)
    b.position_at_end(then_b)
    b.jump(join)
    b.position_at_end(else_b)
    b.jump(join)
    b.position_at_end(join)
    phi = b.phi(I32)
    phi.add_incoming(b.const_int(1), then_b)
    phi.add_incoming(b.const_int(2), else_b)
    b.ret(phi)

    assert simplify_cfg(fn) == 0
    assert len(fn.blocks) == 4


def test_unreachable_blocks_are_removed():
    module, fn, b = new_function()
    dead = fn.add_block("dead")
    b.ret(fn.args[0])
    b.position_at_end(dead)
    b.ret(b.const_int(0))

    assert simplify_cfg(fn) > 0
    assert [blk.name for blk in fn.blocks] == ["entry"]
    verify_function(fn)


def test_simplify_cfg_runs_on_whole_modules():
    module = compile_source("""
        int f(int y) { if (y > 0) { return 1; } return 2; }
        entry int main() { return f(1); }
    """)
    mem2reg(module)
    before = Machine(module).run_function("main")
    assert simplify_cfg(module) > 0        # codegen's dead blocks
    verify_module(module)
    assert Machine(module).run_function("main") == before == 1


# -- constfold ----------------------------------------------------------------


def test_constant_binop_folds_to_the_interpreter_value():
    module, fn, b = new_function(params=(), pnames=())
    product = b.mul(b.const_int(6), b.const_int(7))
    b.ret(product)
    assert constant_fold(fn) == 1
    verify_function(fn)
    assert len(fn.blocks[0].instructions) == 1   # just the ret
    assert Machine(module).run_function("f", []) == 42


def test_folding_wraps_like_the_interpreter():
    # i32 overflow must wrap exactly as the runtime would have.
    module, fn, b = new_function(params=(), pnames=())
    big = b.add(b.const_int(2**31 - 1), b.const_int(1))
    b.ret(big)
    assert constant_fold(fn) == 1
    assert Machine(module).run_function("f", []) == -(2**31)


def test_constant_cmp_and_select_fold():
    module, fn, b = new_function(params=(), pnames=())
    flag = b.cmp("slt", b.const_int(1), b.const_int(2))
    picked = b.select(flag, b.const_int(11), b.const_int(22))
    b.ret(picked)
    assert constant_fold(fn) == 2
    assert Machine(module).run_function("f", []) == 11


def test_constant_trunc_folds():
    module, fn, b = new_function(params=(), pnames=(), ret=I8)
    small = b.cast("trunc", b.const_i64(0x1FF), I8)
    b.ret(small)
    assert constant_fold(fn) == 1
    assert Machine(module).run_function("f", []) == -1


def test_division_by_constant_zero_is_not_folded():
    # The runtime fault must be preserved, not turned into a silent
    # compile-time constant.
    module, fn, b = new_function(params=(), pnames=())
    bad = b.sdiv(b.const_int(1), b.const_int(0))
    b.ret(bad)
    assert constant_fold(fn) == 0


def test_folding_cascades_through_chains():
    module, fn, b = new_function(params=(), pnames=())
    a = b.add(b.const_int(2), b.const_int(3))      # 5
    c = b.mul(a, b.const_int(8))                   # 40
    d = b.add(c, b.const_int(2))                   # 42
    b.ret(d)
    assert constant_fold(fn) == 3
    assert Machine(module).run_function("f", []) == 42


# -- dce ----------------------------------------------------------------------


def test_dce_erases_a_three_deep_dead_chain_in_one_call():
    module, fn, b = new_function()
    a = b.add(fn.args[0], b.const_int(1))
    c = b.mul(a, b.const_int(2))
    b.sub(c, b.const_int(3))                       # dead root
    b.ret(fn.args[0])
    assert dead_code_elimination(fn) == 3
    assert len(fn.blocks[0].instructions) == 1
    assert Machine(module).run_function("f", [9]) == 9


def test_dce_keeps_side_effects():
    module = compile_source("""
        int g = 0;
        entry int main() { g = 5; int dead = g + 1; return g; }
    """)
    mem2reg(module)
    dead_code_elimination(module)
    assert Machine(module).run_function("main") == 5


# -- verifier gaps ------------------------------------------------------------


def test_verifier_rejects_an_unterminated_unreachable_block():
    module, fn, b = new_function()
    dead = fn.add_block("dead")
    b.ret(fn.args[0])
    b.position_at_end(dead)
    b.add(fn.args[0], b.const_int(1))    # no terminator
    with pytest.raises(IRError, match="terminator"):
        verify_function(fn)


def test_verifier_rejects_a_branch_to_a_removed_block():
    module, fn, b = new_function()
    target = fn.add_block("target")
    b.jump(target)
    b.position_at_end(target)
    b.ret(fn.args[0])
    fn.blocks.remove(target)
    target.parent = None
    with pytest.raises(IRError, match="not in the function"):
        verify_function(fn)


def test_verifier_rejects_a_phi_from_a_foreign_block():
    module, fn, b = new_function()
    other_module = Module("other")
    other = other_module.add_function(
        Function("o", FunctionType(I32, []), []))
    foreign = other.add_block("foreign")
    join = fn.add_block("join")
    b.jump(join)
    entry = fn.blocks[0]
    b.position_at_end(join)
    phi = b.phi(I32)
    phi.add_incoming(b.const_int(1), entry)
    phi.add_incoming(b.const_int(2), foreign)
    b.ret(phi)
    with pytest.raises(IRError):
        verify_function(fn)
