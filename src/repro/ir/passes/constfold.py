"""Constant folding.

Evaluates arithmetic, comparison, select and numeric-cast instructions
whose operands are all constants, replacing their uses with the
computed constant.  The evaluation goes through the interpreter's
per-opcode semantics tables, so a folded value is bit-for-bit what
either engine would have produced (same wrapping, same truncated
division).

Folding is deliberately conservative about faults: an operation whose
evaluation faults (a division or remainder by a constant zero, an
fptosi of NaN, an infinity or an out-of-range value) is left in place
so the runtime fault still fires at the original program point.
Pass-through casts are left alone too: they keep a pointer's
provenance for the memory model.
"""

from __future__ import annotations

from repro.errors import RuntimeFault
from repro.ir.instructions import BinOp, Cast, Cmp, Select
from repro.ir.interp import (binop_function, cast_function, cmp_function,
                             int_width)
from repro.ir.module import Function, Module
from repro.ir.values import Constant


def constant_fold(target) -> int:
    """Fold constant operations; returns how many were folded.

    Accepts a :class:`Function` or a whole :class:`Module`.
    """
    if isinstance(target, Module):
        return sum(constant_fold(f) for f in target.defined_functions())
    return _fold_function(target)


def _fold_function(fn: Function) -> int:
    folded = 0
    changed = True
    while changed:
        changed = False
        for block in fn.blocks:
            for instr in list(block.instructions):
                replacement = _try_fold(instr)
                if replacement is not None:
                    instr.replace_all_uses_with(replacement)
                    instr.erase()
                    folded += 1
                    changed = True
    return folded


def _try_fold(instr):
    if isinstance(instr, BinOp):
        lhs, rhs = instr.lhs, instr.rhs
        if not (isinstance(lhs, Constant) and isinstance(rhs, Constant)):
            return None
        evaluate = binop_function(instr.op, int_width(instr.type))
        try:
            return Constant(instr.type, evaluate(lhs.value, rhs.value))
        except RuntimeFault:
            return None  # preserve the runtime fault
    if isinstance(instr, Cmp):
        lhs, rhs = instr.lhs, instr.rhs
        if isinstance(lhs, Constant) and isinstance(rhs, Constant):
            return Constant(instr.type, cmp_function(instr.predicate)(
                lhs.value, rhs.value))
        return None
    if isinstance(instr, Select):
        if isinstance(instr.cond, Constant):
            return instr.true_value if instr.cond.value \
                else instr.false_value
        return None
    if isinstance(instr, Cast):
        convert = cast_function(instr.kind, int_width(instr.value.type),
                                int_width(instr.to_type))
        value = instr.value
        if convert is not None and isinstance(value, Constant) and \
                isinstance(value.value, (int, float)):
            try:
                return Constant(instr.type, convert(value.value))
            except RuntimeFault:
                return None  # preserve the runtime fault
    return None
