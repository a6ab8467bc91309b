"""Textual printer for the IR, in an LLVM-flavoured syntax.

The printed form round-trips through :mod:`repro.ir.parser` and is the
format used in tests, diagnostics and the TCB line-count metrics of
Table 4 (the paper reports "lines of LLVM code").
"""

from __future__ import annotations

from typing import Dict

from repro.ir.instructions import (
    Alloca,
    BinOp,
    Branch,
    Call,
    Cast,
    Cmp,
    GEP,
    Instruction,
    Jump,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    Unreachable,
)
from repro.ir.module import Function, Module
from repro.ir.types import StructType
from repro.ir.values import Constant, GlobalVariable, UndefValue, Value


class _Namer:
    """Assigns stable printable names to values within one function."""

    def __init__(self):
        self._names: Dict[int, str] = {}
        self._next = 0

    def ref(self, value: Value) -> str:
        if isinstance(value, Constant):
            if isinstance(value.value, str):
                escaped = value.value.replace("\\", "\\\\").replace(
                    '"', '\\"').replace("\n", "\\n")
                return f'c"{escaped}"'
            return str(value.value)
        if isinstance(value, UndefValue):
            return "undef"
        if isinstance(value, (GlobalVariable, Function)):
            return f"@{value.name}"
        key = id(value)
        if key not in self._names:
            if value.name:
                self._names[key] = f"%{value.name}"
            else:
                self._names[key] = f"%{self._next}"
                self._next += 1
        return self._names[key]

    def typed(self, value: Value) -> str:
        return f"{value.type} {self.ref(value)}"


def print_module(module: Module) -> str:
    lines = [f"; module {module.name}"]
    for st in module.structs.values():
        lines.append(_print_struct(st))
    for gv in module.globals.values():
        lines.append(_print_global(gv))
    for fn in module.functions.values():
        lines.append(print_function(fn))
    return "\n".join(lines) + "\n"


def _print_struct(st: StructType) -> str:
    fields = ", ".join(f"{f.type} {f.name}" for f in st.fields)
    return f"%{st.name} = type {{ {fields} }}"


def _print_global(gv: GlobalVariable) -> str:
    namer = _Namer()
    init = (f" {namer.ref(gv.initializer)}"
            if gv.initializer is not None else " zeroinitializer")
    return f"@{gv.name} = global {gv.value_type}{init}"


def print_function(fn: Function) -> str:
    namer = _Namer()
    args = ", ".join(f"{a.type} %{a.name}" for a in fn.args)
    attrs = "".join(f" {a}" for a in sorted(fn.attributes))
    header = f"{fn.ftype.ret} @{fn.name}({args}){attrs}"
    if fn.is_declaration:
        return f"declare {header}"
    lines = [f"define {header} {{"]
    for block in fn.blocks:
        lines.append(f"{block.name}:")
        for instr in block.instructions:
            lines.append(f"  {print_instruction(instr, namer)}")
    lines.append("}")
    return "\n".join(lines)


def print_instruction(instr: Instruction, namer: _Namer = None) -> str:
    namer = namer or _Namer()
    n = namer.ref
    if isinstance(instr, Alloca):
        return f"{n(instr)} = alloca {instr.allocated_type}"
    if isinstance(instr, Load):
        return f"{n(instr)} = load {namer.typed(instr.ptr)}"
    if isinstance(instr, Store):
        return f"store {namer.typed(instr.value)}, {namer.typed(instr.ptr)}"
    if isinstance(instr, BinOp):
        return (f"{n(instr)} = {instr.op} {instr.lhs.type} "
                f"{n(instr.lhs)}, {n(instr.rhs)}")
    if isinstance(instr, Cmp):
        return (f"{n(instr)} = cmp {instr.predicate} {instr.lhs.type} "
                f"{n(instr.lhs)}, {n(instr.rhs)}")
    if isinstance(instr, GEP):
        idx = ", ".join(namer.typed(i) for i in instr.indices)
        return f"{n(instr)} = gep {namer.typed(instr.ptr)}, {idx}"
    if isinstance(instr, Call):
        args = ", ".join(namer.typed(a) for a in instr.args)
        prefix = "" if instr.is_void else f"{n(instr)} = "
        return f"{prefix}call {instr.type} {n(instr.callee)}({args})"
    if isinstance(instr, Branch):
        return (f"br {namer.typed(instr.cond)}, label %{instr.then_block.name}"
                f", label %{instr.else_block.name}")
    if isinstance(instr, Jump):
        return f"jmp label %{instr.target.name}"
    if isinstance(instr, Ret):
        if instr.value is None:
            return "ret void"
        return f"ret {namer.typed(instr.value)}"
    if isinstance(instr, Phi):
        incs = ", ".join(f"[ {n(v)}, %{b.name} ]"
                         for v, b in instr.incomings)
        return f"{n(instr)} = phi {instr.type} {incs}"
    if isinstance(instr, Cast):
        return (f"{n(instr)} = {instr.kind} {namer.typed(instr.value)} "
                f"to {instr.to_type}")
    if isinstance(instr, Select):
        return (f"{n(instr)} = select {namer.typed(instr.cond)}, "
                f"{namer.typed(instr.true_value)}, "
                f"{namer.typed(instr.false_value)}")
    if isinstance(instr, Unreachable):
        return "unreachable"
    return f"<unknown {instr.opcode}>"
