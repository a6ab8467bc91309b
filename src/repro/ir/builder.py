"""IRBuilder — convenient construction of IR, mirroring LLVM's
``IRBuilder``.

The builder keeps an insertion point (a basic block) and offers one
method per instruction kind, auto-naming result registers.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import IRError
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Branch,
    Call,
    Cast,
    Cmp,
    GEP,
    Jump,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    Unreachable,
)
from repro.ir.module import BasicBlock, Function
from repro.ir.types import IRType, I1, I32, I64, F64
from repro.ir.values import Constant, Value


class IRBuilder:
    """Builds instructions at an insertion point."""

    def __init__(self, block: Optional[BasicBlock] = None):
        self.block = block
        #: Current source position ``(line, column)``; stamped onto
        #: every inserted instruction so diagnostics can point back at
        #: the MiniC source.
        self.loc = None

    def position_at_end(self, block: BasicBlock) -> None:
        self.block = block

    def set_loc(self, node) -> None:
        """Track the source position of ``node`` (anything with
        ``line``/``column`` attributes, e.g. an AST node or a token);
        positions of 0 (synthesized nodes) are ignored."""
        line = getattr(node, "line", 0)
        if line:
            self.loc = (line, getattr(node, "column", 0))

    @property
    def function(self) -> Function:
        if self.block is None or self.block.parent is None:
            raise IRError("builder has no insertion point")
        return self.block.parent

    def _insert(self, instr):
        if self.block is None:
            raise IRError("builder has no insertion point")
        if instr.name == "" and not instr.is_void:
            instr.name = self.function.next_value_name()
        if instr.loc is None:
            instr.loc = self.loc
        return self.block.append(instr)

    # -- constants -------------------------------------------------------------

    @staticmethod
    def const_int(value: int, type: IRType = I32) -> Constant:
        return Constant(type, int(value))

    @staticmethod
    def const_i64(value: int) -> Constant:
        return Constant(I64, int(value))

    @staticmethod
    def const_bool(value: bool) -> Constant:
        return Constant(I1, 1 if value else 0)

    @staticmethod
    def const_float(value: float, type: IRType = F64) -> Constant:
        return Constant(type, float(value))

    # -- memory ----------------------------------------------------------------

    def alloca(self, type: IRType, name: str = "") -> Alloca:
        return self._insert(Alloca(type, name))

    def load(self, ptr: Value, name: str = "") -> Load:
        return self._insert(Load(ptr, name))

    def store(self, value: Value, ptr: Value) -> Store:
        return self._insert(Store(value, ptr))

    def gep(self, ptr: Value, indices: Sequence[Value],
            name: str = "") -> GEP:
        return self._insert(GEP(ptr, indices, name))

    def struct_field_ptr(self, ptr: Value, field_index: int,
                         name: str = "") -> GEP:
        """Address field ``field_index`` of the struct ``ptr`` points to."""
        zero = self.const_int(0)
        return self.gep(ptr, [zero, self.const_int(field_index)], name)

    # -- arithmetic --------------------------------------------------------------

    def binop(self, op: str, lhs: Value, rhs: Value,
              name: str = "") -> BinOp:
        return self._insert(BinOp(op, lhs, rhs, name))

    def add(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        return self.binop("add", lhs, rhs, name)

    def sub(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        return self.binop("sub", lhs, rhs, name)

    def mul(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        return self.binop("mul", lhs, rhs, name)

    def sdiv(self, lhs: Value, rhs: Value, name: str = "") -> BinOp:
        return self.binop("sdiv", lhs, rhs, name)

    def cmp(self, predicate: str, lhs: Value, rhs: Value,
            name: str = "") -> Cmp:
        return self._insert(Cmp(predicate, lhs, rhs, name))

    def select(self, cond: Value, a: Value, b: Value,
               name: str = "") -> Select:
        return self._insert(Select(cond, a, b, name))

    def cast(self, kind: str, value: Value, to_type: IRType,
             name: str = "") -> Cast:
        return self._insert(Cast(kind, value, to_type, name))

    def bitcast(self, value: Value, to_type: IRType,
                name: str = "") -> Cast:
        return self.cast("bitcast", value, to_type, name)

    # -- control flow -------------------------------------------------------------

    def call(self, callee: Value, args: Sequence[Value] = (),
             name: str = "") -> Call:
        return self._insert(Call(callee, list(args), name))

    def branch(self, cond: Value, then_block: BasicBlock,
               else_block: BasicBlock) -> Branch:
        return self._insert(Branch(cond, then_block, else_block))

    def jump(self, target: BasicBlock) -> Jump:
        return self._insert(Jump(target))

    def ret(self, value: Optional[Value] = None) -> Ret:
        return self._insert(Ret(value))

    def unreachable(self) -> Unreachable:
        return self._insert(Unreachable())

    def phi(self, type: IRType, name: str = "") -> Phi:
        """Insert a phi at the start of the current block."""
        if self.block is None:
            raise IRError("builder has no insertion point")
        node = Phi(type, name or self.function.next_value_name("phi"))
        node.loc = self.loc
        self.block.insert(self.block.first_non_phi_index(), node)
        node.parent = self.block
        return node
