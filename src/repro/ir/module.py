"""Module / Function / BasicBlock containers, plus function cloning.

A :class:`Function` is itself a value (a pointer to its code) so it
can be stored in memory and called indirectly (paper §6.3).  Function
*attributes* carry the paper's annotations:

* ``"extern"`` — declaration only, body unavailable (§6.3);
* ``"within"`` — available inside every enclave, like the Intel SDK
  mini-libc (§6.3);
* ``"ignore"`` — communication/declassification function (§6.4);
* ``"entry"`` — an entry point of the analysis (§6.2).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

from repro.errors import IRError
from repro.ir.instructions import (
    Branch,
    Call,
    Instruction,
    Jump,
    Phi,
)
from repro.ir.types import FunctionType, IRType, PointerType, StructType
from repro.ir.values import Argument, GlobalVariable, Value


class BasicBlock:
    """A maximal straight-line sequence of instructions ending in a
    terminator."""

    def __init__(self, name: str, parent: Optional["Function"] = None):
        self.name = name
        self.parent = parent
        self.instructions: List[Instruction] = []

    # -- structure -----------------------------------------------------------

    def append(self, instr: Instruction) -> Instruction:
        if self.is_terminated:
            raise IRError(
                f"block {self.name} already terminated; cannot append "
                f"{instr.opcode}")
        instr.parent = self
        self.instructions.append(instr)
        return instr

    def insert(self, index: int, instr: Instruction) -> Instruction:
        instr.parent = self
        self.instructions.insert(index, instr)
        return instr

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    @property
    def phis(self) -> List[Phi]:
        return [i for i in self.instructions if isinstance(i, Phi)]

    def first_non_phi_index(self) -> int:
        for i, instr in enumerate(self.instructions):
            if not isinstance(instr, Phi):
                return i
        return len(self.instructions)

    # -- CFG edges -----------------------------------------------------------

    @property
    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        if term is None:
            return []
        return list(getattr(term, "targets", []))

    @property
    def predecessors(self) -> List["BasicBlock"]:
        if self.parent is None:
            return []
        return [b for b in self.parent.blocks if self in b.successors]

    def __repr__(self) -> str:
        return f"<BasicBlock {self.name} ({len(self.instructions)} instrs)>"


class Function(Value):
    """A function definition or declaration."""

    def __init__(self, name: str, ftype: FunctionType,
                 arg_names: Sequence[str] = (),
                 attributes: Iterable[str] = ()):
        super().__init__(PointerType(ftype), name)
        self.ftype = ftype
        self.blocks: List[BasicBlock] = []
        self.attributes: Set[str] = set(attributes)
        self.parent: Optional["Module"] = None
        names = list(arg_names) or [f"arg{i}"
                                    for i in range(len(ftype.params))]
        if len(names) != len(ftype.params):
            raise IRError(
                f"function {name}: {len(names)} argument names for "
                f"{len(ftype.params)} parameters")
        self.args: List[Argument] = [
            Argument(n, t, i) for i, (n, t) in enumerate(zip(names,
                                                             ftype.params))]
        for a in self.args:
            a.parent = self
        #: For specialized versions (paper §6.2): the original function
        #: name and the tuple of argument colors this version assumes.
        self.specialization_of: Optional[str] = None
        self.arg_colors: Optional[tuple] = None
        self._name_counter = 0

    # -- attributes (paper annotations) ---------------------------------------

    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    @property
    def is_extern(self) -> bool:
        return "extern" in self.attributes or self.is_declaration

    @property
    def is_within(self) -> bool:
        return "within" in self.attributes

    @property
    def is_ignore(self) -> bool:
        return "ignore" in self.attributes

    @property
    def is_entry(self) -> bool:
        return "entry" in self.attributes

    # -- structure -----------------------------------------------------------

    @property
    def entry_block(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"function {self.name} has no body")
        return self.blocks[0]

    def add_block(self, name: str = "") -> BasicBlock:
        if not name:
            name = f"bb{len(self.blocks)}"
        name = self._unique_block_name(name)
        block = BasicBlock(name, self)
        self.blocks.append(block)
        return block

    def _unique_block_name(self, base: str) -> str:
        existing = {b.name for b in self.blocks}
        if base not in existing:
            return base
        i = 1
        while f"{base}.{i}" in existing:
            i += 1
        return f"{base}.{i}"

    def next_value_name(self, hint: str = "") -> str:
        self._name_counter += 1
        return f"{hint or 't'}{self._name_counter}"

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from list(block.instructions)

    def short(self) -> str:
        return f"@{self.name}"

    def __repr__(self) -> str:
        kind = "declare" if self.is_declaration else "define"
        return f"<Function {kind} @{self.name}>"


class Module:
    """A translation unit: globals, functions and named struct types."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.globals: Dict[str, GlobalVariable] = {}
        self.functions: Dict[str, Function] = {}
        self.structs: Dict[str, StructType] = {}

    # -- declaration ----------------------------------------------------------

    def add_global(self, gv: GlobalVariable) -> GlobalVariable:
        if gv.name in self.globals:
            raise IRError(f"duplicate global @{gv.name}")
        self.globals[gv.name] = gv
        return gv

    def add_function(self, fn: Function) -> Function:
        if fn.name in self.functions:
            raise IRError(f"duplicate function @{fn.name}")
        fn.parent = self
        self.functions[fn.name] = fn
        return fn

    def add_struct(self, st: StructType) -> StructType:
        existing = self.structs.get(st.name)
        if existing is not None and existing is not st:
            raise IRError(f"duplicate struct %{st.name}")
        self.structs[st.name] = st
        return st

    def get_function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"module {self.name} has no function @{name}")

    def get_global(self, name: str) -> GlobalVariable:
        try:
            return self.globals[name]
        except KeyError:
            raise IRError(f"module {self.name} has no global @{name}")

    # -- queries ---------------------------------------------------------------

    def defined_functions(self) -> List[Function]:
        return [f for f in self.functions.values() if not f.is_declaration]

    def entry_points(self) -> List[Function]:
        """Functions the analysis starts from: explicitly annotated
        ``entry`` functions if any exist, otherwise every defined
        function visible to other projects (paper §6.2 default)."""
        explicit = [f for f in self.functions.values() if f.is_entry]
        if explicit:
            return explicit
        return self.defined_functions()

    def instruction_count(self) -> int:
        return sum(len(b.instructions)
                   for f in self.defined_functions() for b in f.blocks)

    def __repr__(self) -> str:
        return (f"<Module {self.name}: {len(self.functions)} functions, "
                f"{len(self.globals)} globals>")


def clone_function(fn: Function, new_name: str,
                   arg_types: Optional[Sequence[IRType]] = None,
                   return_maps: bool = False):
    """Deep-copy ``fn`` into a new function named ``new_name``.

    ``arg_types`` optionally overrides the parameter types — the
    specialization step (paper §6.2) uses this to stamp the caller's
    argument colors onto the copy.  The clone is *not* added to any
    module.  With ``return_maps=True`` returns
    ``(clone, value_map, block_map)`` so callers (the partitioner) can
    carry per-instruction analysis facts over to the copy.
    """
    params = list(arg_types) if arg_types is not None else list(
        fn.ftype.params)
    new_ftype = FunctionType(fn.ftype.ret, params, fn.ftype.vararg)
    clone = Function(new_name, new_ftype, [a.name for a in fn.args],
                     fn.attributes)
    value_map: Dict[Value, Value] = {}
    for old_arg, new_arg in zip(fn.args, clone.args):
        value_map[old_arg] = new_arg

    block_map: Dict[BasicBlock, BasicBlock] = {}
    for block in fn.blocks:
        block_map[block] = clone.add_block(block.name)

    def mapped(v: Value) -> Value:
        return value_map.get(v, v)

    # First pass: copy instructions, leaving phi incomings and branch
    # targets for fixup.
    pending_phis: List[tuple] = []
    for block in fn.blocks:
        new_block = block_map[block]
        for instr in block.instructions:
            new_instr = _clone_instruction(instr, mapped, block_map,
                                           pending_phis)
            new_instr.loc = instr.loc
            value_map[instr] = new_instr
            new_block.instructions.append(new_instr)
            new_instr.parent = new_block

    # Second pass: fill phi incomings now that every value is mapped.
    for new_phi, old_phi in pending_phis:
        for value, block in old_phi.incomings:
            new_phi.add_incoming(mapped(value), block_map[block])

    clone._name_counter = fn._name_counter
    if return_maps:
        return clone, value_map, block_map
    return clone


def _clone_instruction(instr: Instruction, mapped, block_map,
                       pending_phis) -> Instruction:
    """Clone one instruction, mapping operands and branch targets."""
    from repro.ir.instructions import (
        Alloca, BinOp, Cast, Cmp, GEP, Load, Ret, Select, Store,
        Unreachable,
    )

    if isinstance(instr, Alloca):
        new = Alloca(instr.allocated_type, instr.name)
    elif isinstance(instr, Load):
        new = Load(mapped(instr.ptr), instr.name)
    elif isinstance(instr, Store):
        new = Store(mapped(instr.value), mapped(instr.ptr))
    elif isinstance(instr, BinOp):
        new = BinOp(instr.op, mapped(instr.lhs), mapped(instr.rhs),
                    instr.name)
    elif isinstance(instr, Cmp):
        new = Cmp(instr.predicate, mapped(instr.lhs), mapped(instr.rhs),
                  instr.name)
    elif isinstance(instr, GEP):
        new = GEP(mapped(instr.ptr), [mapped(i) for i in instr.indices],
                  instr.name)
    elif isinstance(instr, Call):
        new = Call(mapped(instr.callee), [mapped(a) for a in instr.args],
                   instr.name)
    elif isinstance(instr, Branch):
        new = Branch(mapped(instr.cond), block_map[instr.then_block],
                     block_map[instr.else_block])
    elif isinstance(instr, Jump):
        new = Jump(block_map[instr.target])
    elif isinstance(instr, Ret):
        new = Ret(mapped(instr.value) if instr.value is not None else None)
    elif isinstance(instr, Phi):
        new = Phi(instr.type, instr.name)
        pending_phis.append((new, instr))
    elif isinstance(instr, Cast):
        new = Cast(instr.kind, mapped(instr.value), instr.to_type,
                   instr.name)
    elif isinstance(instr, Select):
        new = Select(mapped(instr.cond), mapped(instr.true_value),
                     mapped(instr.false_value), instr.name)
    elif isinstance(instr, Unreachable):
        new = Unreachable()
    else:
        raise IRError(f"cannot clone instruction {instr.opcode}")
    return new
