"""Multi-color structure rewriting (paper §7.2).

A structure whose fields carry two or more colors (Figure 1's
``account`` with a blue ``name`` and a red ``balance``) cannot stay
packed in memory: an enclave is contiguous in the virtual address
space.  Privagic introduces one level of indirection:

* the structure *shell* is allocated in unsafe memory, with each
  colored field replaced by an (uncolored) pointer slot;
* the allocation site additionally allocates each colored field inside
  its enclave and stores the field pointers into the shell;
* every access to a colored field becomes shell-GEP → load pointer →
  use, i.e. ``s->f`` turns into ``s->ind->f`` (§7.2).

Because the enclave must then load a pointer from unsafe memory, this
only types in **relaxed** mode; in hardened mode a program that
allocates a multi-color structure is rejected here with the §8
restriction.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import PartitionError
from repro.core.colors import HARDENED, is_named
from repro.ir.instructions import Alloca, Call, Cast, GEP, Store
from repro.ir.module import Function, Module
from repro.ir.types import (
    ArrayType,
    FunctionType,
    IRType,
    PointerType,
    StructField,
    StructType,
    I8,
    I64,
)
from repro.ir.values import Constant


def _field_color(field_type: IRType) -> str:
    t = field_type
    while isinstance(t, (PointerType, ArrayType)):
        t = t.pointee if isinstance(t, PointerType) else t.element
    return t.color


def multicolor_structs(module: Module) -> List[StructType]:
    return [st for st in module.structs.values() if st.is_multicolor]


def rewrite_multicolor_structs(module: Module, mode: str) -> int:
    """Rewrite every multi-color struct; returns how many were
    rewritten.  Raises :class:`PartitionError` in hardened mode when a
    multi-color struct is actually allocated (§8)."""
    structs = multicolor_structs(module)
    if not structs:
        return 0
    rewritten = 0
    for struct in structs:
        if _struct_is_allocated(module, struct):
            if mode == HARDENED:
                raise PartitionError(
                    f"struct {struct.name} mixes colors "
                    f"{list(struct.colors_used())}; multi-color "
                    f"structures require relaxed mode (paper §8)")
            _rewrite_struct(module, struct)
            rewritten += 1
    return rewritten


def _struct_is_allocated(module: Module, struct: StructType) -> bool:
    for fn in module.defined_functions():
        for instr in fn.instructions():
            if isinstance(instr, Alloca) and \
                    instr.allocated_type == struct:
                return True
            if isinstance(instr, Cast) and _casts_to(instr, struct):
                return True
    for gv in module.globals.values():
        t = gv.value_type
        while isinstance(t, ArrayType):
            t = t.element
        if t == struct:
            raise PartitionError(
                f"multi-color struct {struct.name} as a global "
                f"variable is not supported; allocate it on the heap")
    return False


def _casts_to(cast: Cast, struct: StructType) -> bool:
    t = cast.to_type
    return isinstance(t, PointerType) and t.pointee == struct


def _rewrite_struct(module: Module, struct: StructType) -> None:
    colored: Dict[int, Tuple[IRType, str]] = {}
    for i, field in enumerate(struct.fields):
        color = _field_color(field.type)
        if color is not None and is_named(color):
            colored[i] = (field.type, color)
    if not colored:
        return

    old_size = struct.size_slots()

    # Collect rewrite targets before mutating the type.
    field_geps: List[GEP] = []
    allocation_casts: List[Cast] = []
    allocas: List[Alloca] = []
    for fn in module.defined_functions():
        for instr in fn.instructions():
            if isinstance(instr, GEP):
                sf = instr.struct_field()
                if sf is not None and sf[0] is struct and \
                        sf[1] in colored:
                    field_geps.append(instr)
            elif isinstance(instr, Cast) and _casts_to(instr, struct):
                allocation_casts.append(instr)
            elif isinstance(instr, Alloca) and \
                    instr.allocated_type == struct:
                allocas.append(instr)

    # Mutate the struct in place: colored fields become opaque pointer
    # slots living in the (unsafe) shell.
    shell_fields = []
    for i, field in enumerate(struct.fields):
        if i in colored:
            shell_fields.append(StructField(field.name, PointerType(I8)))
        else:
            shell_fields.append(field)
    struct.set_body(shell_fields)

    alloc_fn = _get_privagic_alloc(module)

    # Fix allocation sites: resize the malloc and allocate the colored
    # fields in their enclaves.
    for cast in allocation_casts:
        source = cast.value
        if isinstance(source, Call) and _callee_name(source) == "malloc":
            size_arg = source.args[0]
            if isinstance(size_arg, Constant) and \
                    int(size_arg.value) == old_size:
                source.set_operand(1, Constant(I64, struct.size_slots()))
        _insert_field_allocations(cast, struct, colored, alloc_fn)
    for alloca in allocas:
        _insert_field_allocations(alloca, struct, colored, alloc_fn)

    # Rewrite field accesses: s->f becomes s->ind->f.
    for gep in field_geps:
        _rewrite_field_access(gep, colored)


def _callee_name(call: Call) -> str:
    callee = call.callee
    return getattr(callee, "name", "")


def _get_privagic_alloc(module: Module) -> Function:
    fn = module.functions.get("__privagic_alloc")
    if fn is None:
        fn = Function("__privagic_alloc",
                      FunctionType(PointerType(I8),
                                   [PointerType(I8), I64]),
                      attributes=["extern", "within"])
        module.add_function(fn)
    return fn


def _insert_field_allocations(anchor, struct: StructType, colored,
                              alloc_fn: Function) -> None:
    """After ``anchor`` (the shell pointer), allocate each colored
    field in its enclave and store the pointer into the shell slot."""
    block = anchor.parent
    index = block.instructions.index(anchor) + 1
    zero = Constant(I64, 0)
    for i in sorted(colored):
        field_type, color = colored[i]
        size = Constant(I64, field_type.size_slots())
        name_const = Constant(ArrayType(I8, len(color) + 1), color)
        alloc = Call(alloc_fn, [name_const, size],
                     name=f"{struct.name}.f{i}.{color}")
        block.insert(index, alloc)
        index += 1
        slot = GEP(anchor, [zero, Constant(I64, i)],
                   name=f"{struct.name}.slot{i}")
        block.insert(index, slot)
        index += 1
        block.insert(index, Store(alloc, slot))
        index += 1


def _rewrite_field_access(gep: GEP, colored) -> None:
    """Replace a GEP to a colored field by shell-GEP → load → cast."""
    from repro.ir.instructions import Load

    struct, field_i = gep.struct_field()
    field_type, color = colored[field_i]
    block = gep.parent
    # The GEP now addresses the i8* slot; retype its result.
    gep.type = PointerType(PointerType(I8))
    index = block.instructions.index(gep) + 1
    load = Load(gep, name=f"{struct.name}.ind{field_i}")
    # Users of the original GEP must use the casted field pointer; grab
    # them before wiring the load (which itself uses the GEP).
    users = [u for u in gep.users if u is not load]
    block.insert(index, load)
    cast = Cast("bitcast", load, PointerType(field_type),
                name=f"{struct.name}.fp{field_i}")
    block.insert(index + 1, cast)
    for user in users:
        user._replace_operand(gep, cast)
