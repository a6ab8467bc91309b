"""Shared-block rewriting of S global variables (paper §7.1).

"An enclave is a shared library and it cannot use a symbol defined in
the untrusted part of the application [...] Privagic gathers all the S
variables in a shared data structure stored in unsafe memory and
replaces accordingly all the accesses to the S variables by accesses
to this structure.  When Privagic starts an enclave, it gives a
pointer to this structure to the enclave."

Our loader resolves symbols by object identity, so the default
pipeline does not *need* this rewriting (a documented substitution,
DESIGN.md §4) — but the transformation itself is part of the paper's
system, so it is implemented and tested here: it packs every uncolored
global into one ``__privagic_shared`` block and turns every direct
access into block-pointer + GEP, preserving semantics.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.analysis import location_color
from repro.core.colors import is_named
from repro.ir.instructions import GEP
from repro.ir.module import Module
from repro.ir.types import ArrayType, StructField, StructType
from repro.ir.values import Constant, GlobalVariable

SHARED_BLOCK = "__privagic_shared"


def rewrite_shared_globals(module: Module, mode: str = "relaxed",
                           ) -> Tuple[GlobalVariable, List[str]]:
    """Pack the uncolored globals of ``module`` into one shared block.

    Returns the block global and the names of the packed variables.
    Colored globals (they live inside enclaves and resolve there) and
    string-literal constants (immutable, freely replicable) stay.
    """
    packed: List[GlobalVariable] = []
    for gv in list(module.globals.values()):
        if gv.name == SHARED_BLOCK:
            continue
        color = location_color(gv.value_type, mode)
        if is_named(color):
            continue
        if isinstance(gv.value_type, ArrayType) and \
                gv.initializer is not None and \
                isinstance(gv.initializer.value, str):
            continue  # interned string constants
        packed.append(gv)

    block_type = StructType(f"{SHARED_BLOCK}.t")
    block_type.set_body([StructField(gv.name, gv.value_type)
                         for gv in packed])
    module.add_struct(block_type)
    block = GlobalVariable(SHARED_BLOCK, block_type)
    module.add_global(block)

    # Rewrite every use of a packed global into a GEP off the block.
    index_of: Dict[GlobalVariable, int] = {
        gv: i for i, gv in enumerate(packed)}
    for fn in module.defined_functions():
        for instr in list(fn.instructions()):
            for op_index, op in enumerate(list(instr.operands)):
                if not isinstance(op, GlobalVariable) or \
                        op not in index_of:
                    continue
                gep = GEP(block,
                          [Constant_from_int(0),
                           Constant_from_int(index_of[op])],
                          name=f"shared.{op.name}")
                position = instr.parent.instructions.index(instr)
                instr.parent.insert(position, gep)
                instr.set_operand(op_index, gep)

    # Move the initializers into the block layout and drop the old
    # globals from the module table (their storage is the block now).
    for gv in packed:
        del module.globals[gv.name]
    block.initializer = _packed_initializer(block_type, packed)
    return block, [gv.name for gv in packed]


def Constant_from_int(value: int) -> Constant:
    from repro.ir.types import I64
    return Constant(I64, value)


def _packed_initializer(block_type: StructType,
                        packed: List[GlobalVariable]):
    values: List[object] = []
    for gv in packed:
        size = gv.value_type.size_slots()
        if gv.initializer is None:
            values.extend([0] * size)
        elif isinstance(gv.initializer.value, (list, tuple)):
            values.extend(gv.initializer.value)
        else:
            values.append(gv.initializer.value)
            values.extend([0] * (size - 1))
    return Constant(block_type, tuple(values))
