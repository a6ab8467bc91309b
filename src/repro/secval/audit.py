"""Post-partition secure-value audits, frontend-neutral.

The paper's central property — secret-typed code is confined to its
enclave — is a fact about the *partitioned program*, not about any
source language.  These helpers state it once; tests apply it to
programs lowered from MiniC, MiniPy, or a cross-language mix, and
:func:`repro.core.placement.verify_placement` applies it to every
placed partition.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.ir.instructions import Load, Store
from repro.ir.values import GlobalVariable
from repro.secval.model import is_named


def _census(program) -> Iterator[Tuple[str, str, str, str]]:
    """``(module_color, "Load"|"Store", global_name, global_color)``
    for every load/store of a named-colored global."""
    from repro.core.analysis import location_color

    for color, module in sorted(program.modules.items()):
        for fn in module.defined_functions():
            for instr in fn.instructions():
                if not isinstance(instr, (Load, Store)) or \
                        not isinstance(instr.ptr, GlobalVariable):
                    continue
                home = location_color(instr.ptr.value_type, program.mode)
                if is_named(home):
                    yield color, type(instr).__name__, instr.ptr.name, home


def colored_accesses(program) -> List[Tuple[str, str, str]]:
    """Census of every load/store of a named-colored global across the
    partition: ``(module_color, "Load"|"Store", global_name)`` rows,
    sorted.  Byte-stable across runs, so two partitions of equivalent
    programs can be compared directly."""
    return sorted(row[:3] for row in _census(program))


def confinement_violations(program) -> List[Tuple[str, str, str]]:
    """Colored-global accesses that escaped their enclave: every
    census row whose hosting module color differs from the global's
    declared color.  An empty list is the paper's confinement
    guarantee; any row is a partitioner bug."""
    return sorted(row[:3] for row in _census(program) if row[0] != row[3])
