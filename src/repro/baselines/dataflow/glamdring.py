"""A Glamdring-style end-to-end partitioner [23] on top of the
data-flow analyses.

Glamdring's pipeline: the developer annotates sensitive function
arguments/variables; an abstract-interpretation engine (Frama-C's Eva)
computes which memory and which functions touch sensitive data; the
tool then splits at *function* granularity — sensitive functions and
globals move into the enclave, with ecall stubs at the boundary.

This module reproduces that pipeline over our IR so Table 1's
comparison covers complete tools, not just analyses: it yields a
:class:`GlamdringPartition` with the enclave function/global sets, a
TCB estimate, and an executable placement (globals colored into the
enclave region) whose soundness the Figure 3 bench probes.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from repro.baselines.dataflow.taint import (
    AbstractInterpTaint,
    DataflowPartition,
)
from repro.ir.instructions import Call
from repro.ir.module import Function, Module


class GlamdringPartition:
    """Function-granularity split, the way Glamdring deploys it."""

    def __init__(self, module: Module, analysis: DataflowPartition):
        self.module = module
        self.analysis = analysis
        #: functions moved into the enclave (touch sensitive data,
        #: plus transitive callees — Glamdring pulls in what enclave
        #: code calls so it does not ocall back out for helpers)
        self.enclave_functions: Set[str] = set(
            analysis.protected_functions)
        self._close_over_callees()
        self.enclave_globals: Set[str] = set(
            analysis.protected_globals)
        #: boundary functions: untrusted code calling into the enclave
        #: (each call site becomes an ecall in the real tool)
        self.ecall_targets: Set[str] = self._boundary()

    def _close_over_callees(self) -> None:
        changed = True
        while changed:
            changed = False
            for name in list(self.enclave_functions):
                fn = self.module.functions.get(name)
                if fn is None or fn.is_declaration:
                    continue
                for instr in fn.instructions():
                    if isinstance(instr, Call) and isinstance(
                            instr.callee, Function):
                        callee = instr.callee
                        if not callee.is_declaration and \
                                callee.name not in self.enclave_functions:
                            self.enclave_functions.add(callee.name)
                            changed = True

    def _boundary(self) -> Set[str]:
        targets: Set[str] = set()
        for fn in self.module.defined_functions():
            if fn.name in self.enclave_functions:
                continue
            for instr in fn.instructions():
                if isinstance(instr, Call) and isinstance(
                        instr.callee, Function) and \
                        instr.callee.name in self.enclave_functions:
                    targets.add(instr.callee.name)
        # Entry points that are themselves enclave functions are
        # ecalls too.
        for fn in self.module.entry_points():
            if fn.name in self.enclave_functions:
                targets.add(fn.name)
        return targets

    # -- metrics ---------------------------------------------------------------

    def tcb_instructions(self) -> int:
        total = 0
        for name in self.enclave_functions:
            fn = self.module.functions.get(name)
            if fn is not None and not fn.is_declaration:
                total += sum(len(b.instructions) for b in fn.blocks)
        return total

    def apply_placement(self, enclave: str = "dfenclave") -> List[str]:
        """Color the protected globals into the enclave region so the
        interpreter places them there (the runtime attack surface)."""
        placed = []
        for name in sorted(self.enclave_globals):
            gv = self.module.get_global(name)
            gv.value_type = gv.value_type.with_color(enclave)
            placed.append(name)
        return placed

    def __repr__(self) -> str:
        return (f"<GlamdringPartition enclave_fns="
                f"{sorted(self.enclave_functions)} globals="
                f"{sorted(self.enclave_globals)}>")


def glamdring_partition(module: Module,
                        sensitive_params: Sequence[Tuple[str, str]] = (),
                        sensitive_globals: Sequence[str] = ()
                        ) -> GlamdringPartition:
    """Run the full Glamdring-style pipeline on ``module``."""
    analysis = AbstractInterpTaint(module, sensitive_params,
                                   sensitive_globals)
    return GlamdringPartition(module, analysis.partition)
