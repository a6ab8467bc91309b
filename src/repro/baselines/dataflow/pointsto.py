"""Andersen-style inclusion-based points-to analysis [4].

Flow- and context-insensitive: one points-to set per value for the
whole program.  Abstract locations are global variables, allocas and
heap-allocation sites.  This is the analysis family behind the
Java partitioning tools of Table 1 (Montsalvat, Civet); on C it is
sound for the Figure 3 pattern but coarse — the precision/soundness
trade-off the Table 1 bench quantifies.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from repro.ir.instructions import (
    Alloca,
    Call,
    Cast,
    GEP,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from repro.ir.module import Function, Module
from repro.ir.values import GlobalVariable, Value

#: Heap-allocating externals treated as allocation sites.
_ALLOCATORS = frozenset({"malloc", "__privagic_alloc"})


class Location:
    """An abstract memory location."""

    __slots__ = ("kind", "anchor", "label")

    def __init__(self, kind: str, anchor: object, label: str):
        self.kind = kind      # "global" | "alloca" | "heap"
        self.anchor = anchor  # the defining IR object
        self.label = label

    def __repr__(self) -> str:
        return f"<Loc {self.label}>"


class AndersenPointsTo:
    """Computes ``points_to(value) -> set of Locations``."""

    def __init__(self, module: Module):
        self.module = module
        self.locations: Dict[object, Location] = {}
        self.pts: Dict[Value, Set[Location]] = {}
        #: contents of a location: the points-to set of stored pointers
        self.heap_pts: Dict[Location, Set[Location]] = {}
        self._compute()

    # -- locations ---------------------------------------------------------------

    def location_of(self, anchor: object) -> Location:
        if anchor not in self.locations:
            if isinstance(anchor, GlobalVariable):
                loc = Location("global", anchor, f"@{anchor.name}")
            elif isinstance(anchor, Alloca):
                loc = Location("alloca", anchor,
                               f"%{anchor.name or 'alloca'}")
            else:
                loc = Location("heap", anchor, "heap")
            self.locations[anchor] = loc
        return self.locations[anchor]

    def points_to(self, value: Value) -> Set[Location]:
        return self.pts.get(value, set())

    # -- solver ---------------------------------------------------------------------

    def _compute(self) -> None:
        copies: Dict[Value, Set[Value]] = {}   # dst <- src edges
        loads: List[Load] = []
        stores: List[Store] = []
        calls: List[Call] = []

        def copy_edge(dst: Value, src: Value) -> None:
            copies.setdefault(dst, set()).add(src)

        for fn in self.module.defined_functions():
            for instr in fn.instructions():
                if isinstance(instr, Alloca):
                    self.pts.setdefault(instr, set()).add(
                        self.location_of(instr))
                elif isinstance(instr, (Cast, GEP)):
                    copy_edge(instr, instr.operands[0]
                              if isinstance(instr, Cast) else instr.ptr)
                elif isinstance(instr, Phi):
                    for value, _ in instr.incomings:
                        copy_edge(instr, value)
                elif isinstance(instr, Select):
                    copy_edge(instr, instr.true_value)
                    copy_edge(instr, instr.false_value)
                elif isinstance(instr, Load):
                    loads.append(instr)
                elif isinstance(instr, Store):
                    stores.append(instr)
                elif isinstance(instr, Call):
                    calls.append(instr)
                    callee = instr.callee
                    if isinstance(callee, Function):
                        if callee.name in _ALLOCATORS:
                            self.pts.setdefault(instr, set()).add(
                                self.location_of(instr))
                        elif not callee.is_declaration:
                            for formal, actual in zip(callee.args,
                                                      instr.args):
                                copy_edge(formal, actual)
                            for ret in self._returns(callee):
                                if ret.value is not None:
                                    copy_edge(instr, ret.value)

        # Seed: globals used as values point to their storage.
        for gv in self.module.globals.values():
            self.pts.setdefault(gv, set()).add(self.location_of(gv))

        changed = True
        while changed:
            changed = False
            for dst, srcs in copies.items():
                target = self.pts.setdefault(dst, set())
                for src in srcs:
                    new = self.pts.get(src, set()) - target
                    if new:
                        target |= new
                        changed = True
            for store in stores:
                value_pts = self.pts.get(store.value, set())
                if not value_pts:
                    continue
                for loc in self.pts.get(store.ptr, set()):
                    cell = self.heap_pts.setdefault(loc, set())
                    new = value_pts - cell
                    if new:
                        cell |= new
                        changed = True
            for load in loads:
                target = self.pts.setdefault(load, set())
                for loc in self.pts.get(load.ptr, set()):
                    new = self.heap_pts.get(loc, set()) - target
                    if new:
                        target |= new
                        changed = True

    @staticmethod
    def _returns(fn: Function) -> Iterable[Ret]:
        for instr in fn.instructions():
            if isinstance(instr, Ret):
                yield instr
