"""Dead-code elimination.

Removes instructions with no users and no side effects, iterating to a
fixed point.  The partitioner relies on this pass to clean up F
instructions uselessly replicated into chunks (paper §7.3.1) and the
residue of the global/struct rewritings.
"""

from __future__ import annotations

from repro.ir.instructions import Phi
from repro.ir.module import Function, Module


def dead_code_elimination(target) -> int:
    """Remove dead instructions; returns how many were erased."""
    if isinstance(target, Module):
        return sum(dead_code_elimination(f)
                   for f in target.defined_functions())
    return _dce_function(target)


def _dce_function(fn: Function) -> int:
    erased = 0
    changed = True
    while changed:
        changed = False
        # Sweep each block bottom-up so a dead chain (a feeds b feeds
        # c, only c initially dead) dies in one iteration; the outer
        # fixpoint loop still catches cross-block chains and phi
        # cycles.
        for block in fn.blocks:
            for instr in reversed(list(block.instructions)):
                if instr.has_side_effects:
                    continue
                # A phi may be its own (indirect) only user in a loop;
                # treat self-uses as no use.
                real_users = {u for u in instr.users if u is not instr}
                if isinstance(instr, Phi) and _only_phi_cycle(instr):
                    real_users = set()
                if not real_users:
                    instr.erase()
                    erased += 1
                    changed = True
    return erased


def _only_phi_cycle(root: Phi) -> bool:
    """True when ``root`` is only used by phis that form a closed cycle
    with no escape to a real instruction."""
    seen = set()
    work = [root]
    while work:
        node = work.pop()
        if node in seen:
            continue
        seen.add(node)
        for user in node.users:
            if user is node:
                continue
            if not isinstance(user, Phi):
                return False
            work.append(user)
    return True
