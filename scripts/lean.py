"""Lean gate: fail on any unused import in the repo's Python code.

    python scripts/lean.py

Stdlib only (``ast``).  An imported name counts as used when the
module reads it anywhere (annotations in string form included) or
lists it in ``__all__``.  ``from __future__`` imports are exempt, and
an ``__init__.py`` may import names solely to re-export them through
``__all__``.  Exits 1 and prints one ``path:line: name`` per finding.
"""

from __future__ import annotations

import ast
import os
from typing import Iterator, List, Set, Tuple

#: The directories scanned.  ``perfbench/`` is left out: it belongs
#: to the benchmark harness, which changes only with the benchmark.
ROOTS = ("src/repro", "tests", "benchmarks", "scripts", "examples")


def _imported(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """``(bound name, line)`` for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0],
                       node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _string_names(text: str) -> Set[str]:
    """Names read by a string annotation such as ``"Optional[X]"``."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)}


def _used(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and \
                isinstance(node.value, str):
            used |= _string_names(node.value)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used |= {elt.value for elt in getattr(node.value, "elts", ())
                     if isinstance(elt, ast.Constant)}
    return used


def unused_imports(path: str) -> List[Tuple[int, str]]:
    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    used = _used(tree)
    return sorted({(line, name) for name, line in _imported(tree)
                   if name not in used})


def _sources() -> Iterator[str]:
    for root in ROOTS:
        for directory, _dirs, files in sorted(os.walk(root)):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(directory, name)


def main() -> int:
    findings = [(path, line, name)
                for path in _sources()
                for line, name in unused_imports(path)]
    for path, line, name in findings:
        print(f"{path}:{line}: unused import {name}")
    files = len({path for path, _line, _name in findings})
    print(f"lean: {len(findings)} unused import(s) in {files} file(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
