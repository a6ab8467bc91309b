"""Lean gate: fail on unused imports and on definitions that nothing
references.

    python scripts/lean.py

Stdlib only (``ast``).  Two scans over the files under :data:`ROOTS`:

* *Unused imports.*  An imported name counts as used when the module
  reads it anywhere (annotations in string form included) or lists it
  in ``__all__``.  ``from __future__`` imports are exempt, and an
  ``__init__.py`` may import names solely to re-export them through
  ``__all__``.
* *Unreferenced definitions.*  A function or method counts as
  referenced when its name is read as a ``Name``, an ``Attribute`` or
  an import alias anywhere under :data:`READERS`.  Exempt are the
  names Python or pytest call by convention (:func:`_by_convention`)
  and the entries of :data:`ALLOWED`, each with its reason; an entry
  that no longer matches an unreferenced definition is a finding too.

Exits 1 and prints one ``path:line: ...`` per finding.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterator, List, Set, Tuple

#: The directories scanned.  ``perfbench/`` is left out: it belongs
#: to the benchmark harness, which changes only with the benchmark.
ROOTS = ("src/repro", "tests", "benchmarks", "scripts", "examples")
#: Where a definition may be referenced from: everything scanned, plus
#: ``perfbench/``, which is read but not scanned.
READERS = ("src", "tests", "benchmarks", "perfbench", "scripts", "examples")

#: Definitions that no Python source references, keyed
#: ``path:qualified name``, each with the reason it stays.
ALLOWED: Dict[str, str] = {}


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


def unused_imports(tree: ast.Module) -> List[Tuple[int, str]]:
    used = _used(tree)
    return sorted({(line, name) for name, line in _imported(tree)
                   if name not in used})


def _read_names(tree: ast.Module) -> Set[str]:
    """Every name the module reads as a Name, an Attribute or an
    import alias."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def _definitions(node: ast.AST, prefix: str = ""
                 ) -> Iterator[Tuple[str, ast.AST]]:
    """``(qualified name, node)`` of every function and method."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from _definitions(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _definitions(child, f"{prefix}{child.name}.")
        else:
            yield from _definitions(child, prefix)


def _by_convention(path: str, node) -> bool:
    """Whether Python or pytest calls ``node`` without naming it."""
    name = node.name
    if name.startswith("__") and name.endswith("__"):
        return True  # the data model (``__init__``, ``__repr__``, ...)
    if os.path.basename(path).startswith(("test_", "bench_")) and \
            name.startswith(("test_", "bench_")):
        return True  # collected (pyproject.toml python_functions)
    # A fixture is requested by test parameter name.
    return any("fixture" in ast.unparse(decorator)
               for decorator in node.decorator_list)


def unreferenced_definitions(trees: Dict[str, ast.Module],
                             read: Set[str]) -> List[Tuple[str, int, str]]:
    """``(path, line, qualified name)`` of every definition nothing
    references, allowlisted ones included."""
    return [(path, node.lineno, qualname)
            for path, tree in trees.items()
            for qualname, node in _definitions(tree)
            if node.name not in read and not _by_convention(path, node)]


def _sources(roots) -> Iterator[str]:
    for root in roots:
        for directory, _dirs, files in sorted(os.walk(root)):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(directory, name)


def _parse(path: str) -> ast.Module:
    with open(path) as handle:
        return ast.parse(handle.read(), path)


def main() -> int:
    trees = {path: _parse(path) for path in _sources(ROOTS)}
    imports = [(path, line, name)
               for path, tree in trees.items()
               for line, name in unused_imports(tree)]
    for path, line, name in imports:
        print(f"{path}:{line}: unused import {name}")

    read: Set[str] = set()
    for path in _sources(READERS):
        read |= _read_names(trees.get(path) or _parse(path))
    unreferenced = unreferenced_definitions(trees, read)
    definitions = [(path, line, qualname)
                   for path, line, qualname in unreferenced
                   if f"{path}:{qualname}" not in ALLOWED]
    for path, line, qualname in definitions:
        print(f"{path}:{line}: {qualname} is referenced nowhere")
    unmatched = sorted(set(ALLOWED) - {
        f"{path}:{qualname}" for path, _line, qualname in unreferenced})
    for key in unmatched:
        print(f"{key}: allowlisted but referenced or gone")

    print(f"lean: {len(imports)} unused import(s), {len(definitions)} "
          f"unreferenced definition(s), {len(unmatched)} stale "
          f"allowlist entr(ies)")
    return 1 if imports or definitions or unmatched else 0


if __name__ == "__main__":
    raise SystemExit(main())
