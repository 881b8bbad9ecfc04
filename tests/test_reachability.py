"""Every module under ``src/repro`` is reached from an entry point.

A module that no CLI command, daemon, benchmark or example imports is
dead weight, so this test walks the static import graph and fails naming
every module it cannot reach.

- Roots: ``repro.cli``, ``repro.server.app``, ``repro.server.__main__``
  and every ``.py`` file under ``benchmarks/`` and ``examples/``.
- Edges: every ``import`` and ``from ... import`` statement, including
  those inside functions.  Importing a module imports its parent
  packages.
- Re-exports: in a package ``__init__``, a top-level ``from X import
  name`` whose ``name`` is in that ``__all__`` adds no edge; a caller's
  ``from pkg import name`` resolves to the submodule that defines
  ``name``.  A package's own re-exports therefore keep nothing alive.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ROOT_MODULES = ("repro.cli", "repro.server.app", "repro.server.__main__")
ROOT_DIRS = ("benchmarks", "examples")


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


MODULES = {_module_name(path): path
           for path in sorted((SRC / "repro").rglob("*.py"))}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_package(module: str) -> bool:
    return MODULES.get(module, Path()).name == "__init__.py"


def _absolute(node: ast.ImportFrom, module: str | None) -> str | None:
    """The absolute module a ``from`` import names (None if unresolvable)."""
    if not node.level:
        return node.module
    if module is None:  # a relative import in a benchmark or example
        return None
    package = module if _is_package(module) else module.rpartition(".")[0]
    for _ in range(node.level - 1):
        package = package.rpartition(".")[0]
    return f"{package}.{node.module}" if node.module else package


def _all_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _reexports(package: str) -> dict[str, tuple[str, str]]:
    """``{exported name: (source module, source name)}`` of a package."""
    tree = _parse(MODULES[package])
    exported = _all_names(tree)
    table: dict[str, tuple[str, str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            source = _absolute(node, package)
            for alias in node.names:
                name = alias.asname or alias.name
                if source is not None and name in exported:
                    table[name] = (source, alias.name)
    return table


REEXPORTS = {module: _reexports(module)
             for module in MODULES if _is_package(module)}


def _with_parents(module: str) -> list[str]:
    parts = module.split(".")
    return [".".join(parts[:i]) for i in range(1, len(parts) + 1)]


def _resolve(module: str, name: str) -> str:
    """The module that defines ``name`` as imported from ``module``."""
    while True:
        if f"{module}.{name}" in MODULES:
            return f"{module}.{name}"
        source = REEXPORTS.get(module, {}).get(name)
        if source is None:
            return module
        module, name = source


def _edges(path: Path, module: str | None) -> set[str]:
    """Every repro module the file at ``path`` imports."""
    tree = _parse(path)
    top_level = {id(node) for node in tree.body}
    exported = (_all_names(tree)
                if module is not None and _is_package(module) else set())
    targets: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                targets.update(_with_parents(alias.name))
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(node, module)
            if source is None:
                continue
            for alias in node.names:
                if (id(node) in top_level
                        and (alias.asname or alias.name) in exported):
                    continue  # the package's own re-export: no edge
                targets.update(_with_parents(source))
                if alias.name != "*":
                    targets.update(
                        _with_parents(_resolve(source, alias.name)))
    return {target for target in targets if target in MODULES}


def _reached() -> set[str]:
    frontier: list[str] = []
    for directory in ROOT_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            frontier.extend(_edges(path, None))
    frontier.extend(ROOT_MODULES)
    reached: set[str] = set()
    while frontier:
        module = frontier.pop()
        if module in reached:
            continue
        reached.add(module)
        frontier.extend(_edges(MODULES[module], module) - reached)
    return reached


def test_every_module_is_reached_from_an_entry_point():
    unreached = sorted(set(MODULES) - _reached())
    assert not unreached, (
        "modules no entry point imports (give each a caller or delete "
        f"it): {', '.join(unreached)}")
