"""Every module under ``src/repro`` is reached from an entry point, and
every registered codec and model is named by one.

A module that no CLI command, daemon, benchmark or example imports is
dead weight, so this test walks the static import graph and fails naming
every module it cannot reach.

A registered plugin is imported by its registry, so the import graph
always reaches it.  It counts as reached only if a user can select it by
name: a ``repro-eval`` choice, the API's accepted names
(``COMPRESS_METHODS``, ``GRID_METHODS``, ``GRID_MODELS``), or a string in
a benchmark or an example.

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

import argparse
import ast
from pathlib import Path

from repro import registry

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


def _named() -> set[str]:
    """Every name a CLI choice, the API or a benchmark or example gives."""
    from repro.api.requests import COMPRESS_METHODS
    from repro.cli import build_parser
    from repro.compression.registry import GRID_METHODS
    from repro.forecasting.registry import GRID_MODELS

    names = {*COMPRESS_METHODS, *GRID_METHODS, *GRID_MODELS}
    parsers = [build_parser()]
    while parsers:
        for action in parsers.pop()._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            elif action.choices:
                names.update(action.choices)
    for directory in ROOT_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            names.update(node.value for node in ast.walk(_parse(path))
                         if isinstance(node, ast.Constant)
                         and isinstance(node.value, str))
    return names


def _unnamed() -> list[str]:
    plugins = {*registry.compressor_names(), *registry.model_names()}
    return sorted(plugins - _named())


def test_every_registered_plugin_is_named_by_a_user_surface():
    unnamed = _unnamed()
    assert not unnamed, (
        "registered codecs or models no user can select (name each in a "
        f"CLI choice, the API, a benchmark or an example, or delete it): "
        f"{', '.join(unnamed)}")


def test_a_codec_registered_with_no_caller_is_flagged(monkeypatch):
    """Chimp was registered as ``CHIMP`` while nothing could select it."""
    registry.compressor_names()  # register the built-in plugins first
    monkeypatch.setitem(registry._COMPRESSORS, "CHIMP",
                        registry.CompressorInfo("CHIMP", object, lossy=False,
                                                error_bound="none"))
    assert _unnamed() == ["CHIMP"]
