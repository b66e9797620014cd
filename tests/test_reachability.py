"""Every module under ``src/repro`` is reached by an experiment, a
benchmark or the CLI.

A module that only its own tests import is code nothing runs.  This test
follows import statements (lazy ones inside functions included) from the
roots -- every file under ``benchmarks/`` and ``perfbench/`` plus the CLI
entry point ``repro.__main__`` -- and fails on any module it does not
reach.  A package ``__init__.py`` importing its own submodule to
re-export a name does not reach that submodule; a caller importing the
name from the package does, and so does a caller importing the package
object itself (``from repro import obs``).
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ROOT_DIRS = (ROOT / "benchmarks", ROOT / "perfbench")
CLI = "repro.__main__"

#: Modules nothing reaches, each with the reason it stays.
ALLOWED_UNREACHED = {
    "repro.logic.random_nets": "random-netlist generator for the "
                               "differential tests of the simulators",
}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _source_modules() -> Dict[str, Path]:
    return {_module_name(p): p for p in sorted((SRC / "repro").rglob("*.py"))}


def _imports(path: Path) -> Iterator[ast.AST]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node


def _own_package(path: Path) -> str:
    """The package an ``__init__.py`` defines ('' for any other file)."""
    if path.name == "__init__.py" and SRC in path.parents:
        return _module_name(path)
    return ""


def _reexports(modules: Dict[str, Path]) -> Dict[str, Dict[str, str]]:
    """package -> {re-exported name: the submodule that defines it}."""
    table: Dict[str, Dict[str, str]] = {}
    for path in modules.values():
        package = _own_package(path)
        if not package:
            continue
        names = table.setdefault(package, {})
        for node in _imports(path):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.startswith(package + "."):
                for alias in node.names:
                    names[alias.asname or alias.name] = node.module
    return table


def _targets(path: Path, reexports: Dict[str, Dict[str, str]]) -> Set[str]:
    """Every module an import statement in ``path`` runs."""
    targets: Set[str] = set()
    for node in _imports(path):
        if isinstance(node, ast.Import):
            named = [alias.name for alias in node.names]
        elif node.module is None or node.level:
            continue
        else:
            named = [f"{node.module}.{alias.name}" for alias in node.names]
            for alias in node.names:
                source = reexports.get(node.module, {}).get(alias.name)
                if source is not None:
                    named.append(source)
        for name in named:
            # A package object imported by name exposes every name it
            # re-exports (``from repro import obs``; ``obs.span``).
            targets.update(reexports.get(name, {}).values())
            parts = name.split(".")
            # Importing a.b.c runs a and a.b first.
            targets.update(".".join(parts[:i + 1]) for i in range(len(parts)))
    package = _own_package(path)
    if package:
        targets = {t for t in targets if not t.startswith(package + ".")}
    return targets


def _reached(modules: Dict[str, Path]) -> Set[str]:
    reexports = _reexports(modules)
    queue: List[Path] = [p for d in ROOT_DIRS for p in sorted(d.rglob("*.py"))]
    queue.append(modules[CLI])
    reached = {CLI}
    while queue:
        for target in _targets(queue.pop(), reexports):
            if target in modules and target not in reached:
                reached.add(target)
                queue.append(modules[target])
    return reached


def test_every_module_is_reached():
    modules = _source_modules()
    reached = _reached(modules)
    unreached = sorted(set(modules) - reached - set(ALLOWED_UNREACHED))
    assert not unreached, (
        f"modules no experiment, benchmark or CLI command reaches (delete "
        f"them, or allowlist one with its reason): {unreached}"
    )


def test_allowlist_is_current():
    """An exemption whose module is gone or now reached goes too."""
    modules = _source_modules()
    reached = _reached(modules)
    stale = sorted(name for name in ALLOWED_UNREACHED
                   if name not in modules or name in reached)
    assert not stale, stale
