#!/usr/bin/env python
"""Cheap docs check: every module reference in the docs must exist.

Scans markdown files (by default ``docs/ARCHITECTURE.md``, ``README.md`` and
the verify skill) for two kinds of references and fails if any points at
nothing:

* repository paths like ``src/repro/serving/pipeline.py`` (or directories
  like ``src/repro/nn``, ``benchmarks/``);
* dotted references like ``repro.serving.ranker``,
  ``repro.models.store.ModelStore`` or ``repro.serving.sample_burst_contexts``
  — the longest prefix that is a module file or package directory under
  ``src/`` is the module, and every component after it must be a name that
  module binds at top level (a def, a class, an assignment or an imported
  alias), followed through ``from … import`` into other ``repro`` modules
  and into class bodies.  The modules are read with ``ast``, never imported.

Run from anywhere: paths are resolved relative to the repository root.
Exit code 0 when clean, 1 with a listing of dangling references otherwise.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_DOCS = ("docs/ARCHITECTURE.md", "README.md", ".claude/skills/verify/SKILL.md")

_PATH_PATTERN = re.compile(
    r"\b(?:src|tests|benchmarks|examples|docs|tools)/[A-Za-z0-9_\-./]*[A-Za-z0-9_\-/]"
)
_MODULE_PATTERN = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")


def _path_exists(reference: str) -> bool:
    return (REPO_ROOT / reference.rstrip("/")).exists()


def _module_file(parts: Sequence[str]) -> Optional[Path]:
    """The source file of module ``parts`` under ``src/``, if there is one."""
    base = REPO_ROOT.joinpath("src", *parts)
    for candidate in (base.with_suffix(".py"), base / "__init__.py"):
        if candidate.is_file():
            return candidate
    return None


def _bindings(body: List[ast.stmt]) -> Dict[str, Tuple[ast.AST, str]]:
    """Names a module or class body binds: name → (binding statement, the
    imported name for an import, else the name itself)."""
    bound: Dict[str, Tuple[ast.AST, str]] = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] = (node, node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = (node, alias.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        bound[name.id] = (node, name.id)
        else:  # if / try / with / for blocks bind into the enclosing scope
            for field in ("body", "orelse", "finalbody"):
                bound.update(_bindings(getattr(node, field, [])))
            for handler in getattr(node, "handlers", []):
                bound.update(_bindings(handler.body))
    return bound


def _import_source(module: Sequence[str], path: Path, node: ast.ImportFrom) -> Optional[List[str]]:
    """The ``repro`` module a ``from … import`` reads from (None outside it)."""
    if node.level:
        package = list(module) if path.name == "__init__.py" else list(module[:-1])
        base = package[: len(package) - (node.level - 1)]
        return base + (node.module.split(".") if node.module else [])
    parts = (node.module or "").split(".")
    return parts if parts[0] == "repro" else None


def _resolves(module: Sequence[str], chain: Sequence[str]) -> bool:
    """Whether ``chain`` names something bound inside module ``module``."""
    path = _module_file(module)
    body = ast.parse(path.read_text(encoding="utf-8")).body
    for depth, name in enumerate(chain):
        node, imported = _bindings(body).get(name, (None, name))
        rest = list(chain[depth + 1:])
        if node is None:
            return False
        if isinstance(node, ast.ImportFrom):
            source = _import_source(module, path, node)
            if source is None:
                return True  # a third-party name: nothing under src/ to read
            if _module_file(source + [imported]) is not None:
                return not rest or _resolves(source + [imported], rest)
            return _module_file(source) is not None and _resolves(source, [imported] + rest)
        if not isinstance(node, ast.ClassDef):
            # A function, an assignment or a plain ``import``: what hangs off
            # it is only known at run time.
            return True
        body = node.body
    return True


def _module_exists(reference: str) -> bool:
    """True when the dotted reference resolves under ``src/`` (see module doc)."""
    parts = reference.split(".")
    for cut in range(len(parts), 0, -1):
        if _module_file(parts[:cut]) is not None:
            return cut == len(parts) or _resolves(parts[:cut], parts[cut:])
    return False


def check_file(path: Path) -> List[Tuple[int, str]]:
    """Return (line number, reference) for every dangling reference."""
    dangling: List[Tuple[int, str]] = []
    for line_number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        for match in _PATH_PATTERN.finditer(line):
            if not _path_exists(match.group(0)):
                dangling.append((line_number, match.group(0)))
        for match in _MODULE_PATTERN.finditer(line):
            if not _module_exists(match.group(0)):
                dangling.append((line_number, match.group(0)))
    return dangling


def main(arguments: Iterable[str]) -> int:
    documents = list(arguments) or list(DEFAULT_DOCS)
    failures = 0
    for name in documents:
        path = REPO_ROOT / name
        if not path.exists():
            print(f"MISSING DOC: {name}")
            failures += 1
            continue
        for line_number, reference in check_file(path):
            print(f"{name}:{line_number}: dangling reference {reference!r}")
            failures += 1
    if failures:
        print(f"\n{failures} dangling reference(s).")
        return 1
    print(f"docs check OK ({', '.join(documents)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
