#!/usr/bin/env python
"""Cheap docs check: every module reference in the docs must exist.

Scans markdown files (by default ``docs/ARCHITECTURE.md``, ``README.md`` and
the verify skill) for three kinds of references and fails if any points at
nothing:

* repository paths like ``src/repro/serving/pipeline.py`` or
  ``bench/run.py`` (or directories like ``src/repro/nn``, ``benchmarks/``);
* bare document names like ``ROADMAP.md``, which must name a file next to
  the citing file, at the repository root or under ``docs/``;
* dotted references like ``repro.serving.ranker``,
  ``repro.models.store.ModelStore`` or ``repro.serving.sample_burst_contexts``
  — the longest prefix that is a module file or package directory under
  ``src/`` is the module, and every component after it must be a name that
  module binds at top level (a def, a class, an assignment or an imported
  alias), followed through ``from … import`` into other ``repro`` modules
  and into class bodies.  The modules are read with ``ast``, never imported;
* backticked member references like ``Ranker.score_many`` or
  ``ItemTowerTables.weights_t`` whose class is defined under ``src/repro``
  — the member must be bound in that class's body, assigned as
  ``self.member`` in one of its methods, or inherited from a base class (a
  base defined outside ``src/repro`` may supply anything).  A name that is
  not a class under ``src/repro`` is not read as a class reference.

Python files (by default every ``examples/*.py``, every ``benchmarks/*.py``
and every module under ``src/repro``) are checked for these references in
their text — docstrings and comments cite modules and paths as the guides
do — and for their ``from repro… import name`` statements: each
``module.name`` must resolve, so deleting a name an example still imports
fails here.

Run from anywhere: paths are resolved relative to the repository root.
Exit code 0 when clean, 1 with a listing of dangling references otherwise.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_DOCS = ("docs/ARCHITECTURE.md", "README.md", ".claude/skills/verify/SKILL.md")
DEFAULT_PYTHON = ("examples/*.py", "benchmarks/*.py", "src/repro/**/*.py")

_PATH_PATTERN = re.compile(
    r"\b(?:src|tests|benchmarks|bench|examples|docs|tools)/[A-Za-z0-9_\-./]*[A-Za-z0-9_\-/]"
)
_DOCUMENT_PATTERN = re.compile(r"(?<![\w./-])[A-Za-z0-9_\-]+\.md\b")
_MODULE_PATTERN = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
_MEMBER_PATTERN = re.compile(r"`([A-Z][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)(?=[`(])")


def _path_exists(reference: str) -> bool:
    return (REPO_ROOT / reference.rstrip("/")).exists()


def _document_exists(name: str, citing: Path) -> bool:
    """A bare ``NAME.md`` names a file next to ``citing``, at the root or in ``docs/``."""
    return any((base / name).is_file() for base in (citing.parent, REPO_ROOT, REPO_ROOT / "docs"))


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


@lru_cache(maxsize=None)
def _classes() -> Dict[str, List[ast.ClassDef]]:
    """Every class defined under ``src/repro``, by name (several may share one)."""
    found: Dict[str, List[ast.ClassDef]] = {}
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                found.setdefault(node.name, []).append(node)
    return found


def _has_member(node: ast.ClassDef, member: str, seen: frozenset = frozenset()) -> bool:
    if member in _bindings(node.body):
        return True
    for statement in ast.walk(node):
        if isinstance(statement, ast.Attribute) and isinstance(statement.ctx, ast.Store) \
                and isinstance(statement.value, ast.Name) and statement.value.id == "self" \
                and statement.attr == member:
            return True
    for base in node.bases:
        name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
        if name in seen or name == "object":
            continue
        if name not in _classes():
            return True  # defined outside src/repro: unknown, not dangling
        if any(_has_member(parent, member, seen | {node.name}) for parent in _classes()[name]):
            return True
    return False


def _member_exists(cls: str, member: str) -> bool:
    """True unless ``cls`` is a class under ``src/repro`` without ``member``."""
    nodes = _classes().get(cls)
    return nodes is None or any(_has_member(node, member) for node in nodes)


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
        for match in _DOCUMENT_PATTERN.finditer(line):
            if not _document_exists(match.group(0), path):
                dangling.append((line_number, match.group(0)))
        for match in _MEMBER_PATTERN.finditer(line):
            if not _member_exists(*match.groups()):
                dangling.append((line_number, f"{match.group(1)}.{match.group(2)}"))
    return dangling


def check_imports(path: Path) -> List[Tuple[int, str]]:
    """Return (line number, ``module.name``) for every ``from repro… import
    name`` in a Python file that does not resolve."""
    dangling: List[Tuple[int, str]] = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.ImportFrom) and not node.level
                and (node.module or "").split(".")[0] == "repro"):
            for alias in node.names:
                reference = f"{node.module}.{alias.name}"
                if not _module_exists(reference):
                    dangling.append((node.lineno, reference))
    return dangling


def check_python(path: Path) -> List[Tuple[int, str]]:
    """``check_imports`` plus ``check_file`` over a Python file's text."""
    return sorted(set(check_imports(path) + check_file(path)))


def main(arguments: Iterable[str]) -> int:
    documents = list(arguments) or list(DEFAULT_DOCS) + sorted(
        path.relative_to(REPO_ROOT).as_posix()
        for pattern in DEFAULT_PYTHON for path in REPO_ROOT.glob(pattern)
    )
    failures = 0
    for name in documents:
        path = REPO_ROOT / name
        if not path.exists():
            print(f"MISSING DOC: {name}")
            failures += 1
            continue
        check = check_python if path.suffix == ".py" else check_file
        for line_number, reference in check(path):
            print(f"{name}:{line_number}: dangling reference {reference!r}")
            failures += 1
    if failures:
        print(f"\n{failures} dangling reference(s).")
        return 1
    print(f"docs check OK ({len(documents)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
