#!/usr/bin/env python
"""Cheap docs check: every module reference in the docs must exist.

Scans markdown files (by default ``docs/ARCHITECTURE.md`` and ``README.md``)
for two kinds of references and fails if any points at nothing:

* repository paths like ``src/repro/serving/platform.py`` (or directories
  like ``src/repro/nn``, ``benchmarks/``);
* dotted module references like ``repro.serving.ranker`` or
  ``repro.models.store.ModelStore`` — resolved against ``src/`` by finding
  the longest prefix that is a module file or package directory.

Run from anywhere: paths are resolved relative to the repository root.
Exit code 0 when clean, 1 with a listing of dangling references otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Iterable, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_DOCS = ("docs/ARCHITECTURE.md", "README.md")

_PATH_PATTERN = re.compile(
    r"\b(?:src|tests|benchmarks|examples|docs|tools)/[A-Za-z0-9_\-./]*[A-Za-z0-9_\-/]"
)
_MODULE_PATTERN = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+(\()?")


def _path_exists(reference: str) -> bool:
    return (REPO_ROOT / reference.rstrip("/")).exists()


def _is_module(parts: List[str]) -> bool:
    candidate = Path("src", *parts)
    return (
        (REPO_ROOT / candidate).with_suffix(".py").exists()
        or (REPO_ROOT / candidate / "__init__.py").exists()
    )


def _module_exists(reference: str, is_call: bool) -> bool:
    """True when the reference's full module part resolves under ``src/``.

    Trailing ``CamelCase`` components are treated as a class/attribute chain
    (``repro.models.store.ModelStore`` → module ``repro.models.store``), and
    a trailing call like ``repro.models.available_models()`` drops its last
    component.  Every remaining — lowercase — component must be part of an
    actual module path, so a dangling leaf (``repro.serving.replayX``) fails
    even though its package prefix exists.
    """
    parts = reference.split(".")
    if is_call:
        parts = parts[:-1]
    while len(parts) > 1 and parts[-1][:1].isupper():
        parts = parts[:-1]
    return len(parts) >= 1 and _is_module(parts)


def check_file(path: Path) -> List[Tuple[int, str]]:
    """Return (line number, reference) for every dangling reference."""
    dangling: List[Tuple[int, str]] = []
    for line_number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        for match in _PATH_PATTERN.finditer(line):
            if not _path_exists(match.group(0)):
                dangling.append((line_number, match.group(0)))
        for match in _MODULE_PATTERN.finditer(line):
            reference = match.group(0).rstrip("(")
            if not _module_exists(reference, is_call=match.group(1) is not None):
                dangling.append((line_number, reference))
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
