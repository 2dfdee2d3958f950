"""Docs must not rot: every module reference in the guides must resolve,
and every example must compile against the package it imports from.

Runs the same check CI does (``tools/check_docs.py``) so a rename that
orphans a path in ``docs/ARCHITECTURE.md``, ``README.md`` or the verify
skill fails locally.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def _check_docs_module():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_architecture_and_readme_references_resolve():
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_docs.py")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, f"\n{result.stdout}{result.stderr}"


def test_dotted_references_resolve_their_last_name(tmp_path):
    """The name after the module is looked up, whatever its case: a function
    re-exported by a package passes, a missing class or function fails."""
    check_docs = _check_docs_module()
    doc = tmp_path / "doc.md"
    doc.write_text(
        "`repro.serving.sample_burst_contexts` and `repro.models.store.ModelStore`\n"
        "`repro.serving.NoSuchClass`\n"
        "`repro.serving.no_such_name`\n",
        encoding="utf-8",
    )
    assert check_docs.check_file(doc) == [
        (2, "repro.serving.NoSuchClass"),
        (3, "repro.serving.no_such_name"),
    ]


def test_verify_skill_is_checked_by_default():
    assert ".claude/skills/verify/SKILL.md" in _check_docs_module().DEFAULT_DOCS


@pytest.mark.parametrize("path", EXAMPLES, ids=[path.name for path in EXAMPLES])
def test_example_compiles_and_its_repro_imports_resolve(path):
    """No example is executed: it must compile, and every name it imports
    from ``repro`` must exist."""
    source = path.read_text(encoding="utf-8")
    compile(source, str(path), "exec")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name) or importlib.util.find_spec(
                    f"{node.module}.{alias.name}"
                ), f"{path.name}:{node.lineno}: {node.module} has no {alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    importlib.import_module(alias.name)
