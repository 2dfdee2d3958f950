"""Docs must not rot: every module reference in the guides must resolve,
and every example must compile against the package it imports from.

Runs the same check CI does (``tools/check_docs.py``) so a rename that
orphans a path in ``docs/ARCHITECTURE.md``, ``README.md``, the verify skill
or a docstring under ``src/repro`` fails locally.
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
SOURCES = sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
BENCHMARKS = sorted((REPO_ROOT / "benchmarks").glob("*.py"))


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


def test_dangling_example_import_fails_the_check(tmp_path, capsys):
    """An example that imports a name the package no longer binds fails the
    same check CI runs, read with ``ast`` and never executed."""
    check_docs = _check_docs_module()
    example = tmp_path / "example.py"
    example.write_text(
        "from repro.serving import ServingPipeline, build_pipeline\n"
        "from repro.serving.pipeline import NoSuchRouter\n"
        "from repro.models import create_model\n"
        "from repro.serving import (\n    NoSuchStage,\n)\n"
        "import numpy as np\n",
        encoding="utf-8",
    )
    assert check_docs.check_imports(example) == [
        (2, "repro.serving.pipeline.NoSuchRouter"),
        (4, "repro.serving.NoSuchStage"),
    ]
    assert check_docs.main([str(example)]) == 1
    assert "NoSuchRouter" in capsys.readouterr().out


def test_every_example_benchmark_and_source_module_is_checked_by_default(monkeypatch):
    check_docs = _check_docs_module()
    checked = []
    monkeypatch.setattr(check_docs, "check_imports", lambda path: checked.append(path) or [])
    monkeypatch.setattr(check_docs, "check_file", lambda path: [])
    assert check_docs.main([]) == 0
    assert sorted(checked) == sorted(EXAMPLES + BENCHMARKS + SOURCES)


def test_dangling_reference_in_a_python_docstring_fails_the_check(tmp_path, capsys):
    """A module's docstring citing a class that does not exist, or a path
    that does not exist, is reported like one in the guides."""
    check_docs = _check_docs_module()
    module = tmp_path / "module.py"
    module.write_text(
        '"""Re-used by :class:`repro.models.basm.stabt.FusionBatchNorm`.\n\n'
        'Its BN owner is :class:`repro.models.basm.stabt.FusionLayer`, pinned\n'
        'in tests/models/test_basm_modules.py and in tests/no_such_file.py.\n"""\n'
        "from repro.serving import build_pipeline\n",
        encoding="utf-8",
    )
    assert check_docs.check_python(module) == [
        (1, "repro.models.basm.stabt.FusionBatchNorm"),
        (4, "tests/no_such_file.py"),
    ]
    assert check_docs.main([str(module)]) == 1
    assert "FusionBatchNorm" in capsys.readouterr().out


def test_class_member_references_resolve(tmp_path):
    """A backticked ``Class.member`` whose class is defined under
    ``src/repro`` must name a member of it: bound in its body, assigned on
    ``self`` or inherited.  Other capitalised names are not classes here."""
    check_docs = _check_docs_module()
    doc = tmp_path / "doc.md"
    doc.write_text(
        "`Ranker.score_many` and `ItemTowerTables.weights_t`, `RequestRows.pool`\n"
        "`BASM.train()` (from Module), `ROADMAP.md`, `Thing.anything`\n"
        "`MultiHeadTargetAttention.infer` and `Ranker.no_such_member()`\n",
        encoding="utf-8",
    )
    assert check_docs.check_file(doc) == [
        (3, "MultiHeadTargetAttention.infer"),
        (3, "Ranker.no_such_member"),
    ]


def test_bare_document_names_and_bench_paths_resolve(tmp_path):
    """A bare ``NAME.md`` must name a file next to the citing file, at the
    root or under ``docs/``; ``bench/`` paths are checked like ``src/`` ones."""
    check_docs = _check_docs_module()
    (tmp_path / "NOTES.md").write_text("", encoding="utf-8")
    module = tmp_path / "module.py"
    module.write_text(
        '"""See NOTES.md, ROADMAP.md and ARCHITECTURE.md, not EXPERIMENTS.md;\n'
        'docs/ARCHITECTURE.md is a path.\n\n'
        'Timed by bench/run.py, not by bench/no_such_run.py.\n"""\n',
        encoding="utf-8",
    )
    assert check_docs.check_python(module) == [
        (1, "EXPERIMENTS.md"),
        (4, "bench/no_such_run.py"),
    ]


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
