"""Tier-1 runs of the docs checks CI applies.

Running these locally keeps the lint job green without waiting for CI:
broken relative links, dangling anchors, syntax errors in cookbook examples,
docstring-coverage regressions and examples importing names that no longer
exist all fail here first.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent

#: Opening line of a fenced python block (``python noqa`` fences included:
#: a fragment may skip parsing, but the names it imports must still exist).
FENCE_OPEN = re.compile(r"^\s*```python\b")


def run_lint_rule(rule: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--rule", rule],
        capture_output=True, text=True, cwd=ROOT, env=env,
    )


def test_docs_links_and_examples():
    result = run_lint_rule("docs")
    assert result.returncode == 0, f"{result.stdout}\n{result.stderr}"


def test_docstring_coverage_gate():
    result = run_lint_rule("docstrings")
    assert result.returncode == 0, f"{result.stdout}\n{result.stderr}"


def _python_fences(path: Path):
    """``(first line number, source)`` of every fenced python block."""
    block, start = None, 0
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if block is None:
            if FENCE_OPEN.match(line):
                block, start = [], number + 1
        elif line.strip().startswith("```"):
            yield start, "\n".join(block)
            block = None
        else:
            block.append(line)


def _repro_imports(source: str):
    """``(module, name)`` for every ``from repro… import name`` in ``source``.

    A fence that does not parse as a whole (a ``noqa`` fragment) is read
    one line at a time, so its single-line imports are still checked.
    """
    try:
        trees = [ast.parse(source)]
    except SyntaxError:
        trees = []
        for line in source.splitlines():
            try:
                trees.append(ast.parse(line.strip()))
            except SyntaxError:
                continue
    for tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "repro"):
                for alias in node.names:
                    yield node.module, alias.name


def _resolves(module: str, name: str) -> bool:
    imported = importlib.import_module(module)
    if name == "*" or hasattr(imported, name):
        return True
    try:            # ``from package import submodule`` is valid too
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def _documented_sources():
    """``(path, first line, source)`` of every README/docs python fence and
    every ``examples/*.py`` script."""
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        for line, source in _python_fences(path):
            yield path, line, source
    for path in sorted((ROOT / "examples").glob("*.py")):
        yield path, 1, path.read_text()


def test_documented_repro_imports_resolve():
    checked, unresolved = set(), []
    for path, line, source in _documented_sources():
        for module, name in _repro_imports(source):
            checked.add(path.suffix)
            if not _resolves(module, name):
                unresolved.append(
                    f"{path.relative_to(ROOT)}:{line}: from {module} import {name}")
    assert checked == {".md", ".py"}, "no documented or example repro imports found"
    assert not unresolved, "\n".join(unresolved)
