"""The package namespace and its declared dependencies."""

import ast
import re
import sys
from pathlib import Path

import sumrips


def test_every_export_resolves():
    """A stale `__all__` entry would only fail on `from sumrips import *`."""
    missing = [name for name in sumrips.__all__ if not hasattr(sumrips, name)]
    assert not missing
    assert len(set(sumrips.__all__)) == len(sumrips.__all__)


def _declared_dependencies(text: str) -> set[str]:
    """The import names of `[project] dependencies` in pyproject.toml text,
    read with a regular expression: `tomllib` is new in Python 3.11."""
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    names = re.findall(r"[\"']([A-Za-z0-9_.\-]+)", block.group(1)) if block else []
    return {name.lower().replace("-", "_") for name in names}


def test_every_import_is_stdlib_or_declared():
    """Every top-level module that `src/sumrips` imports is in the standard
    library, sumrips itself, or named in pyproject.toml's dependencies."""
    root = Path(__file__).resolve().parents[1]
    allowed = set(sys.stdlib_module_names) | {"sumrips"}
    allowed |= _declared_dependencies((root / "pyproject.toml").read_text())
    imported = {}
    for path in sorted((root / "src" / "sumrips").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.split(".")[0], path.name)
    assert "numpy" in imported
    assert {name: where for name, where in imported.items() if name not in allowed} == {}
