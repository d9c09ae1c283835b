"""Deleted features stay deleted.

The zero-copy shuffle handoff (``StarkConfig.zero_copy_handoff``) was a
default-off extension that only its own benchmark turned on.  Turned on
everywhere it left the cache, speculation, tenant and MCF baselines
unchanged, moved the elastic decisions, and shrank the paper's Fig 11
colocation win, so it was deleted rather than promoted.  The source scan
below fails if any part of it comes back under its old names.
"""

import ast
from pathlib import Path

import pytest

from repro import StarkConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Fragments of every name the handoff had: the config field, the cost
#: model rate and method, the task metric, the event fields and the
#: blame category.
DELETED = ("zero_copy", "zerocopy", "handoff", "intra_worker")


def _spellings(tree):
    """Every identifier and string constant in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_no_source_names_the_handoff():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for spelling in _spellings(tree):
            if any(part in spelling.lower().replace("-", "_")
                   for part in DELETED):
                found.add(f"{path.relative_to(SRC)}: {spelling[:60]!r}")
    assert not found, f"zero-copy handoff re-introduced: {sorted(found)}"


def test_config_rejects_the_old_switch():
    with pytest.raises(TypeError):
        StarkConfig(zero_copy_handoff=True)

