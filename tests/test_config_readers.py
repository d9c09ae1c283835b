"""Every setting has a reader.

A config field nothing reads is a knob that silently does nothing: a
caller who sets it gets the default behaviour and no error.  This test
scans the source with ``ast``, so a field fails the suite the moment its
last reader goes.
"""

import ast
import dataclasses
from pathlib import Path

from repro import StarkConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _loads(tree, receiver):
    """Names of the attributes loaded off nodes ``receiver`` accepts."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load) and receiver(node.value)}


def _is_config(node):
    """``config`` or ``<anything>.config``."""
    return ((isinstance(node, ast.Name) and node.id == "config")
            or (isinstance(node, ast.Attribute) and node.attr == "config"))


def test_every_stark_config_field_is_read():
    read = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = _parse(path)
        # StarkConfig's own validators do not make a field do anything.
        tree.body = [node for node in tree.body
                     if not (isinstance(node, ast.ClassDef)
                             and node.name == "StarkConfig")]
        read |= _loads(tree, _is_config)
    unread = sorted({f.name for f in dataclasses.fields(StarkConfig)} - read)
    assert not unread, f"StarkConfig fields nothing in src/ reads: {unread}"

