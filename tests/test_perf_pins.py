"""Every ``src/`` name the benchmark under ``perf/`` pins still resolves.

``perf/`` reaches into the program in three places: the tracer's
``BOUNDARIES`` table (``perf/tracing.py``), and the ``repro`` imports of
``perf/adapter.py`` and ``perf/probes.py`` (the probes import through the
adapter).  Both files also call members on the objects they build, such
as ``self.sampler.flush(...)`` after ``self.sampler =
UtilizationSampler()``.  A ``src/`` change that deletes or renames one of
those names turns ``perf/tests`` red, which the tier-1 suite never runs.
This test reads the three files with ``ast`` -- importing none of them --
and resolves every pinned name against ``repro``, so such a deletion
fails here instead.
"""

import ast
import importlib
import inspect
import textwrap
from pathlib import Path

PERF = Path(__file__).resolve().parents[1] / "perf"

#: Pins known to be stale.  ``perf/tracing.py`` still lists
#: ``ReferenceTracker.flush_deferred``, which the auto-unpersist deletion
#: removed from ``src/``; dropping it needs a change to ``perf/`` itself
#: (ROADMAP item 3(g)), and the tracer skips a missing boundary.
KNOWN_MISSING = {
    "repro.cache.reference_tracker.ReferenceTracker.flush_deferred"}


def _parse(name):
    path = PERF / name
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _resolves(dotted_module, *attrs):
    try:
        target = importlib.import_module(dotted_module)
        for attr in attrs:
            target = getattr(target, attr)
    except (ImportError, AttributeError):
        return False
    return True


def _has_member(cls, attr):
    """``attr`` is a class attribute or dataclass field of ``cls``, or
    assigned on ``self`` in the body of ``cls`` or of a base class."""
    if hasattr(cls, attr) or attr in getattr(cls, "__dataclass_fields__", {}):
        return True
    for base in cls.__mro__:
        if not base.__module__.startswith("repro"):
            continue
        tree = ast.parse(textwrap.dedent(inspect.getsource(base)))
        if any(isinstance(node, ast.Attribute)
               and isinstance(node.ctx, ast.Store)
               and isinstance(node.value, ast.Name)
               and node.value.id == "self" and node.attr == attr
               for node in ast.walk(tree)):
            return True
    return False


def _member_uses(tree, classes):
    """``(class name, member)`` for every ``x.member`` in ``tree`` where
    ``x`` was assigned straight from a call of one of ``classes``."""
    built = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id in classes):
            for target in node.targets:
                built[ast.unparse(target)] = node.value.func.id
    return {(built[ast.unparse(node.value)], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and ast.unparse(node.value) in built}


def _boundaries():
    """``perf/tracing.py``'s ``BOUNDARIES`` value, evaluated on its own
    (it is literals and comprehensions over literals)."""
    for node in _parse("tracing.py").body:
        if (isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and node.target.id == "BOUNDARIES"):
            expr = ast.Expression(node.value)
            return eval(compile(expr, "perf/tracing.py", "eval"), {})
    raise AssertionError("perf/tracing.py defines no BOUNDARIES")


def _imports(tree, from_module):
    """``{name: module}`` for every ``from <module> import name`` in
    ``tree`` whose module ``from_module`` accepts."""
    return {alias.name: node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and from_module(node.module)
            for alias in node.names}


def _from_repro(module):
    return module == "repro" or module.startswith("repro.")


def test_every_perf_pin_resolves():
    pinned = set()
    unresolved = set()
    for module, cls, fn, _layer in _boundaries():
        parts = [p for p in (cls and cls.rstrip("+"), fn) if p]
        name = ".".join([module, *parts])
        pinned.add(name)
        if not _resolves(module, *parts):
            unresolved.add(name)

    adapter_tree, probes_tree = _parse("adapter.py"), _parse("probes.py")
    adapter = _imports(adapter_tree, _from_repro)
    probes = {name: adapter.get(name, "adapter") for name in
              _imports(probes_tree, lambda m: m == "adapter")}
    probes.update(_imports(probes_tree, _from_repro))
    origins = {**adapter, **probes}
    for name, module in origins.items():
        if module == "adapter":
            continue  # the adapter's own helper, not a program name
        pinned.add(f"{module}.{name}")
        if not _resolves(module, name):
            unresolved.add(f"{module}.{name}")

    for tree in (adapter_tree, probes_tree):
        for cls_name, attr in _member_uses(tree, origins):
            module = origins[cls_name]
            if module == "adapter" or not _resolves(module, cls_name):
                continue
            cls = getattr(importlib.import_module(module), cls_name)
            if not inspect.isclass(cls):
                continue  # a factory such as make_policy: type unknown
            name = f"{module}.{cls_name}.{attr}"
            pinned.add(name)
            if not _has_member(cls, attr):
                unresolved.add(name)

    # One pin of each kind, so a parse that finds nothing cannot pass.
    assert "repro.obs.sampler.UtilizationSampler.on_event" in pinned
    assert "repro.obs.UtilizationSampler.flush" in pinned
    assert "repro.Cluster.earliest_free_worker" in pinned  # probes.py
    assert unresolved == KNOWN_MISSING
