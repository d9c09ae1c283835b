"""Machine-readable benchmark results (``BENCH_<name>.json``).

The bench harness prints human tables; CI and regression tooling want
numbers.  :func:`write_bench_json` drops one JSON document per benchmark
— configuration knobs, percentiles, counters — into the directory
named by the ``STARK_BENCH_DIR`` environment variable (or an explicit
``directory``).  With neither set, writing is skipped and ``None`` is
returned, so benchmarks never litter the working tree by default.

The ``benchmarks/`` suite exposes ``--bench-json-dir`` (see
``benchmarks/conftest.py``) which sets the variable for a run; the CI
``bench-shard`` jobs upload the resulting files as artifacts.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Union

#: Environment variable naming the output directory for bench JSON.
BENCH_DIR_ENV = "STARK_BENCH_DIR"


def bench_json_path(name: str,
                    directory: Union[str, Path, None] = None) -> Optional[Path]:
    """Resolve where ``BENCH_<name>.json`` would be written (or None)."""
    target = directory if directory is not None else os.environ.get(BENCH_DIR_ENV)
    if not target:
        return None
    return Path(target) / f"BENCH_{name}.json"


def write_bench_json(
    name: str,
    payload: Dict[str, Any],
    directory: Union[str, Path, None] = None,
) -> Optional[Path]:
    """Write ``payload`` as ``BENCH_<name>.json``; returns the path.

    ``name`` becomes part of the filename — keep it a short slug
    (``cache_broker``, ``fig19``).  The payload must be JSON-encodable
    (the writer round-trips through :func:`json.dumps` with sorted keys,
    so files diff cleanly between runs).
    """
    path = bench_json_path(name, directory)
    if path is None:
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
