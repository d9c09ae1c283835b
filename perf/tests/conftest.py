"""Make ``perf/`` importable and run the smoke benchmark once per session."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERF))


@pytest.fixture(scope="session")
def smoke():
    """``run.py --smoke``: ``{workload: {"0": end to end, "1": per layer}}``,
    from the detail files each workload's run leaves in ``perf/out``."""
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    import run
    results = {}
    for name in run.WORKLOAD_NAMES:
        results[name] = {}
        for trace in (0, 1):
            with open(run.detail_path(name, trace), encoding="utf-8") as fh:
                results[name][str(trace)] = json.load(fh)
    return results
