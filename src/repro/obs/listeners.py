"""Basic event listeners: in-memory collection and JSONL event logs.

The JSONL format is one ``Event.to_dict()`` JSON object per line —
Spark's event-log idea without the SparkListenerEnvironmentUpdate noise.
``repro trace`` validates these files against the schema in
:mod:`repro.obs.events`, and :func:`read_event_log` replays them back
into typed events for offline analysis.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from .events import Event, event_from_dict, validate_event_dict


class EventCollector:
    """Keeps every event in memory; the listener tests and ``repro
    events`` build on."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def on_event(self, event: Event) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def of_type(self, *event_types: type) -> List[Event]:
        return [e for e in self.events if isinstance(e, event_types)]

    def counts_by_type(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.type] = counts.get(event.type, 0) + 1
        return counts

    def tail(self, n: int) -> List[Event]:
        return self.events[-n:] if n > 0 else []


#: Compact encoder for every JSONL line, built once.  ``encode`` on a
#: default-indent encoder runs CPython's C encoder; ``json.dump`` always
#: takes the pure-Python ``iterencode`` path, and ``json.dumps`` with
#: non-default separators builds a new encoder per call.
_encode_line = json.JSONEncoder(separators=(",", ":")).encode


class JsonlEventLog:
    """Writes each event as one JSON line to a path or file object."""

    def __init__(self, target: Union[str, Path, io.TextIOBase]) -> None:
        if isinstance(target, (str, Path)):
            self.path: Optional[Path] = Path(target)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "w", encoding="utf-8")
            self._owns_fh = True
        else:
            self.path = None
            self._fh = target
            self._owns_fh = False
        self.events_written = 0

    def on_event(self, event: Event) -> None:
        self._fh.write(_encode_line(event.to_dict()) + "\n")
        self.events_written += 1

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        """Close an owned file, flush a borrowed one; a no-op once the
        file is closed, so closing twice is safe."""
        if self._fh.closed:
            return
        if self._owns_fh:
            self._fh.close()
        else:
            self._fh.flush()

    def __enter__(self) -> "JsonlEventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_event_log(path: Union[str, Path]) -> List[Event]:
    """Replay a JSONL event log into typed events."""
    events: List[Event] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(event_from_dict(json.loads(line)))
    return events


def validate_event_log(path: Union[str, Path],
                       max_problems: int = 50) -> List[str]:
    """Validate every line of a JSONL event log against the schema.

    Returns human-readable problems prefixed with their line number
    (empty list when the file is fully valid).
    """
    problems: List[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"line {lineno}: invalid JSON ({exc})")
            else:
                for problem in validate_event_dict(record):
                    problems.append(f"line {lineno}: {problem}")
            if len(problems) >= max_problems:
                problems.append("... (truncated)")
                return problems
    return problems


def format_event(event: Event) -> str:
    """One human-readable line per event (``repro events`` output)."""
    payload = event.to_dict()
    payload.pop("type")
    time = payload.pop("time")
    parts = []
    for key, value in payload.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:.4g}")
        else:
            parts.append(f"{key}={value}")
    return f"[t={time:>10.3f}s] {event.type:<18s} {' '.join(parts)}"
