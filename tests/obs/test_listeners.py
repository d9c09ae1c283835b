"""EventCollector, JSONL event logs, and formatting."""

import io
import json

from repro.obs import (
    EventCollector,
    JsonlEventLog,
    format_event,
    read_event_log,
    validate_event_log,
)
from repro.obs.events import CacheHit, CacheMiss, TaskEnd


def hit(t=0.0):
    return CacheHit(time=t, worker_id=0, rdd_id=1, partition=2,
                    size_bytes=64.0)


def miss(t=0.0):
    return CacheMiss(time=t, worker_id=0, rdd_id=1, partition=2)


class TestEventCollector:
    def test_collects_and_filters(self):
        c = EventCollector()
        c.on_event(hit(1.0))
        c.on_event(miss(2.0))
        c.on_event(hit(3.0))
        assert len(c) == 3
        assert len(c.of_type(CacheHit)) == 2
        assert len(c.of_type(CacheHit, CacheMiss)) == 3
        assert c.of_type(TaskEnd) == []
        assert c.counts_by_type() == {"CacheHit": 2, "CacheMiss": 1}
        assert [e.time for e in c.tail(2)] == [2.0, 3.0]
        assert c.tail(0) == []


class TestJsonlEventLog:
    def test_round_trip_via_path(self, tmp_path):
        path = tmp_path / "sub" / "events.jsonl"
        with JsonlEventLog(path) as log:
            log.on_event(hit(1.0))
            log.on_event(miss(2.0))
            assert log.events_written == 2
        events = read_event_log(path)
        assert events == [hit(1.0), miss(2.0)]
        assert validate_event_log(path) == []

    def test_file_like_target(self):
        buf = io.StringIO()
        log = JsonlEventLog(buf)
        log.on_event(hit())
        log.close()  # must not close a caller-owned stream
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["type"] == "CacheHit"

    def test_close_is_idempotent(self, tmp_path):
        log = JsonlEventLog(tmp_path / "events.jsonl")
        log.on_event(hit())
        log.close()
        log.close()
        with JsonlEventLog(tmp_path / "again.jsonl") as log:
            log.on_event(hit())
        log.close()
        assert read_event_log(tmp_path / "again.jsonl") == [hit()]

    def test_validate_reports_line_numbers(self, tmp_path):
        path = tmp_path / "events.jsonl"
        good = json.dumps(hit().to_dict())
        path.write_text(f"{good}\nnot json\n"
                        + json.dumps({"type": "Nope"}) + "\n")
        problems = validate_event_log(path)
        assert any(p.startswith("line 2: invalid JSON") for p in problems)
        assert "line 3: unknown event type: 'Nope'" in problems

    def test_validate_truncates(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("bad\n" * 100)
        problems = validate_event_log(path, max_problems=5)
        assert problems[-1] == "... (truncated)"
        assert len(problems) == 6


class TestFormatEvent:
    def test_human_readable_line(self):
        line = format_event(hit(12.345))
        assert line.startswith("[t=    12.345s] CacheHit")
        assert "worker_id=0" in line
        assert "size_bytes=64" in line
