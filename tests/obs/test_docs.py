"""Doc drift: the event taxonomy in docs/OBSERVABILITY.md names every
event type the engine can post."""

from pathlib import Path

from repro.obs.events import EVENT_TYPES

DOC = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"


def test_taxonomy_names_every_event_type():
    text = DOC.read_text(encoding="utf-8")
    missing = sorted(name for name in EVENT_TYPES
                     if f"`{name}`" not in text)
    assert missing == []
