"""Tiny ASCII chart rendering for CLI experiment output.

No plotting dependencies exist in the offline environment, so the CLI
renders figures as text: sparklines for time series (Fig 20), and for
``stark trace`` a Gantt chart of task lanes plus the sampler's
utilization timelines.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], lo: Optional[float] = None,
              hi: Optional[float] = None) -> str:
    """One-line sparkline of ``values`` (empty string for no data)."""
    values = list(values)
    if not values:
        return ""
    lo = min(values) if lo is None else lo
    hi = max(values) if hi is None else hi
    if hi <= lo:
        return _SPARK_LEVELS[0] * len(values)
    span = hi - lo
    out = []
    for v in values:
        idx = int((v - lo) / span * (len(_SPARK_LEVELS) - 1))
        out.append(_SPARK_LEVELS[max(0, min(len(_SPARK_LEVELS) - 1, idx))])
    return "".join(out)


def timeline_chart(lanes: Dict[str, Sequence[Tuple[float, float]]],
                   width: int = 64) -> str:
    """Gantt-style lanes: ``{label: [(start, end), ...]}`` on a shared
    time axis.  Each interval paints at least one cell, so even very
    short tasks stay visible."""
    spans = [(s, e) for ivs in lanes.values() for s, e in ivs]
    if not spans:
        return "(no data)"
    t0 = min(s for s, _ in spans)
    t1 = max(e for _, e in spans)
    if t1 <= t0:
        t1 = t0 + 1.0
    scale = width / (t1 - t0)
    label_width = max(len(label) for label in lanes)
    lines = []
    for label in sorted(lanes):
        cells = [" "] * width
        for start, end in lanes[label]:
            lo = int((start - t0) * scale)
            hi = max(lo + 1, int((end - t0) * scale))
            for i in range(max(0, lo), min(width, hi)):
                cells[i] = "█" if cells[i] == " " else "▓"
        lines.append(f"{label.rjust(label_width)} |{''.join(cells)}|")
    axis = f"{t0:<10.3g}{t1:>{width - 10}.3g}"
    lines.append(" " * (label_width + 2) + axis)
    return "\n".join(lines)


def utilization_chart(timeline: Sequence[Tuple[float, float]],
                      width: int = 64, unit: str = "") -> str:
    """Render a step function ``[(time, level), ...]`` as a sparkline
    with peak/mean annotations, time-weighted per column."""
    points = sorted(timeline)
    if not points:
        return "(no data)"
    t0, t1 = points[0][0], points[-1][0]
    if t1 <= t0:
        return (f"constant {points[-1][1]:.3g}{unit} "
                f"from t={t0:.3g}s")
    bucket = (t1 - t0) / width
    levels: List[float] = []
    idx = 0
    for col in range(width):
        lo = t0 + col * bucket
        hi = lo + bucket
        area = 0.0
        while idx + 1 < len(points) and points[idx + 1][0] <= lo:
            idx += 1
        j = idx
        while j < len(points):
            seg_lo = max(lo, points[j][0])
            seg_hi = min(hi, points[j + 1][0]) if j + 1 < len(points) else hi
            if seg_hi <= seg_lo:
                break
            area += points[j][1] * (seg_hi - seg_lo)
            j += 1
        levels.append(area / bucket)
    peak = max(p[1] for p in points)
    mean = sum(levels) / len(levels)
    return (f"{sparkline(levels, lo=0.0, hi=peak or 1.0)}\n"
            f"peak {peak:.3g}{unit}, mean {mean:.3g}{unit} "
            f"over [{t0:.3g}s, {t1:.3g}s]")
