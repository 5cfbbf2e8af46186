"""Statistics and the metric printer."""

from __future__ import annotations

import json

TAIL_BEYOND = 10  # jobs that must lie beyond the reported tail percentile


def tail(samples):
    """(value, percentile, count, beyond): the highest order statistic that
    still has TAIL_BEYOND samples above it.  With too few samples it is the
    maximum, with 0 beyond."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n  # 1-based rank
    return ordered[rank - 1], 100.0 * rank / n, n, n - rank


def metric(value, unit: str, note: str = "") -> dict:
    return {"value": value, "unit": unit, "note": note}


def metric_lines(metrics: dict) -> list[str]:
    """One aligned line per metric: name, value, unit and note."""
    width = max((len(name) for name in metrics), default=0)
    lines = []
    for name, m in metrics.items():
        line = f"{name:<{width}}  {m['value']:>14.6g} {m['unit']}"
        if m.get("note"):
            line += f"  ({m['note']})"
        lines.append(line)
    return lines


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    """The last line of a run: exactly correct/attempted/failed/metrics, each
    metric as {value, unit}."""
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    })
