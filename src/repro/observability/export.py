"""Exporters: JSONL trace, JSON metrics, and the metrics summary table.

Two render paths over one :class:`MetricsRegistry` snapshot:

- :func:`render_metrics_summary` — the human-readable table the CLI
  prints with ``--summary``;
- :func:`write_metrics` — the JSON snapshot (``--metrics-out``).
"""

from __future__ import annotations

from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import Tracer


def write_trace(tracer: Tracer, path: str) -> None:
    """Write the full trace as JSONL, one record per line."""
    tracer.write(path)


def write_metrics(metrics: MetricsRegistry, path: str) -> None:
    """Write the metrics snapshot as a JSON document."""
    metrics.write(path)


def render_metrics_summary(metrics: MetricsRegistry) -> str:
    """Human-readable summary of every counter, gauge, and histogram."""
    snapshot = metrics.snapshot()
    rows: list[tuple[str, str, str]] = []
    for name, value in snapshot["counters"].items():
        rows.append((name, "counter", _number(value)))
    for name, value in snapshot["gauges"].items():
        rows.append((name, "gauge", _number(value)))
    for name, stats in snapshot["histograms"].items():
        detail = (
            f"n={stats['count']} mean={_number(stats['mean'])}"
            f" min={_number(stats['min'])} max={_number(stats['max'])}"
        )
        if "p50" in stats:
            detail += (
                f" p50={_number(stats['p50'])} p90={_number(stats['p90'])}"
                f" p99={_number(stats['p99'])}"
            )
        rows.append((name, "histogram", detail))
    if not rows:
        return "metrics: (empty)"
    name_width = max(len(row[0]) for row in rows)
    kind_width = max(len(row[1]) for row in rows)
    lines = ["metrics:"]
    for name, kind, value in rows:
        lines.append(f"  {name:<{name_width}}  {kind:<{kind_width}}  {value}")
    return "\n".join(lines)


def _number(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(int(value))
