"""Named counters, gauges, and histograms for the pipeline.

Counters accumulate (``inc``), gauges hold the last value set
(``gauge``), histograms keep count/total/min/max summaries plus a
bounded sample reservoir for p50/p90/p99 percentiles (``observe``).
:meth:`MetricsRegistry.snapshot` returns one plain dict suitable for
JSON export; :class:`NullMetrics` discards everything.

**Reservoir bound.** Each histogram keeps at most
:data:`DEFAULT_MAX_SAMPLES` (4096) observations. Beyond the bound the
count/total/min/max summary stays exact, but percentiles are computed
over the first ``DEFAULT_MAX_SAMPLES`` values only — fine for the
steady-state distributions this registry tracks, and it keeps
``observe`` O(1) with a hard memory cap.
"""

from __future__ import annotations

import json

#: Per-histogram sample cap (see the module docstring).
DEFAULT_MAX_SAMPLES = 4096


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of a sample list (q in 0..100).

    Degenerate inputs do not raise: an empty list yields ``0.0`` and a
    single sample is every percentile of itself.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


class MetricsRegistry:
    """Accumulates named metrics reported by pipeline stages."""

    enabled = True

    def __init__(self):
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self._histograms: dict[str, list[float]] = {}  # [count, total, min, max]
        self._samples: dict[str, list[float]] = {}

    # ------------------------------------------------------------------

    def inc(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        stats = self._histograms.get(name)
        if stats is None:
            self._histograms[name] = [1, value, value, value]
            self._samples[name] = [value]
        else:
            stats[0] += 1
            stats[1] += value
            stats[2] = min(stats[2], value)
            stats[3] = max(stats[3], value)
            samples = self._samples[name]
            if len(samples) < DEFAULT_MAX_SAMPLES:
                samples.append(value)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in: counters add, gauges take the
        other's value, histogram summaries and samples combine (the
        combined reservoir keeps the :data:`DEFAULT_MAX_SAMPLES` cap)."""
        for name, value in other.counters.items():
            self.inc(name, value)
        self.gauges.update(other.gauges)
        for name, stats in other._histograms.items():
            mine = self._histograms.get(name)
            if mine is None:
                self._histograms[name] = list(stats)
            else:
                mine[0] += stats[0]
                mine[1] += stats[1]
                mine[2] = min(mine[2], stats[2])
                mine[3] = max(mine[3], stats[3])
            theirs = other._samples.get(name, [])
            combined = self._samples.setdefault(name, [])
            combined.extend(theirs[: DEFAULT_MAX_SAMPLES - len(combined)])

    # ------------------------------------------------------------------

    def histogram(self, name: str) -> dict | None:
        stats = self._histograms.get(name)
        if stats is None:
            return None
        count, total, low, high = stats
        samples = self._samples.get(name, [])
        summary = {
            "count": count,
            "total": total,
            "min": low,
            "max": high,
            "mean": total / count if count else 0.0,
        }
        if samples:
            summary["p50"] = percentile(samples, 50)
            summary["p90"] = percentile(samples, 90)
            summary["p99"] = percentile(samples, 99)
        return summary

    def snapshot(self) -> dict:
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: self.histogram(name) for name in sorted(self._histograms)
            },
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")


class NullMetrics(MetricsRegistry):
    """Discards everything; safe to call from hot paths."""

    enabled = False

    def inc(self, name: str, amount: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def merge(self, other: "MetricsRegistry") -> None:
        pass
