"""A process-local metrics registry: named counters and gauges.

The crawl, the vision cache and the quarantine ledger each count as
they work — ``CrawlStats`` retry counters, the
:class:`~repro.vision.cache.VisionCache` hit/miss counters, the
:class:`~repro.core.quarantine.Quarantine` ledger.  At run end the
pipeline copies those counts into a registry, their one home from then
on: every quantity is a named metric with optional labels, read back
one at a time (:meth:`MetricsRegistry.value`, the CLI report) or as one
sorted, JSON-ready list (:meth:`MetricsRegistry.snapshot`, the run
manifest of :mod:`repro.obs.export`).  No statistics object exports a
second copy of its counts.

Every metric in a registry is a pure function of the run's seed and
inputs; wall times and resource readings live in spans and stage
outcomes, never here.  Which contract a metric belongs to is decided by
the registry it is recorded in (:class:`~repro.obs.RunTelemetry` keeps
one for measured quantities and one for work accounting), not by its
name.

Naming convention (documented in DESIGN.md §9): dotted lower-case
names, subsystem first — ``crawl.retries``, ``vision_cache.hits``;
labels are few and low-cardinality (``stage=``, ``status=``,
``error=``) — this is a per-run registry, not a TSDB.

The registry has one writer, the pipeline's main thread; it takes no
lock.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
]

LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Mapping[str, Any]) -> LabelsKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only increase; use a gauge")
        self.value += n

    def as_dict(self) -> dict:
        return {"value": self.value}


class Gauge:
    """A value that can go anywhere (last write wins)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, n: float = 1) -> None:
        self.value += n

    def as_dict(self) -> dict:
        return {"value": self.value}


class MetricsRegistry:
    """Get-or-create registry of labelled metrics for one run."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelsKey], Any] = {}
        self._kinds: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, labels: Mapping[str, Any], factory):
        if not name:
            raise ValueError("metric name must be non-empty")
        key = (name, _labels_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            registered_kind = self._kinds.setdefault(name, metric.kind)
            if registered_kind != metric.kind:
                raise ValueError(
                    f"metric {name!r} already registered as {registered_kind}, "
                    f"not {metric.kind}"
                )
            self._metrics[key] = metric
        elif metric.kind != factory().kind:  # pragma: no cover - defensive
            raise ValueError(f"metric {name!r} kind conflict")
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(name, labels, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create(name, labels, Gauge)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> List[dict]:
        """Every metric as a JSON-ready dict, deterministically sorted."""
        items = sorted(self._metrics.items(), key=lambda kv: kv[0])
        return [
            {
                "name": name,
                "labels": dict(labels),
                "kind": metric.kind,
                **metric.as_dict(),
            }
            for (name, labels), metric in items
        ]

    def value(self, name: str, **labels: Any) -> Optional[float]:
        """One metric's value, ``None`` when the run never recorded it.

        Unlike :meth:`counter`/:meth:`gauge` this creates nothing, so a
        report can read a registry without changing its snapshot.
        """
        metric = self._metrics.get((name, _labels_key(labels)))
        return None if metric is None else metric.value
