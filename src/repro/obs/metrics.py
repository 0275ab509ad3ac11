"""A process-local metrics registry: named counters, gauges, histograms.

PRs 1–3 each grew a private statistics object — ``CrawlStats`` retry
counters, :class:`~repro.vision.cache.VisionCacheStats`, the
:class:`~repro.core.quarantine.Quarantine` ledger,
:class:`~repro.core.stage_runner.StageOutcome` wall times.  The registry
gives them one uniform home: every quantity is a named metric with
optional labels, snapshot-able into the run manifest (see
:mod:`repro.obs.export`) as one sorted, JSON-ready list.

Naming convention (enforced only by discipline, documented in
DESIGN.md §9):

* dotted lower-case names, subsystem first — ``crawl.retries``,
  ``vision_cache.hits``, ``pipeline.stage_seconds``;
* **timing metrics end in ``_seconds``** — they are the only metrics
  allowed to differ between two runs of the same seed, and
  :meth:`MetricsRegistry.deterministic_snapshot` excludes exactly them
  (this is what makes telemetry itself property-testable);
* labels are few and low-cardinality (``stage=``, ``status=``,
  ``error=``) — this is a per-run registry, not a TSDB.

The registry has one writer, the pipeline's main thread; it takes no
lock.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_SECONDS_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "is_runtime_metric",
    "is_timing_metric",
]

LabelsKey = Tuple[Tuple[str, str], ...]

#: Default histogram buckets for ``*_seconds`` observations: upper bounds
#: in seconds, spanning sub-millisecond kernels to minutes-long stages.
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0,
)


def is_timing_metric(name: str) -> bool:
    """True for metrics that carry wall-time (excluded from determinism)."""
    return name.endswith("_seconds") or name.endswith(".seconds")


#: Name prefixes reserved for runtime-only metrics.  ``profile.`` is the
#: resource-profiler namespace (:mod:`repro.obs.profile`): CPU seconds,
#: RSS, allocation deltas — environment measurements by definition, so
#: the whole prefix is excluded from deterministic views wholesale.
_RUNTIME_PREFIXES = ("profile.",)


def is_runtime_metric(name: str) -> bool:
    """True for metrics excluded from deterministic views.

    Covers :func:`is_timing_metric` (``*_seconds``) plus the reserved
    ``profile.`` namespace of the resource profiler.
    """
    return is_timing_metric(name) or name.startswith(_RUNTIME_PREFIXES)


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


class Histogram:
    """Bucketed observations with sum/count/min/max.

    ``buckets`` are inclusive upper bounds; an implicit ``+Inf`` bucket
    catches the rest.  ``bucket_counts[i]`` counts observations ``v``
    with ``buckets[i-1] < v <= buckets[i]`` (non-cumulative).
    """

    kind = "histogram"
    __slots__ = ("buckets", "bucket_counts", "count", "total", "vmin", "vmax")

    def __init__(self, buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be strictly increasing")
        self.buckets = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +Inf overflow last
        self.count = 0
        self.total = 0.0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        self.vmin = value if self.vmin is None else min(self.vmin, value)
        self.vmax = value if self.vmax is None else max(self.vmax, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "mean": self.mean,
        }


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

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        return self._get_or_create(name, labels, lambda: Histogram(buckets))

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

    def deterministic_snapshot(self) -> List[dict]:
        """The snapshot minus runtime metrics (timing + profiler).

        Two runs over the same seed must agree on this view exactly;
        the property tests of ``tests/test_obs_pipeline.py``.
        """
        return [m for m in self.snapshot() if not is_runtime_metric(m["name"])]

    def as_dict(self) -> dict:
        """Snapshot-protocol alias used by the exporters."""
        return {"metrics": self.snapshot()}
