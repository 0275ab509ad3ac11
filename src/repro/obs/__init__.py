"""repro.obs — unified telemetry: spans, metrics, structured exports.

The observability layer of DESIGN.md §9.  One :class:`RunTelemetry`
object rides through a pipeline run and collects

* a hierarchical span trace (:mod:`repro.obs.trace`) — stages, per-link
  fetches, retry/breaker/quarantine events, batched vision kernels;
* two metrics registries (:mod:`repro.obs.metrics`) — ``metrics``, the
  measured quantities (the Figure-1 funnel gauges plus the crawl, retry
  and quarantine counts), and ``work``, the effort a memo-warm run may
  skip (vision-cache tallies, store rows, simulated fetch calls);

and :mod:`repro.obs.export` turns both into the JSONL trace file behind
``repro run --trace-out`` / ``repro trace``, whose header is the run
manifest.
:mod:`repro.obs.log` supplies the structured CLI logging.

Tracing is zero-cost when disabled: the default recorder is
:data:`~repro.obs.trace.NULL_TRACER` and every instrumented call is an
unconditional no-op (< 3 % end-to-end with *full* tracing on, gated by
``benchmarks/bench_o1_telemetry.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .log import JsonLogFormatter, get_logger, setup_logging
from .metrics import Counter, Gauge, MetricsRegistry
from .profile import ProfilingTracer, aggregate_spans, rss_peak_kb
from .trace import NULL_TRACER, NullTracer, Span, SpanEvent, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "HistorySummary",
    "JsonLogFormatter",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "ProfilingTracer",
    "RunTelemetry",
    "Span",
    "SpanEvent",
    "Tracer",
    "aggregate_spans",
    "get_logger",
    "record_history",
    "rss_peak_kb",
    "setup_logging",
    "summarize_run",
    "summarize_trace",
]


def __getattr__(name: str):
    # history pulls in nothing heavy, but keeping it lazy avoids an
    # import cycle once store-side callers import repro.obs first.
    if name in ("HistorySummary", "record_history", "summarize_run",
                "summarize_trace"):
        from . import history

        return getattr(history, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class RunTelemetry:
    """One run's tracer + metrics registries + stage funnel.

    Created per :meth:`EwhoringPipeline.run` (fresh registries each run;
    the tracer defaults to the shared no-op recorder) and carried out on
    :attr:`PipelineReport.telemetry`, where the exporters pick it up.

    Both registries hold only seed-determined counts.  :attr:`metrics`
    holds what the run *measures*; :attr:`work` holds what the run
    *did* to get there — a memo-warm incremental run legitimately does
    less work than a cold one while measuring the same world.  A caller
    records a metric in the registry whose contract it belongs to, so
    no name rule has to sort them afterwards.
    """

    def __init__(self, tracer: Optional[Any] = None) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = MetricsRegistry()
        self.work = MetricsRegistry()
        self._funnel: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    @property
    def tracing_enabled(self) -> bool:
        return bool(getattr(self.tracer, "enabled", False))

    def funnel_row(self, stage: str, count: Optional[int]) -> None:
        """Record one Figure-1 attrition row (``None`` = unavailable).

        Rows keep insertion order — the funnel is a table, not a bag of
        metrics — and each count is mirrored as a ``funnel.<stage>``
        gauge so generic metric consumers see it too.
        """
        count = None if count is None else int(count)
        self._funnel.append({"stage": stage, "count": count})
        if count is not None:
            self.metrics.gauge(f"funnel.{stage}").set(count)

    def funnel(self) -> List[Dict[str, Any]]:
        """The recorded funnel rows, in pipeline order."""
        return [dict(row) for row in self._funnel]

    # ------------------------------------------------------------------
    def deterministic_snapshot(self) -> dict:
        """Funnel + every metric of both registries, sorted by name and
        labels: identical across same-seed runs."""
        return {
            "funnel": self.funnel(),
            "metrics": sorted(
                self.metrics.snapshot() + self.work.snapshot(),
                key=lambda m: (m["name"], tuple(m["labels"].items())),
            ),
        }

    def measurement_view(self) -> dict:
        """The run's *measured quantities*: the incremental-≡-cold contract.

        Funnel plus the :attr:`metrics` registry; work accounting
        (:attr:`work`) is left out.  Two runs that observe the same world
        must produce equal measurement views regardless of how much
        memoised work each skipped — this is the headline invariant of
        the persistent store (DESIGN.md §12), property-tested across
        cold vs watermark-delta runs.
        """
        return {"funnel": self.funnel(), "metrics": self.metrics.snapshot()}

    def summary_line(self) -> str:
        """One-line metrics/tracing footer for the CLI telemetry block."""
        n_metrics = len(self.metrics) + len(self.work)
        return f"metrics: {n_metrics} recorded; tracing " + (
            f"on ({len(self.tracer.spans())} spans, "
            f"{getattr(self.tracer, 'n_events', 0)} events)"
            if self.tracing_enabled
            else "off"
        )
