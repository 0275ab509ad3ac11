"""Opt-in resource profiling attached to the span tracer (DESIGN.md §14).

:class:`ProfilingTracer` subclasses the recording
:class:`~repro.obs.trace.Tracer` and annotates every span, at close,
with resource attributes under the reserved ``profile.`` namespace:

* ``profile.cpu_seconds``   — thread CPU time consumed inside the span
  (``time.thread_time`` delta; spans open and close on one thread);
* ``profile.rss_peak_kb``   — the process peak RSS observed at close
  (``resource.getrusage`` / ``/proc/self/status`` — stdlib only);
* ``profile.rss_growth_kb`` — peak-RSS growth across the span (first
  big allocation shows up on the stage that caused it);
* ``profile.alloc_kb``      — net ``tracemalloc`` allocation delta, only
  when allocation tracking is requested and only on coarse stage-level
  spans (``pipeline.*`` / ``stage.*`` / ``store.*``) — per-fetch
  tracemalloc reads would dominate the thing being measured.

``start()``/``stop()`` arm and release ``tracemalloc`` and nothing
else: the profiler starts no thread, so a profiled trace holds exactly
the spans the run opened.

Zero-cost-when-disabled is structural, not a fast path: profiling lives
entirely in this subclass, so a run without a :class:`ProfilingTracer`
executes not one added instruction (the NULL_TRACER discipline of
DESIGN.md §9; gated by ``benchmarks/bench_o1_telemetry.py``).
Determinism: every reading is a span attribute namespaced ``profile.``
and none is ever recorded as a metric, so deterministic snapshots,
``measurement_view()`` and run digests are bit-identical with profiling
on, off or mixed — property-tested in ``tests/test_obs_profile.py``.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .trace import Span, Tracer, _SpanContext

__all__ = [
    "ALLOC_SPAN_PREFIXES",
    "PROFILE_ATTR_PREFIX",
    "ProfilingTracer",
    "aggregate_spans",
    "rss_peak_kb",
]

#: Every profiler-written span attribute lives under this namespace, so
#: consumers (and the determinism contract) can strip them wholesale.
PROFILE_ATTR_PREFIX = "profile."

#: Span-name prefixes that get tracemalloc allocation deltas when
#: allocation tracking is on: coarse stage-level units only — reading
#: ``tracemalloc.get_traced_memory()`` around each of thousands of
#: per-link fetch spans would perturb the timings it sits next to.
ALLOC_SPAN_PREFIXES = ("pipeline.", "stage.", "store.")


# ----------------------------------------------------------------------
# RSS readers (stdlib only: resource.getrusage, /proc fallback)
# ----------------------------------------------------------------------
def _proc_status_kb(field: str) -> Optional[int]:
    """Read a ``kB`` field (e.g. ``VmHWM``) from /proc/self/status."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return None


def rss_peak_kb() -> int:
    """Process peak RSS in KiB (0 when unknowable on this platform).

    ``resource.getrusage(RUSAGE_SELF).ru_maxrss`` is KiB on Linux and
    bytes on macOS; ``/proc/self/status`` ``VmHWM`` is the fallback.
    """
    try:
        import resource
        import sys

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sys.platform == "darwin":
            peak //= 1024
        if peak > 0:
            return int(peak)
    except (ImportError, ValueError, OSError):
        pass
    return _proc_status_kb("VmHWM:") or 0


# ----------------------------------------------------------------------
# The profiling tracer
# ----------------------------------------------------------------------
class ProfilingTracer(Tracer):
    """A recording tracer that also profiles CPU, RSS and allocations.

    Drop-in for :class:`Tracer` wherever one is accepted (``repro run
    --profile``); call :meth:`start`/:meth:`stop` around the run to arm
    allocation tracking.  Safe to use without ``start()`` — per-span
    CPU/RSS attributes are always on.
    """

    profiled = True

    def __init__(self, allocations: bool = False) -> None:
        super().__init__()
        self.allocations = bool(allocations)
        #: span_id -> (cpu_start, rss_peak_at_open, alloc_start or None).
        self._open_profiles: Dict[int, Tuple[float, int, Optional[int]]] = {}
        self._owns_tracemalloc = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "ProfilingTracer":
        """Arm allocation tracking when it was requested."""
        if self.allocations:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._owns_tracemalloc = True
        return self

    def stop(self) -> None:
        """Release tracemalloc if :meth:`start` armed it (idempotent)."""
        if self._owns_tracemalloc:
            import tracemalloc

            tracemalloc.stop()
            self._owns_tracemalloc = False

    # -- per-span hooks -------------------------------------------------
    def _alloc_snapshot(self, name: str) -> Optional[int]:
        if not self.allocations or not name.startswith(ALLOC_SPAN_PREFIXES):
            return None
        import tracemalloc

        if not tracemalloc.is_tracing():
            return None
        return tracemalloc.get_traced_memory()[0]

    def span(self, name: str, **attributes: Any) -> _SpanContext:
        ctx = super().span(name, **attributes)
        self._open_profiles[ctx._span.span_id] = (
            time.thread_time(),
            rss_peak_kb(),
            self._alloc_snapshot(name),
        )
        return ctx

    def _close(self, span: Span) -> None:
        entry = self._open_profiles.pop(span.span_id, None)
        if entry is not None:
            cpu_start, rss_open, alloc_start = entry
            attrs = span.attributes
            attrs["profile.cpu_seconds"] = max(
                0.0, time.thread_time() - cpu_start
            )
            peak = rss_peak_kb()
            attrs["profile.rss_peak_kb"] = peak
            attrs["profile.rss_growth_kb"] = max(0, peak - rss_open)
            if alloc_start is not None:
                import tracemalloc

                if tracemalloc.is_tracing():
                    attrs["profile.alloc_kb"] = (
                        tracemalloc.get_traced_memory()[0] - alloc_start
                    ) / 1024.0
        super()._close(span)


# ----------------------------------------------------------------------
# Aggregation (shared by `repro obs top` and the history writer)
# ----------------------------------------------------------------------
def aggregate_spans(
    records: Sequence[Mapping[str, Any]],
) -> List[Dict[str, Any]]:
    """Per-name span summaries of dict-shaped span records.

    Returns one row per span name, sorted by descending self-time:
    ``count``, ``total_seconds``, ``self_seconds`` (duration minus the
    duration of *direct* children — the quantity ``repro obs top``
    ranks by), ``max_seconds``, ``errors``, plus the profile
    aggregates (``cpu_seconds`` summed, ``rss_peak_kb`` maxed,
    ``alloc_kb`` summed) when the trace was profiled, else ``None``.
    """
    durations: Dict[Any, float] = {}
    names: Dict[Any, str] = {}
    child_totals: Dict[Any, float] = {}
    for rec in records:
        span_id = rec.get("id")
        duration = float(rec.get("duration") or 0.0)
        if span_id is not None:
            durations[span_id] = duration
            names[span_id] = str(rec.get("name", "?"))
    for rec in records:
        parent = rec.get("parent")
        if parent is not None and parent in durations:
            child_totals[parent] = child_totals.get(parent, 0.0) + float(
                rec.get("duration") or 0.0
            )

    rows: Dict[str, Dict[str, Any]] = {}
    for rec in records:
        name = str(rec.get("name", "?"))
        span_id = rec.get("id")
        duration = float(rec.get("duration") or 0.0)
        self_seconds = max(0.0, duration - child_totals.get(span_id, 0.0))
        row = rows.setdefault(
            name,
            {
                "name": name,
                "count": 0,
                "total_seconds": 0.0,
                "self_seconds": 0.0,
                "max_seconds": 0.0,
                "errors": 0,
                "cpu_seconds": None,
                "rss_peak_kb": None,
                "alloc_kb": None,
            },
        )
        row["count"] += 1
        row["total_seconds"] += duration
        row["self_seconds"] += self_seconds
        row["max_seconds"] = max(row["max_seconds"], duration)
        if rec.get("status") == "error":
            row["errors"] += 1
        attrs = rec.get("attrs") or {}
        cpu = attrs.get("profile.cpu_seconds")
        if cpu is not None:
            row["cpu_seconds"] = (row["cpu_seconds"] or 0.0) + float(cpu)
        rss = attrs.get("profile.rss_peak_kb")
        if rss is not None:
            row["rss_peak_kb"] = max(row["rss_peak_kb"] or 0, int(rss))
        alloc = attrs.get("profile.alloc_kb")
        if alloc is not None:
            row["alloc_kb"] = (row["alloc_kb"] or 0.0) + float(alloc)
    return sorted(
        rows.values(),
        key=lambda r: (-r["self_seconds"], -r["total_seconds"], r["name"]),
    )
