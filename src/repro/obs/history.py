"""Cross-run telemetry history: summarise a run, persist it in the store.

The telemetry of DESIGN.md §9 evaporates at process exit; this module
condenses one run's :class:`~repro.obs.RunTelemetry` (or a previously
written trace file) into a :class:`HistorySummary` — headline resource
figures, per-span-name aggregates, the deterministic metric snapshot,
the funnel and any profiler samples — and writes it into the run-store
history tables (:meth:`repro.store.sqlite.RunStore.save_history`).

:func:`repro.store.run_incremental` records a summary inside the same
atomic epoch transaction as every other write, so run history inherits
the crash-consistency guarantees of DESIGN.md §13 unchanged: a crash
mid-insert leaves the previous watermark and no partial history row
(covered by the kill matrix via the ``store.history.recorded`` site).

``repro obs runs`` / ``top`` / ``diff`` query these tables;
:func:`diff_histories` computes the ``diff`` rows.  The history is for
looking at runs, not for gating them: the seed-determined work a run
does is pinned by the golden file (``tests/golden/``), and cross-commit
timing is the end-to-end benchmark's job.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from .profile import aggregate_spans, rss_peak_kb

__all__ = [
    "HistorySummary",
    "diff_histories",
    "record_history",
    "summarize_run",
    "summarize_trace",
]


@dataclass
class HistorySummary:
    """One run's condensed telemetry, ready for the history tables."""

    source: str  # "run" | "trace" | "ingest"
    label: Optional[str] = None
    created_unix: float = 0.0
    seed: Optional[int] = None
    epoch: Optional[int] = None
    wall_seconds: Optional[float] = None
    cpu_seconds: Optional[float] = None
    peak_rss_kb: Optional[int] = None
    n_spans: int = 0
    n_events: int = 0
    n_records: Optional[int] = None
    n_quarantined: Optional[int] = None
    profiled: bool = False
    #: ``os.cpu_count()`` of the recording machine, so runs on different
    #: machines are never compared blind.
    cpu_count: Optional[int] = None
    #: :func:`~repro.obs.profile.aggregate_spans` rows.
    spans: List[Dict[str, Any]] = field(default_factory=list)
    #: Every metric of the run, measured and work accounting
    #: (:meth:`~repro.obs.RunTelemetry.deterministic_snapshot`).
    metrics: List[Dict[str, Any]] = field(default_factory=list)
    #: Figure-1 funnel rows, in pipeline order.
    funnel: List[Dict[str, Any]] = field(default_factory=list)
    #: Profiler resource samples ``{"t", "rss_kb", "cpu_seconds"}``.
    samples: List[Dict[str, float]] = field(default_factory=list)


def _funnel_lookup(funnel: List[Dict[str, Any]], stage: str) -> Optional[int]:
    for row in funnel:
        if row.get("stage") == stage:
            return row.get("count")
    return None


def summarize_run(
    telemetry: Any,
    *,
    seed: Optional[int] = None,
    epoch: Optional[int] = None,
    wall_seconds: Optional[float] = None,
    label: Optional[str] = None,
    created_unix: Optional[float] = None,
) -> HistorySummary:
    """Condense a live :class:`~repro.obs.RunTelemetry` into history form.

    Works for any tracer: with tracing off the span aggregates are
    empty but funnel and deterministic metrics are still recorded —
    history is useful long before anyone turns the profiler on.
    """
    tracer = telemetry.tracer
    span_records = [s.as_dict() for s in tracer.spans()]
    span_rows = aggregate_spans(span_records)
    profiled = bool(getattr(tracer, "profiled", False))

    cpu_seconds: Optional[float] = None
    if profiled:
        total = 0.0
        seen = False
        for row in span_rows:
            if row.get("cpu_seconds") is not None:
                total += float(row["cpu_seconds"])
                seen = True
        if seen:
            cpu_seconds = total

    funnel = telemetry.funnel()
    summary = HistorySummary(
        source="run",
        label=label,
        created_unix=time.time() if created_unix is None else created_unix,
        seed=seed,
        epoch=epoch,
        wall_seconds=wall_seconds,
        cpu_seconds=cpu_seconds,
        peak_rss_kb=rss_peak_kb() or None,
        n_spans=len(span_records),
        n_events=int(getattr(tracer, "n_events", 0)),
        n_records=_funnel_lookup(funnel, "images_downloaded"),
        n_quarantined=_funnel_lookup(funnel, "quarantined_records"),
        profiled=profiled,
        cpu_count=os.cpu_count(),
        spans=span_rows,
        metrics=telemetry.deterministic_snapshot()["metrics"],
        funnel=funnel,
        samples=list(getattr(tracer, "samples", list)() or []),
    )
    return summary


def summarize_trace(
    path: Union[str, Path],
    *,
    label: Optional[str] = None,
    created_unix: Optional[float] = None,
) -> HistorySummary:
    """Condense a written trace file — streamed, never materialised.

    Uses :func:`repro.obs.export.iter_trace` in tolerant mode, so an
    old reader ingesting a trace from a newer writer skips record types
    it does not know instead of refusing the file.
    """
    from .export import iter_trace

    path = Path(path)
    meta: Dict[str, Any] = {}
    # Streaming fold: the heavy per-record payloads (attribute dicts,
    # inlined events) are reduced to one slim row per span as the file
    # streams past — the full JSONL is never materialised.
    slim: List[Dict[str, Any]] = []
    samples: List[Dict[str, float]] = []
    n_events = 0
    profiled = False
    wall = 0.0

    for record in iter_trace(path, strict=False):
        if record.get("type") == "meta":
            meta = record
            continue
        n_events += len(record.get("events") or ())
        duration = float(record.get("duration") or 0.0)
        wall = max(wall, duration)
        attrs = record.get("attrs") or {}
        if "profile.cpu_seconds" in attrs:
            profiled = True
        if record.get("name") == "profile.sample":
            samples.append(
                {
                    "t": float(record.get("t_start") or 0.0),
                    "rss_kb": float(attrs.get("profile.sample_rss_kb") or 0.0),
                    "cpu_seconds": float(
                        attrs.get("profile.sample_cpu_seconds") or 0.0
                    ),
                }
            )
        slim.append(
            {
                "id": record.get("id"),
                "parent": record.get("parent"),
                "name": record.get("name", "?"),
                "duration": duration,
                "status": record.get("status"),
                "attrs": {
                    key: attrs[key]
                    for key in (
                        "profile.cpu_seconds",
                        "profile.rss_peak_kb",
                        "profile.alloc_kb",
                    )
                    if key in attrs
                },
            }
        )
    span_rows = aggregate_spans(slim)

    cpu_seconds: Optional[float] = None
    if profiled:
        cpu_seconds = sum(
            float(row["cpu_seconds"]) for row in span_rows
            if row.get("cpu_seconds") is not None
        )
    rss_values = [
        int(row["rss_peak_kb"]) for row in span_rows
        if row.get("rss_peak_kb") is not None
    ]
    funnel = list(meta.get("funnel") or [])
    return HistorySummary(
        source="trace",
        label=label if label is not None else str(path),
        created_unix=(
            float(meta.get("created_unix") or 0.0)
            if created_unix is None
            else created_unix
        ),
        seed=meta.get("seed"),
        epoch=meta.get("epoch"),
        wall_seconds=wall or None,
        cpu_seconds=cpu_seconds,
        peak_rss_kb=max(rss_values) if rss_values else None,
        n_spans=len(slim),
        n_events=n_events,
        n_records=_funnel_lookup(funnel, "images_downloaded"),
        n_quarantined=_funnel_lookup(funnel, "quarantined_records"),
        profiled=profiled,
        spans=span_rows,
        metrics=list(meta.get("metrics") or []),
        funnel=funnel,
        samples=samples,
    )


def record_history(
    store: Any,
    summary: HistorySummary,
    run_id: Optional[int] = None,
) -> int:
    """Persist ``summary`` into ``store``'s history tables.

    Wraps the insert in the store's :meth:`transaction` (flattening into
    an enclosing epoch transaction when called from
    :func:`~repro.store.run_incremental`); returns the new history id.
    """
    with store.transaction():
        return store.save_history(summary, run_id=run_id)


# ----------------------------------------------------------------------
def _funnel_map(run: Mapping[str, Any]) -> Dict[str, int]:
    return {
        str(row["stage"]): int(row["count"])
        for row in run.get("funnel", [])
        if row.get("count") is not None
    }


def _gauge_map(metrics: List[Dict[str, Any]]) -> Dict[str, float]:
    """Unlabelled gauge values by name (the diff's metric rows)."""
    gauges: Dict[str, float] = {}
    for metric in metrics:
        if metric.get("kind") == "gauge" and not metric.get("labels"):
            gauges[str(metric["name"])] = float(metric.get("value", 0.0))
    return gauges


def diff_histories(
    store: Any,
    id_a: int,
    id_b: int,
    threshold: float = 0.10,
) -> List[Dict[str, Any]]:
    """Metric/funnel/resource deltas between two history rows.

    Returns rows ``{kind, name, a, b, delta, ratio, flagged}`` —
    ``flagged`` when the relative change exceeds ``threshold`` (or a
    value appears/disappears).  The CLI prints flagged rows first.
    """
    runs = {run["history_id"]: run for run in store.history_runs()}
    for history_id in (id_a, id_b):
        if history_id not in runs:
            raise ValueError(f"history #{history_id} not found")
    run_a, run_b = runs[id_a], runs[id_b]

    rows: List[Dict[str, Any]] = []

    def add(kind: str, name: str, a: Optional[float], b: Optional[float]) -> None:
        if a is None and b is None:
            return
        delta = None if a is None or b is None else b - a
        ratio = (
            None
            if a is None or b is None or a == 0
            else b / a
        )
        flagged = (
            a is None
            or b is None
            or (ratio is not None and abs(ratio - 1.0) > threshold)
            or (ratio is None and delta not in (None, 0))
        )
        rows.append(
            {
                "kind": kind, "name": name, "a": a, "b": b,
                "delta": delta, "ratio": ratio, "flagged": bool(flagged),
            }
        )

    for key, kind in (
        ("wall_seconds", "resource"),
        ("cpu_seconds", "resource"),
        ("peak_rss_kb", "resource"),
        ("n_quarantined", "resource"),
    ):
        add(kind, key, run_a.get(key), run_b.get(key))

    funnel_a, funnel_b = _funnel_map(run_a), _funnel_map(run_b)
    for stage in sorted(set(funnel_a) | set(funnel_b)):
        add("funnel", stage, funnel_a.get(stage), funnel_b.get(stage))

    gauges_a = _gauge_map(store.history_metrics(id_a))
    gauges_b = _gauge_map(store.history_metrics(id_b))
    for name in sorted(set(gauges_a) | set(gauges_b)):
        if name.startswith("funnel."):
            continue  # already covered by the funnel rows above
        add("metric", name, gauges_a.get(name), gauges_b.get(name))

    rows.sort(key=lambda r: (not r["flagged"], r["kind"], r["name"]))
    return rows
