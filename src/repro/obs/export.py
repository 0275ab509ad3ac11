"""Structured telemetry sinks: the JSONL trace file and its renderers.

A traced run leaves one artifact, the **trace file** (``repro run
--trace-out t.jsonl``) — JSON Lines: one ``meta`` header line, then one
line per finished span (events inlined), sorted by start offset.  The
header is the run's provenance record, :func:`build_manifest`: seed,
config, component versions, the Figure-1 stage funnel, per-stage
outcomes and the snapshot of both metric registries, which hold every
count the run recorded.  What the span lines already say (span and
event counts, the slowest spans) is not repeated in the header, so the
file is self-describing: ``repro trace t.jsonl`` renders a flame
summary and the funnel without the world or the report.

:func:`render_trace` / :func:`render_funnel` turn a read-back trace into
the per-stage flame summary and funnel table the ``repro trace``
subcommand prints.

Determinism contract: :func:`deterministic_manifest_view` strips every
environment- and timing-bearing header field (creation stamp, versions,
CPU count, stage elapsed times); what remains must be identical across
runs of the same seed — property-tested in ``tests/test_obs_pipeline.py``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..atomicio import atomic_write_text

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "build_manifest",
    "deterministic_manifest_view",
    "iter_trace",
    "read_trace",
    "render_funnel",
    "render_trace",
    "write_trace",
]

#: Version 3: the header no longer carries the ``crawl``, ``quarantine``
#: and ``vision_cache`` blocks of version 2, whose counts the ``metrics``
#: snapshot already holds.  A version-1 header held only the seed,
#: config, funnel, stages and metrics.  Every reader here treats a
#: missing header field as unknown and ignores one it does not use, so
#: all three versions render and ingest.
TRACE_SCHEMA_VERSION = 3

#: The exact top-level key set of a run manifest — the schema-stability
#: contract asserted by ``tests/test_obs_export.py``.  Extend it
#: deliberately (and bump :data:`TRACE_SCHEMA_VERSION` on breaking
#: changes), never accidentally.
MANIFEST_KEYS = (
    "seed",
    "config",
    "versions",
    "degraded",
    "funnel",
    "stages",
    "metrics",
    "cpu_count",
)


# ----------------------------------------------------------------------
# Trace file (JSONL)
# ----------------------------------------------------------------------
def write_trace(
    path: Union[str, Path],
    spans: Sequence[Any],
    meta: Optional[Mapping[str, Any]] = None,
) -> Path:
    """Write a JSONL trace: one ``meta`` line, then one line per span.

    ``spans`` may be :class:`~repro.obs.trace.Span` objects or already
    dict-shaped records (anything with ``as_dict``/mapping semantics).
    ``meta`` (for a run, :func:`build_manifest`) fills the header; the
    line's ``type``, ``kind`` and ``schema_version`` are this writer's
    and a caller cannot overwrite them.
    """
    path = Path(path)
    header: Dict[str, Any] = {
        "created_unix": time.time(),
        **(meta or {}),
        "type": "meta",
        "kind": "repro.trace",
        "schema_version": TRACE_SCHEMA_VERSION,
    }
    lines = [json.dumps(header, sort_keys=True, default=str)]
    for span in spans:
        record = span.as_dict() if hasattr(span, "as_dict") else dict(span)
        lines.append(json.dumps(record, sort_keys=True, default=str))
    # Atomic replace (DESIGN.md §13): a crash mid-export leaves the
    # previous complete trace or none, never a torn JSONL tail.
    return atomic_write_text(path, "\n".join(lines) + "\n")


def iter_trace(
    path: Union[str, Path], strict: bool = True
) -> Iterator[Dict[str, Any]]:
    """Stream a trace file's records one line at a time.

    Yields every parsed record (the ``meta`` header included) without
    materialising the file — the history ingester and ``repro trace``
    summarise million-span traces through this in O(1) memory per line.

    ``strict=True`` (the default, matching :func:`read_trace`) raises
    ``ValueError`` on a record type it does not know; ``strict=False``
    skips unknown types instead — forward compatibility with traces
    written by a newer repro (new record kinds must not brick old
    readers).  Malformed JSON raises either way: that is corruption,
    not version skew.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{i + 1}: not JSON: {exc}") from exc
            if not isinstance(record, dict):
                if strict:
                    raise ValueError(
                        f"{path}:{i + 1}: trace record is not an object"
                    )
                continue
            kind = record.get("type")
            if kind not in ("meta", "span"):
                if strict:
                    raise ValueError(
                        f"{path}:{i + 1}: unknown trace record type {kind!r}"
                    )
                continue
            yield record


def read_trace(
    path: Union[str, Path], strict: bool = True
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read a trace file back as ``(meta, span_records)``.

    Built on :func:`iter_trace` (property-tested equal to the streamed
    view).  ``strict=False`` additionally tolerates a missing ``meta``
    header — an empty or header-less file reads as ``({}, [])`` so the
    renderers can still say "0 spans" instead of refusing.
    """
    meta: Dict[str, Any] = {}
    spans: List[Dict[str, Any]] = []
    for record in iter_trace(path, strict=strict):
        if record.get("type") == "meta":
            meta = record
        else:
            spans.append(record)
    if not meta and strict:
        raise ValueError(f"{path}: missing trace meta header line")
    return meta, spans


# ----------------------------------------------------------------------
# Run manifest
# ----------------------------------------------------------------------
def _versions() -> Dict[str, str]:
    import numpy
    import scipy

    from .. import __version__ as repro_version

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repro": repro_version,
    }


def build_manifest(
    report: Any,
    seed: Optional[int] = None,
    config: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """The run manifest of one :class:`~repro.core.pipeline.PipelineReport`:
    the header :func:`write_trace` puts above the run's spans.

    ``report.telemetry`` supplies the funnel and the snapshot of both
    registries, the only place the run's counts live; the stage table
    (elapsed times and skip causes, held nowhere else) comes from
    ``report.stage_outcomes``.

    ``cpu_count`` is the recording machine's ``os.cpu_count()``, so
    manifests from different machines are never compared blind.  It is
    environment, not measurement, so :func:`deterministic_manifest_view`
    drops it.
    """
    telemetry = getattr(report, "telemetry", None)
    funnel = telemetry.funnel() if telemetry is not None else []
    metrics = (
        telemetry.deterministic_snapshot()["metrics"] if telemetry is not None else []
    )
    stages = [outcome.as_dict() for outcome in getattr(report, "stage_outcomes", [])]
    return {
        "seed": seed,
        "config": dict(config) if config is not None else None,
        "versions": _versions(),
        "degraded": bool(getattr(report, "degraded", False)),
        "funnel": funnel,
        "stages": stages,
        "metrics": metrics,
        "cpu_count": os.cpu_count(),
    }


def deterministic_manifest_view(manifest: Mapping[str, Any]) -> Dict[str, Any]:
    """The manifest (or a trace header) minus every timing-bearing field.

    Drops ``created_unix``, ``versions`` and ``cpu_count`` (environment,
    not measurement) and per-stage ``elapsed_seconds``.  Every metric is
    seed-determined, so the metric list stays whole.  Two runs of one
    seed must agree on the result exactly — with tracing on, off, or
    mixed.
    """
    view = dict(manifest)
    for key in ("created_unix", "versions", "cpu_count"):
        view.pop(key, None)
    view["stages"] = [
        {k: v for k, v in stage.items() if k != "elapsed_seconds"}
        for stage in manifest.get("stages", [])
    ]
    return view


# ----------------------------------------------------------------------
# Renderers (the ``repro trace`` subcommand)
# ----------------------------------------------------------------------
def render_funnel(funnel: Sequence[Mapping[str, Any]]) -> str:
    """The Figure-1 attrition table: one row per funnel stage.

    Tolerant of sparse rows (missing ``stage``/``count``, non-numeric
    counts) — a funnel from a foreign or future trace renders with
    ``-`` placeholders instead of raising.
    """
    if not funnel:
        return "no funnel recorded"
    stages = [str(row.get("stage", "?")) for row in funnel]
    width = max(5, max(len(stage) for stage in stages))
    lines = [f"{'stage':<{width}}  {'count':>10}"]
    previous: Optional[float] = None
    for stage, row in zip(stages, funnel):
        count = row.get("count")
        if not isinstance(count, (int, float)) or isinstance(count, bool):
            count = None
        rendered = "-" if count is None else f"{int(count):,}"
        note = ""
        if count is not None and previous not in (None, 0):
            note = f"  ({count / previous:6.1%} of previous)"
        lines.append(f"{stage:<{width}}  {rendered:>10}{note}")
        if count is not None:
            previous = count
    return "\n".join(lines)


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1e3:.1f}ms"


def render_trace(
    meta: Mapping[str, Any],
    spans: Sequence[Mapping[str, Any]],
    max_depth: int = 6,
) -> str:
    """Per-stage flame summary + funnel table of a read-back trace.

    Spans sharing one ancestry *path* (e.g. the thousands of
    ``crawl.fetch`` spans under ``stage.url_crawl``) are aggregated into
    a single line with count / total / mean / max, so the summary stays
    one screen regardless of corpus size.  Siblings render in
    total-duration order.

    Tolerant of whatever a trace file can legally contain: zero spans,
    missing ids or names (``?`` placeholders), dangling parent
    references (rendered as roots), parent cycles (broken at the
    revisit) and span names this repro has never heard of — a future
    writer's ``profile.*`` spans render like any other name.
    """
    # path (tuple of names root→leaf) → aggregate
    by_id: Dict[Any, Mapping[str, Any]] = {
        s["id"]: s for s in spans if s.get("id") is not None
    }
    paths: Dict[Tuple[str, ...], Dict[str, float]] = {}
    path_cache: Dict[Any, Tuple[str, ...]] = {}

    def path_of(span: Mapping[str, Any]) -> Tuple[str, ...]:
        # Iterative ancestry walk with a visited set: a malformed trace
        # with a parent cycle terminates (the cycle is broken at the
        # revisit) instead of recursing forever.
        chain: List[Mapping[str, Any]] = []
        visited: set = set()
        node: Optional[Mapping[str, Any]] = span
        prefix: Tuple[str, ...] = ()
        while node is not None:
            node_id = node.get("id")
            if node_id is not None:
                cached = path_cache.get(node_id)
                if cached is not None:
                    prefix = cached
                    break
                if node_id in visited:
                    break
                visited.add(node_id)
            chain.append(node)
            node = by_id.get(node.get("parent"))
        for ancestor in reversed(chain):
            prefix = prefix + (str(ancestor.get("name", "?")),)
            ancestor_id = ancestor.get("id")
            if ancestor_id is not None:
                path_cache[ancestor_id] = prefix
        return prefix

    n_events = 0
    n_errors = 0
    for span in spans:
        path = path_of(span)
        agg = paths.setdefault(
            path, {"count": 0, "total": 0.0, "max": 0.0, "errors": 0}
        )
        duration = float(span.get("duration") or 0.0)
        agg["count"] += 1
        agg["total"] += duration
        agg["max"] = max(agg["max"], duration)
        if span.get("status") == "error":
            agg["errors"] += 1
            n_errors += 1
        n_events += len(span.get("events", ()))

    lines: List[str] = []
    seed = meta.get("seed")
    lines.append(
        f"trace: {len(spans)} spans, {n_events} events, {n_errors} errors"
        + (f", seed={seed}" if seed is not None else "")
    )

    def render_level(prefix: Tuple[str, ...], depth: int) -> None:
        if depth > max_depth:
            return
        children = [
            (path, agg)
            for path, agg in paths.items()
            if len(path) == len(prefix) + 1 and path[: len(prefix)] == prefix
        ]
        children.sort(key=lambda item: (-item[1]["total"], item[0]))
        for path, agg in children:
            indent = "  " * depth
            count = int(agg["count"])
            label = path[-1] if count == 1 else f"{path[-1]} ×{count}"
            detail = f"total={_format_seconds(agg['total'])}"
            if count > 1:
                detail += (
                    f" mean={_format_seconds(agg['total'] / count)}"
                    f" max={_format_seconds(agg['max'])}"
                )
            if agg["errors"]:
                detail += f" errors={int(agg['errors'])}"
            lines.append(f"{indent}{label:<{max(1, 40 - 2 * depth)}} {detail}")
            render_level(path, depth + 1)

    lines.append("")
    lines.append("-- flame summary --")
    render_level((), 0)

    funnel = meta.get("funnel") or []
    if funnel:
        lines.append("")
        lines.append("-- funnel --")
        lines.append(render_funnel(funnel))
    return "\n".join(lines)
