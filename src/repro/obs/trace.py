"""Hierarchical span tracing for the measurement pipeline.

A *span* is one timed unit of work — a pipeline stage, one link fetch,
one batched vision kernel — with a name, a parent, wall-clock-free
monotonic start/end offsets (:func:`time.perf_counter`), a dictionary of
attributes (record counts, domains, byte totals, …) and a list of
point-in-time *events* (a retry attempt, a circuit breaker tripping, a
record entering quarantine).  Spans nest: the
:class:`~repro.core.pipeline.EwhoringPipeline` run is the root, each
:class:`~repro.core.stage_runner.StageRunner` stage is a child, and the
crawler / vision kernels hang their spans beneath the stage that invoked
them.

Two recorders implement the same surface:

* :class:`Tracer` — records everything, thread-safe, deterministic
  sequential span ids;
* :class:`NullTracer` — the zero-cost-when-disabled recorder: every
  method is a no-op and :meth:`NullTracer.span` hands back one shared
  do-nothing context manager, so instrumented hot paths cost a dict
  construction and an attribute call when tracing is off (gated < 3 %
  end-to-end by ``benchmarks/bench_o1_telemetry.py``).

Instrumented code never branches on "is tracing enabled": it holds a
recorder (``tracer or NULL_TRACER``) and calls it unconditionally.

Timing fields (``t_start``/``t_end``/``duration``) are the *only*
non-deterministic quantities a trace carries; span names, hierarchy,
attributes and event sequences are pure functions of the world seed (see
``tests/test_obs_pipeline.py``).
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanEvent",
    "Tracer",
]


@dataclass(frozen=True, slots=True)
class SpanEvent:
    """A point-in-time occurrence inside a span."""

    name: str
    #: Offset from the tracer's epoch, monotonic seconds.
    t: float
    attributes: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"name": self.name, "t": self.t, "attrs": dict(self.attributes)}


@dataclass(slots=True)
class Span:
    """One timed, attributed unit of work."""

    name: str
    span_id: int
    parent_id: Optional[int]
    #: Offsets from the tracer's epoch (``time.perf_counter`` based).
    t_start: float
    t_end: Optional[float] = None
    status: str = "ok"  # "ok" | "error"
    attributes: Dict[str, Any] = field(default_factory=dict)
    events: List[SpanEvent] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        return (self.t_end - self.t_start) if self.t_end is not None else 0.0

    # -- recording API (shared with :class:`_NullSpan`) -----------------
    def set(self, **attributes: Any) -> "Span":
        """Attach/overwrite attributes; returns the span for chaining."""
        self.attributes.update(attributes)
        return self

    def inc(self, key: str, n: int = 1) -> None:
        """Increment a numeric attribute (created at 0)."""
        self.attributes[key] = self.attributes.get(key, 0) + n

    def as_dict(self) -> dict:
        """JSON-ready representation (one trace-file line's payload)."""
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "duration": self.duration,
            "status": self.status,
            "attrs": dict(self.attributes),
            "events": [e.as_dict() for e in self.events],
        }


class _SpanContext:
    """Context manager opening/closing one recorded span."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.status = "error"
            self._span.attributes.setdefault("error", exc_type.__name__)
        self._tracer._close(self._span)
        return False


class Tracer:
    """The recording tracer: hierarchical, thread-safe, deterministic ids.

    Span ids are sequential in *open* order; each thread keeps its own
    ancestry stack, so a span opened on another thread than its
    would-be parent's becomes a root rather than mis-nesting.
    """

    enabled = True

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._next_id = 1
        self._finished: List[Span] = []
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: Any) -> _SpanContext:
        """Open a child span of the current span (context manager).

        The managed value is the :class:`Span`; mutate it through
        :meth:`Span.set` / :meth:`Span.inc`.  An exception propagating
        through the block marks the span ``status="error"`` (and records
        the exception class under the ``error`` attribute) before
        re-raising.
        """
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            name=name,
            span_id=span_id,
            parent_id=stack[-1].span_id if stack else None,
            t_start=self._now(),
            attributes=dict(attributes),
        )
        stack.append(span)
        return _SpanContext(self, span)

    def _close(self, span: Span) -> None:
        span.t_end = self._now()
        stack = self._stack()
        # Pop up to and including this span (tolerates a mis-nested
        # close rather than corrupting the ancestry of later spans).
        while stack:
            top = stack.pop()
            if top is span:
                break
        with self._lock:
            self._finished.append(span)

    # ------------------------------------------------------------------
    def event(self, name: str, **attributes: Any) -> None:
        """Record a point event on the current span.

        Events fired outside any span are attached to a synthetic
        ``"(orphan)"`` root span when the trace is finalised.
        """
        stack = self._stack()
        evt = SpanEvent(name=name, t=self._now(), attributes=dict(attributes))
        if stack:
            stack[-1].events.append(evt)
        else:
            with self._lock:
                self._orphans().append(evt)

    def _orphans(self) -> List[SpanEvent]:
        orphans = getattr(self, "_orphan_events", None)
        if orphans is None:
            orphans = []
            self._orphan_events = orphans
        return orphans

    # ------------------------------------------------------------------
    def traced(self, name: Optional[str] = None, **attributes: Any) -> Callable:
        """Decorator form: wrap every call of ``fn`` in a span."""

        def decorate(fn: Callable) -> Callable:
            span_name = name if name is not None else fn.__qualname__

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(span_name, **attributes):
                    return fn(*args, **kwargs)

            return wrapper

        return decorate

    # ------------------------------------------------------------------
    @property
    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, or ``None``."""
        stack = self._stack()
        return stack[-1] if stack else None

    def spans(self) -> List[Span]:
        """Finished spans, ordered by start offset (then id).

        Orphan events (fired outside any span) surface as one synthetic
        ``"(orphan)"`` span at offset 0 so no recorded data is dropped.
        """
        with self._lock:
            spans = list(self._finished)
            orphans = list(getattr(self, "_orphan_events", ()))
        if orphans:
            spans.append(
                Span(
                    name="(orphan)",
                    span_id=0,
                    parent_id=None,
                    t_start=0.0,
                    t_end=0.0,
                    events=orphans,
                )
            )
        return sorted(spans, key=lambda s: (s.t_start, s.span_id))

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)

    @property
    def n_events(self) -> int:
        """Total events across finished spans (and orphans)."""
        with self._lock:
            n = sum(len(s.events) for s in self._finished)
            n += len(getattr(self, "_orphan_events", ()))
        return n


class _NullSpan:
    """Shared do-nothing span *and* context manager (see :data:`NULL_TRACER`)."""

    __slots__ = ()

    # context-manager surface
    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    # Span recording surface
    def set(self, **attributes: Any) -> "_NullSpan":
        return self

    def inc(self, key: str, n: int = 1) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled recorder: every operation is a no-op."""

    enabled = False

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attributes: Any) -> None:
        return None

    def traced(self, name: Optional[str] = None, **attributes: Any) -> Callable:
        def decorate(fn: Callable) -> Callable:
            return fn

        return decorate

    @property
    def current(self) -> None:
        return None

    def spans(self) -> List[Span]:
        return []

    def __len__(self) -> int:
        return 0

    @property
    def n_events(self) -> int:
        return 0


#: Process-wide shared no-op recorder.  Instrumented code defaults to it
#: (``tracer = tracer or NULL_TRACER``) so tracing is an opt-in with no
#: conditional branches on the hot path.
NULL_TRACER = NullTracer()
