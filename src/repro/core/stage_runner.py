"""Stage-level error boundaries for the measurement pipeline.

:class:`EwhoringPipeline.run` chains many stages; a crash deep in one of
them used to abort the whole measurement.  :class:`StageRunner` wraps
each stage in a recorded boundary:

* in **strict** mode (the default) exceptions propagate exactly as
  before, but the boundary still records which stage blew up and how
  long it had been running;
* in **lenient** mode (``strict=False``) a failing stage is converted
  into a structured :class:`StageFailure` (stage name, exception type
  and message, traceback, elapsed seconds, and a context dict with the
  links/images counts the stage had to work on), the report section it
  would have produced is marked unavailable (``None``), and stages that
  *depend* on it are recorded as skipped rather than crashing on the
  missing input.

``hooks`` lets tests and benchmarks force a stage to raise without
monkeypatching pipeline internals: a hook is called at the top of its
stage's boundary.

Every boundary is also a telemetry boundary (DESIGN.md §9): the stage
executes inside a ``stage.<name>`` span of the run's tracer, its elapsed
time is kept in :attr:`StageOutcome.elapsed` (the manifest's ``stages``
table) and its verdict feeds the ``pipeline.stage_runs{stage=…,status=…}``
counter.  Wall time never enters a metrics registry, whose counts are
seed-determined.  With the default no-op telemetry all of this costs two
dict constructions per *stage* — nothing on any per-record path.
"""

from __future__ import annotations

import time
import traceback as _traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..obs import RunTelemetry

__all__ = ["StageFailure", "StageOutcome", "StageRunner"]


@dataclass(frozen=True)
class StageFailure:
    """Structured record of one stage blowing up."""

    stage: str
    error_type: str
    message: str
    traceback: str
    elapsed: float
    #: What the stage had to work on (e.g. ``{"n_links": 412}``).
    context: Mapping[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        ctx = ", ".join(f"{k}={v}" for k, v in sorted(self.context.items()))
        suffix = f" [{ctx}]" if ctx else ""
        return (
            f"{self.stage}: {self.error_type}: {self.message} "
            f"(after {self.elapsed:.2f}s){suffix}"
        )


@dataclass(frozen=True)
class StageOutcome:
    """One stage boundary's verdict."""

    stage: str
    status: str  # "ok" | "failed" | "skipped"
    elapsed: float = 0.0
    failure: Optional[StageFailure] = None
    #: For skipped stages: the *direct* dependency that caused the skip.
    skipped_due_to: Optional[str] = None
    #: For skipped stages: the transitively-failed stage at the root of
    #: the skip chain (equals ``skipped_due_to`` when the direct
    #: dependency itself failed).
    root_cause: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def as_dict(self) -> dict:
        """One row of the run manifest's stage table."""
        return {
            "stage": self.stage,
            "status": self.status,
            "elapsed_seconds": self.elapsed,
            "skipped_due_to": self.skipped_due_to,
            "root_cause": self.root_cause,
        }


class StageRunner:
    """Runs named stages inside recorded error boundaries.

    ``telemetry`` (a :class:`~repro.obs.RunTelemetry`) supplies the span
    recorder and the measured-metrics registry; omitted, a fresh
    no-op-traced one is created so callers never branch on "is telemetry
    on".
    """

    def __init__(
        self,
        strict: bool = True,
        hooks: Optional[Mapping[str, Callable[[], None]]] = None,
        telemetry: Optional[RunTelemetry] = None,
    ):
        self.strict = strict
        self.hooks: Dict[str, Callable[[], None]] = dict(hooks or {})
        self.telemetry = telemetry if telemetry is not None else RunTelemetry()
        self.outcomes: List[StageOutcome] = []
        self.failures: List[StageFailure] = []
        self._bad: Dict[str, str] = {}  # stage → root cause

    # ------------------------------------------------------------------
    def unavailable(self, stage: str) -> bool:
        """True if ``stage`` failed or was skipped."""
        return stage in self._bad

    @property
    def degraded(self) -> bool:
        """True once any stage failed or was skipped."""
        return bool(self._bad)

    # ------------------------------------------------------------------
    def run(
        self,
        stage: str,
        fn: Callable[[], Any],
        requires: Sequence[str] = (),
        context: Optional[Mapping[str, Any]] = None,
    ) -> Tuple[Any, bool]:
        """Execute ``fn`` inside the boundary for ``stage``.

        Returns ``(value, ok)``; in lenient mode a failed or skipped
        stage yields ``(None, False)``.  In strict mode failures
        re-raise after being recorded.
        """
        tracer = self.telemetry.tracer
        metrics = self.telemetry.metrics
        for dep in requires:
            if dep in self._bad:
                root = self._bad[dep]
                self._bad[stage] = root
                self.outcomes.append(
                    StageOutcome(
                        stage=stage,
                        status="skipped",
                        skipped_due_to=dep,
                        root_cause=root,
                    )
                )
                tracer.event(
                    "stage.skipped", stage=stage, due_to=dep, root_cause=root
                )
                metrics.counter(
                    "pipeline.stage_runs", stage=stage, status="skipped"
                ).inc()
                return None, False

        with tracer.span(f"stage.{stage}", **dict(context or {})) as span:
            start = time.perf_counter()
            try:
                hook = self.hooks.get(stage)
                if hook is not None:
                    hook()
                value = fn()
            except BaseException as exc:
                elapsed = time.perf_counter() - start
                failure = StageFailure(
                    stage=stage,
                    error_type=type(exc).__name__,
                    message=str(exc),
                    traceback=_traceback.format_exc(),
                    elapsed=elapsed,
                    context=dict(context or {}),
                )
                self.failures.append(failure)
                self.outcomes.append(
                    StageOutcome(stage=stage, status="failed", elapsed=elapsed, failure=failure)
                )
                self._bad[stage] = stage
                span.set(outcome="failed", error=type(exc).__name__)
                metrics.counter(
                    "pipeline.stage_runs", stage=stage, status="failed"
                ).inc()
                # Non-``Exception`` errors (KeyboardInterrupt, SystemExit, a
                # hook raising GeneratorExit...) are *recorded* for the
                # post-mortem but always re-raised: lenient mode degrades on
                # stage crashes, it does not swallow operator aborts.
                if self.strict or not isinstance(exc, Exception):
                    raise
                return None, False

            elapsed = time.perf_counter() - start
            span.set(outcome="ok")
            self.outcomes.append(StageOutcome(stage=stage, status="ok", elapsed=elapsed))
        metrics.counter("pipeline.stage_runs", stage=stage, status="ok").inc()
        return value, True
