"""Record-level fault isolation: the quarantine ledger.

:class:`~repro.core.stage_runner.StageRunner` isolates whole *stages*;
this module isolates individual *records* inside them.  A poisoned
payload (see :mod:`repro.web.payload_faults`) or any other per-record
crash is converted into a structured :class:`QuarantineRecord` — stage,
record reference (URL or content digest), error class, message, context
— while every other record proceeds.  Crash-only at record granularity:
bad records are excised and accounted for, never allowed to kill or
corrupt the measurement.

One :class:`Quarantine` ledger is shared across a pipeline run: the
crawler's ingest boundary, the abuse filter, the NSFV stage and the
provenance loops all admit into it, and the counts surface in
:class:`~repro.core.pipeline.PipelineReport`, the CLI summary and
``report_text``.

The headline invariant (enforced by the chaos suite in
``tests/test_chaos_quarantine.py``): under *any* corruption profile a
``strict=False`` run completes, the ledger's record count equals the
number of injected corruptions, and every result restricted to clean
records is bit-identical to a corruption-free run on the same seed.

This module deliberately imports nothing from :mod:`repro.core` or
:mod:`repro.web` so the crawler can depend on it without an import
cycle (:mod:`repro.obs` and :mod:`repro.media` are leaf dependencies).

Telemetry: a ledger built with a tracer emits one ``quarantine.admit``
event per excised record on whichever span is current when the poison
surfaces (the crawl fetch span, the NSFV stage span, …); at run end the
pipeline copies its per-stage and per-error counts into the run's
metrics registry.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Container,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    TypeVar,
)

from ..media.validate import validate_raster
from ..obs.trace import NULL_TRACER

__all__ = ["Quarantine", "QuarantineRecord"]

T = TypeVar("T")


@dataclass(frozen=True)
class QuarantineRecord:
    """One excised record and why it was excised."""

    #: Pipeline stage that hit the poison (e.g. ``"url_crawl"``).
    stage: str
    #: Record identity: the link URL at crawl ingest, the content digest
    #: in the vision stages.
    ref: str
    #: Exception class name (the validation taxonomy, usually).
    error_type: str
    message: str
    #: What the boundary knew about the record (pack id, link kind, ...).
    context: Mapping[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        ctx = ", ".join(f"{k}={v}" for k, v in sorted(self.context.items()))
        suffix = f" [{ctx}]" if ctx else ""
        return f"{self.stage}: {self.ref}: {self.error_type}: {self.message}{suffix}"

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "ref": self.ref,
            "error_type": self.error_type,
            "message": self.message,
            "context": dict(self.context),
        }


class Quarantine:
    """Shared ledger of per-record failures across pipeline stages.

    ``tracer`` (any :class:`~repro.obs.trace.Tracer`-shaped recorder)
    receives one ``quarantine.admit`` event per excised record; the
    default is the shared no-op recorder.
    """

    def __init__(self, tracer=None) -> None:
        self.records: List[QuarantineRecord] = []
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(
        self,
        stage: str,
        ref: str,
        error: BaseException,
        context: Optional[Mapping[str, Any]] = None,
    ) -> QuarantineRecord:
        """Record one poison record; returns the structured record."""
        record = QuarantineRecord(
            stage=stage,
            ref=ref,
            error_type=type(error).__name__,
            message=str(error),
            context=dict(context or {}),
        )
        self.records.append(record)
        self.tracer.event(
            "quarantine.admit", stage=stage, ref=ref, error=record.error_type
        )
        return record

    @contextmanager
    def guard(
        self,
        stage: str,
        ref: str,
        context: Optional[Mapping[str, Any]] = None,
    ) -> Iterator[None]:
        """Per-record error boundary: exceptions become ledger entries.

        Only :class:`Exception` is converted; ``KeyboardInterrupt`` and
        friends still propagate — quarantine isolates poison records, it
        does not swallow operator aborts.
        """
        try:
            yield
        except Exception as exc:
            self.admit(stage, ref, exc, context)

    def filter_rasters(
        self,
        stage: str,
        items: Sequence[T],
        ref: Callable[[T], str],
        raster: Callable[[T], Any],
        context: Optional[Callable[[T], Mapping[str, Any]]] = None,
        known: Container[str] = (),
    ) -> List[T]:
        """Validation boundary over a record sequence, order-preserving.

        ``known`` holds the digests with a feature record (the run's
        :class:`~repro.vision.cache.VisionCache`): crawler ingest
        records a digest only after validating it clean, so such an item
        passes without its raster being touched.  Every other item has
        its raster materialised and passed through
        :func:`~repro.media.validate.validate_raster` with its digest as
        context; items whose payload access *or* validation fails are
        admitted to the ledger and dropped, the rest are returned in
        their original order.
        """
        survivors: List[T] = []
        for item in items:
            digest = ref(item)
            try:
                if digest not in known:
                    validate_raster(raster(item), context=digest)
            except Exception as exc:
                self.admit(stage, digest, exc, context(item) if context else None)
                continue
            survivors.append(item)
        return survivors

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def n_quarantined(self) -> int:
        return len(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def count(self, stage: Optional[str] = None) -> int:
        """Total records, or records admitted by one stage."""
        if stage is None:
            return len(self.records)
        return sum(1 for r in self.records if r.stage == stage)

    def by_stage(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.stage] = counts.get(record.stage, 0) + 1
        return counts

    def by_error(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.error_type] = counts.get(record.error_type, 0) + 1
        return counts

    def refs(self, stage: Optional[str] = None) -> Set[str]:
        """Distinct record references, optionally restricted to a stage."""
        return {r.ref for r in self.records if stage is None or r.stage == stage}

    def sample(self, n: int = 5) -> List[QuarantineRecord]:
        """The first ``n`` records — stable exemplars for summaries."""
        return self.records[: max(0, n)]

    # ------------------------------------------------------------------
    def summary_lines(self, n_samples: int = 3) -> List[str]:
        """Human-readable ledger summary (for the CLI)."""
        if not self.records:
            return ["no quarantined records"]
        lines = [f"{len(self.records)} records quarantined"]
        stages = ", ".join(
            f"{stage}={count}" for stage, count in sorted(self.by_stage().items())
        )
        errors = ", ".join(
            f"{err}={count}" for err, count in sorted(self.by_error().items())
        )
        lines.append(f"by stage: {stages}")
        lines.append(f"by error: {errors}")
        for record in self.sample(n_samples):
            lines.append(f"  e.g. {record.summary()}")
        return lines

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Quarantine(n={len(self.records)})"
