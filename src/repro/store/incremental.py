"""Watermark-based delta runs over a persistent :class:`RunStore`.

:func:`run_incremental` is the engine behind ``repro run --store PATH
--epoch N``: it builds the world's observation epoch *N*, appends only
the records newer than the store's watermark (epochs nest, so the append
is a pure delta), reloads the corpus through the store's canonical
cursors, and executes the full pipeline with every persisted memo warm —
the digest-keyed :class:`~repro.vision.cache.VisionCache` (a digest with
a record was validated clean at ingest), the per-stage crawl
:data:`~repro.web.crawler.IngestMemo` and the world perceptual-hash
memo.

The headline invariant (DESIGN.md §12, property-tested): an incremental
run over epochs ``1..N`` is **bit-identical** — crawl digest, quarantine
ledger, measurement view — to a cold run over the union.  Memos only
skip recomputation of pure per-record functions; nothing they return can
differ from what a cold run would compute.

Crash consistency (DESIGN.md §13): the whole epoch is one
:meth:`RunStore.transaction` — dying at any instant (the kill-point
chaos harness injects ``SIGKILL`` mid-epoch and on the commit edge)
leaves the store at the previous watermark, and re-running the killed
epoch converges bit-identically to a run that was never interrupted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Optional, Set, Tuple, Union

from ..chaos.sites import kill_point
from ..obs import RunTelemetry
from ..synth.world import WorldConfig, build_world
from ..vision.cache import VisionCache
from ..web.crawler import IngestKey, IngestMemo
from .errors import StoreConfigError
from .sqlite import RunStore

__all__ = ["IncrementalResult", "PersistSession", "run_incremental"]

#: Pipeline stages that own a crawl ingest memo in the store.
_INGEST_STAGES = ("url_crawl", "earnings")


@dataclass
class PersistSession:
    """The warm-memo bundle a store lends to one pipeline run.

    Ducked into :meth:`EwhoringPipeline.run` as ``persist``; every memo
    is consulted-and-filled during the run and written back afterwards.
    """

    cache: VisionCache = field(default_factory=VisionCache)
    ingest_memos: Dict[str, IngestMemo] = field(default_factory=dict)
    #: What the store already holds, as loaded: ``(digest, field)``
    #: pairs of the vision cache and ingest keys per stage.  Memo
    #: entries are pure and only accumulate, so :meth:`save` writes
    #: just the entries outside these sets.
    _stored_fields: Set[Tuple[str, str]] = field(default_factory=set)
    _stored_keys: Dict[str, Set[IngestKey]] = field(default_factory=dict)

    def ingest_memo(self, stage: str) -> IngestMemo:
        return self.ingest_memos.setdefault(stage, {})

    @classmethod
    def load(cls, store: RunStore) -> "PersistSession":
        session = cls()
        store.load_vision_cache(session.cache)
        session._stored_fields = {
            (digest, fld) for digest, record in session.cache.items() for fld in record
        }
        for stage in _INGEST_STAGES:
            memo = session.ingest_memo(stage)
            store.load_ingest_memo(stage, memo)
            session._stored_keys[stage] = set(memo)
        return session

    def save(self, store: RunStore) -> int:
        """Write the memo entries the store lacks; return the rows written."""
        stored = self._stored_fields
        new_fields: Dict[str, Dict[str, Any]] = {}
        for digest, record in self.cache.items():
            for fld, value in record.items():
                if (digest, fld) not in stored:
                    new_fields.setdefault(digest, {})[fld] = value
        rows = sum(len(record) for record in new_fields.values())
        if new_fields:
            store.save_vision_cache(new_fields)
        for stage, memo in sorted(self.ingest_memos.items()):
            known = self._stored_keys.get(stage, set())
            new_entries = {key: out for key, out in memo.items() if key not in known}
            if new_entries:
                store.save_ingest_memo(stage, new_entries)
                rows += len(new_entries)
        return rows


@dataclass
class IncrementalResult:
    """What one store-backed run produced and recorded."""

    report: object  # PipelineReport
    run_id: int
    epoch: int
    epoch_total: int
    #: Dataset rows this run appended beyond the previous watermark.
    rows_added: int
    #: Post-append per-table row counts.
    row_counts: Dict[str, int]
    store_size_bytes: int
    #: The run's bit-identity contract surface (see
    #: :meth:`~repro.obs.RunTelemetry.measurement_view`).
    measurement: dict
    #: The telemetry-history row recorded for this run
    #: (``repro obs runs``; DESIGN.md §14).
    history_id: Optional[int] = None

    @property
    def crawl_digest(self) -> str:
        crawl = getattr(self.report, "crawl", None)
        return crawl.digest() if crawl is not None else ""


def run_incremental(
    store: Union[str, Path, RunStore],
    *,
    epoch: Optional[int] = None,
    config: Optional[WorldConfig] = None,
    annotate_n: int = 1000,
    strict: bool = True,
    telemetry: Optional[RunTelemetry] = None,
    **config_overrides,
) -> IncrementalResult:
    """One watermark-delta (or cold) pipeline run against ``store``.

    ``epoch`` selects the observation epoch (defaults to the config's
    ``epoch``, else ``epoch_total`` — the whole timeline).  Running
    epochs in increasing order makes each run a delta: the store refuses
    to rewind (:class:`StoreConfigError`), refuses a config that differs
    from the one it is bound to, and re-validates the *persisted* config
    before trusting it (a tampered profile string fails eagerly).

    The world is still generated deterministically each run (pure
    hash-RNG — generation is cheap and keeps the ground-truth oracles
    whole); what the store eliminates is the *expensive* work: image
    hashing at build, and render/validate/digest/score work in the
    pipeline, all memoised by content digest.
    """
    if config is None:
        config = WorldConfig(**config_overrides)
    elif config_overrides:
        raise TypeError("pass either a WorldConfig or keyword overrides, not both")

    effective_epoch = epoch if epoch is not None else config.epoch
    if effective_epoch is None:
        effective_epoch = config.epoch_total
    cfg = replace(config, epoch=effective_epoch)

    tele = telemetry if telemetry is not None else RunTelemetry()

    own_store = not isinstance(store, RunStore)
    run_store = RunStore(store) if own_store else store
    wall_start = time.perf_counter()
    try:
        run_store.bind_config(cfg)
        watermark = run_store.watermark("dataset")
        if watermark is not None and effective_epoch < watermark["epoch"]:
            raise StoreConfigError(
                f"{run_store.path}: dataset watermark is at epoch "
                f"{watermark['epoch']}; the store is append-only and cannot "
                f"rewind to epoch {effective_epoch}"
            )

        # ---- the atomic epoch unit (DESIGN.md §13) -------------------
        # Every write of this epoch — world hashes, corpus delta,
        # watermarks, memos, run record, measurement blob — commits in
        # ONE SQLite transaction at block exit.  A crash (or SIGKILL:
        # the chaos harness injects one at every site below) at any
        # instant before the commit edge rolls the store back to the
        # previous watermark; a partial epoch is never visible.
        with run_store.transaction(), tele.tracer.span("store.epoch"):
            with tele.tracer.span("store.read", what="world_hashes"):
                world_hashes = run_store.load_world_hashes()
            n_hashes_loaded = len(world_hashes)
            world = build_world(cfg, world_hashes=world_hashes)
            if len(world_hashes) != n_hashes_loaded:
                with tele.tracer.span("store.write", what="world_hashes"):
                    run_store.save_world_hashes(world_hashes)

            with tele.tracer.span("store.write", what="dataset_delta") as span:
                rows_added = run_store.append_dataset(
                    world.dataset,
                    since=watermark["cutoff"] if watermark is not None else None,
                )
                span.set(rows_added=rows_added)
            post_dates = [p.created_at for p in world.dataset.posts()]
            cutoff_iso = max(post_dates).isoformat() if post_dates else None
            run_store.set_watermark("dataset", effective_epoch, cutoff_iso)
            kill_point("store.dataset.appended")

            # ---- canonical re-read: stage inputs come from store
            # cursors.  Both cold and delta runs consume the corpus
            # through the same ordered cursors, so equal record *sets*
            # give equal stage inputs — in-memory generation order
            # cannot leak into the equivalence contract.  (Pending
            # writes are visible mid-transaction on this connection.)
            with tele.tracer.span("store.read", what="dataset"):
                world.dataset = run_store.read_dataset()
            counts = run_store.row_counts()
            for table, count in sorted(counts.items()):
                tele.work.gauge(f"store.rows.{table}").set(count)
            tele.work.gauge("store.rows_added").set(rows_added)

            # ---- run the pipeline with every persisted memo warm -----
            with tele.tracer.span("store.read", what="memos"):
                session = PersistSession.load(run_store)
            from .. import run_pipeline

            report = run_pipeline(
                world,
                annotate_n=annotate_n,
                strict=strict,
                telemetry=tele,
                vision_cache=session.cache,
                persist=session,
            )

            # ---- fold results back into the store --------------------
            crawl = report.crawl
            quarantine_records = (
                [r.to_dict() for r in report.quarantine.records]
                if report.quarantine is not None
                else []
            )
            measurement = tele.measurement_view()
            with tele.tracer.span("store.write", what="run_results"):
                memo_rows = session.save(run_store)
                tele.work.gauge("store.memo_rows_written").set(memo_rows)
                kill_point("store.memos.saved")
                if crawl is not None:
                    run_store.record_images(effective_epoch, crawl.all_images)
                run_id = run_store.record_run(
                    effective_epoch,
                    crawl.digest() if crawl is not None else "",
                    quarantine_records,
                    tele.funnel(),
                )
                kill_point("store.run.recorded")
                run_store.save_blob(
                    "measurement", f"epoch_{effective_epoch}", measurement
                )
                run_store.set_watermark(
                    "pipeline", effective_epoch, cutoff_iso, run_id
                )

            # ---- telemetry history (DESIGN.md §14) -------------------
            # Condensed span/metric/funnel/profile history rides in the
            # SAME transaction: a crash inside this insert (the kill
            # matrix fires store.history.recorded) rolls the whole
            # epoch back to the previous watermark — run history can
            # never exist for an epoch the store does not hold.
            from ..obs.history import record_history, summarize_run

            summary = summarize_run(
                tele,
                seed=cfg.seed,
                epoch=effective_epoch,
                wall_seconds=time.perf_counter() - wall_start,
                label=f"epoch {effective_epoch}/{cfg.epoch_total}",
            )
            history_id = record_history(run_store, summary, run_id=run_id)
            kill_point("store.history.recorded")
        size = run_store.size_bytes()

        return IncrementalResult(
            report=report,
            run_id=run_id,
            epoch=effective_epoch,
            epoch_total=cfg.epoch_total,
            rows_added=rows_added,
            row_counts=counts,
            store_size_bytes=size,
            measurement=measurement,
            history_id=history_id,
        )
    finally:
        if own_store:
            run_store.close()
