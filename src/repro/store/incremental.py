"""Watermark-based delta runs over a persistent :class:`RunStore`.

:func:`run_incremental` is the engine behind ``repro run --store PATH
--epoch N``: it builds the world's observation epoch *N*, appends only
the records newer than the store's watermark (epochs nest, so the append
is a pure delta), checks the store's row counts against the built
corpus, and executes the full pipeline over that corpus with the
persisted :class:`~repro.vision.cache.VisionCache` warm: its two
content-keyed maps, latent → digest and digest → feature record (a
digest with a record was validated clean at ingest).  The build takes
the hash of every image whose latent they know, and the crawl the
digest and features, so neither renders it again.

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
from typing import Dict, Optional, Set, Tuple, Union

from ..chaos.sites import kill_point
from ..media.image import ImageLatent
from ..obs import RunTelemetry
from ..synth.world import WorldConfig, build_world
from ..vision.cache import VisionCache
from .errors import StoreConfigError, StoreCorruptionError
from .sqlite import RunStore

__all__ = ["IncrementalResult", "PersistSession", "run_incremental"]

@dataclass
class PersistSession:
    """The warm vision cache a store lends to one epoch.

    The build reads its cache and the pipeline run (as ``cache``) reads
    and fills it; :meth:`save` writes back what the run added.
    """

    cache: VisionCache = field(default_factory=VisionCache)
    #: What the store already holds, as loaded: ``(digest, field)``
    #: pairs of the records and the latents of the digest map.  Entries
    #: are pure and only accumulate, so :meth:`save` writes just the
    #: entries outside these sets.
    _stored_fields: Set[Tuple[str, str]] = field(default_factory=set)
    _stored_latents: Set[ImageLatent] = field(default_factory=set)

    @classmethod
    def load(cls, store: RunStore) -> "PersistSession":
        session = cls()
        store.load_vision_cache(session.cache)
        session._stored_fields = {
            (digest, fld) for digest, record in session.cache.items() for fld in record
        }
        session._stored_latents = set(session.cache.digests)
        return session

    def save(self, store: RunStore) -> int:
        """Write the memo entries the store lacks; return the rows written."""
        stored = self._stored_fields
        new = VisionCache()
        for digest, record in self.cache.items():
            for fld, value in record.items():
                if (digest, fld) not in stored:
                    new.setdefault(digest, {})[fld] = value
        new.digests = {
            latent: digest
            for latent, digest in self.cache.digests.items()
            if latent not in self._stored_latents
        }
        if new or new.digests:
            store.save_vision_cache(new)
        return sum(len(record) for record in new.values()) + len(new.digests)


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
    hash-RNG; it keeps the ground-truth oracles whole), and generation
    is the largest cost of a warm epoch.  What the store eliminates
    is the work memoisable by content: rendering and hashing at build,
    and render/validate/digest/score work in the pipeline.  The pipeline
    measures the built ``world.dataset``; the store's corpus must hold
    exactly as many rows per table (:class:`StoreCorruptionError`
    otherwise, with the epoch rolled back).
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
        watermark = run_store.watermark()
        if watermark is not None and effective_epoch < watermark["epoch"]:
            raise StoreConfigError(
                f"{run_store.path}: dataset watermark is at epoch "
                f"{watermark['epoch']}; the store is append-only and cannot "
                f"rewind to epoch {effective_epoch}"
            )

        # ---- the atomic epoch unit (DESIGN.md §13) -------------------
        # Every write of this epoch — corpus delta, dataset watermark,
        # vision cache, run record, telemetry history — commits in
        # ONE SQLite transaction at block exit.  A crash (or SIGKILL:
        # the chaos harness injects one at every site below) at any
        # instant before the commit edge rolls the store back to the
        # previous watermark; a partial epoch is never visible.
        with run_store.transaction(), tele.tracer.span("store.epoch"):
            with tele.tracer.span("store.read", what="memos"):
                session = PersistSession.load(run_store)
            world = build_world(cfg, known=session.cache)

            with tele.tracer.span("store.write", what="dataset_delta") as span:
                rows_added = run_store.append_dataset(
                    world.dataset,
                    since=watermark["cutoff"] if watermark is not None else None,
                )
                span.set(rows_added=rows_added)
            post_dates = [p.created_at for p in world.dataset.posts()]
            cutoff_iso = max(post_dates).isoformat() if post_dates else None
            run_store.set_watermark(effective_epoch, cutoff_iso)
            kill_point("store.dataset.appended")

            # ---- the store holds exactly the corpus this epoch measures
            # The pipeline reads world.dataset itself: ForumDataset keeps
            # its tables and indices in the id order the store's cursors
            # read, so equal record sets give equal stage inputs.  A row
            # count that differs means the store is not this world's
            # corpus; raising here rolls the epoch back.
            counts = run_store.row_counts()
            measured = {table: getattr(world.dataset, f"n_{table}") for table in counts}
            if counts != measured:
                raise StoreCorruptionError(
                    f"{run_store.path}: the store holds corpus rows {counts} "
                    f"but epoch {effective_epoch} measures {measured}"
                )
            for table, count in sorted(counts.items()):
                tele.work.gauge(f"store.rows.{table}").set(count)
            tele.work.gauge("store.rows_added").set(rows_added)

            # ---- run the pipeline with the persisted cache warm ------
            from .. import run_pipeline

            report = run_pipeline(
                world,
                annotate_n=annotate_n,
                strict=strict,
                telemetry=tele,
                cache=session.cache,
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
                run_id = run_store.record_run(
                    effective_epoch,
                    crawl.digest() if crawl is not None else "",
                    quarantine_records,
                    tele.funnel(),
                )
                kill_point("store.run.recorded")

            # ---- telemetry history (DESIGN.md §14) -------------------
            # Condensed span/metric/funnel history rides in the
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
