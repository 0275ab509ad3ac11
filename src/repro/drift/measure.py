"""Per-stage recall/precision of one pipeline run against drift truth.

The §3 funnel is scored stage by stage against the world's ground truth
as mutated by the drift engine (the :class:`~repro.drift.engine.
DriftLedger` tracks where content moved).  Identity across re-uploads is
the *visual seed*: a transformed copy carries a fresh image id but keeps
the lineage seed of the photograph it was derived from, which is exactly
how the real instrument's perceptual hashes are supposed to see through
evasion.

Five stages are measured:

1. ``selection`` — predicted TOP threads vs ground-truth ``"top"``;
2. ``crawl`` — image ids downloaded vs live TOP-referenced content;
3. ``abuse`` — hashlist hits vs hashlist-listed lineages still live;
4. ``nsfv`` — NSFV-positive previews vs model-depicting previews;
5. ``provenance`` — reverse-search matches vs indexed lineages queried.

Every score is a pure function of ``(world, ledger, report)`` — no RNG,
no wall clock — so decay curves are bit-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set

from ..web.internet import FetchStatus, RedirectPage
from ..media.pack import Pack
from .engine import DriftLedger

__all__ = ["STAGE_NAMES", "StageScore", "measure_run", "scores_as_dict"]

#: Funnel stages in measurement order.
STAGE_NAMES = ("selection", "crawl", "abuse", "nsfv", "provenance")


@dataclass(frozen=True, slots=True)
class StageScore:
    """Recall/precision of one funnel stage against drift ground truth."""

    stage: str
    n_truth: int
    n_predicted: int
    n_hit: int

    @property
    def recall(self) -> float:
        """Fraction of the ground truth the stage recovered (1.0 when
        there was nothing to recover — an empty stage is not a miss)."""
        if self.n_truth == 0:
            return 1.0
        return self.n_hit / self.n_truth

    @property
    def precision(self) -> float:
        if self.n_predicted == 0:
            return 1.0
        return self.n_hit / self.n_predicted

    def as_dict(self) -> dict:
        return {
            "stage": self.stage,
            "n_truth": self.n_truth,
            "n_predicted": self.n_predicted,
            "n_hit": self.n_hit,
            "recall": round(self.recall, 6),
            "precision": round(self.precision, 6),
        }


def _score(stage: str, truth: Set, predicted: Set) -> StageScore:
    return StageScore(
        stage=stage,
        n_truth=len(truth),
        n_predicted=len(predicted),
        n_hit=len(truth & predicted),
    )


# ----------------------------------------------------------------------
# Lineage helpers
# ----------------------------------------------------------------------

def _hashlist_seeds(world) -> Set[int]:
    """Visual seeds of the lineages the abuse hashlist knows."""
    seeds: Set[int] = set()
    for model in world.supply.models:
        for circulating in model.pool:
            if circulating.in_hashlist:
                seeds.add(circulating.image.latent.visual_seed)
    return seeds


def _indexed_seeds(world) -> Set[int]:
    """Visual seeds of the lineages the reverse-search index crawled."""
    seeds: Set[int] = set()
    for model in world.supply.models:
        for circulating in model.pool:
            if circulating.indexed:
                seeds.add(circulating.image.latent.visual_seed)
    return seeds


def _live_ref_images(world, ledger: DriftLedger):
    """Yield ``(image_id, visual_seed)`` for live TOP-referenced content."""
    internet = world.internet
    for key in sorted(ledger.refs):
        ref = ledger.refs[key]
        hosted = internet.hosted(ref.target_url)
        if hosted is None or hosted.status is not FetchStatus.OK:
            continue
        resource = hosted.resource
        if isinstance(resource, RedirectPage):  # pragma: no cover - never a target
            continue
        images = resource.images if isinstance(resource, Pack) else [resource]
        for image in images:
            yield image.image_id, image.latent.visual_seed


# ----------------------------------------------------------------------
# The measurement
# ----------------------------------------------------------------------

def measure_run(world, ledger: DriftLedger, report) -> Dict[str, StageScore]:
    """Score one :class:`~repro.core.pipeline.PipelineReport` per stage."""
    scores: Dict[str, StageScore] = {}

    # -- stage 1: thread selection + TOP classification ----------------
    truth_tops = {
        tid for tid, kind in world.forums.thread_types.items() if kind == "top"
    }
    predicted_tops = {thread.thread_id for thread in (report.tops or ())}
    scores["selection"] = _score("selection", truth_tops, predicted_tops)

    # -- stage 2: crawl reach (image-id space) -------------------------
    live_images = list(_live_ref_images(world, ledger))
    truth_image_ids = {image_id for image_id, _ in live_images}
    crawled = report.crawl.all_images if report.crawl is not None else []
    crawled_ids = {item.image.image_id for item in crawled}
    scores["crawl"] = _score("crawl", truth_image_ids, crawled_ids)

    # -- stage 3: abuse hashlist (visual-seed lineage space) -----------
    listed = _hashlist_seeds(world)
    truth_abuse = {seed for _, seed in live_images if seed in listed}
    by_digest = report.crawl.unique_digests() if report.crawl is not None else {}
    matched_digests = report.abuse.matched_digests if report.abuse is not None else set()
    predicted_abuse = {
        by_digest[digest].image.latent.visual_seed
        for digest in matched_digests
        if digest in by_digest
    }
    scores["abuse"] = _score("abuse", truth_abuse, predicted_abuse)

    # -- stage 4: NSFV filtering of previews ---------------------------
    verdicts = report.preview_verdicts or []
    truth_nsfv = {
        item.image.image_id
        for item, _ in verdicts
        if item.image.latent.kind.is_model
    }
    predicted_nsfv = {item.image.image_id for item, verdict in verdicts if verdict.nsfv}
    scores["nsfv"] = _score("nsfv", truth_nsfv, predicted_nsfv)

    # -- stage 5: reverse-search provenance (digest space) -------------
    indexed = _indexed_seeds(world)
    outcomes = []
    if report.provenance is not None:
        outcomes = list(report.provenance.pack_outcomes) + list(
            report.provenance.preview_outcomes
        )
    truth_prov = {
        outcome.digest
        for outcome in outcomes
        if outcome.digest in by_digest
        and by_digest[outcome.digest].image.latent.visual_seed in indexed
    }
    predicted_prov = {outcome.digest for outcome in outcomes if outcome.matched}
    scores["provenance"] = _score("provenance", truth_prov, predicted_prov)

    return scores


def scores_as_dict(scores: Dict[str, StageScore]) -> Dict[str, dict]:
    """JSON-ready, deterministically ordered view of per-stage scores."""
    return {name: scores[name].as_dict() for name in STAGE_NAMES if name in scores}
