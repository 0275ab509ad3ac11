"""The drift harness: run the funnel per epoch, measure the decay curve.

:func:`run_drift` is the R4 experiment loop.  For each epoch it rebuilds
the world (same seed — the pre-drift content is bit-identical every
time), lets the drift engine replay ``1..epoch`` rounds of adversarial
adaptation, wires the configured defenses into the pipeline, runs the
full §3 funnel, and scores every stage against the drift ledger.  The
result is a decay curve per stage: recall/precision as a function of
epoch, defenses off vs on.

Determinism: every ingredient — world build, drift engine, defenses
(own seed stream), pipeline — is a pure function of ``(seed, profile,
epochs, defenses)``.  The returned report is therefore reproducible to
the byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .. import run_pipeline
from .._rng import SeedSequenceTree
from ..obs import RunTelemetry
from ..synth.world import WorldConfig, build_world
from .defenses import (
    DefenseConfig,
    RadiusCalibration,
    apply_radius,
    build_refreshed_link_extractor,
    build_watchlist_selection,
    sweep_hash_radius,
    watchlist_from_report,
)
from .measure import StageScore, measure_run, scores_as_dict
from .profiles import drift_profile

__all__ = ["DriftEpochResult", "DriftReport", "run_drift"]


@dataclass
class DriftEpochResult:
    """One epoch's pipeline run, scored."""

    epoch: int
    scores: Dict[str, StageScore]
    drift_totals: dict
    n_selected: int
    n_tops: int
    n_crawled_images: int
    n_quarantined: int
    calibration: Optional[RadiusCalibration] = None

    def as_dict(self) -> dict:
        payload = {
            "epoch": self.epoch,
            "scores": scores_as_dict(self.scores),
            "drift_totals": self.drift_totals,
            "n_selected": self.n_selected,
            "n_tops": self.n_tops,
            "n_crawled_images": self.n_crawled_images,
            "n_quarantined": self.n_quarantined,
        }
        if self.calibration is not None:
            payload["radius_calibration"] = self.calibration.as_dict()
        return payload


@dataclass
class DriftReport:
    """The decay curve: per-epoch, per-stage scores for one scenario."""

    profile: str
    seed: int
    scale: float
    n_epochs: int
    defenses: DefenseConfig
    epochs: List[DriftEpochResult] = field(default_factory=list)

    def recall_curve(self, stage: str) -> List[float]:
        """Stage recall by epoch (index 0 = the pre-drift baseline)."""
        return [round(result.scores[stage].recall, 6) for result in self.epochs]

    def as_dict(self) -> dict:
        from .measure import STAGE_NAMES

        return {
            "profile": self.profile,
            "seed": self.seed,
            "scale": self.scale,
            "n_epochs": self.n_epochs,
            "defenses": self.defenses.as_dict(),
            "epochs": [result.as_dict() for result in self.epochs],
            "recall_curves": {
                stage: self.recall_curve(stage) for stage in STAGE_NAMES
            },
        }


def run_drift(
    profile: str,
    epochs: int = 2,
    seed: int = 7,
    scale: float = 0.02,
    defenses: Optional[DefenseConfig] = None,
    annotate_n: int = 1000,
    fault_profile: Optional[str] = None,
    payload_profile: Optional[str] = None,
    underage_rate: Optional[float] = None,
    hashlist_rate: Optional[float] = None,
    telemetry: Optional[RunTelemetry] = None,
) -> DriftReport:
    """Run the per-epoch decay experiment for one drift scenario.

    Epoch 0 always runs the paper's static methodology (it doubles as
    the baseline *and* trains the model the frozen instrument keeps
    using); epochs ``1..epochs`` run against the drifted world with the
    configured ``defenses``.  ``defenses=None`` means the static
    instrument (:meth:`DefenseConfig.none`).
    """
    scenario = drift_profile(profile)  # validate eagerly
    defenses = defenses if defenses is not None else DefenseConfig.none()
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    report = DriftReport(
        profile=scenario.name,
        seed=seed,
        scale=scale,
        n_epochs=epochs,
        defenses=defenses,
    )
    telemetry = telemetry if telemetry is not None else RunTelemetry()
    tracer = telemetry.tracer
    defense_seeds = SeedSequenceTree(seed, "drift-defenses")

    frozen_classifier = None
    watchlist = None
    for epoch in range(0, epochs + 1):
        with tracer.span(
            "drift.epoch", epoch=epoch, profile=scenario.name
        ) as span:
            config_kwargs = dict(
                seed=seed,
                scale=scale,
                drift_profile=scenario.name,
                drift_epoch=epoch,
                fault_profile=fault_profile,
                payload_profile=payload_profile,
            )
            # Small worlds rarely reference hashlist-listed lineages from
            # TOP threads; the bench raises these rates (E3 precedent) so
            # the abuse stage has ground truth to decay against.
            if underage_rate is not None:
                config_kwargs["underage_rate"] = underage_rate
            if hashlist_rate is not None:
                config_kwargs["hashlist_rate"] = hashlist_rate
            world = build_world(WorldConfig(**config_kwargs))
            ledger = world.drift_ledger
            calibration = None
            selection_fn = None
            link_extractor = None
            pretrained = None
            if epoch > 0:
                if not defenses.retrain_classifier:
                    pretrained = frozen_classifier
                if defenses.author_watchlist and watchlist:
                    selection_fn = build_watchlist_selection(watchlist)
                if defenses.refresh_whitelist:
                    link_extractor = build_refreshed_link_extractor(
                        world, deobfuscate=defenses.deobfuscate_links
                    )
                elif defenses.deobfuscate_links:
                    from ..core.url_extraction import extract_links

                    def link_extractor(dataset, tops):
                        return extract_links(dataset, tops, deobfuscate=True)

                if defenses.hash_radius_sweep:
                    calibration = sweep_hash_radius(
                        scenario, seed=defense_seeds.seed(f"radius-{epoch}")
                    )
                    apply_radius(world, calibration)
            pipeline_report = run_pipeline(
                world,
                annotate_n=annotate_n,
                selection_fn=selection_fn,
                link_extractor=link_extractor,
                pretrained_classifier=pretrained,
            )
            if epoch == 0:
                # The static instrument keeps using this model forever;
                # the watchlist is the instrument's own epoch-0 output.
                frozen_classifier = pipeline_report.classifier
                watchlist = watchlist_from_report(pipeline_report)
            scores = measure_run(world, ledger, pipeline_report)
            crawl = pipeline_report.crawl
            result = DriftEpochResult(
                epoch=epoch,
                scores=scores,
                drift_totals=ledger.totals(),
                n_selected=len(pipeline_report.selection),
                n_tops=len(pipeline_report.tops or ()),
                n_crawled_images=len(crawl.all_images) if crawl is not None else 0,
                n_quarantined=crawl.n_quarantined if crawl is not None else 0,
                calibration=calibration,
            )
            report.epochs.append(result)
            for stage, score in scores.items():
                telemetry.metrics.gauge(
                    "drift.recall", stage=stage, epoch=epoch
                ).set(round(score.recall, 6))
                telemetry.metrics.gauge(
                    "drift.precision", stage=stage, epoch=epoch
                ).set(round(score.precision, 6))
            span.set(
                n_tops=result.n_tops,
                n_crawled_images=result.n_crawled_images,
                selection_recall=round(scores["selection"].recall, 6),
                crawl_recall=round(scores["crawl"].recall, 6),
            )
    return report
