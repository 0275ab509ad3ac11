"""repro — a full reproduction of *Measuring eWhoring* (IMC 2019).

The package implements the paper's measurement pipeline (Figure 1) plus
every substrate it depends on, replacing restricted data and third-party
services with calibrated synthetic equivalents (see DESIGN.md):

* :mod:`repro.forum` — the CrimeBB-analogue dataset model;
* :mod:`repro.text` / :mod:`repro.ml` — NLP and learning substrates;
* :mod:`repro.media` / :mod:`repro.vision` — synthetic images and the
  OpenNSFW / Tesseract / PhotoDNA / TinEye analogues;
* :mod:`repro.web` — the simulated internet and the crawler;
* :mod:`repro.domains` / :mod:`repro.finance` — domain classification
  and money handling;
* :mod:`repro.synth` — the seeded world generator;
* :mod:`repro.core` — the pipeline itself (§4), the profit analysis
  (§5) and the actor analysis (§6).

Quickstart::

    from repro import build_world, run_pipeline

    world = build_world(seed=7, scale=0.02)
    report = run_pipeline(world)
    print(report.extraction_stats)
"""

from __future__ import annotations

from typing import Optional

from .core.pipeline import EwhoringPipeline, PipelineReport
from .synth.world import World, WorldConfig, build_world

__version__ = "1.0.0"

__all__ = [
    "EwhoringPipeline",
    "PipelineReport",
    "World",
    "WorldConfig",
    "__version__",
    "build_world",
    "pipeline_for_world",
    "run_pipeline",
]


def pipeline_for_world(
    world: World,
    selection_fn=None,
    link_extractor=None,
    pretrained_classifier=None,
) -> EwhoringPipeline:
    """Wire an :class:`EwhoringPipeline` to a synthetic world's components.

    ``selection_fn`` / ``link_extractor`` / ``pretrained_classifier`` are
    the adversarial-drift injection points (see
    :class:`~repro.core.pipeline.EwhoringPipeline`); left ``None`` the
    pipeline reproduces the paper's static methodology exactly.  Each
    run adds copies of the feature records the world build computed
    (``world.image_features``) to its vision cache.
    """
    return EwhoringPipeline(
        dataset=world.dataset,
        internet=world.internet,
        reverse_index=world.reverse_index,
        hashlist=world.hashlist,
        archive=world.archive,
        category_lookup=world.domain_categories.get,
        seed=world.config.seed,
        selection_fn=selection_fn,
        link_extractor=link_extractor,
        pretrained_classifier=pretrained_classifier,
        image_features=world.image_features,
    )


def run_pipeline(
    world: World,
    annotate_n: int = 1000,
    strict: bool = True,
    checkpoint=None,
    stage_hooks=None,
    telemetry=None,
    workers: Optional[int] = None,
    selection_fn=None,
    link_extractor=None,
    pretrained_classifier=None,
    persist=None,
) -> PipelineReport:
    """Run the full measurement over a world using its ground-truth oracles.

    The oracles replace the study's human work: thread annotation for
    classifier training (§4.1) and proof-of-earnings annotation (§5.1).
    The key-actor group size (50 in the paper) shrinks with the world's
    scale so the groups keep the paper's selectivity.

    ``strict=False`` degrades gracefully on stage failures instead of
    aborting; ``checkpoint`` (a path or ``CrawlCheckpoint``) makes the
    §4.2 crawl resumable; ``stage_hooks`` force stage failures in tests;
    ``telemetry`` (a :class:`~repro.obs.RunTelemetry`) carries the run's
    span tracer and metrics registry — pass one built around an enabled
    :class:`~repro.obs.Tracer` to capture a trace (DESIGN.md §9).
    ``selection_fn`` / ``link_extractor`` / ``pretrained_classifier``
    go to :func:`pipeline_for_world`; the drift harness sets them.

    ``workers`` is accepted and ignored: the crawl is always serial
    (DESIGN.md §10).  ``benchmarks/e2e/worker.py`` still passes it; the
    parameter goes once that benchmark drops its ``threads2`` workload.

    ``persist`` (a :class:`~repro.store.incremental.PersistSession`)
    plugs in a persistent store's warm memos, its ``cache`` the run's
    vision cache; it preserves bit-identity of every measured quantity —
    a warm run only *skips recomputation*.
    """
    import math

    pipeline = pipeline_for_world(
        world,
        selection_fn=selection_fn,
        link_extractor=link_extractor,
        pretrained_classifier=pretrained_classifier,
    )
    truth = world.forums
    top_n = max(10, int(round(50 * math.sqrt(world.config.scale))))
    return pipeline.run(
        top_oracle=lambda thread_id: truth.thread_types.get(thread_id) == "top",
        proof_oracle=truth.proof_truth.get,
        annotate_n=annotate_n,
        key_actor_top_n=top_n,
        strict=strict,
        checkpoint=checkpoint,
        stage_hooks=stage_hooks,
        telemetry=telemetry,
        persist=persist,
    )
