"""The end-to-end measurement pipeline of Figure 1.

:class:`EwhoringPipeline` chains the five stages over a synthetic world:

1. **Extract TOPs** — select eWhoring threads (§3), annotate a sample,
   train the hybrid classifier, extract Threads Offering Packs (§4.1);
2. **Extract URLs & download** — whitelist + snowball, crawl previews
   and packs (§4.2);
3. **Filter child abuse** — hashlist sweep, report, delete (§4.3);
4. **Classify images** — Algorithm 1 splits SFV/NSFV (§4.4);
5. **Reverse search & analyse** — provenance, seen-before, domain
   categories (§4.5);

plus the §5 earnings pipeline and the §6 actor analysis, so a single
:meth:`run` produces every quantity the paper's tables and figures need.

Every stage executes inside a recorded error boundary (see
:mod:`repro.core.stage_runner`).  With ``strict=True`` (default)
failures propagate exactly as before; with ``strict=False`` the
pipeline *degrades gracefully*: a failed stage yields a
:class:`PipelineReport` whose corresponding section is ``None``, a
structured :class:`~repro.core.stage_runner.StageFailure` is recorded,
and dependent stages are skipped while independent ones (e.g. the §5
earnings analysis after a crawl failure) still run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..domains.classifiers import default_classifiers
from ..forum.dataset import ForumDataset
from ..obs import RunTelemetry
from ..forum.models import Thread
from ..forum.query import ForumSummary, ewhoring_threads, forum_summaries
from ..ml.split import train_test_split
from ..synth.earnings_gen import ProofPlan
from ..vision.cache import Featurizer, VisionCache, VisionCacheStats
from ..vision.photodna import HashListService
from ..vision.reverse_search import ReverseImageIndex
from ..web.archive import WaybackArchive
from ..web.crawler import CrawlResult, CrawledImage, Crawler
from ..web.internet import SimulatedInternet
from .abuse_filter import AbuseFilter, AbuseFilterResult
from .quarantine import Quarantine
from .stage_runner import StageFailure, StageOutcome, StageRunner
from .actors import (
    ActorAnalyzer,
    CohortRow,
    InterestEvolution,
    KeyActorSelection,
    cohort_table,
    interest_evolution,
    select_key_actors,
)
from .earnings import (
    CurrencyExchangeTable,
    EarningsAnalyzer,
    EarningsResult,
    currency_exchange_table,
)
from .nsfv import NsfvClassifier, NsfvVerdict
from .provenance import ProvenanceAnalyzer, ProvenanceResult
from .top_classifier import ExtractionStats, HybridTopClassifier, TopEvaluation
from .url_extraction import LinkExtraction, extract_links

__all__ = ["EwhoringPipeline", "PipelineReport"]

#: Oracles standing in for human work: thread id → is-TOP annotation,
#: image id → proof ground truth (or None).
TopOracleFn = Callable[[int], bool]
ProofOracleFn = Callable[[int], Optional[ProofPlan]]

#: Share of the annotated TOP sample the classifier trains on (§4.1).
TRAIN_FRACTION = 0.8
#: Minimum eWhoring posts for an actor to enter the currency-exchange
#: table (§5.2).
MIN_CE_POSTS = 50


@dataclass
class PipelineReport:
    """Everything one pipeline run measured.

    Under ``strict=False`` any section downstream of a failed stage may
    be ``None`` (marked unavailable); inspect :attr:`stage_failures` /
    :attr:`stage_outcomes` for the structured failure records.
    """

    # Stage 0: dataset selection (§3, Table 1).
    selection: List[Thread]
    forum_summaries: List[ForumSummary]

    # Stage 1: TOP extraction (§4.1).
    top_evaluation: Optional[TopEvaluation] = None
    extraction_stats: Optional[ExtractionStats] = None
    tops: Optional[List[Thread]] = None
    tops_per_forum: Optional[Dict[str, int]] = None
    n_annotated: Optional[int] = None
    n_annotated_tops: Optional[int] = None
    #: The fitted TOP classifier the run used (trained here, or the
    #: pipeline's ``pretrained_classifier``).
    classifier: Optional[HybridTopClassifier] = None

    # Stage 2: URLs and crawling (§4.2).
    links: Optional[LinkExtraction] = None
    crawl: Optional[CrawlResult] = None

    # Stage 3: abuse filtering (§4.3).
    abuse: Optional[AbuseFilterResult] = None

    # Stage 4: NSFV classification (§4.4).
    preview_verdicts: Optional[List[Tuple[CrawledImage, NsfvVerdict]]] = None
    n_nsfv_previews: Optional[int] = None

    # Stage 5: provenance (§4.5).
    provenance: Optional[ProvenanceResult] = None

    # §5: profits.
    earnings: Optional[EarningsResult] = None
    currency_exchange: Optional[CurrencyExchangeTable] = None

    # §6: actors.
    actor_analyzer: Optional[ActorAnalyzer] = None
    cohorts: Optional[List[CohortRow]] = None
    key_actors: Optional[KeyActorSelection] = None
    interests: Optional[InterestEvolution] = None

    # Stage boundaries (robustness layer).
    stage_outcomes: List[StageOutcome] = field(default_factory=list)
    stage_failures: List[StageFailure] = field(default_factory=list)

    #: Hit/miss counters of the run's shared :class:`VisionCache`.
    vision_cache_stats: Optional[VisionCacheStats] = None

    #: The run's shared record-level fault ledger (see DESIGN.md §8):
    #: every payload excised at a per-record boundary, across stages.
    quarantine: Optional[Quarantine] = None

    #: The run's unified telemetry (DESIGN.md §9): the span tracer, the
    #: metrics registry and the Figure-1 stage funnel, ready for the
    #: :mod:`repro.obs.export` sinks.
    telemetry: Optional[RunTelemetry] = None

    @property
    def n_quarantined(self) -> int:
        """Total records excised across all stages of this run."""
        return len(self.quarantine) if self.quarantine is not None else 0

    @property
    def nsfv_previews(self) -> List[CrawledImage]:
        """Previews classified Not-Safe-For-Viewing (model images)."""
        if self.preview_verdicts is None:
            return []
        return [c for c, v in self.preview_verdicts if v.nsfv]

    @property
    def degraded(self) -> bool:
        """True when any stage failed or was skipped."""
        return any(o.status != "ok" for o in self.stage_outcomes)


class EwhoringPipeline:
    """Wires the five stages plus §5/§6 over one world's components."""

    def __init__(
        self,
        dataset: ForumDataset,
        internet: SimulatedInternet,
        reverse_index: ReverseImageIndex,
        hashlist: HashListService,
        archive: Optional[WaybackArchive] = None,
        category_lookup: Optional[Callable[[str], Optional[str]]] = None,
        seed: int = 0,
        selection_fn: Optional[Callable[[ForumDataset], List[Thread]]] = None,
        link_extractor: Optional[
            Callable[[ForumDataset, Sequence[Thread]], LinkExtraction]
        ] = None,
        pretrained_classifier: Optional[HybridTopClassifier] = None,
        image_features: Optional[Featurizer] = None,
    ):
        self.dataset = dataset
        self.internet = internet
        self.reverse_index = reverse_index
        self.hashlist = hashlist
        self.archive = archive
        self.category_lookup = category_lookup if category_lookup is not None else (lambda d: None)
        self.classifiers = list(default_classifiers(seed))
        self.nsfv = NsfvClassifier()
        self.seed = seed
        #: Digest → feature-record map the stages read (DESIGN.md §7),
        #: unless a run is given a store's ``cache``.
        self.vision_cache = VisionCache()
        #: The world build's featuriser; each run adopts copies of its
        #: records (see :meth:`Featurizer.adopt`).
        self.image_features = image_features
        # Adversarial-drift injection points (defaults reproduce the
        # paper's static methodology bit-for-bit; repro.drift overrides
        # them to model adaptive defenses):
        #: Thread-selection strategy for stage 1 (default: §4.1 keyword
        #: and board selection via :func:`ewhoring_threads`).
        self.selection_fn = selection_fn if selection_fn is not None else ewhoring_threads
        #: Link-extraction strategy for stage 2 (default:
        #: :func:`extract_links` with the static whitelist registry).
        self.link_extractor = link_extractor if link_extractor is not None else extract_links
        #: A frozen, already-fitted TOP classifier; set, stage 1 skips
        #: annotation + training (the stale-model arm of the retraining-
        #: cadence defense).
        self.pretrained_classifier = pretrained_classifier

    # ------------------------------------------------------------------
    def run(
        self,
        top_oracle: TopOracleFn,
        proof_oracle: ProofOracleFn,
        annotate_n: int = 1000,
        key_actor_top_n: int = 50,
        strict: bool = True,
        stage_hooks: Optional[Mapping[str, Callable[[], None]]] = None,
        telemetry: Optional[RunTelemetry] = None,
        cache: Optional[VisionCache] = None,
    ) -> PipelineReport:
        """Execute the full measurement and return the report.

        ``strict=False`` degrades gracefully on stage failures instead of
        aborting (see :class:`PipelineReport`); ``stage_hooks`` maps stage
        names to callables invoked at the top of the stage boundary (tests
        and benchmarks use this to force failures).

        ``telemetry`` is the run's :class:`~repro.obs.RunTelemetry`
        (span tracer + metrics registry); omitted, a fresh registry with
        the shared no-op tracer is created, so funnel counts and metric
        values are always recorded while span tracing stays
        zero-cost-off.  The same object rides out on
        :attr:`PipelineReport.telemetry`.

        ``cache`` replaces :attr:`vision_cache` with the
        :class:`~repro.vision.cache.VisionCache` a persistent store loaded
        from earlier epochs (``PersistSession.cache``): their feature
        records and latent digests.  Those only skip recomputation of pure
        per-image functions (render / validate / digest / featurise), so
        every measured quantity — and the measurement view — is
        bit-identical with or without them; a warm run merely does less
        work (see DESIGN.md §12).
        """
        tele = telemetry if telemetry is not None else RunTelemetry()
        runner = StageRunner(strict=strict, hooks=stage_hooks, telemetry=tele)
        #: One ledger per run: every stage's record-level boundary admits
        #: poison records here, and the report carries it out.
        quarantine = Quarantine(tracer=tele.tracer)
        #: One featuriser per run: crawler ingest records each distinct
        #: image's hash and NSFW score (scored by the NSFV stage's own
        #: scorer) and drops its pixels; every later stage reads records.
        #: It starts from copies of the records the world build computed
        #: for the images it rendered, when those were scored the same way.
        if cache is None:
            cache = self.vision_cache
        features = Featurizer(cache, self.hashlist, self.nsfv.scorer)
        if self.image_features is not None:
            features.adopt(self.image_features)
        with tele.tracer.span("pipeline.run", seed=self.seed, strict=strict):
            report = self._run_stages(
                runner, tele, quarantine, features,
                top_oracle, proof_oracle, annotate_n,
                key_actor_top_n,
            )
        return report

    # ------------------------------------------------------------------
    def _run_stages(
        self,
        runner: StageRunner,
        tele: RunTelemetry,
        quarantine: Quarantine,
        features: Featurizer,
        top_oracle: TopOracleFn,
        proof_oracle: ProofOracleFn,
        annotate_n: int,
        key_actor_top_n: int,
    ) -> PipelineReport:
        """The stage chain, executed inside the ``pipeline.run`` span."""
        fetch_calls_start = self.internet.n_fetch_calls
        selection = self.selection_fn(self.dataset)
        summaries = forum_summaries(self.dataset, selection)

        # ---- stage 1: TOP extraction --------------------------------
        def _stage_top():
            if self.pretrained_classifier is not None:
                classifier = self.pretrained_classifier
                evaluation, n_annotated, n_annotated_tops = None, 0, 0
            else:
                classifier, evaluation, n_annotated, n_annotated_tops = (
                    self._train_classifier(selection, top_oracle, annotate_n)
                )
            tops, stats = classifier.extract_tops(self.dataset, selection)
            tops_per_forum: Dict[str, int] = {}
            for thread in tops:
                name = self.dataset.forum(thread.forum_id).name
                tops_per_forum[name] = tops_per_forum.get(name, 0) + 1
            return (
                classifier, evaluation, stats, tops, tops_per_forum,
                n_annotated, n_annotated_tops,
            )

        top_out, _ = runner.run(
            "top_extraction", _stage_top, context={"n_threads": len(selection)}
        )
        classifier = evaluation = stats = tops = tops_per_forum = None
        n_annotated = n_annotated_tops = None
        if top_out is not None:
            (
                classifier, evaluation, stats, tops, tops_per_forum,
                n_annotated, n_annotated_tops,
            ) = top_out

        # ---- stage 2: URLs + crawl ----------------------------------
        def _stage_crawl():
            links = self.link_extractor(self.dataset, tops)
            crawler = Crawler(self.internet, features=features)
            result = crawler.crawl(
                links.all_links,
                quarantine=quarantine,
                stage="url_crawl",
                tracer=tele.tracer,
            )
            return links, result

        crawl_out, _ = runner.run(
            "url_crawl",
            _stage_crawl,
            requires=("top_extraction",),
            context={"n_tops": len(tops) if tops is not None else 0},
        )
        links, crawl = crawl_out if crawl_out is not None else (None, None)

        # ---- stage 3: abuse filter ----------------------------------
        def _stage_abuse():
            abuse_filter = AbuseFilter(
                self.hashlist,
                reverse_index=self.reverse_index,
                domain_info=self._domain_info,
                features=features,
            )
            abuse = abuse_filter.sweep(
                crawl.all_images,
                dataset=self.dataset,
                quarantine=quarantine,
            )
            clean_previews = [c for c in crawl.preview_images if abuse.is_clean(c)]
            clean_pack_images = [c for c in crawl.pack_images if abuse.is_clean(c)]
            return abuse, clean_previews, clean_pack_images

        abuse_out, _ = runner.run(
            "abuse_filter",
            _stage_abuse,
            requires=("url_crawl",),
            context={"n_images": len(crawl.all_images) if crawl is not None else 0},
        )
        abuse, clean_previews, clean_pack_images = (
            abuse_out if abuse_out is not None else (None, None, None)
        )

        # ---- stage 4: NSFV classification ---------------------------
        def _stage_nsfv():
            # Record-level boundary: previews whose raster fails
            # validation are excised into the ledger; the classifier
            # only ever sees clean records.
            previews = quarantine.filter_rasters(
                "nsfv",
                clean_previews,
                ref=lambda c: c.digest,
                raster=lambda c: c.image.pixels,
                known=features.cache,
            )
            verdicts = self.nsfv.classify_batch(previews, features, tracer=tele.tracer)
            preview_verdicts = list(zip(previews, verdicts))
            return preview_verdicts, [c for c, v in preview_verdicts if v.nsfv]

        nsfv_out, _ = runner.run(
            "nsfv",
            _stage_nsfv,
            requires=("abuse_filter",),
            context={"n_previews": len(clean_previews) if clean_previews is not None else 0},
        )
        preview_verdicts, nsfv_previews = (
            nsfv_out if nsfv_out is not None else (None, None)
        )

        # ---- stage 5: provenance ------------------------------------
        def _stage_provenance():
            return ProvenanceAnalyzer(
                self.reverse_index,
                archive=self.archive,
                classifiers=self.classifiers,
                category_lookup=self.category_lookup,
                features=features,
            ).analyze(clean_pack_images, nsfv_previews, quarantine=quarantine)

        provenance, _ = runner.run(
            "provenance",
            _stage_provenance,
            requires=("nsfv",),
            context={
                "n_pack_images": len(clean_pack_images) if clean_pack_images is not None else 0,
                "n_nsfv_previews": len(nsfv_previews) if nsfv_previews is not None else 0,
            },
        )
        if crawl is not None:
            self._release_pixels(crawl.all_images)

        # ---- §5: earnings (independent of the crawl stages) ---------
        def _stage_earnings():
            earnings = EarningsAnalyzer(
                self.dataset,
                self.internet,
                self.hashlist,
                annotator=proof_oracle,
                nsfv=self.nsfv,
                quarantine=quarantine,
                features=features,
            ).analyze(selection)
            ce_table = currency_exchange_table(
                self.dataset, min_ewhoring_posts=MIN_CE_POSTS, selection=selection
            )
            return earnings, ce_table

        earnings_out, _ = runner.run(
            "earnings", _stage_earnings, context={"n_threads": len(selection)}
        )
        earnings, ce_table = earnings_out if earnings_out is not None else (None, None)

        # ---- §6: actors ---------------------------------------------
        def _stage_actors():
            analyzer = ActorAnalyzer(self.dataset, selection)
            packs_per_actor: Dict[int, int] = {}
            for thread in tops:
                packs_per_actor[thread.author_id] = (
                    packs_per_actor.get(thread.author_id, 0) + 1
                )
            analyzer.attach_packs(packs_per_actor)
            analyzer.attach_earnings(
                earnings.per_actor_totals() if earnings is not None else {}
            )
            analyzer.attach_currency_exchange()
            metrics = analyzer.metrics()
            cohorts = cohort_table(metrics)
            key_actors = select_key_actors(metrics, top_n=key_actor_top_n)
            interests = interest_evolution(
                self.dataset, metrics, key_actors.groups.all_key_actors()
            )
            return analyzer, cohorts, key_actors, interests

        actors_out, _ = runner.run(
            "actors",
            _stage_actors,
            requires=("top_extraction",),
            context={"n_actors": len({t.author_id for t in selection})},
        )
        analyzer, cohorts, key_actors, interests = (
            actors_out if actors_out is not None else (None, None, None, None)
        )

        report = PipelineReport(
            selection=selection,
            forum_summaries=summaries,
            top_evaluation=evaluation,
            extraction_stats=stats,
            tops=tops,
            tops_per_forum=tops_per_forum,
            n_annotated=n_annotated,
            n_annotated_tops=n_annotated_tops,
            classifier=classifier,
            links=links,
            crawl=crawl,
            abuse=abuse,
            preview_verdicts=preview_verdicts,
            n_nsfv_previews=len(nsfv_previews) if nsfv_previews is not None else None,
            provenance=provenance,
            earnings=earnings,
            currency_exchange=ce_table,
            actor_analyzer=analyzer,
            cohorts=cohorts,
            key_actors=key_actors,
            interests=interests,
            stage_outcomes=list(runner.outcomes),
            stage_failures=list(runner.failures),
            vision_cache_stats=features.cache.stats(),
            quarantine=quarantine,
            telemetry=tele,
        )
        self._record_telemetry(report, tele, fetch_calls_start)
        return report

    # ------------------------------------------------------------------
    def _record_telemetry(
        self,
        report: PipelineReport,
        tele: RunTelemetry,
        fetch_calls_start: int,
    ) -> None:
        """Record the Figure-1 funnel and mirror the scattered stats.

        The funnel is the paper's headline table: per-stage attrition
        counts, in pipeline order, ``None`` for sections a lenient run
        lost.  The per-subsystem statistics objects (crawl/retry
        counters, quarantine ledger) are mirrored into ``tele.metrics``
        and the work accounting (vision cache, internet fetch calls)
        into ``tele.work`` once, at run end — no per-record metric
        updates on any hot path.  Everything here is a pure function of
        the world seed (the determinism contract of DESIGN.md §9).
        """
        crawl = report.crawl
        provenance = report.provenance
        n_prov_matches = None
        if provenance is not None:
            n_prov_matches = (
                provenance.summary("packs").matches
                + provenance.summary("previews").matches
            )

        tele.funnel_row("threads_selected", len(report.selection))
        tele.funnel_row(
            "tops_extracted", len(report.tops) if report.tops is not None else None
        )
        tele.funnel_row(
            "links_extracted",
            len(report.links.all_links) if report.links is not None else None,
        )
        tele.funnel_row(
            "images_downloaded", len(crawl.all_images) if crawl is not None else None
        )
        tele.funnel_row(
            "unique_files", crawl.n_unique_files if crawl is not None else None
        )
        tele.funnel_row(
            "nsfv_previews",
            report.n_nsfv_previews if report.n_nsfv_previews is not None else None,
        )
        tele.funnel_row("provenance_matches", n_prov_matches)
        tele.funnel_row("quarantined_records", report.n_quarantined)

        metrics = tele.metrics
        if crawl is not None:
            stats = crawl.stats
            metrics.gauge("crawl.links").set(stats.n_links)
            metrics.gauge("crawl.retries").set(stats.n_retries)
            metrics.gauge("crawl.giveups").set(stats.n_giveups)
            metrics.gauge("crawl.breaker_skips").set(stats.n_breaker_skips)
            metrics.gauge("crawl.transient_faults").set(stats.n_transient_faults)
            for status, count in stats.by_status.items():
                metrics.gauge("crawl.links_by_status", status=status.value).set(count)
            if crawl.breaker_summary is not None:
                metrics.gauge("crawl.breaker_opens").set(
                    crawl.breaker_summary["total_opens"]
                )
                metrics.gauge("crawl.breaker_domains").set(
                    crawl.breaker_summary["n_domains"]
                )
        if report.quarantine is not None:
            for stage, count in sorted(report.quarantine.by_stage().items()):
                metrics.gauge("quarantine.records_by_stage", stage=stage).set(count)
            for error, count in sorted(report.quarantine.by_error().items()):
                metrics.gauge("quarantine.records_by_error", error=error).set(count)

        # Work accounting: effort a memo-warm run may skip.
        work = tele.work
        cache_stats = report.vision_cache_stats
        if cache_stats is not None:
            work.gauge("vision_cache.hits").set(cache_stats.hits)
            work.gauge("vision_cache.misses").set(cache_stats.misses)
            work.gauge("vision_cache.entries").set(cache_stats.n_entries)
        work.gauge("internet.fetch_calls").set(
            self.internet.n_fetch_calls - fetch_calls_start
        )

    # ------------------------------------------------------------------
    def _train_classifier(
        self,
        selection: Sequence[Thread],
        top_oracle: TopOracleFn,
        annotate_n: int,
    ) -> Tuple[HybridTopClassifier, TopEvaluation, int, int]:
        """Annotate a sample (§4.1: 1 000 threads), train, evaluate."""
        rng = np.random.default_rng(self.seed)
        n_sample = min(annotate_n, len(selection))
        if n_sample < 10:
            raise ValueError("selection too small to annotate and train on")
        indices = rng.choice(len(selection), size=n_sample, replace=False)
        annotated = [selection[int(i)] for i in indices]
        labels = [bool(top_oracle(t.thread_id)) for t in annotated]
        if not any(labels) or all(labels):
            raise ValueError(
                "annotation sample is single-class; enlarge the sample or world"
            )
        split = train_test_split(
            n_sample,
            train_fraction=TRAIN_FRACTION,
            seed=self.seed,
            stratify_labels=[int(l) for l in labels],
        )
        train_threads = [annotated[i] for i in split.train_indices]
        train_labels = [labels[i] for i in split.train_indices]
        test_threads = [annotated[i] for i in split.test_indices]
        test_labels = [labels[i] for i in split.test_indices]

        classifier = HybridTopClassifier()
        classifier.fit(self.dataset, train_threads, train_labels)
        evaluation = classifier.evaluate(self.dataset, test_threads, test_labels)
        return classifier, evaluation, n_sample, sum(labels)

    def _domain_info(self, domain: str) -> Tuple[Optional[str], Optional[str]]:
        return self.internet.region_of(domain), self.internet.site_type_of(domain)

    @staticmethod
    def _release_pixels(images: Sequence[CrawledImage]) -> None:
        """Drop the rasters stages re-rendered (the OCR band, digests
        without a record) once every stage has consumed them."""
        for crawled in images:
            crawled.image.drop_pixels()
