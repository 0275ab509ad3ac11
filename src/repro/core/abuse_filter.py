"""Stage 3: filtering and reporting child-abuse material (§4.3).

Every downloaded image is hashed and matched against the
PhotoDNA-analogue hashlist *before* any other processing.  A match
triggers the incident workflow the paper agreed with the IWF:

1. the image's pixels are dropped immediately ("deleted from our
   servers") and the image is excluded from every later stage;
2. for *actionable* entries (age-verified victims) a report is filed
   with the URL set where the image was found online (obtained through
   reverse search), its severity grade, hosting regions and site types;
3. the containing threads and their repliers are recorded, giving the
   lower bound on exposed actors the paper reports (476 actors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..forum.dataset import ForumDataset
from ..media.validate import validate_raster
from ..vision.batch import hash_batch
from ..vision.cache import VisionCache
from ..vision.photodna import (
    AbuseSeverity,
    HashListService,
    MatchResult,
    ReportLog,
    ReportRecord,
)
from ..vision.reverse_search import ReverseImageIndex
from ..web.crawler import CrawledImage
from .quarantine import Quarantine

__all__ = ["AbuseFilterResult", "AbuseFilter", "StreamMatcher"]

#: How domain metadata (region, site type) is looked up for report URLs.
DomainInfoFn = Callable[[str], Tuple[Optional[str], Optional[str]]]


@dataclass
class AbuseFilterResult:
    """Outcome of the stage-3 sweep (the §4.3 results)."""

    #: Digests of matched images (all copies excluded downstream).
    matched_digests: Set[str]
    #: Distinct matched images (by digest) — the paper's "36 images".
    n_matched_images: int
    #: Actioned URLs across reports — the paper's "61 URLs".
    n_actioned_urls: int
    severity_histogram: Dict[AbuseSeverity, int]
    region_histogram: Dict[str, int]
    site_type_histogram: Dict[str, int]
    #: Threads whose links delivered matched images.
    affected_thread_ids: Set[int]
    #: Actors who replied in those threads (exposure lower bound).
    exposed_actor_ids: Set[int]
    report_log: ReportLog
    #: Digests whose payload failed validation at this stage's boundary
    #: (defence in depth behind crawler ingest); excluded downstream.
    quarantined_digests: Set[str] = field(default_factory=set)

    def is_clean(self, crawled: CrawledImage) -> bool:
        """True when an image survived the filter (and was not poison)."""
        return (
            crawled.digest not in self.matched_digests
            and crawled.digest not in self.quarantined_digests
        )


class StreamMatcher:
    """Incremental hashing/validation frontend for the streaming overlap.

    The sharded crawl executor (:mod:`repro.web.parallel`) hands each
    finished lane's outcomes to :meth:`on_lane` while later lanes are
    still crawling; the matcher deduplicates by content digest, runs the
    per-digest validation boundary, and pushes the fresh rasters through
    the batched hash kernel (via the shared :class:`VisionCache` when
    one is attached) — so by the time the crawl barrier falls, most of
    the abuse-filter's hash work is already done.

    Determinism: validation and hashing are pure per-raster functions
    and the matcher performs **exactly one** cache lookup/compute per
    distinct digest — the same count, though not the same order, as the
    batch path — so cache statistics and every deterministic view are
    unchanged.  Poison records are *not* admitted to the shared ledger
    here: they are stashed per digest and admitted by
    :meth:`AbuseFilter.sweep` in canonical first-seen order, so the
    quarantine ledger is byte-identical to the non-streaming sweep.

    The matcher is driven from the executor's single consumer thread
    (lanes are delivered in lane order) and needs no locking of its own;
    the :class:`VisionCache` it feeds is itself thread-safe.
    """

    def __init__(
        self,
        cache: Optional[VisionCache] = None,
        validate: bool = True,
        validation_memo=None,
    ):
        self._cache = cache
        #: Whether the stream ran the validation boundary; when False a
        #: quarantining sweep re-validates (stream results unusable for
        #: the ledger).
        self.validated = validate
        #: Optional :class:`~repro.media.validate.ValidationMemo`; a hit
        #: replays the recorded outcome without materialising pixels.
        self._validation_memo = validation_memo
        self._seen: Set[str] = set()
        #: digest → 64-bit perceptual hash, for every clean streamed digest.
        self.hash_by_digest: Dict[str, int] = {}
        #: digest → the validation exception it raised.
        self.poisoned: Dict[str, Exception] = {}

    # ------------------------------------------------------------------
    def add_images(self, images: Sequence[CrawledImage]) -> None:
        """Hash (and validate) the not-yet-seen digests in ``images``."""
        fresh: List[CrawledImage] = []
        for crawled in images:
            digest = crawled.digest
            if digest in self._seen:
                continue
            self._seen.add(digest)
            if self.validated:
                try:
                    if self._validation_memo is not None:
                        self._validation_memo.validate(
                            digest, lambda c=crawled: c.image.pixels
                        )
                    else:
                        validate_raster(crawled.image.pixels, context=digest)
                except Exception as exc:
                    self.poisoned[digest] = exc
                    continue
            fresh.append(crawled)
        if not fresh:
            return
        if self._cache is not None:
            hashes = self._cache.hashes_for(
                [
                    (crawled.digest, (lambda c=crawled: c.image.pixels))
                    for crawled in fresh
                ],
                hash_batch,
            )
        else:
            hashes = [int(h) for h in hash_batch([c.image.pixels for c in fresh])]
        for crawled, value in zip(fresh, hashes):
            self.hash_by_digest[crawled.digest] = int(value)

    def on_lane(self, lane_index: int, domain: str, outcomes) -> None:
        """Streaming hook for ``Crawler.crawl(..., on_lane=...)``."""
        images: List[CrawledImage] = []
        for outcome in outcomes:
            images.extend(outcome.preview_images)
            images.extend(outcome.pack_images)
        self.add_images(images)

    # ------------------------------------------------------------------
    def hashes_for_digests(
        self,
        digests: Sequence[str],
        fallback: Callable[[List[str]], Sequence[int]],
    ) -> List[int]:
        """Streamed hashes for ``digests``; stragglers go to ``fallback``.

        ``fallback`` receives the (normally empty) list of digests the
        stream never saw and must return their hashes in order.
        """
        missing = [d for d in digests if d not in self.hash_by_digest]
        computed = dict(zip(missing, fallback(missing))) if missing else {}
        return [
            self.hash_by_digest[d] if d in self.hash_by_digest else int(computed[d])
            for d in digests
        ]

    @property
    def n_streamed(self) -> int:
        """Distinct digests that passed through the stream."""
        return len(self._seen)


class AbuseFilter:
    """Hash-match-report-delete sweep over crawled images."""

    def __init__(
        self,
        hashlist: HashListService,
        reverse_index: Optional[ReverseImageIndex] = None,
        domain_info: Optional[DomainInfoFn] = None,
        cache: Optional[VisionCache] = None,
    ):
        self._hashlist = hashlist
        self._reverse_index = reverse_index
        self._domain_info = domain_info if domain_info is not None else (lambda d: (None, None))
        self._cache = cache

    # ------------------------------------------------------------------
    def sweep(
        self,
        images: Sequence[CrawledImage],
        dataset: Optional[ForumDataset] = None,
        quarantine: Optional[Quarantine] = None,
        precomputed: Optional[StreamMatcher] = None,
    ) -> AbuseFilterResult:
        """Match all images; report and delete the hits.

        ``dataset`` enables the thread/actor exposure statistics; without
        it only image-level results are produced.

        Hashing is deduplicated by content digest: each distinct image
        is hashed exactly once (through the batched vision engine, and
        through the shared :class:`VisionCache` when one is attached),
        no matter how many crawled copies carry the same digest.

        When a ``quarantine`` ledger is supplied, every representative
        raster crosses a validation boundary before hashing: poison that
        somehow bypassed crawler ingest is admitted to the ledger under
        ``"abuse_filter"`` and its digest excluded from the sweep (and,
        via :meth:`AbuseFilterResult.is_clean`, from every later stage)
        instead of corrupting the batched hash kernel.

        ``precomputed`` is a :class:`StreamMatcher` that already hashed
        (and validated) the digests while the crawl streamed lane
        completions: the sweep then consumes its per-digest hashes and
        validation outcomes instead of recomputing, admitting streamed
        poison to the ledger in canonical first-seen order — the result
        and the ledger are bit-identical to a non-streaming sweep.
        """
        log = ReportLog()
        matched_digests: Set[str] = set()
        affected_threads: Set[int] = set()
        n_matched_images = 0

        # Pass 1: one representative copy per digest, in first-seen order.
        representatives: Dict[str, CrawledImage] = {}
        for crawled in images:
            representatives.setdefault(crawled.digest, crawled)
        digests = list(representatives)
        quarantined_digests: Set[str] = set()
        if quarantine is not None:
            if precomputed is not None and precomputed.validated:
                # Replay the stream's per-digest validation outcomes in
                # canonical order (validation is a pure per-raster
                # function, so the outcomes are order-independent; only
                # the ledger's admission order needs restoring here).
                survivors = []
                for digest in digests:
                    exc = precomputed.poisoned.get(digest)
                    if exc is None:
                        survivors.append(digest)
                        continue
                    quarantine.admit(
                        "abuse_filter",
                        digest,
                        exc,
                        {"link_kind": representatives[digest].link.link_kind},
                    )
            else:
                survivors = quarantine.filter_rasters(
                    "abuse_filter",
                    digests,
                    ref=lambda d: d,
                    raster=lambda d: representatives[d].image.pixels,
                    context=lambda d: {"link_kind": representatives[d].link.link_kind},
                )
            quarantined_digests = set(digests) - set(survivors)
            digests = survivors
        if precomputed is not None:
            hashes = precomputed.hashes_for_digests(
                digests, lambda missing: self._hashes_for(representatives, missing)
            )
        else:
            hashes = self._hashes_for(representatives, digests)
        matches = self._hashlist.match_hashes(hashes)
        match_by_digest: Dict[str, MatchResult] = dict(zip(digests, matches))
        hash_by_digest: Dict[str, int] = dict(zip(digests, hashes))

        # Pass 2: apply per-copy semantics in crawl order.
        reported_digests: Set[str] = set()
        for crawled in images:
            match = match_by_digest.get(crawled.digest)
            if match is None:  # digest quarantined in pass 1
                continue
            if not match.matched:
                continue
            if crawled.link.thread_id is not None:
                affected_threads.add(crawled.link.thread_id)
            if crawled.digest not in matched_digests:
                matched_digests.add(crawled.digest)
                n_matched_images += 1
            if crawled.digest not in reported_digests:
                reported_digests.add(crawled.digest)
                entry = match.entry
                assert entry is not None
                if entry.actionable:
                    self._report(
                        log,
                        crawled,
                        hash_by_digest[crawled.digest],
                        entry.severity,
                        entry.victim_age,
                    )
            self._delete(crawled)

        exposed = self._exposed_actors(dataset, affected_threads) if dataset else set()
        return AbuseFilterResult(
            matched_digests=matched_digests,
            n_matched_images=n_matched_images,
            n_actioned_urls=len(log.actioned_urls()),
            severity_histogram=log.severity_histogram(),
            region_histogram=log.region_histogram(),
            site_type_histogram=log.site_type_histogram(),
            affected_thread_ids=affected_threads,
            exposed_actor_ids=exposed,
            report_log=log,
            quarantined_digests=quarantined_digests,
        )

    # ------------------------------------------------------------------
    def _hashes_for(
        self,
        representatives: Dict[str, CrawledImage],
        digests: List[str],
    ) -> List[int]:
        """Perceptual hashes for each digest, batched and cache-aware."""
        if self._cache is not None:
            keyed = [
                (digest, (lambda c=representatives[digest]: c.image.pixels))
                for digest in digests
            ]
            return self._cache.hashes_for(keyed, hash_batch)
        rasters = [representatives[digest].image.pixels for digest in digests]
        return [int(h) for h in hash_batch(rasters)]

    def _report(
        self,
        log: ReportLog,
        crawled: CrawledImage,
        image_hash: int,
        severity: AbuseSeverity,
        victim_age: Optional[int],
    ) -> None:
        """File one report: the online locations of the matched image."""
        urls: List[str] = []
        regions: List[str] = []
        site_types: List[str] = []
        if self._reverse_index is not None:
            report = self._reverse_index.search_hash(image_hash)
            for match in report.matches:
                urls.append(match.copy.url)
                region, site_type = self._domain_info(match.copy.domain)
                if region:
                    regions.append(region)
                if site_type:
                    site_types.append(site_type)
        log.report(
            ReportRecord(
                image_ref=crawled.digest,
                urls=tuple(urls),
                severity=severity,
                victim_age=victim_age,
                hosting_regions=tuple(regions),
                site_types=tuple(site_types),
            )
        )

    @staticmethod
    def _delete(crawled: CrawledImage) -> None:
        """Drop the image's pixels — the 'removed from our servers' step."""
        crawled.image.drop_pixels()

    @staticmethod
    def _exposed_actors(dataset: ForumDataset, thread_ids: Set[int]) -> Set[int]:
        exposed: Set[int] = set()
        for thread_id in thread_ids:
            for post in dataset.replies(thread_id):
                exposed.add(post.author_id)
        return exposed
