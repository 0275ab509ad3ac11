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
# Unused here; benchmarks/e2e/layers.py wraps these module attributes.
from ..media.validate import validate_raster  # noqa: F401
from ..vision.batch import hash_batch  # noqa: F401
from ..vision.cache import Featurizer
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

__all__ = ["AbuseFilterResult", "AbuseFilter"]

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


class AbuseFilter:
    """Hash-match-report-delete sweep over crawled images."""

    def __init__(
        self,
        hashlist: HashListService,
        reverse_index: Optional[ReverseImageIndex] = None,
        domain_info: Optional[DomainInfoFn] = None,
        features: Optional[Featurizer] = None,
    ):
        self._hashlist = hashlist
        self._reverse_index = reverse_index
        self._domain_info = domain_info if domain_info is not None else (lambda d: (None, None))
        self._features = features if features is not None else Featurizer(hashlist=hashlist)

    # ------------------------------------------------------------------
    def sweep(
        self,
        images: Sequence[CrawledImage],
        dataset: Optional[ForumDataset] = None,
        quarantine: Optional[Quarantine] = None,
    ) -> AbuseFilterResult:
        """Match all images; report and delete the hits.

        ``dataset`` enables the thread/actor exposure statistics; without
        it only image-level results are produced.

        Hashes come from the digests' feature records (see
        :class:`~repro.vision.cache.Featurizer`), computed at crawler
        ingest; a digest without a record is featurised here, once, no
        matter how many crawled copies carry it.

        When a ``quarantine`` ledger is supplied, every representative
        raster crosses a validation boundary before hashing: poison that
        somehow bypassed crawler ingest is admitted to the ledger under
        ``"abuse_filter"`` and its digest excluded from the sweep (and,
        via :meth:`AbuseFilterResult.is_clean`, from every later stage)
        instead of corrupting the batched hash kernel.
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
            survivors = quarantine.filter_rasters(
                "abuse_filter",
                digests,
                ref=lambda d: d,
                raster=lambda d: representatives[d].image.pixels,
                context=lambda d: {"link_kind": representatives[d].link.link_kind},
            )
            quarantined_digests = set(digests) - set(survivors)
            digests = survivors
        hashes = [
            int(self._features.features(d, representatives[d].image)["hash"])
            for d in digests
        ]
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
