"""Stage 5: reverse image search, seen-before analysis, domain categories.

Implements §4.5 end to end:

* query selection — every NSFV preview, plus **three images per pack**
  (lowest / median / highest NSFW score), the paper's sampling rule;
* reverse search against the TinEye-analogue index;
* *seen before* — a queried image counts when any matched URL has a
  crawl record (reverse-search crawl date or Wayback snapshot) strictly
  before the image's forum post date;
* zero-match packs — packs whose sampled images all return no matches;
* domain classification — the union of matched domains run through the
  three classifier analogues, yielding the Table 6 distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..domains.classifiers import DomainClassifier, DomainVerdict, tag_distribution
from ..vision.cache import Featurizer
# Unused here; benchmarks/e2e/layers.py wraps this module attribute.
from ..vision.photodna import robust_hash  # noqa: F401
from ..vision.reverse_search import ReverseImageIndex, ReverseSearchReport
from ..web.archive import WaybackArchive
from ..web.crawler import CrawledImage
from .quarantine import Quarantine

__all__ = [
    "PackSampling",
    "ProvenanceAnalyzer",
    "ProvenanceResult",
    "QueryOutcome",
    "ReverseSearchSummary",
]


@dataclass(frozen=True, slots=True)
class QueryOutcome:
    """One reverse-searched image and what came back."""

    digest: str
    pack_id: Optional[int]
    posted_at: Optional[datetime]
    n_matches: int
    seen_before: bool
    domains: Tuple[str, ...]

    @property
    def matched(self) -> bool:
        return self.n_matches > 0


@dataclass(frozen=True, slots=True)
class ReverseSearchSummary:
    """One row of Table 5."""

    group: str
    total: int
    matches: int
    seen_before: int
    mean_matches_per_matched: float
    max_matches: int

    @property
    def match_rate(self) -> float:
        return self.matches / self.total if self.total else 0.0

    @property
    def seen_before_rate(self) -> float:
        return self.seen_before / self.total if self.total else 0.0


@dataclass
class ProvenanceResult:
    """Everything stage 5 produced."""

    pack_outcomes: List[QueryOutcome]
    preview_outcomes: List[QueryOutcome]
    zero_match_pack_ids: Set[int]
    #: Distinct matched domains across all queries (§4.5: 5 917 domains).
    matched_domains: List[str]
    #: classifier name → Table 6 rows (tag, count, cumulative %).
    domain_tables: Dict[str, List[Tuple[str, int, float]]]
    #: classifier name → raw verdicts, for finer-grained analysis.
    domain_verdicts: Dict[str, List[DomainVerdict]]

    def summary(self, group: str) -> ReverseSearchSummary:
        """Aggregate one group ('packs' or 'previews') as a Table 5 row."""
        outcomes = self.pack_outcomes if group == "packs" else self.preview_outcomes
        matched = [o for o in outcomes if o.matched]
        return ReverseSearchSummary(
            group=group,
            total=len(outcomes),
            matches=len(matched),
            seen_before=sum(1 for o in outcomes if o.seen_before),
            mean_matches_per_matched=(
                float(np.mean([o.n_matches for o in matched])) if matched else 0.0
            ),
            max_matches=max((o.n_matches for o in outcomes), default=0),
        )


@dataclass(frozen=True)
class PackSampling:
    """The per-pack query-selection rule (§4.5): up to ``per_pack`` images
    chosen at the NSFW-score extremes and median."""

    per_pack: int = 3


class ProvenanceAnalyzer:
    """Runs the full stage-5 analysis."""

    def __init__(
        self,
        reverse_index: ReverseImageIndex,
        archive: Optional[WaybackArchive] = None,
        classifiers: Sequence[DomainClassifier] = (),
        category_lookup: Optional[Callable[[str], Optional[str]]] = None,
        sampling: PackSampling = PackSampling(),
        features: Optional[Featurizer] = None,
    ):
        self._index = reverse_index
        self._archive = archive
        self._classifiers = list(classifiers)
        self._category_lookup = category_lookup if category_lookup is not None else (lambda d: None)
        self._sampling = sampling
        #: The run's feature records: sampling ranks packs by their NSFW
        #: scores and queries use their hashes, so the scores are the
        #: ones the NSFV stage classified with.
        self._features = features if features is not None else Featurizer()

    # ------------------------------------------------------------------
    def analyze(
        self,
        pack_images: Sequence[CrawledImage],
        preview_images: Sequence[CrawledImage],
        quarantine: Optional[Quarantine] = None,
    ) -> ProvenanceResult:
        """Reverse-search sampled pack images and all previews.

        With a ``quarantine`` ledger attached, inputs first cross a
        raster-validation boundary (poison that survived the upstream
        stages is excised under ``"provenance"``) and each reverse-search
        query runs inside a per-record error boundary, so one bad record
        costs exactly one query, never the stage.
        """
        if quarantine is not None:
            pack_images = quarantine.filter_rasters(
                "provenance",
                pack_images,
                ref=lambda c: c.digest,
                raster=lambda c: c.image.pixels,
                context=lambda c: {"group": "packs", "pack_id": c.pack_id},
                known=self._features.cache,
            )
            preview_images = quarantine.filter_rasters(
                "provenance",
                preview_images,
                ref=lambda c: c.digest,
                raster=lambda c: c.image.pixels,
                context=lambda c: {"group": "previews"},
                known=self._features.cache,
            )
        sampled = self._sample_packs(pack_images)
        pack_outcomes = self._query_all(sampled, quarantine, "packs")
        preview_outcomes = self._query_all(preview_images, quarantine, "previews")

        zero_match: Set[int] = set()
        per_pack_matches: Dict[int, List[int]] = {}
        for outcome in pack_outcomes:
            if outcome.pack_id is not None:
                per_pack_matches.setdefault(outcome.pack_id, []).append(outcome.n_matches)
        for pack_id, counts in per_pack_matches.items():
            if all(count == 0 for count in counts):
                zero_match.add(pack_id)

        domains = self._collect_domains(pack_outcomes, preview_outcomes)
        verdicts: Dict[str, List[DomainVerdict]] = {}
        tables: Dict[str, List[Tuple[str, int, float]]] = {}
        for classifier in self._classifiers:
            results = [
                classifier.classify(domain, self._category_lookup(domain))
                for domain in domains
            ]
            verdicts[classifier.name] = results
            tables[classifier.name] = tag_distribution(results)

        return ProvenanceResult(
            pack_outcomes=pack_outcomes,
            preview_outcomes=preview_outcomes,
            zero_match_pack_ids=zero_match,
            matched_domains=domains,
            domain_tables=tables,
            domain_verdicts=verdicts,
        )

    # ------------------------------------------------------------------
    def _sample_packs(self, pack_images: Sequence[CrawledImage]) -> List[CrawledImage]:
        """Pick lowest/median/highest NSFW-scored images per pack.

        Duplicate digests within a pack are collapsed first, mirroring
        the unique-file set the paper samples from.
        """
        by_pack: Dict[int, Dict[str, CrawledImage]] = {}
        for crawled in pack_images:
            if crawled.pack_id is None:
                continue
            by_pack.setdefault(crawled.pack_id, {}).setdefault(crawled.digest, crawled)

        selected: List[CrawledImage] = []
        for pack_id in sorted(by_pack):
            members = list(by_pack[pack_id].values())
            if len(members) <= self._sampling.per_pack:
                selected.extend(members)
                continue
            scored = sorted(members, key=self._nsfw_score)
            # Evenly spaced score quantiles; per_pack=3 gives the paper's
            # lowest / median / highest selection.
            positions = np.linspace(0, len(scored) - 1, self._sampling.per_pack)
            picks = sorted({int(round(p)) for p in positions})
            selected.extend(scored[i] for i in picks)
        return selected

    def _record(self, crawled: CrawledImage) -> Dict[str, Any]:
        return self._features.features(crawled.digest, crawled.image)

    def _nsfw_score(self, crawled: CrawledImage) -> float:
        return float(self._record(crawled)["nsfw"])

    def _query_all(
        self,
        images: Sequence[CrawledImage],
        quarantine: Optional[Quarantine],
        group: str,
    ) -> List[QueryOutcome]:
        """Query every image; per-record boundary when a ledger is attached."""
        if quarantine is None:
            return [self._query(c) for c in images]
        outcomes: List[QueryOutcome] = []
        for crawled in images:
            with quarantine.guard(
                "provenance", crawled.digest,
                {"group": group, "pack_id": crawled.pack_id},
            ):
                outcomes.append(self._query(crawled))
        return outcomes

    def _query(self, crawled: CrawledImage) -> QueryOutcome:
        report = self._index.search_hash(int(self._record(crawled)["hash"]))
        posted_at = crawled.link.posted_at
        seen_before = False
        if posted_at is not None:
            seen_before = self._seen_before(report, posted_at)
        return QueryOutcome(
            digest=crawled.digest,
            pack_id=crawled.pack_id,
            posted_at=posted_at,
            n_matches=report.n_matches,
            seen_before=seen_before,
            domains=tuple(report.domains()),
        )

    def _seen_before(self, report: ReverseSearchReport, posted_at: datetime) -> bool:
        for match in report.matches:
            if match.copy.crawl_date < posted_at:
                return True
            if self._archive is not None and self._archive.seen_before(
                match.copy.url, posted_at
            ):
                return True
        return False

    @staticmethod
    def _collect_domains(*outcome_groups: Sequence[QueryOutcome]) -> List[str]:
        seen: Dict[str, None] = {}
        for group in outcome_groups:
            for outcome in group:
                for domain in outcome.domains:
                    seen.setdefault(domain, None)
        return list(seen)
