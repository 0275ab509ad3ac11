"""§5: financial profits — proof-of-earnings pipeline and CE analysis.

The earnings pipeline mirrors §5.1 step by step:

1. select earnings threads ('you make' / 'earn' in the heading, plus the
   Bragging Rights board) and posts combining 'proof' with trading terms;
2. extract image-sharing URLs, crawl them;
3. apply the same safety stages as the image pipeline — hashlist sweep,
   then NSFV filtering — before anything reaches the (simulated) human
   annotator;
4. annotate the safe images: payment platform, currency, transactions,
   totals; convert everything to USD with the historical rate at the
   transaction date;
5. aggregate: per-actor totals, platform histograms and the monthly
   PayPal-vs-AGC series of Figure 3.

The Currency Exchange analysis (Table 7) parses [H]/[W] headings of CE
threads started by actors with more than 50 eWhoring posts, counted only
after their first eWhoring post.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..finance.money import Currency, Money, PaymentPlatform
from ..finance.parser import parse_exchange_heading
from ..finance.rates import HistoricalRates
from ..forum.dataset import ForumDataset
from ..forum.models import Post, Thread
from ..forum.query import ewhoring_threads
from ..synth.earnings_gen import ProofPlan
from ..vision.cache import Featurizer
from ..vision.photodna import HashListService
# Unused here; benchmarks/e2e/layers.py wraps this module attribute.
from ..vision.photodna import robust_hash  # noqa: F401
from ..web.crawler import CrawledImage, Crawler, LinkRecord
from ..web.internet import SimulatedInternet
from ..web.sites import ServiceKind, service_by_domain
from ..web.url import extract_urls
from .keywords import EARNINGS_HEADING_TERMS, TRADE_KEYWORDS
from .nsfv import NsfvClassifier
from .quarantine import Quarantine

__all__ = [
    "CurrencyExchangeTable",
    "EarningsAnalyzer",
    "EarningsResult",
    "ProofRecord",
    "currency_exchange_table",
]

#: The oracle standing in for the human annotator of §5.1: image id →
#: the proof's ground truth, or None when the image is not a proof.
AnnotatorFn = Callable[[int], Optional[ProofPlan]]


@dataclass(frozen=True)
class ProofRecord:
    """One annotated proof-of-earnings image."""

    image_id: int
    digest: str
    post_id: Optional[int]
    author_id: Optional[int]
    posted_at: Optional[datetime]
    platform: PaymentPlatform
    currency: Currency
    n_transactions: int
    shows_transactions: bool
    total_usd: float
    #: USD amounts per transaction when itemised; empty otherwise.
    transaction_usd: Tuple[float, ...] = ()


@dataclass
class EarningsResult:
    """Everything §5 measures."""

    n_threads_matched: int
    n_posts_with_links: int
    n_unique_urls: int
    n_downloaded: int
    n_abuse_matched: int
    n_indecent_filtered: int
    n_analyzable: int
    records: List[ProofRecord]
    n_non_proofs: int

    # ------------------------------------------------------------------
    @property
    def n_proofs(self) -> int:
        return len(self.records)

    def per_actor_totals(self) -> Dict[int, float]:
        """USD total per actor over their proofs."""
        totals: Dict[int, float] = {}
        for record in self.records:
            if record.author_id is None:
                continue
            totals[record.author_id] = totals.get(record.author_id, 0.0) + record.total_usd
        return totals

    def per_actor_proof_counts(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for record in self.records:
            if record.author_id is None:
                continue
            counts[record.author_id] = counts.get(record.author_id, 0) + 1
        return counts

    @property
    def total_usd(self) -> float:
        return float(sum(r.total_usd for r in self.records))

    @property
    def mean_per_actor_usd(self) -> float:
        totals = self.per_actor_totals()
        return float(np.mean(list(totals.values()))) if totals else 0.0

    def mean_transaction_usd(self) -> float:
        """Average itemised transaction value (§5.2: US$41.90)."""
        amounts = [a for r in self.records for a in r.transaction_usd]
        return float(np.mean(amounts)) if amounts else 0.0

    @property
    def n_with_transaction_detail(self) -> int:
        return sum(1 for r in self.records if r.shows_transactions)

    def platform_histogram(self) -> Dict[PaymentPlatform, int]:
        histogram: Dict[PaymentPlatform, int] = {}
        for record in self.records:
            histogram[record.platform] = histogram.get(record.platform, 0) + 1
        return histogram

    def monthly_platform_series(
        self, platforms: Sequence[PaymentPlatform]
    ) -> Dict[PaymentPlatform, Dict[str, int]]:
        """Proof counts per month per platform — the Figure 3 series."""
        series: Dict[PaymentPlatform, Dict[str, int]] = {p: {} for p in platforms}
        for record in self.records:
            if record.platform not in series or record.posted_at is None:
                continue
            key = record.posted_at.strftime("%Y-%m")
            bucket = series[record.platform]
            bucket[key] = bucket.get(key, 0) + 1
        return series

    def earnings_cdf(self) -> np.ndarray:
        """Sorted per-actor USD totals — the Figure 2 (left) data."""
        return np.sort(np.array(list(self.per_actor_totals().values())))

    def proof_count_cdf(self) -> np.ndarray:
        """Sorted per-actor proof counts — the Figure 2 (right) data."""
        return np.sort(np.array(list(self.per_actor_proof_counts().values())))


class EarningsAnalyzer:
    """Runs the §5.1 measurement pipeline."""

    def __init__(
        self,
        dataset: ForumDataset,
        internet: SimulatedInternet,
        hashlist: HashListService,
        annotator: AnnotatorFn,
        nsfv: Optional[NsfvClassifier] = None,
        rates: Optional[HistoricalRates] = None,
        quarantine: Optional[Quarantine] = None,
        features: Optional[Featurizer] = None,
    ):
        self._dataset = dataset
        self._internet = internet
        self._hashlist = hashlist
        self._annotator = annotator
        self._nsfv = nsfv if nsfv is not None else NsfvClassifier()
        self._rates = rates if rates is not None else HistoricalRates()
        self._quarantine = quarantine
        #: The run's feature records: the §5.1 crawl featurises each
        #: proof image at ingest and drops its pixels, and the safety
        #: checks below read hashes and NSFW scores by digest.
        self._features = (
            features
            if features is not None
            else Featurizer(hashlist=hashlist, scorer=self._nsfv.scorer)
        )

    # ------------------------------------------------------------------
    def analyze(self, selection: Optional[Sequence[Thread]] = None) -> EarningsResult:
        """Run the full §5.1 pipeline over the eWhoring selection."""
        threads = list(selection) if selection is not None else ewhoring_threads(self._dataset)
        earning_threads = self._earnings_threads(threads)
        posts_with_links, links = self._collect_links(threads, earning_threads)

        crawler = Crawler(self._internet, features=self._features)
        # Corrupt payloads are excised at the crawler's ingest boundary
        # (into the shared ledger when one is attached, a private one
        # otherwise) — never into the safety loop below.
        crawl = crawler.crawl(links, quarantine=self._quarantine, stage="earnings")
        downloaded = crawl.preview_images  # image-sharing links only

        n_abuse = 0
        n_indecent = 0
        safe: List[CrawledImage] = []
        seen_abuse_digests: Set[str] = set()
        for crawled in downloaded:
            if crawled.digest in seen_abuse_digests:
                continue
            try:
                record = self._features.features(crawled.digest, crawled.image)
                match = self._hashlist.match_hash(int(record["hash"]))
                if match.matched:
                    n_abuse += 1
                    seen_abuse_digests.add(crawled.digest)
                    continue
                verdict = self._nsfv.classify_batch([crawled], self._features)[0]
                # An image in Algorithm 1's ambiguous band re-rendered
                # for OCR; delete it again.
                crawled.image.drop_pixels()
            except Exception as exc:
                # Defence in depth behind the ingest boundary: a record
                # that still manages to poison the safety checks is
                # excised, not allowed to abort the earnings pipeline.
                if self._quarantine is None:
                    raise
                self._quarantine.admit(
                    "earnings", crawled.digest, exc,
                    {"image_id": crawled.image.image_id},
                )
                continue
            if verdict.nsfv:
                n_indecent += 1
                continue
            safe.append(crawled)

        records: List[ProofRecord] = []
        n_non_proofs = 0
        for crawled in safe:
            plan = self._annotator(crawled.image.image_id)
            if plan is None:
                n_non_proofs += 1
                continue
            records.append(self._to_record(crawled, plan))

        return EarningsResult(
            n_threads_matched=len(earning_threads),
            n_posts_with_links=len(posts_with_links),
            n_unique_urls=len({str(link.url) for link in links}),
            n_downloaded=len(downloaded),
            n_abuse_matched=n_abuse,
            n_indecent_filtered=n_indecent,
            n_analyzable=len(safe),
            records=records,
            n_non_proofs=n_non_proofs,
        )

    # ------------------------------------------------------------------
    def _earnings_threads(self, threads: Sequence[Thread]) -> List[Thread]:
        """Threads selected by heading terms or by the bragging board."""
        bragging_boards = {
            b.board_id for b in self._dataset.boards() if b.is_bragging_board
        }
        selected: List[Thread] = []
        for thread in threads:
            heading = thread.heading_lower()
            if any(term in heading for term in EARNINGS_HEADING_TERMS):
                selected.append(thread)
            elif thread.board_id in bragging_boards:
                selected.append(thread)
        return selected

    def _collect_links(
        self, all_threads: Sequence[Thread], earning_threads: Sequence[Thread]
    ) -> Tuple[List[Post], List[LinkRecord]]:
        """Posts with image-sharing links from both §5.1 query paths."""
        posts: List[Post] = []
        links: List[LinkRecord] = []
        seen_posts: Set[int] = set()
        seen_urls: Set[str] = set()

        def harvest(thread: Thread, post: Post) -> None:
            if post.post_id in seen_posts:
                return
            found = False
            for url in extract_urls(post.content):
                service = service_by_domain(url.host)
                if service is None or service.kind is not ServiceKind.IMAGE_SHARING:
                    continue
                key = str(url)
                if key in seen_urls:
                    continue
                seen_urls.add(key)
                links.append(
                    LinkRecord(
                        url=url,
                        thread_id=thread.thread_id,
                        post_id=post.post_id,
                        author_id=post.author_id,
                        posted_at=post.created_at,
                        link_kind="preview",
                    )
                )
                found = True
            if found:
                seen_posts.add(post.post_id)
                posts.append(post)

        for thread in earning_threads:
            for post in self._dataset.posts_in_thread(thread.thread_id):
                harvest(thread, post)
        # 'proof' + trading-term posts anywhere in the selection (§5.1).
        earning_ids = {t.thread_id for t in earning_threads}
        for thread in all_threads:
            if thread.thread_id in earning_ids:
                continue
            for post in self._dataset.posts_in_thread(thread.thread_id):
                content = post.content.lower()
                if "proof" in content and TRADE_KEYWORDS.matches(content):
                    harvest(thread, post)
        return posts, links

    def _to_record(self, crawled: CrawledImage, plan: ProofPlan) -> ProofRecord:
        """Convert an annotated proof to USD at historical rates."""
        if plan.shows_transactions:
            transaction_usd = tuple(
                self._rates.to_usd(Money(amount, plan.currency), when)
                for when, amount in plan.transactions
            )
            total_usd = float(sum(transaction_usd))
        else:
            transaction_usd = ()
            total_usd = self._rates.to_usd(
                Money(plan.total_in_currency, plan.currency), plan.date
            )
        return ProofRecord(
            image_id=crawled.image.image_id,
            digest=crawled.digest,
            post_id=crawled.link.post_id,
            author_id=crawled.link.author_id,
            posted_at=crawled.link.posted_at,
            platform=plan.platform,
            currency=plan.currency,
            n_transactions=plan.n_transactions,
            shows_transactions=plan.shows_transactions,
            total_usd=total_usd,
            transaction_usd=transaction_usd,
        )


# ----------------------------------------------------------------------
# Currency Exchange (Table 7)
# ----------------------------------------------------------------------

@dataclass
class CurrencyExchangeTable:
    """Offered/wanted counts per canonical currency (Table 7)."""

    offered: Dict[str, int]
    wanted: Dict[str, int]
    n_threads: int
    n_actors: int

    def row(self, side: str) -> Dict[str, int]:
        return dict(self.offered if side == "offered" else self.wanted)


def currency_exchange_table(
    dataset: ForumDataset,
    min_ewhoring_posts: int = 50,
    selection: Optional[Sequence[Thread]] = None,
) -> CurrencyExchangeTable:
    """Build Table 7: CE threads of heavily involved eWhoring actors.

    Only threads started *after* the actor's first eWhoring post count,
    as in §5.1.
    """
    threads = list(selection) if selection is not None else ewhoring_threads(dataset)
    post_counts: Dict[int, int] = {}
    first_post: Dict[int, datetime] = {}
    for thread in threads:
        for post in dataset.posts_in_thread(thread.thread_id):
            post_counts[post.author_id] = post_counts.get(post.author_id, 0) + 1
            current = first_post.get(post.author_id)
            if current is None or post.created_at < current:
                first_post[post.author_id] = post.created_at
    eligible = {a for a, n in post_counts.items() if n > min_ewhoring_posts}

    ce_boards = {b.board_id for b in dataset.boards() if b.is_currency_exchange}
    offered: Dict[str, int] = {}
    wanted: Dict[str, int] = {}
    actors: Set[int] = set()
    n_threads = 0
    for board_id in ce_boards:
        for thread in dataset.threads_in_board(board_id):
            author = thread.author_id
            if author not in eligible:
                continue
            if thread.created_at <= first_post[author]:
                continue
            offer = parse_exchange_heading(thread.heading)
            offered[offer.offered] = offered.get(offer.offered, 0) + 1
            wanted[offer.wanted] = wanted.get(offer.wanted, 0) + 1
            actors.add(author)
            n_threads += 1
    return CurrencyExchangeTable(
        offered=offered, wanted=wanted, n_threads=n_threads, n_actors=len(actors)
    )
