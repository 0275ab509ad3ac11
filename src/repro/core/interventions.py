"""Intervention simulations (§8: recommendations and disruption).

The paper closes with concrete disruption proposals.  This module makes
them executable against a synthetic world, so their effect on the
eWhoring supply chain can be measured rather than argued:

* **Hash-blacklist enforcement** — "blacklists with hashes of known
  images used for eWhoring … could be created and shared among
  stakeholders": hosting services take down every upload whose
  perceptual hash matches a shared blacklist seeded from previously
  crawled packs.
* **Payment-account takedown** — "payment platforms may be able to
  play a role in detecting and shutting down accounts used to receive
  payments": a fraction of earning actors lose their platform accounts,
  removing their subsequent proofs/income.
* **Currency-exchange regulation** — "regulating the exchange of
  non-fiat currencies, such as selling gift cards for Bitcoin": gift-
  card→crypto CE trades are blocked, and the resulting laundering
  friction is measured.

Each intervention takes a measurement (what the pipeline saw), applies
the counterfactual, and reports before/after supply metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set

import numpy as np

from ..finance.parser import parse_exchange_heading
from ..vision.bits import popcount
from ..vision.photodna import robust_hash
from ..web.crawler import CrawlResult, CrawledImage
from .earnings import CurrencyExchangeTable, EarningsResult

__all__ = [
    "BlacklistIntervention",
    "BlacklistOutcome",
    "CurrencyRegulationOutcome",
    "PaymentTakedownOutcome",
    "payment_account_takedown",
    "regulate_gift_card_exchange",
]


# ----------------------------------------------------------------------
# 1. Shared hash blacklist at hosting services
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class BlacklistOutcome:
    """Effect of hash-blacklist enforcement on the image supply."""

    blacklist_size: int
    n_images_checked: int
    n_images_blocked: int
    n_packs_checked: int
    #: Packs rendered useless (>= half their images blocked).
    n_packs_disrupted: int
    #: Fraction of *evasion* (mirrored) images that slipped through —
    #: the blacklist's known weakness.
    evasion_leak_rate: float

    @property
    def block_rate(self) -> float:
        return self.n_images_blocked / self.n_images_checked if self.n_images_checked else 0.0

    @property
    def pack_disruption_rate(self) -> float:
        return self.n_packs_disrupted / self.n_packs_checked if self.n_packs_checked else 0.0


class BlacklistIntervention:
    """A stakeholder-shared blacklist of known eWhoring image hashes.

    Seeded from a crawled corpus (what the measurement pipeline — or a
    cooperating platform — has already seen), then applied to future
    uploads: any image within ``radius`` Hamming bits of a blacklisted
    hash is refused.
    """

    def __init__(self, radius: int = 9):
        if not 0 <= radius < 64:
            raise ValueError("radius must be within [0, 63]")
        self.radius = radius
        self._hashes: List[int] = []
        self._array: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def seed_from_images(self, images: Iterable[CrawledImage]) -> int:
        """Add every distinct crawled image's hash; returns hashes added."""
        seen_digests: Set[str] = set()
        added = 0
        for crawled in images:
            if crawled.digest in seen_digests:
                continue
            seen_digests.add(crawled.digest)
            self._hashes.append(robust_hash(crawled.image.pixels))
            added += 1
        self._array = None
        return added

    @property
    def size(self) -> int:
        return len(self._hashes)

    def blocks(self, pixels: np.ndarray) -> bool:
        """Would an upload of ``pixels`` be refused?"""
        return self.blocks_hash(robust_hash(pixels))

    def blocks_hash(self, image_hash: int) -> bool:
        if not self._hashes:
            return False
        if self._array is None:
            self._array = np.array(self._hashes, dtype=np.uint64)
        distances = popcount(self._array ^ np.uint64(image_hash))
        return bool(distances.min() <= self.radius)

    # ------------------------------------------------------------------
    def evaluate_on_future_crawl(self, crawl: CrawlResult) -> BlacklistOutcome:
        """Apply the blacklist to a later crawl's uploads.

        Measures how much of the re-circulating supply the blacklist
        would have stopped, per image and per pack, and how much leaks
        through via evasion transforms (mirroring defeats the hash, as
        it defeats reverse search — §4.5).
        """
        unique = crawl.unique_digests()
        n_blocked = 0
        evasion_total = 0
        evasion_leaked = 0
        blocked_digests: Set[str] = set()
        for digest, crawled in unique.items():
            blocked = self.blocks(crawled.image.pixels)
            if blocked:
                n_blocked += 1
                blocked_digests.add(digest)
            if "mirror" in crawled.image.latent.transform_chain:
                evasion_total += 1
                if not blocked:
                    evasion_leaked += 1

        n_disrupted = 0
        for pack in crawl.packs:
            digests = {d for d in (c.digest for c in crawl.pack_images
                                   if c.pack_id == pack.pack_id)}
            if not digests:
                continue
            blocked_count = sum(1 for d in digests if d in blocked_digests)
            if blocked_count * 2 >= len(digests):
                n_disrupted += 1

        return BlacklistOutcome(
            blacklist_size=self.size,
            n_images_checked=len(unique),
            n_images_blocked=n_blocked,
            n_packs_checked=len(crawl.packs),
            n_packs_disrupted=n_disrupted,
            evasion_leak_rate=(evasion_leaked / evasion_total) if evasion_total else 0.0,
        )


# ----------------------------------------------------------------------
# 2. Payment-account takedown
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class PaymentTakedownOutcome:
    """Effect of shutting down detected payment accounts."""

    detection_rate: float
    n_actors: int
    n_actors_hit: int
    income_before_usd: float
    income_after_usd: float

    @property
    def income_removed_usd(self) -> float:
        return self.income_before_usd - self.income_after_usd

    @property
    def income_reduction(self) -> float:
        if self.income_before_usd == 0:
            return 0.0
        return self.income_removed_usd / self.income_before_usd


def payment_account_takedown(
    earnings: EarningsResult,
    detection_rate: float,
    seed: int = 0,
) -> PaymentTakedownOutcome:
    """Shut down a fraction of earning actors' payment accounts.

    Platforms detect high-volume accounts preferentially: the detection
    probability of an actor scales with their share of total reported
    income (capped at 1), times ``detection_rate`` overall aggressiveness.
    Income received after the takedown (the actor's later proofs) is
    removed.
    """
    if not 0.0 <= detection_rate <= 1.0:
        raise ValueError("detection_rate must be within [0, 1]")
    rng = np.random.default_rng(seed)
    totals = earnings.per_actor_totals()
    if not totals:
        return PaymentTakedownOutcome(detection_rate, 0, 0, 0.0, 0.0)
    mean_total = float(np.mean(list(totals.values())))

    hit_actors: Set[int] = set()
    for actor_id, total in totals.items():
        volume_factor = min(total / (2.0 * mean_total), 1.0)
        if rng.random() < detection_rate * volume_factor:
            hit_actors.add(actor_id)

    # An account takedown removes the actor's later half of proofs (they
    # lose the account mid-career and must rebuild).
    income_after = 0.0
    for actor_id, total in totals.items():
        if actor_id in hit_actors:
            records = sorted(
                (r for r in earnings.records if r.author_id == actor_id),
                key=lambda r: r.posted_at or r.posted_at,
            )
            keep = records[: max(len(records) // 2, 0)]
            income_after += float(sum(r.total_usd for r in keep))
        else:
            income_after += total

    return PaymentTakedownOutcome(
        detection_rate=detection_rate,
        n_actors=len(totals),
        n_actors_hit=len(hit_actors),
        income_before_usd=float(sum(totals.values())),
        income_after_usd=income_after,
    )


# ----------------------------------------------------------------------
# 3. Gift-card → crypto exchange regulation
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CurrencyRegulationOutcome:
    """Effect of blocking gift-card → crypto exchange."""

    n_threads: int
    n_blocked: int
    #: Offered-AGC threads that can no longer reach crypto.
    agc_to_crypto_blocked: int
    #: Share of all laundering flows (thread count) disrupted.
    @property
    def blocked_share(self) -> float:
        return self.n_blocked / self.n_threads if self.n_threads else 0.0


def regulate_gift_card_exchange(
    dataset,
    table: CurrencyExchangeTable,
    headings: Optional[Sequence[str]] = None,
) -> CurrencyRegulationOutcome:
    """Block CE trades that sell gift cards for cryptocurrency.

    Counts the Table 7 threads whose parsed (offered, wanted) pair is
    (AGC, BTC) — the laundering path the paper singles out ("selling
    Amazon Gift Cards for BTC") — plus any AGC→others crypto-ish flows.
    """
    if headings is None:
        ce_boards = {b.board_id for b in dataset.boards() if b.is_currency_exchange}
        headings = [
            t.heading
            for board_id in ce_boards
            for t in dataset.threads_in_board(board_id)
        ]
    n_blocked = 0
    agc_to_crypto = 0
    for heading in headings:
        offer = parse_exchange_heading(heading)
        if offer.offered == "AGC" and offer.wanted in ("BTC", "others"):
            n_blocked += 1
            if offer.wanted == "BTC":
                agc_to_crypto += 1
    return CurrencyRegulationOutcome(
        n_threads=len(headings),
        n_blocked=n_blocked,
        agc_to_crypto_blocked=agc_to_crypto,
    )
