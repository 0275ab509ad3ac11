"""Pack-saturation analysis (§4, §4.2).

'Good packs are those containing *unsaturated* material … As these packs
are offered at no charge, and thus are likely saturated, we had expected
to observe duplicate images' — the paper finds 127 images recurring in
at least 20 different packs, and 53 948 unique files among 117 076
downloads.

This module quantifies that reuse structure:

* the image-reuse distribution (in how many packs does each unique
  image appear?);
* a per-pack **saturation index** — the fraction of a pack's images
  already seen in packs posted earlier, the measurable counterpart of
  the community's "saturated" label;
* the relation between saturation and reverse-search visibility
  (saturated material is exactly what reverse search catches).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from ..web.crawler import CrawlResult, CrawledImage

__all__ = [
    "PackSaturation",
    "SaturationReport",
    "analyze_saturation",
    "reuse_distribution",
]


@dataclass(frozen=True, slots=True)
class PackSaturation:
    """Saturation of one pack relative to packs posted before it."""

    pack_id: int
    posted_at: Optional[datetime]
    n_images: int
    n_previously_seen: int

    @property
    def saturation_index(self) -> float:
        """Fraction of the pack already circulating when it was posted."""
        return self.n_previously_seen / self.n_images if self.n_images else 0.0


@dataclass
class SaturationReport:
    """Corpus-level reuse structure."""

    #: digest → number of distinct packs containing the image.
    packs_per_image: Dict[str, int]
    per_pack: List[PackSaturation]

    @property
    def n_unique_images(self) -> int:
        return len(self.packs_per_image)

    def images_in_at_least(self, n_packs: int) -> int:
        """How many unique images appear in >= ``n_packs`` packs.

        The paper's headline: 127 images were found in at least 20
        different packs.
        """
        return sum(1 for count in self.packs_per_image.values() if count >= n_packs)

    def reuse_histogram(self) -> Dict[int, int]:
        """pack-count → number of images with exactly that count."""
        histogram: Dict[int, int] = {}
        for count in self.packs_per_image.values():
            histogram[count] = histogram.get(count, 0) + 1
        return histogram

    def mean_saturation(self) -> float:
        indices = [p.saturation_index for p in self.per_pack]
        return float(np.mean(indices)) if indices else 0.0

    def fully_fresh_packs(self) -> List[int]:
        """Packs with no previously seen image (truly 'unsaturated')."""
        return [p.pack_id for p in self.per_pack if p.n_previously_seen == 0]

    def saturated_packs(self, threshold: float = 0.5) -> List[int]:
        """Packs whose saturation index is at least ``threshold``."""
        return [
            p.pack_id for p in self.per_pack if p.saturation_index >= threshold
        ]


def reuse_distribution(pack_images: Sequence[CrawledImage]) -> Dict[str, int]:
    """digest → number of distinct packs carrying that image."""
    packs_of_image: Dict[str, Set[int]] = {}
    for crawled in pack_images:
        if crawled.pack_id is None:
            continue
        packs_of_image.setdefault(crawled.digest, set()).add(crawled.pack_id)
    return {digest: len(packs) for digest, packs in packs_of_image.items()}


def analyze_saturation(crawl: CrawlResult) -> SaturationReport:
    """Build the full saturation report for one crawl.

    Packs are ordered by the earliest link date that delivered them (the
    time the material became available to this corpus); ties fall back
    to pack id for determinism.
    """
    packs_per_image = reuse_distribution(crawl.pack_images)

    # Earliest posting date per pack.
    posted: Dict[int, Optional[datetime]] = {}
    digests_by_pack: Dict[int, Set[str]] = {}
    for crawled in crawl.pack_images:
        if crawled.pack_id is None:
            continue
        digests_by_pack.setdefault(crawled.pack_id, set()).add(crawled.digest)
        when = crawled.link.posted_at
        current = posted.get(crawled.pack_id)
        if when is not None and (current is None or when < current):
            posted[crawled.pack_id] = when
        else:
            posted.setdefault(crawled.pack_id, current)

    order = sorted(
        digests_by_pack,
        key=lambda pid: (posted.get(pid) or datetime.max, pid),
    )
    seen: Set[str] = set()
    per_pack: List[PackSaturation] = []
    for pack_id in order:
        digests = digests_by_pack[pack_id]
        previously = sum(1 for d in digests if d in seen)
        per_pack.append(
            PackSaturation(
                pack_id=pack_id,
                posted_at=posted.get(pack_id),
                n_images=len(digests),
                n_previously_seen=previously,
            )
        )
        seen |= digests

    return SaturationReport(packs_per_image=packs_per_image, per_pack=per_pack)
