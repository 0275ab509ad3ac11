"""PhotoDNA analogue: robust perceptual hashing and a hashlist service.

§4.3 of the paper matches every downloaded image against the PhotoDNA
Cloud Service hashlist of known child-abuse material, immediately reports
matches to the IWF and deletes them.  This module provides:

* :func:`robust_hash` — a 64-bit DCT perceptual hash (pHash family) that
  survives recompression, light cropping and resizing, i.e. the "Robust
  Hashing" property §4.3 cites;
* :func:`hamming_distance` — bit distance between hashes;
* :class:`HashListService` — the PhotoDNA-cloud analogue holding graded
  hashlist entries and answering match queries;
* :class:`ReportLog` — the IWF-reporting analogue recording actioned
  URLs, severity grades and hosting metadata.

No image classified as matching is ever re-exposed: the service matches
hashes and returns only the verdict and grading.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .batch import _hash_rasters
from .bits import popcount

__all__ = [
    "AbuseSeverity",
    "HashListEntry",
    "HashListService",
    "MatchResult",
    "ReportLog",
    "ReportRecord",
    "hamming_distance",
    "robust_hash",
]

_HASH_BITS = 64


def robust_hash(pixels: np.ndarray) -> int:
    """64-bit DCT perceptual hash of one image raster.

    The one-image case of the hash kernel in :mod:`repro.vision.batch`:
    grayscale → 32×32 block-mean resize → 2-D DCT → keep the 8×8
    lowest-frequency block (minus the DC term, replaced by coefficient
    (8, 8)) → threshold at the median → pack 64 bits.  Bad input raises
    the typed :class:`~repro.media.validate.CorruptPayloadError` family.
    """
    return int(_hash_rasters([pixels])[0])


def hamming_distance(hash_a: int, hash_b: int) -> int:
    """Number of differing bits between two 64-bit hashes."""
    return int(popcount((hash_a ^ hash_b) & ((1 << _HASH_BITS) - 1)))


class AbuseSeverity(enum.Enum):
    """IWF grading categories (§4.3)."""

    CATEGORY_A = "A"  # penetrative / sadistic
    CATEGORY_B = "B"  # non-penetrative sexual activity
    CATEGORY_C = "C"  # other indecent images


@dataclass(frozen=True, slots=True)
class HashListEntry:
    """One hashlist record: a known-abuse hash with grading metadata.

    ``actionable`` mirrors §4.3: some entries were graded by other
    organisations and the IWF could not verify age, so matches are
    reported but not actioned.
    """

    entry_hash: int
    severity: AbuseSeverity
    victim_age: Optional[int] = None
    actionable: bool = True


@dataclass(frozen=True, slots=True)
class MatchResult:
    """Outcome of a hashlist lookup."""

    matched: bool
    entry: Optional[HashListEntry] = None
    distance: Optional[int] = None


@dataclass(frozen=True, slots=True)
class ReportRecord:
    """One actioned report: the URL set sent to the hotline for an image."""

    image_ref: str
    urls: Tuple[str, ...]
    severity: AbuseSeverity
    victim_age: Optional[int]
    hosting_regions: Tuple[str, ...]
    site_types: Tuple[str, ...]


class ReportLog:
    """IWF-analogue report sink with aggregate statistics (§4.3 results)."""

    def __init__(self) -> None:
        self._records: List[ReportRecord] = []

    def report(self, record: ReportRecord) -> None:
        """Record one actioned report."""
        self._records.append(record)

    @property
    def records(self) -> List[ReportRecord]:
        return list(self._records)

    def actioned_urls(self) -> List[str]:
        """All URLs actioned across reports, preserving order."""
        urls: List[str] = []
        for record in self._records:
            urls.extend(record.urls)
        return urls

    def severity_histogram(self) -> Dict[AbuseSeverity, int]:
        """Actioned URL count per severity grade."""
        histogram: Dict[AbuseSeverity, int] = {}
        for record in self._records:
            histogram[record.severity] = histogram.get(record.severity, 0) + len(record.urls)
        return histogram

    def region_histogram(self) -> Dict[str, int]:
        """Actioned URL count per hosting region."""
        histogram: Dict[str, int] = {}
        for record in self._records:
            for region in record.hosting_regions:
                histogram[region] = histogram.get(region, 0) + 1
        return histogram

    def site_type_histogram(self) -> Dict[str, int]:
        """Actioned URL count per site type."""
        histogram: Dict[str, int] = {}
        for record in self._records:
            for site_type in record.site_types:
                histogram[site_type] = histogram.get(site_type, 0) + 1
        return histogram


class HashListService:
    """The PhotoDNA-cloud analogue: hashlist storage and match queries.

    Matching tolerates up to ``radius`` differing bits so that platform
    recompression does not hide known material — the robust-hashing
    property the paper relies on.
    """

    def __init__(self, radius: int = 10):
        if not 0 <= radius < _HASH_BITS:
            raise ValueError("radius must be within [0, 63]")
        self.radius = radius
        self._entries: List[HashListEntry] = []
        self._hash_array: Optional[np.ndarray] = None

    def set_radius(self, radius: int) -> None:
        """Retune the match tolerance (adaptive threshold-sweep defense)."""
        if not 0 <= radius < _HASH_BITS:
            raise ValueError("radius must be within [0, 63]")
        self.radius = int(radius)

    # ------------------------------------------------------------------
    def add_entry(self, entry: HashListEntry) -> None:
        """Add a graded hash to the list."""
        self._entries.append(entry)
        self._hash_array = None

    def add_known_image(
        self,
        pixels: np.ndarray,
        severity: AbuseSeverity,
        victim_age: Optional[int] = None,
        actionable: bool = True,
    ) -> HashListEntry:
        """Hash ``pixels`` and add the resulting entry."""
        entry = HashListEntry(
            entry_hash=robust_hash(pixels),
            severity=severity,
            victim_age=victim_age,
            actionable=actionable,
        )
        self.add_entry(entry)
        return entry

    @property
    def n_entries(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def match_hash(self, image_hash: int) -> MatchResult:
        """Match a precomputed hash against the list (nearest entry wins)."""
        if not self._entries:
            return MatchResult(matched=False)
        hashes = self._hashes()
        distances = popcount(hashes ^ np.uint64(image_hash))
        best = int(np.argmin(distances))
        best_distance = int(distances[best])
        if best_distance <= self.radius:
            return MatchResult(matched=True, entry=self._entries[best], distance=best_distance)
        return MatchResult(matched=False, distance=best_distance)

    def match_hashes(
        self, image_hashes: Sequence[int], chunk_size: int = 1024
    ) -> List[MatchResult]:
        """Match many precomputed hashes in one vectorised sweep.

        Equivalent to ``[self.match_hash(h) for h in image_hashes]`` but
        computes the whole query×entry Hamming matrix per chunk (one XOR
        + popcount) instead of one row at a time.  ``chunk_size`` bounds
        the matrix memory for very large query batches.
        """
        queries = np.asarray(list(image_hashes), dtype=np.uint64)
        if queries.size == 0:
            return []
        if not self._entries:
            return [MatchResult(matched=False) for _ in range(queries.size)]
        from .bits import hamming_matrix  # local: keeps module-level deps minimal

        hashes = self._hashes()
        results: List[MatchResult] = []
        for start in range(0, queries.size, chunk_size):
            block = queries[start : start + chunk_size]
            distances = hamming_matrix(block, hashes)
            best_idx = np.argmin(distances, axis=1)
            best_dist = distances[np.arange(block.size), best_idx]
            for entry_i, dist in zip(best_idx, best_dist):
                if int(dist) <= self.radius:
                    results.append(
                        MatchResult(
                            matched=True,
                            entry=self._entries[int(entry_i)],
                            distance=int(dist),
                        )
                    )
                else:
                    results.append(MatchResult(matched=False, distance=int(dist)))
        return results

    # ------------------------------------------------------------------
    def _hashes(self) -> np.ndarray:
        if self._hash_array is None:
            self._hash_array = np.array(
                [entry.entry_hash for entry in self._entries], dtype=np.uint64
            )
        return self._hash_array
