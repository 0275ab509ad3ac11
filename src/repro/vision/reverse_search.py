"""TinEye analogue: reverse image search over the simulated web (§4.5).

The real study queried TinEye's 29-billion-image index.  Here the index is
built over every image published on the simulated internet: each indexed
copy stores its URL, domain, backlink and crawl date — exactly the fields
the paper extracts from TinEye reports.

Matching compares :func:`~repro.vision.photodna.robust_hash` perceptual
hashes with a Hamming-radius tolerance, so recompressed and lightly cropped
copies match while mirrored copies (the documented evasion) do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Dict, List, Optional, Tuple

import numpy as np

from .bits import popcount

__all__ = ["IndexedCopy", "ReverseImageIndex", "ReverseMatch", "ReverseSearchReport"]


@dataclass(frozen=True, slots=True)
class IndexedCopy:
    """One crawled copy of an image known to the index."""

    url: str
    domain: str
    crawl_date: datetime
    backlink: Optional[str] = None


@dataclass(frozen=True, slots=True)
class ReverseMatch:
    """One hit in a reverse-search report."""

    copy: IndexedCopy
    similarity: float
    distance: int


@dataclass(frozen=True)
class ReverseSearchReport:
    """Result of a reverse search for one image (§4.5 report fields)."""

    query_hash: int
    matches: Tuple[ReverseMatch, ...]

    @property
    def n_matches(self) -> int:
        return len(self.matches)

    @property
    def matched(self) -> bool:
        """A report counts as a match when the similarity score exceeds zero."""
        return bool(self.matches)

    def domains(self) -> List[str]:
        """Distinct matched domains in best-match-first order."""
        seen: Dict[str, None] = {}
        for match in self.matches:
            seen.setdefault(match.copy.domain, None)
        return list(seen)


class ReverseImageIndex:
    """Perceptual-hash index answering reverse image searches.

    ``radius`` is the maximum Hamming distance counted as a match; the
    default tolerates platform recompression and light crops but not
    mirroring, reproducing the evasion economics of §4.5.
    """

    def __init__(self, radius: int = 9):
        if not 0 <= radius < 64:
            raise ValueError("radius must be within [0, 63]")
        self.radius = radius
        self._hashes: List[int] = []
        self._copies: List[IndexedCopy] = []
        self._hash_array: Optional[np.ndarray] = None

    def set_radius(self, radius: int) -> None:
        """Retune the match tolerance (adaptive threshold-sweep defense)."""
        if not 0 <= radius < 64:
            raise ValueError("radius must be within [0, 63]")
        self.radius = int(radius)

    # ------------------------------------------------------------------
    def index_hash(self, image_hash: int, copy: IndexedCopy) -> None:
        """Add one crawled copy under a precomputed hash."""
        self._hashes.append(image_hash)
        self._copies.append(copy)
        self._hash_array = None

    @property
    def n_indexed(self) -> int:
        return len(self._hashes)

    # ------------------------------------------------------------------
    def search_hash(self, query_hash: int) -> ReverseSearchReport:
        """Search by precomputed hash; matches sorted by similarity, ties
        in indexing order."""
        if not self._hashes:
            return ReverseSearchReport(query_hash=query_hash, matches=())
        distances = popcount(self._array() ^ np.uint64(query_hash))
        hit_indices = np.flatnonzero(distances <= self.radius)
        order = hit_indices[np.argsort(distances[hit_indices], kind="stable")]
        matches = tuple(
            ReverseMatch(
                copy=self._copies[int(i)],
                similarity=1.0 - float(distances[int(i)]) / 64.0,
                distance=int(distances[int(i)]),
            )
            for i in order
        )
        return ReverseSearchReport(query_hash=query_hash, matches=matches)

    # ------------------------------------------------------------------
    def _array(self) -> np.ndarray:
        if self._hash_array is None:
            self._hash_array = np.array(self._hashes, dtype=np.uint64)
        return self._hash_array
