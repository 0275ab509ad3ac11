"""Content-addressed image features: one record per distinct image.

The paper's workflow hashes each downloaded image, classifies it and
deletes it (§4.3 hash-then-delete; §4.4: researchers never view NSFV
images).  The pipeline does the same.  The crawler's ingest boundary
hands every clean image to the run's :class:`Featurizer`, which computes
the image's feature record once per content digest; the crawler then
drops the pixels.  A record is a plain dict:

* ``"hash"`` — the 64-bit DCT perceptual hash, always present;
* ``"nsfw"`` — the OpenNSFW-analogue score, computed only when the hash
  does not match the abuse hashlist, so no score of abuse material is
  ever computed or stored;
* ``"ocr"``  — the Tesseract-analogue word count, added lazily by the
  NSFV stage for the few images inside Algorithm 1's ambiguous band.

Every later stage reads records instead of pixels.  A record is also
the run's one fact that its digest was validated clean at ingest, so
the stage boundaries (:meth:`~repro.core.quarantine.Quarantine.
filter_rasters`) re-validate only digests without one.  A digest without a
complete record — one replayed by a persisted ingest memo whose store
predates this layout, or a hand-built test record — is featurised from
its pixels where a stage first needs it, so old stores still load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from .nsfw import NsfwScorer
from .photodna import HashListService, robust_hash

__all__ = ["Featurizer", "VisionCache", "VisionCacheStats"]


@dataclass(frozen=True, slots=True)
class VisionCacheStats:
    """Counter snapshot of a :class:`VisionCache`."""

    hits: int
    misses: int
    n_entries: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from a record (0.0 when untouched)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def summary(self) -> str:
        """One-line human-readable rendering (CLI / report use)."""
        return (
            f"hits={self.hits} misses={self.misses} "
            f"hit_rate={self.hit_rate:.1%} entries={self.n_entries}"
        )

    def as_dict(self) -> dict:
        """Snapshot-protocol view (manifest / export use, DESIGN.md §9)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "n_entries": self.n_entries,
            "hit_rate": self.hit_rate,
        }


class VisionCache(Dict[str, Dict[str, Any]]):
    """Digest → feature record map, with lookup counters.

    A *hit* is a :meth:`Featurizer.features` request an existing record
    answered; a *miss* had to render pixels.  Values are plain ints and
    floats, so the map is JSON-serialisable as-is — :mod:`repro.store`
    persists it row by row.
    """

    def __init__(self) -> None:
        super().__init__()
        self.hits = 0
        self.misses = 0

    def stats(self) -> VisionCacheStats:
        return VisionCacheStats(hits=self.hits, misses=self.misses, n_entries=len(self))


class Featurizer:
    """Computes and serves each distinct image's feature record.

    ``hashlist`` decides which images are abuse material; their records
    keep only the hash.  ``None`` treats every image as clean, which is
    what the stages behind the abuse filter see.  ``scorer`` is the
    run's NSFW scorer — the one Algorithm 1 classifies with.
    """

    def __init__(
        self,
        cache: Optional[VisionCache] = None,
        hashlist: Optional[HashListService] = None,
        scorer: Optional[NsfwScorer] = None,
    ):
        self.cache = cache if cache is not None else VisionCache()
        self.hashlist = hashlist
        self.scorer = scorer if scorer is not None else NsfwScorer()

    def features(self, digest: str, image) -> Dict[str, Any]:
        """``digest``'s record, completed from ``image.pixels`` if needed.

        The hashlist is consulted at most once per request.
        """
        record = self.cache.setdefault(digest, {})
        image_hash = record.get("hash")
        if image_hash is not None and ("nsfw" in record or self._matched(image_hash)):
            self.cache.hits += 1
            return record
        self.cache.misses += 1
        pixels = image.pixels
        if image_hash is None:
            image_hash = record["hash"] = robust_hash(pixels)
            if "nsfw" in record or self._matched(image_hash):
                return record
        record["nsfw"] = self.scorer.score(pixels)
        return record

    def adopt(self, other: "Featurizer") -> None:
        """Start from copies of ``other``'s records, if it scores as this one does.

        The world build featurises every image it renders; a run adopts
        those records so its crawl renders none of them again.  Nothing
        is taken when ``other``'s scorer differs from this run's, since
        its scores would not be this run's.  A digest this cache already
        holds keeps its record, and a copied score is dropped where this
        run's hashlist matches the hash, so this cache never holds the
        score of an abuse image.
        """
        if other.scorer != self.scorer:
            return
        new = {d: dict(r) for d, r in other.cache.items() if d not in self.cache}
        scored = [record for record in new.values() if "nsfw" in record]
        if self.hashlist is not None and scored:
            matches = self.hashlist.match_hashes([int(r["hash"]) for r in scored])
            for record, match in zip(scored, matches):
                if match.matched:
                    del record["nsfw"]
        self.cache.update(new)

    def ocr_words(self, digest: str, image, ocr) -> int:
        """``digest``'s OCR word count, computed by ``ocr`` on first use."""
        record = self.cache.setdefault(digest, {})
        if "ocr" not in record:
            record["ocr"] = ocr.word_count(image.pixels)
        return int(record["ocr"])

    def _matched(self, image_hash: int) -> bool:
        return self.hashlist is not None and self.hashlist.match_hash(int(image_hash)).matched
