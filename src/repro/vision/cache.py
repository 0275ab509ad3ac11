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
complete record (a hand-built test record) is featurised from its pixels
where a stage first needs it.

A plain image's pixels are a pure function of its latent, so the cache
also maps each latent it has digested to that digest
(:attr:`VisionCache.digests`).  An image met again under a new link, or
in a later epoch of a store, finds its digest, and through the digest
its record, without being rendered.  A corrupt payload view shares its
base's latent but not its pixels, so it is never looked up or recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple

from ..media.image import ImageLatent, SyntheticImage
from .nsfw import NsfwScorer
from .photodna import HashListService, robust_hash

__all__ = ["Featurizer", "VisionCache", "VisionCacheStats"]


@dataclass(frozen=True, slots=True)
class VisionCacheStats:
    """Counter snapshot of a :class:`VisionCache`."""

    hits: int
    misses: int
    n_entries: int


class VisionCache(Dict[str, Dict[str, Any]]):
    """Digest → feature record map, with lookup counters and the
    latent → digest map of the plain images digested so far.

    A *hit* is a :meth:`Featurizer.features` request an existing record
    answered; a *miss* had to render pixels.  Values are plain ints and
    floats, so the map is JSON-serialisable as-is — :mod:`repro.store`
    persists it row by row, and :attr:`digests` beside it.
    """

    def __init__(self) -> None:
        super().__init__()
        self.hits = 0
        self.misses = 0
        #: Content digest of each plain image's latent, once digested.
        self.digests: Dict[ImageLatent, str] = {}

    def stats(self) -> VisionCacheStats:
        return VisionCacheStats(hits=self.hits, misses=self.misses, n_entries=len(self))

    def digest_of(self, image: SyntheticImage) -> Optional[str]:
        """``image``'s content digest if known without rendering it, else ``None``."""
        digest = image.known_digest
        if digest is None and image.renders_latent:
            digest = self.digests.get(image.latent)
        return digest

    def remember(self, image: SyntheticImage) -> str:
        """``image``'s content digest, recorded under its latent if it is plain."""
        digest = image.content_digest
        if image.renders_latent:
            self.digests[image.latent] = digest
        return digest

    def hash_of(self, latent: ImageLatent) -> Optional[int]:
        """The perceptual hash recorded for ``latent``'s digest, if any."""
        digest = self.digests.get(latent)
        record = self.get(digest) if digest is not None else None
        return None if record is None else record.get("hash")


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
        #: Scores this featurizer computed, counted by the hashlist state
        #: (radius, entry count) each was screened against.
        self._screened: Dict[Any, int] = {}

    def features(self, digest: str, image) -> Dict[str, Any]:
        """``digest``'s record, completed from ``image.pixels`` if needed.

        The hashlist is consulted at most once per request.
        """
        record = self.cache.setdefault(digest, {})
        if self._needs_score(record, image):
            record["nsfw"] = self.scorer.score(image.pixels)
            state = self._hashlist_state()
            self._screened[state] = self._screened.get(state, 0) + 1
        return record

    def features_block(self, items: Iterable[Tuple[str, Any]]) -> None:
        """:meth:`features` of each ``(digest, image)`` in order, scored as one block.

        Records, counters and hashlist lookups are those of one call per pair.
        """
        scoring: Dict[int, Dict[str, Any]] = {}
        rasters = []
        for digest, image in items:
            record = self.cache.setdefault(digest, {})
            if id(record) in scoring:
                self.cache.hits += 1  # one call per pair would find its score
            elif self._needs_score(record, image):
                scoring[id(record)] = record
                rasters.append(image.pixels)
        for record, score in zip(scoring.values(), self.scorer.score_block(rasters)):
            record["nsfw"] = score
        if rasters:
            state = self._hashlist_state()
            self._screened[state] = self._screened.get(state, 0) + len(rasters)

    def adopt(self, other: "Featurizer") -> None:
        """Start from copies of ``other``'s records, if it scores as this one does.

        The world build featurises every image it renders; a run adopts
        those records so its crawl renders none of them again.  Nothing
        is taken when ``other``'s scorer differs from this run's, since
        its scores would not be this run's.  A digest this cache already
        holds keeps its record, and a copied score is dropped where this
        run's hashlist matches the hash, so this cache never holds the
        score of an abuse image.  That check is skipped when ``other``
        computed every score it holds itself, screening each against this
        very hashlist at the radius and entry count it has now.  The
        latent → digest map is taken whatever the scorer: it holds no
        score.
        """
        self.cache.digests.update(other.cache.digests)
        if other.scorer != self.scorer:
            return
        new = {d: dict(r) for d, r in other.cache.items() if d not in self.cache}
        scored = [record for record in new.values() if "nsfw" in record]
        n_scores = sum("nsfw" in record for record in other.cache.values())
        screened = other.hashlist is self.hashlist and other._screened == {
            self._hashlist_state(): n_scores
        }
        if self.hashlist is not None and scored and not screened:
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

    def _needs_score(self, record: Dict[str, Any], image) -> bool:
        """Count a hit or a miss on ``record``, hashing a miss without a hash;
        true if it needs a score.  The hashlist is consulted at most once."""
        image_hash = record.get("hash")
        if image_hash is not None and ("nsfw" in record or self._matched(image_hash)):
            self.cache.hits += 1
            return False
        self.cache.misses += 1
        if image_hash is None:
            image_hash = record["hash"] = robust_hash(image.pixels)
            return not ("nsfw" in record or self._matched(image_hash))
        return True

    def _hashlist_state(self):
        if self.hashlist is None:
            return None
        return (self.hashlist.radius, self.hashlist.n_entries)

    def _matched(self, image_hash: int) -> bool:
        return self.hashlist is not None and self.hashlist.match_hash(int(image_hash)).matched
