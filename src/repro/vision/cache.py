"""Content-addressed vision cache: one computation per distinct image.

The pipeline's image stages all key their work off
``CrawledImage.digest`` (the exact-content SHA-1 of the raster), yet the
seed code re-derived the same quantities independently per stage: the
abuse filter hashed pixels, the reverse-search stage hashed the same
pixels again, provenance re-scored NSFW values the NSFV stage had
already computed.  :class:`VisionCache` memoises the three per-image
quantities —

* ``"hash"``  — the 64-bit DCT perceptual hash,
* ``"nsfw"``  — the OpenNSFW-analogue score,
* ``"ocr"``   — the Tesseract-analogue word count,

— under the image digest, so each distinct image is processed **once
across all stages**.  Hit/miss/evict counters are exposed through
:meth:`VisionCache.stats` and surfaced in the pipeline report and CLI.

The cache is bounded (LRU per digest) so corpus-scale runs cannot grow
it without limit, and a lock guards every access.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.trace import NULL_TRACER

__all__ = ["VisionCache", "VisionCacheStats"]

#: The memoisable per-image quantities.
_FIELDS = ("hash", "nsfw", "ocr")

_MISSING = object()


@dataclass(frozen=True, slots=True)
class VisionCacheStats:
    """Counter snapshot of a :class:`VisionCache`."""

    hits: int
    misses: int
    evictions: int
    n_entries: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when untouched)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def summary(self) -> str:
        """One-line human-readable rendering (CLI / report use)."""
        return (
            f"hits={self.hits} misses={self.misses} "
            f"hit_rate={self.hit_rate:.1%} evictions={self.evictions} "
            f"entries={self.n_entries}"
        )

    def as_dict(self) -> dict:
        """Snapshot-protocol view (manifest / export use, DESIGN.md §9)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "n_entries": self.n_entries,
            "hit_rate": self.hit_rate,
        }


class VisionCache:
    """LRU cache of per-image vision quantities keyed by content digest.

    ``max_entries`` bounds the number of distinct digests retained
    (``None`` = unbounded).  Eviction is least-recently-used at digest
    granularity: all memoised fields of the evicted digest go together.
    """

    def __init__(self, max_entries: Optional[int] = None, tracer=None):
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive or None")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._tracer = tracer if tracer is not None else NULL_TRACER

    def set_tracer(self, tracer) -> None:
        """Install the run's span recorder (``None`` restores the no-op).

        The pipeline owns one cache across runs, so each
        :meth:`EwhoringPipeline.run` re-points the cache at its own
        tracer; batched computations then emit ``vision.hash_batch``
        spans under whichever stage triggered them.
        """
        self._tracer = tracer if tracer is not None else NULL_TRACER

    # ------------------------------------------------------------------
    def get(self, digest: str, field: str):
        """The memoised ``field`` for ``digest``, or ``None`` on a miss.

        Counts one hit or one miss.  Use :meth:`get_or_compute` when a
        compute function is at hand.
        """
        value = self._lookup(digest, field)
        return None if value is _MISSING else value

    def put(self, digest: str, field: str, value) -> None:
        """Memoise ``field`` = ``value`` for ``digest`` (LRU-refreshing)."""
        self._check_field(field)
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                entry = {}
                self._entries[digest] = entry
            else:
                self._entries.move_to_end(digest)
            entry[field] = value
            self._evict_locked()

    def get_or_compute(self, digest: str, field: str, compute: Callable[[], object]):
        """The memoised value, computing and storing it on a miss."""
        value = self._lookup(digest, field)
        if value is not _MISSING:
            return value
        value = compute()
        self.put(digest, field, value)
        return value

    # -- convenience wrappers ------------------------------------------
    def hash_for(self, digest: str, compute: Callable[[], int]) -> int:
        return self.get_or_compute(digest, "hash", compute)  # type: ignore[return-value]

    def nsfw_for(self, digest: str, compute: Callable[[], float]) -> float:
        return self.get_or_compute(digest, "nsfw", compute)  # type: ignore[return-value]

    def ocr_for(self, digest: str, compute: Callable[[], int]) -> int:
        return self.get_or_compute(digest, "ocr", compute)  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def hashes_for(
        self,
        keyed_rasters: Sequence[Tuple[str, Callable[[], "object"]]],
        compute_batch: Callable[[List[object]], Sequence[int]],
    ) -> List[int]:
        """Batch get-or-compute of perceptual hashes.

        ``keyed_rasters`` is a sequence of ``(digest, raster_fn)`` pairs
        (``raster_fn`` defers pixel materialisation to cache misses);
        ``compute_batch`` maps the missing rasters to hashes in order —
        normally :func:`repro.vision.batch.hash_batch`.  Returns one
        hash per input pair, preserving order, with each distinct digest
        computed at most once.
        """
        results: List[Optional[int]] = [None] * len(keyed_rasters)
        missing_digests: List[str] = []
        missing_rasters: List[object] = []
        first_slot: Dict[str, List[int]] = {}
        for i, (digest, raster_fn) in enumerate(keyed_rasters):
            value = self._lookup(digest, "hash")
            if value is not _MISSING:
                results[i] = int(value)  # type: ignore[arg-type]
                continue
            slots = first_slot.get(digest)
            if slots is None:
                first_slot[digest] = [i]
                missing_digests.append(digest)
                missing_rasters.append(raster_fn())
            else:
                slots.append(i)
        if missing_digests:
            with self._tracer.span(
                "vision.hash_batch",
                n_requested=len(keyed_rasters),
                n_missing=len(missing_digests),
            ):
                computed = compute_batch(missing_rasters)
            for digest, value in zip(missing_digests, computed):
                as_int = int(value)
                self.put(digest, "hash", as_int)
                for slot in first_slot[digest]:
                    results[slot] = as_int
        return [int(v) for v in results]  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    def stats(self) -> VisionCacheStats:
        """Snapshot of the hit/miss/evict counters."""
        with self._lock:
            return VisionCacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                n_entries=len(self._entries),
            )

    def items(self) -> List[Tuple[str, Dict[str, object]]]:
        """Snapshot of every entry as ``(digest, {field: value})`` pairs.

        Values are the plain ints/floats the cache memoises, so the
        snapshot is JSON-serialisable as-is — this is the persistence
        export used by :mod:`repro.store`.  LRU order and counters are
        unaffected.
        """
        with self._lock:
            return [(digest, dict(entry)) for digest, entry in self._entries.items()]

    def preload(self, items: Sequence[Tuple[str, Dict[str, object]]]) -> None:
        """Bulk-install persisted entries without touching hit/miss counters.

        The inverse of :meth:`items`: warm-starting a run from a
        persistent store must not perturb the cache statistics that
        belong to the run itself (``put`` already counts nothing).
        """
        for digest, entry in items:
            for fld, value in entry.items():
                self.put(digest, fld, value)

    def clear(self) -> None:
        """Drop all entries (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    # ------------------------------------------------------------------
    def _lookup(self, digest: str, field: str):
        self._check_field(field)
        with self._lock:
            entry = self._entries.get(digest)
            if entry is not None and field in entry:
                self._entries.move_to_end(digest)
                self._hits += 1
                return entry[field]
            self._misses += 1
            return _MISSING

    def _evict_locked(self) -> None:
        if self.max_entries is None:
            return
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._evictions += 1

    @staticmethod
    def _check_field(field: str) -> None:
        if field not in _FIELDS:
            raise ValueError(f"unknown vision-cache field {field!r}; expected one of {_FIELDS}")
