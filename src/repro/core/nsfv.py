"""Stage 4: the NSFV classifier — Algorithm 1 of the paper, verbatim.

The classifier combines the OpenNSFW-analogue nudity score with the
Tesseract-analogue OCR word count to decide whether an image is Safe For
Viewing by a researcher:

.. code-block:: none

    NSFW <- openNSFW(image);  OCR <- tesseract(image)
    if NSFW < 0.01:   SFV
    elif NSFW > 0.3:  NSFV
    elif NSFW < 0.05: SFV iff OCR > 10
    else:             SFV iff OCR > 20

Thresholds are parameters so the A2 ablation can sweep them, but the
defaults are the published values, tuned conservatively: zero false
negatives (no indecent image reaches a human) at the cost of some false
positives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..obs.trace import NULL_TRACER
from ..vision.cache import VisionCache
from ..vision.nsfw import NsfwScorer
from ..vision.ocr import OcrEngine

__all__ = ["NsfvClassifier", "NsfvVerdict"]


@dataclass(frozen=True, slots=True)
class NsfvVerdict:
    """One image's classification with the scores behind it."""

    safe_for_viewing: bool
    nsfw_score: float
    ocr_words: int

    @property
    def nsfv(self) -> bool:
        """Not-Safe-For-Viewing — the positive class of §4.4."""
        return not self.safe_for_viewing


@dataclass(frozen=True)
class NsfvClassifier:
    """Algorithm 1 with configurable thresholds and backends."""

    #: Below this NSFW score an image is immediately SFV.
    sfv_threshold: float = 0.01
    #: Above this NSFW score an image is immediately NSFV.
    nsfv_threshold: float = 0.30
    #: Between sfv_threshold and this, OCR must exceed ``low_ocr_words``.
    low_band_threshold: float = 0.05
    #: OCR word requirements for the two ambiguous bands.
    low_ocr_words: int = 10
    high_ocr_words: int = 20

    scorer: NsfwScorer = field(default_factory=NsfwScorer)
    ocr: OcrEngine = field(default_factory=OcrEngine)

    def __post_init__(self) -> None:
        if not (
            0.0 <= self.sfv_threshold
            <= self.low_band_threshold
            <= self.nsfv_threshold
            <= 1.0
        ):
            raise ValueError(
                "thresholds must satisfy 0 <= sfv <= low_band <= nsfv <= 1"
            )

    # ------------------------------------------------------------------
    def classify(self, pixels: np.ndarray) -> NsfvVerdict:
        """Classify one raster; OCR runs only when the score is ambiguous.

        Skipping OCR outside the ambiguous band halves the cost on the
        dominant clear-cut classes without changing any verdict.
        """
        nsfw = self.scorer.score(pixels)
        if nsfw < self.sfv_threshold:
            return NsfvVerdict(True, nsfw, 0)
        if nsfw > self.nsfv_threshold:
            return NsfvVerdict(False, nsfw, 0)
        words = self.ocr.word_count(pixels)
        if nsfw < self.low_band_threshold:
            return NsfvVerdict(words > self.low_ocr_words, nsfw, words)
        return NsfvVerdict(words > self.high_ocr_words, nsfw, words)

    def is_sfv(self, pixels: np.ndarray) -> bool:
        """Algorithm 1's boolean: True when safe for viewing."""
        return self.classify(pixels).safe_for_viewing

    def classify_batch(
        self,
        rasters: Sequence[object],
        *,
        digests: Optional[Sequence[str]] = None,
        cache: Optional[VisionCache] = None,
        tracer=None,
    ) -> List[NsfvVerdict]:
        """Classify many rasters, optionally memoised through a cache.

        ``rasters`` items may be arrays **or zero-argument callables**
        returning an array: callables defer pixel materialisation to the
        moment a score is actually computed, so a fully cache-warm batch
        (an incremental re-run against a persistent store) never renders
        a single raster.

        When ``digests`` (one content digest per raster, aligned) and a
        :class:`~repro.vision.cache.VisionCache` are both supplied, NSFW
        scores and OCR word counts are looked up / stored under each
        digest, so repeated digests — within this batch or across
        pipeline stages — are scored once.  Verdicts are identical to
        mapping :meth:`classify` over the same rasters: OCR still runs
        only inside the ambiguous band, and a cached OCR count never
        changes a clear-cut verdict.

        ``tracer`` wraps the batch in a ``vision.nsfv_batch`` span whose
        attributes count the images scored and the OCR passes the
        ambiguous band demanded (DESIGN.md §9).
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        items = rasters if isinstance(rasters, list) else list(rasters)
        if digests is not None and len(digests) != len(items):
            raise ValueError("digests must align one-to-one with rasters")

        def pixels_of(item):
            return item() if callable(item) else item

        with tracer.span("vision.nsfv_batch", n_images=len(items)) as span:
            if digests is None or cache is None:
                verdicts_plain: List[NsfvVerdict] = []
                n_ocr = 0
                for item in items:
                    verdict = self.classify(pixels_of(item))
                    if (
                        self.sfv_threshold <= verdict.nsfw_score
                        and verdict.nsfw_score <= self.nsfv_threshold
                    ):
                        n_ocr += 1
                    verdicts_plain.append(verdict)
                span.set(n_ocr=n_ocr)
                return verdicts_plain

            verdicts: List[Optional[NsfvVerdict]] = [None] * len(items)
            seen: Dict[str, NsfvVerdict] = {}
            n_ocr = 0
            for i, (item, digest) in enumerate(zip(items, digests)):
                cached = seen.get(digest)
                if cached is not None:
                    verdicts[i] = cached
                    continue
                nsfw = float(
                    cache.nsfw_for(
                        digest, lambda it=item: self.scorer.score(pixels_of(it))
                    )
                )
                if nsfw < self.sfv_threshold:
                    verdict = NsfvVerdict(True, nsfw, 0)
                elif nsfw > self.nsfv_threshold:
                    verdict = NsfvVerdict(False, nsfw, 0)
                else:
                    n_ocr += 1
                    words = int(
                        cache.ocr_for(
                            digest,
                            lambda it=item: self.ocr.word_count(pixels_of(it)),
                        )
                    )
                    if nsfw < self.low_band_threshold:
                        verdict = NsfvVerdict(words > self.low_ocr_words, nsfw, words)
                    else:
                        verdict = NsfvVerdict(words > self.high_ocr_words, nsfw, words)
                seen[digest] = verdict
                verdicts[i] = verdict
            span.set(n_unique=len(seen), n_ocr=n_ocr)
            return [v for v in verdicts if v is not None]
