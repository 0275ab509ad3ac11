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
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..obs.trace import NULL_TRACER
from ..vision.cache import Featurizer
from ..vision.nsfw import NsfwScorer
from ..vision.ocr import OcrEngine

if TYPE_CHECKING:
    from ..web.crawler import CrawledImage

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
        return self._decide(self.scorer.score(pixels), lambda: self.ocr.word_count(pixels))

    def is_sfv(self, pixels: np.ndarray) -> bool:
        """Algorithm 1's boolean: True when safe for viewing."""
        return self.classify(pixels).safe_for_viewing

    def classify_batch(
        self,
        images: Sequence["CrawledImage"],
        features: Optional[Featurizer] = None,
        tracer=None,
    ) -> List[NsfvVerdict]:
        """Classify crawled images from their feature records.

        The NSFW score comes from each digest's record (see
        :class:`~repro.vision.cache.Featurizer`; without ``features`` a
        private one scores with :attr:`scorer`).  OCR runs lazily, only
        for digests inside the ambiguous band, and its word count joins
        the record, so a record-warm batch renders no raster outside the
        band.  Verdicts are identical to mapping :meth:`classify` over the
        images' pixels, and each distinct digest is classified once.

        ``tracer`` wraps the batch in a ``vision.nsfv_batch`` span whose
        attributes count the distinct images and the OCR passes the
        ambiguous band demanded (DESIGN.md §9).
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        features = features if features is not None else Featurizer(scorer=self.scorer)
        with tracer.span("vision.nsfv_batch", n_images=len(images)) as span:
            seen: Dict[str, NsfvVerdict] = {}
            verdicts: List[NsfvVerdict] = []
            for crawled in images:
                verdict = seen.get(crawled.digest)
                if verdict is None:
                    record = features.features(crawled.digest, crawled.image)
                    verdict = self._decide(
                        float(record["nsfw"]),
                        lambda c=crawled: features.ocr_words(c.digest, c.image, self.ocr),
                    )
                    seen[crawled.digest] = verdict
                verdicts.append(verdict)
            span.set(
                n_unique=len(seen),
                n_ocr=sum(
                    1 for v in seen.values()
                    if self.sfv_threshold <= v.nsfw_score <= self.nsfv_threshold
                ),
            )
            return verdicts

    def _decide(self, nsfw: float, words: Callable[[], int]) -> NsfvVerdict:
        """Algorithm 1 on a score; ``words`` is called only when ambiguous."""
        if nsfw < self.sfv_threshold:
            return NsfvVerdict(True, nsfw, 0)
        if nsfw > self.nsfv_threshold:
            return NsfvVerdict(False, nsfw, 0)
        count = words()
        if nsfw < self.low_band_threshold:
            return NsfvVerdict(count > self.low_ocr_words, nsfw, count)
        return NsfvVerdict(count > self.high_ocr_words, nsfw, count)
