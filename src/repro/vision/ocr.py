"""Tesseract analogue: count recognisable words in an image (§4.4).

The pipeline uses OCR only for its *word count* — "the Tesseract software,
which outputs the number of words recognised in an image".  This analogue
recovers word blocks structurally:

1. binarise against the dominant background luminance,
2. extract connected components,
3. keep components whose geometry is word-like (small, wide-or-squat,
   well-filled rectangles), and
4. group horizontally adjacent glyph fragments into words.

Because it keys on geometry rather than ground truth, it miscounts in the
same ways real OCR does: dense text merges, photos yield spurious
fragments, tiny text vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np
from scipy import ndimage

from ..media.validate import ensure_color_raster

__all__ = ["OcrEngine", "WordBox", "ocr_word_count"]


@dataclass(frozen=True, slots=True)
class WordBox:
    """Bounding box of one recognised word (row/col, half-open)."""

    top: int
    left: int
    bottom: int
    right: int

    @property
    def height(self) -> int:
        return self.bottom - self.top

    @property
    def width(self) -> int:
        return self.right - self.left

    @property
    def area(self) -> int:
        return self.height * self.width


@dataclass(frozen=True)
class OcrEngine:
    """Structural word detector with tunable geometry limits."""

    #: Minimum luminance deviation from background to count as ink.
    ink_threshold: float = 0.32
    #: Component pixel-count bounds for a word candidate.
    min_area: int = 5
    max_area: int = 24
    #: Geometry bounds (pixels).
    max_height: int = 3
    min_width: int = 3
    max_width: int = 8
    #: Minimum fraction of the bounding box filled with ink (words are
    #: solid glyph blocks; photographic speckle is ragged).
    min_fill: float = 0.75

    def find_words(self, pixels: np.ndarray) -> List[WordBox]:
        """Return bounding boxes of word-like components.

        The raster is checked through :func:`~repro.media.validate.
        ensure_color_raster`, so poison payloads surface as the typed
        corrupt-payload taxonomy rather than a shape error inside scipy.
        """
        ensure_color_raster(pixels)
        luminance = pixels.mean(axis=2)
        background = float(np.median(luminance))
        ink = np.abs(luminance - background) > self.ink_threshold

        labels, n_components = ndimage.label(ink)
        if n_components == 0:
            return []
        boxes: List[WordBox] = []
        slices = ndimage.find_objects(labels)
        for index, box_slices in enumerate(slices, start=1):
            if box_slices is None:
                continue
            row_slice, col_slice = box_slices
            height = row_slice.stop - row_slice.start
            width = col_slice.stop - col_slice.start
            area = int(np.sum(labels[row_slice, col_slice] == index))
            if not (self.min_area <= area <= self.max_area):
                continue
            if height > self.max_height:
                continue
            if not (self.min_width <= width <= self.max_width):
                continue
            if area / (height * width) < self.min_fill:
                continue
            boxes.append(
                WordBox(
                    top=row_slice.start,
                    left=col_slice.start,
                    bottom=row_slice.stop,
                    right=col_slice.stop,
                )
            )
        boxes.sort(key=lambda b: (b.top, b.left))
        return boxes

    def word_count(self, pixels: np.ndarray) -> int:
        """Number of recognised words — the Algorithm 1 input."""
        return len(self.find_words(pixels))

    def __call__(self, pixels: np.ndarray) -> int:
        return self.word_count(pixels)


_DEFAULT_ENGINE = OcrEngine()


def ocr_word_count(pixels: np.ndarray) -> int:
    """Word count with the default engine (module-level convenience)."""
    return _DEFAULT_ENGINE.word_count(pixels)
