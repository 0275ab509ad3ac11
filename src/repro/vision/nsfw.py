"""OpenNSFW analogue: a nudity-probability scorer over pixels (§4.4).

The real pipeline used Yahoo's OpenNSFW deep model, which returns a
probability that an image contains indecent content.  This analogue
detects skin-tone pixels chromatically, measures their coverage and
spatial coherence, and maps the result through a calibrated logistic.

The calibration reproduces the score *distribution* reported in §4.4:
non-nude images score below 0.3 (text screenshots effectively 0), clothed
models land in the ambiguous 0.1–0.7 band, and nude/sexual images score
high.  Sand, wood and similar warm textures are false skin — the paper's
"colours or textures resembling the human body" failure mode emerges
naturally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np
from scipy import ndimage

from ..media.validate import ensure_color_raster

__all__ = ["NsfwScorer"]


def _skin(pixels: np.ndarray) -> np.ndarray:
    """Boolean mask of skin-tone pixels, element by element.

    Chromatic rule: warm colours with red > green > blue, a sufficient
    red–blue gap and mid-to-high brightness.  This is the classic
    rule-based skin detector family; it has the same known failure modes
    (sand, wood, beige walls) as the originals.
    """
    red = pixels[..., 0]
    green = pixels[..., 1]
    blue = pixels[..., 2]
    return (
        (red > 0.5)
        & (red > green)
        & (green > blue)
        & ((red - blue) > 0.12)
        & ((red - green) > 0.03)
        & (red < 0.99)
    )


#: ``ndimage.label``'s default structure for 2-D masks, built once.
_FOUR_CONNECTED = ndimage.generate_binary_structure(2, 1)

#: 4-connectivity within each plane of an ``(n, H, W)`` stack only.
_PLANE_FOUR_CONNECTED = np.zeros((3, 3, 3), dtype=bool)
_PLANE_FOUR_CONNECTED[1] = _FOUR_CONNECTED


@dataclass(frozen=True)
class NsfwScorer:
    """Calibrated logistic scorer combining skin coverage and coherence.

    ``score = sigmoid(gain · (0.8·coverage + 0.4·largest_blob − midpoint))``

    where *coverage* is the skin-pixel fraction and *largest_blob* the
    fraction covered by the single largest connected skin region (bodies
    are coherent; scattered warm speckle is not).
    """

    gain: float = 18.0
    midpoint: float = 0.30

    def score(self, pixels: np.ndarray) -> float:
        """NSFW probability in (0, 1) for one image raster."""
        return self.score_block([pixels])[0]

    def score_block(self, rasters: Sequence[np.ndarray]) -> List[float]:
        """:meth:`score` of each raster, labelling all their skin masks at once.

        The rasters share one shape.  Labels run in scan order,
        so each image's components hold the label range after the
        previous image's.
        """
        if not rasters:
            return []
        mask = np.stack([_skin(ensure_color_raster(raster)) for raster in rasters])
        n, total = len(rasters), mask[0].size
        skin = mask.reshape(n, -1).sum(axis=1).tolist()
        labels, _ = ndimage.label(mask, structure=_PLANE_FOUR_CONNECTED)
        sizes = np.bincount(labels[mask])  # skin pixels only: label 0 has none
        # Highest label up to each image: its own labels follow the last.
        last = np.maximum.accumulate(labels.reshape(n, -1).max(axis=1)).tolist()
        scores, first = [], 1
        for count, stop in zip(skin, last):
            largest = int(sizes[first : stop + 1].max()) if count else 0
            effective = 0.8 * (count / total) + 0.4 * (largest / total)
            scores.append(float(1.0 / (1.0 + np.exp(-self.gain * (effective - self.midpoint)))))
            first = stop + 1
        return scores

    def __call__(self, pixels: np.ndarray) -> float:
        return self.score(pixels)
