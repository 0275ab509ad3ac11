"""Alternative perceptual hashes (aHash, dHash) beside the DCT hash.

§4.3's PhotoDNA and §4.5's TinEye both rest on *robust* image hashing.
The package's primary hash is the DCT perceptual hash of
:mod:`repro.vision.batch` (``robust_hash`` for one image); this module
adds the two classic cheaper alternatives so their robustness/evasion
trade-offs can be measured (the A5 ablation):

* **average hash** (aHash) — threshold an 8×8 block-mean thumbnail at
  its mean;
* **difference hash** (dHash) — sign of horizontal neighbour
  differences on a 9×8 thumbnail.

All three return 64-bit integers comparable with
:func:`repro.vision.photodna.hamming_distance`.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from .bits import pack_bits_rows
from .batch import _block_mean_resize, _to_grayscale
from .photodna import robust_hash

__all__ = ["HASH_FUNCTIONS", "average_hash", "difference_hash"]


def _pack_bits(bits: np.ndarray) -> int:
    """MSB-first pack of up to 64 bits (vectorised; see bits.py)."""
    return int(pack_bits_rows(np.asarray(bits).ravel()[None, :])[0])


def average_hash(pixels: np.ndarray) -> int:
    """64-bit aHash: 8×8 block means thresholded at their mean."""
    gray = _to_grayscale(np.asarray(pixels, dtype=np.float64))
    small = _block_mean_resize(gray, 8)
    return _pack_bits(small > small.mean())


def difference_hash(pixels: np.ndarray) -> int:
    """64-bit dHash: signs of horizontal gradients on a 9×8 thumbnail."""
    gray = _to_grayscale(np.asarray(pixels, dtype=np.float64))
    # 8 rows × 9 columns → 8×8 horizontal differences.
    rows = _block_mean_resize(gray, 9)[:8, :]  # 8×9
    return _pack_bits(rows[:, 1:] > rows[:, :-1])


#: Name → hash function, for sweeps over hash designs.
HASH_FUNCTIONS: Dict[str, Callable[[np.ndarray], int]] = {
    "dct (default)": robust_hash,
    "average": average_hash,
    "difference": difference_hash,
}
