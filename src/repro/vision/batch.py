"""The 64-bit DCT perceptual hash: one kernel for one image or many.

§4.3's PhotoDNA and §4.5's TinEye both rest on robust image hashing;
this module owns the package's one robust hash.  Per image: grayscale →
32×32 block-mean resize → 2-D DCT → 8×8 lowest-frequency block with the
DC term replaced by coefficient (8, 8) → median threshold → MSB-first
64-bit pack.  The kernel runs on a whole stack at once:

* :func:`prepare_thumbnails` — grayscale + 32×32 block-mean thumbnails
  for a sequence of rasters, with a fully-vectorised fast path when all
  rasters share one shape (chunked to bound memory);
* :func:`hash_batch` — one ``scipy.fft.dctn`` over the whole thumbnail
  stack plus vectorised median-threshold bit packing, returning a
  ``uint64`` array;
* :func:`repro.vision.photodna.robust_hash` is the one-image case of the
  same kernel, so both raise the typed corrupt-payload taxonomy
  (:mod:`repro.media.validate`) on the same inputs;
* :func:`popcount` / :func:`hamming_matrix` — re-exported uint64 bit
  kernels (see :mod:`repro.vision.bits`) behind the many-vs-many
  matching paths of :class:`~repro.vision.photodna.HashListService`.

The resize helpers are shared with the aHash/dHash alternatives in
:mod:`repro.vision.hashes`.  See DESIGN.md §7.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import fft as scipy_fft

from ..media.validate import (
    DecoyPayloadError,
    EmptyPayloadError,
    NonFinitePixelError,
    WrongShapeError,
)
from .bits import hamming_matrix, pack_bits_rows, popcount

__all__ = [
    "hamming_matrix",
    "hash_batch",
    "pack_bits_rows",
    "popcount",
    "prepare_thumbnails",
]

_HASH_GRID = 32


def _to_grayscale(pixels: np.ndarray) -> np.ndarray:
    if pixels.ndim == 3:
        return pixels.mean(axis=2)
    return pixels


def _resize_axis(values: np.ndarray, target: int, axis: int) -> np.ndarray:
    """Resize one axis to ``target`` samples.

    Axes at least ``target`` long are block-averaged (area
    interpolation) with ``np.add.reduceat``; shorter axes are upsampled
    by nearest-neighbour.  Works on arrays of any rank, so a whole
    ``(n, h, w)`` stack resizes with two calls.
    """
    length = values.shape[axis]
    if length < target:
        # Upsample the short axis by nearest-neighbour.
        idx = np.clip((np.arange(target) * length / target).astype(int), 0, length - 1)
        return np.take(values, idx, axis=axis).astype(np.float64, copy=False)
    if length % target == 0:
        # Evenly divisible: reshape + small-axis sum (contiguous, far
        # faster than reduceat, and bit-identical for these tiny block
        # sizes where NumPy's reduction is sequential).
        k = length // target
        shaped = values.reshape(
            values.shape[:axis] + (target, k) + values.shape[axis + 1 :]
        )
        if k == 2 and shaped.ndim <= 26:
            # Axis halving: einsum's contraction avoids NumPy's slow
            # small-axis reduction loop.  A k=2 sum is a single IEEE
            # add (commutative, exact), so this is exactly
            # ``shaped.sum(...)``.
            letters = "abcdefghijklmnopqrstuvwxyz"[: shaped.ndim]
            out = letters[: axis + 1] + letters[axis + 2 :]
            return np.einsum(f"{letters}->{out}", shaped) / float(k)
        return shaped.sum(axis=axis + 1, dtype=np.float64) / float(k)
    edges = np.linspace(0, length, target + 1).astype(int)
    counts = np.diff(edges).astype(np.float64)
    sums = np.add.reduceat(values, edges[:-1], axis=axis)
    shape = [1] * values.ndim
    shape[axis] = target
    return sums / counts.reshape(shape)


def _block_mean_resize(gray: np.ndarray, target: int) -> np.ndarray:
    """Resize to target×target by block averaging (area interpolation).

    Each axis is handled independently: a 4×1000 raster still
    area-averages its long axis while only the 4-row axis is
    nearest-neighbour upsampled, keeping hashes stable under extreme
    aspect ratios.
    """
    return _resize_axis(_resize_axis(gray, target, axis=0), target, axis=1)


#: Same-shape rasters are stacked and resized in chunks of this many
#: images, bounding the transient full-resolution stack memory and
#: keeping each chunk L2/L3-resident across the grayscale passes.
_STACK_CHUNK = 64


def _guard_raster(raster, index: int) -> None:
    """Cheap structural defence for one batch member.

    Metadata-only checks (type, rank, emptiness) so the clean hot path
    stays O(1) per image: a decoy payload or a wrong-rank raster in a
    batch raises the typed corrupt-payload taxonomy *before* it can
    poison the shared thumbnail stack.  Pixel-value poison (NaN/Inf) is
    caught after thumbnailing — see :func:`hash_batch` — where a full
    scan costs 32×32 floats per image instead of H×W.
    """
    arr = raster if isinstance(raster, np.ndarray) else np.asarray(raster)
    if arr.dtype == object or arr.ndim == 0:
        raise DecoyPayloadError(
            f"batch item {index} is not an image raster: "
            f"{type(raster).__name__}"
        )
    if arr.ndim not in (2, 3):
        raise WrongShapeError(
            f"batch item {index} is not a 2-D or H×W×C raster: "
            f"ndim={arr.ndim}"
        )
    if arr.size == 0:
        raise EmptyPayloadError(f"batch item {index} is an empty raster")


def prepare_thumbnails(rasters: Sequence[np.ndarray]) -> np.ndarray:
    """Grayscale 32×32 thumbnails of ``rasters`` as an ``(n, 32, 32)`` stack.

    When every raster shares one shape the whole chunk is grayscaled and
    block-mean resized with two ``reduceat`` calls instead of ``2n``;
    mixed-shape batches fall back to per-image resizing.  Both paths
    produce identical floats.
    """
    items = rasters if isinstance(rasters, list) else list(rasters)
    n = len(items)
    thumbs = np.empty((n, _HASH_GRID, _HASH_GRID), dtype=np.float64)
    if n == 0:
        return thumbs
    for i, raster in enumerate(items):
        _guard_raster(raster, i)
    first_shape = np.shape(items[0])
    uniform = len(first_shape) in (2, 3) and all(
        np.shape(r) == first_shape for r in items
    )
    if uniform and (len(first_shape) == 2 or first_shape[2] <= 8):
        _thumbnails_uniform(items, first_shape, thumbs)
        return thumbs
    for i, raster in enumerate(items):
        gray = _to_grayscale(np.asarray(raster, dtype=np.float64))
        thumbs[i] = _block_mean_resize(gray, _HASH_GRID)
    return thumbs


def _thumbnails_uniform(
    items: Sequence[np.ndarray],
    shape: Sequence[int],
    thumbs: np.ndarray,
) -> None:
    """Vectorised thumbnail path for same-shape rasters.

    Each colour raster's channels are summed straight into its slot of a
    ``(chunk, h, w)`` grayscale buffer — the first two with one
    float64 ``np.add``, the rest with ``+=`` — and the chunk is divided
    once: the per-element operation order of ``pixels.mean(axis=2)``
    (sum left-to-right, one divide), hence bit-identical to the
    per-image path.  Resizing then runs on the whole chunk with two
    :func:`_resize_axis` calls instead of ``2·chunk``.
    """
    n = len(items)
    height, width = int(shape[0]), int(shape[1])
    channels = int(shape[2]) if len(shape) == 3 else 0
    gray_buf = np.empty((min(n, _STACK_CHUNK), height, width), dtype=np.float64)
    for start in range(0, n, _STACK_CHUNK):
        block = items[start : start + _STACK_CHUNK]
        gray = gray_buf[: len(block)]
        for i, raster in enumerate(block):
            pixels = np.asarray(raster)
            if channels > 1:
                np.add(pixels[..., 0], pixels[..., 1], out=gray[i], dtype=np.float64)
                for ch in range(2, channels):
                    gray[i] += pixels[..., ch]
            else:
                gray[i] = pixels[..., 0] if channels else pixels
        if channels:
            gray /= float(channels)
        small = _resize_axis(_resize_axis(gray, _HASH_GRID, axis=1), _HASH_GRID, axis=2)
        thumbs[start : start + len(block)] = small


def hash_batch(rasters: Sequence[np.ndarray]) -> np.ndarray:
    """64-bit DCT perceptual hashes of many rasters, as a ``uint64`` array.

    The DCT runs once over the whole ``(n, 32, 32)`` thumbnail stack and
    the bit packing is one vectorised shift/sum.  Returns an empty array
    for an empty input.
    """
    return _hash_rasters(rasters)


def _hash_rasters(rasters: Sequence[np.ndarray]) -> np.ndarray:
    """The hash kernel behind :func:`hash_batch` and ``robust_hash``.

    ``robust_hash`` calls this and not :func:`hash_batch`, so a wrapper
    around the public name counts block calls only.
    """
    thumbs = prepare_thumbnails(rasters)
    n = thumbs.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    finite = np.isfinite(thumbs.reshape(n, -1)).all(axis=1)
    if not bool(finite.all()):
        bad = np.flatnonzero(~finite)
        raise NonFinitePixelError(
            "non-finite hash thumbnails (NaN/Inf pixels) for batch items "
            f"{bad[:8].tolist()}{'...' if bad.size > 8 else ''}"
        )
    spectra = scipy_fft.dctn(thumbs, axes=(1, 2), norm="ortho")
    blocks = spectra[:, :8, :8].reshape(n, 64).copy()
    blocks[:, 0] = spectra[:, 8, 8]  # drop the DC term (pure brightness)
    medians = np.median(blocks, axis=1, keepdims=True)
    return pack_bits_rows(blocks > medians)
