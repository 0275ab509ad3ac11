"""Batched vision engine: hash whole image stacks in one NumPy pass.

The scalar hot path (:func:`repro.vision.photodna.robust_hash`) costs a
Python-level round trip per image — resize, a tiny 32×32 DCT, a 64-step
bit-packing loop.  At corpus scale (the paper's §4.2 crawl, or the
hundreds of millions of items of comparable hash-matching measurement
studies) those per-call overheads dominate.  This module provides the
batched equivalents:

* :func:`prepare_thumbnails` — grayscale + 32×32 block-mean thumbnails
  for a sequence of rasters, with a fully-vectorised fast path when all
  rasters share one shape (chunked to bound memory);
* :func:`hash_batch` — one ``scipy.fft.dctn`` over the whole thumbnail
  stack plus vectorised median-threshold bit packing.  **Bit-identical**
  to mapping :func:`robust_hash` over the same rasters (property-tested
  in ``tests/test_vision_batch.py``);
* :func:`popcount` / :func:`hamming_matrix` — re-exported uint64 bit
  kernels (see :mod:`repro.vision.bits`) behind the many-vs-many
  matching paths of :class:`~repro.vision.photodna.HashListService` and
  :class:`~repro.vision.reverse_search.ReverseImageIndex`.

All functions work on any NumPy ≥ 1.24; ``popcount`` transparently falls
back to a lookup table below NumPy 2.0 (see DESIGN.md §7).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
from scipy import fft as scipy_fft

from ..media.validate import (
    DecoyPayloadError,
    EmptyPayloadError,
    NonFinitePixelError,
    WrongShapeError,
)
from ..obs.trace import NULL_TRACER
from .bits import hamming_matrix, pack_bits_rows, popcount
from .photodna import _HASH_GRID, _resize_axis, _to_grayscale, robust_hash

__all__ = [
    "hamming_matrix",
    "hash_batch",
    "hash_batch_ints",
    "pack_bits_rows",
    "popcount",
    "prepare_thumbnails",
]

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


def _thumbnail(raster: np.ndarray) -> np.ndarray:
    """One grayscale ``grid×grid`` thumbnail (scalar-path identical)."""
    gray = _to_grayscale(np.asarray(raster, dtype=np.float64))
    return _resize_axis(_resize_axis(gray, _HASH_GRID, axis=0), _HASH_GRID, axis=1)


def prepare_thumbnails(rasters: Sequence[np.ndarray]) -> np.ndarray:
    """Grayscale 32×32 thumbnails of ``rasters`` as an ``(n, 32, 32)`` stack.

    When every raster shares one shape the whole chunk is grayscaled and
    block-mean resized with two ``reduceat`` calls instead of ``2n``;
    mixed-shape batches fall back to per-image resizing.  Both paths
    produce floats identical to the scalar pipeline.
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
        thumbs[i] = _thumbnail(raster)
    return thumbs


def _thumbnails_uniform(
    items: Sequence[np.ndarray],
    shape: Sequence[int],
    thumbs: np.ndarray,
) -> None:
    """Vectorised thumbnail path for same-shape rasters.

    Colour rasters are copied channel-plane by channel-plane into a
    ``(channels, chunk, h, w)`` buffer while each raster is still
    cache-warm, so the grayscale step becomes sequential whole-plane
    adds — the identical per-element operation order of
    ``pixels.mean(axis=2)`` (sum left-to-right, one divide), hence
    bit-identical to the scalar path.  Resizing then runs on the whole
    chunk with two :func:`_resize_axis` calls instead of ``2·chunk``.
    """
    n = len(items)
    height, width = int(shape[0]), int(shape[1])
    channels = int(shape[2]) if len(shape) == 3 else 0
    chunk_size = min(n, _STACK_CHUNK)
    planes = np.empty((max(channels, 1), chunk_size, height, width), dtype=np.float64)
    gray_buf = np.empty((chunk_size, height, width), dtype=np.float64)
    for start in range(0, n, _STACK_CHUNK):
        block = items[start : start + _STACK_CHUNK]
        c = len(block)
        if channels:
            dest = planes[:, :c]
            for i, raster in enumerate(block):
                # One strided copy per image: (h, w, c) → (c, h, w).
                dest[:, i] = np.asarray(raster).transpose(2, 0, 1)
            if channels > 1:
                gray = np.add(planes[0, :c], planes[1, :c], out=gray_buf[:c])
                for ch in range(2, channels):
                    gray += planes[ch, :c]
            else:
                gray = gray_buf[:c]
                np.copyto(gray, planes[0, :c])
            gray /= float(channels)
        else:
            for i, raster in enumerate(block):
                planes[0, i] = raster
            gray = planes[0, :c]
        small = _resize_axis(_resize_axis(gray, _HASH_GRID, axis=1), _HASH_GRID, axis=2)
        thumbs[start : start + c] = small


def hash_batch(rasters: Sequence[np.ndarray], tracer=None) -> np.ndarray:
    """64-bit DCT perceptual hashes of many rasters, as a ``uint64`` array.

    Pipeline per image is exactly :func:`robust_hash` — grayscale →
    32×32 block-mean resize → 2-D DCT → 8×8 low-frequency block with the
    DC term replaced → median threshold → MSB-first 64-bit pack — but
    the DCT runs once over the whole ``(n, 32, 32)`` stack and the bit
    packing is a single vectorised shift/sum instead of ``64n`` Python
    loop iterations.

    ``tracer`` (a :class:`~repro.obs.trace.Tracer`-shaped recorder)
    wraps the kernel in a ``vision.hash_batch`` span carrying the image
    count.

    Returns an empty array for an empty input.  Results are
    bit-identical to ``[robust_hash(r) for r in rasters]``.
    """
    if tracer is not None and tracer is not NULL_TRACER:
        with tracer.span("vision.hash_batch", n_images=len(rasters)):
            return hash_batch(rasters)
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


def hash_batch_ints(rasters: Sequence[np.ndarray]) -> List[int]:
    """Like :func:`hash_batch` but returning Python ints (API sugar)."""
    return [int(h) for h in hash_batch(rasters)]
