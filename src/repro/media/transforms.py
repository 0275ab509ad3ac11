"""Pixel-level image transformations.

Two populations apply transformations in the measured ecosystem:

* *actors* modify images to evade reverse image search (§4.5: mirroring,
  watermarking, shadowing — "easily performed using automated tools");
* *hosting platforms* recompress and resize uploads.

Each transform is a pure function ``(pixels, seed) -> pixels`` registered
by name, so a latent's ``transform_chain`` replays deterministically.  The
perceptual-hash substrate (vision.photodna) is robust to recompression and
light cropping but — as with real systems — defeated by mirroring, which
is exactly the evasion trade-off the paper describes.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

__all__ = [
    "EVASION_TRANSFORMS",
    "PLATFORM_TRANSFORMS",
    "STACKED_EVASION_TRANSFORMS",
    "apply_transform",
    "crop_border",
    "mirror",
    "recompress",
    "reencode",
    "register_transform",
    "resize_small",
    "rotate",
    "shadow",
    "watermark",
]

TransformFn = Callable[[np.ndarray, int], np.ndarray]

_REGISTRY: Dict[str, TransformFn] = {}


def register_transform(name: str, fn: TransformFn) -> None:
    """Register a transform under ``name`` (overwrites are rejected)."""
    if name in _REGISTRY:
        raise ValueError(f"transform {name!r} already registered")
    _REGISTRY[name] = fn


def apply_transform(name: str, pixels: np.ndarray, seed: int = 0) -> np.ndarray:
    """Apply a registered transform; raises KeyError for unknown names.

    Transforms operate on float rasters in ``[0, 1]``; ``uint8`` input is
    adapted here (scaled to float, transformed, rounded back) so every
    registered transform preserves the caller's dtype.
    """
    try:
        fn = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown transform {name!r}; known: {sorted(_REGISTRY)}") from None
    if pixels.dtype == np.uint8:
        as_float = pixels.astype(np.float64) / 255.0
        out = fn(as_float, seed)
        return np.clip(np.round(out * 255.0), 0, 255).astype(np.uint8)
    return fn(pixels, seed)


def transform_names() -> list:
    """Sorted names of all registered transforms."""
    return sorted(_REGISTRY)


# ----------------------------------------------------------------------
# Individual transforms
# ----------------------------------------------------------------------

def mirror(pixels: np.ndarray, seed: int = 0) -> np.ndarray:
    """Horizontal flip — the classic reverse-search evasion (§4.5)."""
    return pixels[:, ::-1, :].copy()


def watermark(pixels: np.ndarray, seed: int = 0) -> np.ndarray:
    """Overlay a semi-transparent watermark band (preview branding)."""
    rng = np.random.default_rng(seed)
    out = pixels.copy()
    size = out.shape[0]
    band_height = max(3, size // 10)
    top = int(rng.integers(size // 4, 3 * size // 4))
    alpha = 0.45
    colour = np.array([1.0, 1.0, 1.0])
    out[top : top + band_height, :, :] = (
        (1 - alpha) * out[top : top + band_height, :, :] + alpha * colour
    )
    # Watermark "text" dashes inside the band.
    for column in range(4, size - 4, 6):
        out[top + band_height // 2, column : column + 3, :] *= 0.4
    return np.clip(out, 0.0, 1.0)


def shadow(pixels: np.ndarray, seed: int = 0) -> np.ndarray:
    """Darken a corner region (the 'shadowing parts of the image' evasion)."""
    rng = np.random.default_rng(seed)
    out = pixels.copy()
    size = out.shape[0]
    height = int(rng.integers(size // 4, size // 2))
    width = int(rng.integers(size // 4, size // 2))
    corner = int(rng.integers(0, 4))
    row_slice = slice(0, height) if corner < 2 else slice(size - height, size)
    col_slice = slice(0, width) if corner % 2 == 0 else slice(size - width, size)
    out[row_slice, col_slice, :] *= 0.35
    return out


def recompress(pixels: np.ndarray, seed: int = 0) -> np.ndarray:
    """Lossy recompression analogue: quantise levels and add block noise.

    PhotoDNA-style robust hashes must survive this (§4.3 cites robust
    hashing against "compression algorithms or geometric distortions").
    """
    rng = np.random.default_rng(seed)
    levels = 24
    quantised = np.round(pixels * levels) / levels
    noise = rng.normal(0.0, 0.008, size=pixels.shape)
    return np.clip(quantised + noise, 0.0, 1.0)


def crop_border(pixels: np.ndarray, seed: int = 0) -> np.ndarray:
    """Crop up to ~8% from each border and rescale to the original size."""
    rng = np.random.default_rng(seed)
    size = pixels.shape[0]
    margin = max(1, int(size * float(rng.uniform(0.02, 0.08))))
    cropped = pixels[margin : size - margin, margin : size - margin, :]
    return _rescale(cropped, size)


def resize_small(pixels: np.ndarray, seed: int = 0) -> np.ndarray:
    """Downscale to half size and back (thumbnailing by hosting sites)."""
    size = pixels.shape[0]
    small = _rescale(pixels, max(size // 2, 8))
    return _rescale(small, size)


def rotate(pixels: np.ndarray, seed: int = 0) -> np.ndarray:
    """Rotate by a seed-chosen multiple of 90° (cheap geometric evasion).

    Like mirroring, a quarter-turn survives casual inspection but moves
    every DCT coefficient the perceptual hash reads, so it defeats
    hash matching outright — the drift engine's strongest single move.
    """
    rng = np.random.default_rng(seed)
    quarter_turns = int(rng.integers(1, 4))
    return np.rot90(pixels, k=quarter_turns, axes=(0, 1)).copy()


# Orthonormal 8×8 DCT-II basis for the re-encode transform.
_DCT_BLOCK = 8
_DCT_BASIS = np.array(
    [
        [
            (np.sqrt(1.0 / _DCT_BLOCK) if k == 0 else np.sqrt(2.0 / _DCT_BLOCK))
            * np.cos(np.pi * (2 * n + 1) * k / (2 * _DCT_BLOCK))
            for n in range(_DCT_BLOCK)
        ]
        for k in range(_DCT_BLOCK)
    ]
)
# JPEG-style frequency ladder: low frequencies keep many levels, high
# frequencies few, so detail is destroyed the way a harsh re-encode does.
_DCT_LEVELS = np.maximum(48.0 - 5.0 * np.add.outer(np.arange(8), np.arange(8)), 4.0)


def reencode(pixels: np.ndarray, seed: int = 0) -> np.ndarray:
    """Blockwise 8×8 DCT quantisation — a harsher JPEG re-encode analogue.

    Stronger than :func:`recompress`: coefficients are quantised on a
    frequency-dependent ladder, so stacking re-encodes (each re-upload
    hop) progressively smears the spectrum robust hashes rely on.
    """
    rng = np.random.default_rng(seed)
    height, width = pixels.shape[:2]
    pad_h = (-height) % _DCT_BLOCK
    pad_w = (-width) % _DCT_BLOCK
    padded = np.pad(pixels, ((0, pad_h), (0, pad_w), (0, 0)), mode="edge")
    out = np.empty_like(padded)
    # Mild per-image quality jitter, as real encoders vary.
    quality = float(rng.uniform(0.75, 1.0))
    levels = np.maximum(_DCT_LEVELS * quality, 2.0)
    for row in range(0, padded.shape[0], _DCT_BLOCK):
        for col in range(0, padded.shape[1], _DCT_BLOCK):
            block = padded[row : row + _DCT_BLOCK, col : col + _DCT_BLOCK, :]
            for channel in range(block.shape[2]):
                coeffs = _DCT_BASIS @ block[:, :, channel] @ _DCT_BASIS.T
                coeffs = np.round(coeffs * levels) / levels
                out[row : row + _DCT_BLOCK, col : col + _DCT_BLOCK, channel] = (
                    _DCT_BASIS.T @ coeffs @ _DCT_BASIS
                )
    return np.clip(out[:height, :width, :], 0.0, 1.0)


def _rescale(pixels: np.ndarray, new_size: int) -> np.ndarray:
    """Nearest-neighbour rescale to ``new_size``² (adequate at raster scale)."""
    height, width = pixels.shape[:2]
    row_index = np.clip((np.arange(new_size) * height / new_size).astype(int), 0, height - 1)
    col_index = np.clip((np.arange(new_size) * width / new_size).astype(int), 0, width - 1)
    return pixels[np.ix_(row_index, col_index)]


for _name, _fn in [
    ("mirror", mirror),
    ("watermark", watermark),
    ("shadow", shadow),
    ("recompress", recompress),
    ("crop_border", crop_border),
    ("resize_small", resize_small),
    ("rotate", rotate),
    ("reencode", reencode),
]:
    register_transform(_name, _fn)

#: Transforms actors apply to evade reverse image search (§4.5).
EVASION_TRANSFORMS: tuple = ("mirror", "watermark", "shadow")

#: Transforms hosting platforms apply on upload.
PLATFORM_TRANSFORMS: tuple = ("recompress", "resize_small")

#: The pool adversarial drift stacks N-deep on re-uploaded packs
#: (``repro.drift``): geometric moves that defeat the hash outright plus
#: signal-degrading edits that push it past its Hamming radius.
STACKED_EVASION_TRANSFORMS: tuple = (
    "mirror", "rotate", "watermark", "shadow", "reencode", "crop_border",
)
