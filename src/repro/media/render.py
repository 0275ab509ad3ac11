"""Deterministic raster renderer for :class:`~repro.media.image.ImageLatent`.

Each latent renders to an H×W×3 float array in [0, 1].  The renderer's job
is to make the three measurable properties *physically present in the
pixels* so that the vision substrate has something real to detect:

* skin coverage — elliptical blobs of skin-tone colour (per-model tone);
* embedded text — rows of dark word blocks on a uniform panel, which the
  OCR analogue recovers via connected components;
* visual identity — a seeded noise field unique to ``visual_seed``, which
  the perceptual hash keys on.

Rendering is pure: the same latent always yields bit-identical pixels.
"""

from __future__ import annotations

import functools
import math
from typing import Tuple

import numpy as np

from .image import ImageKind, ImageLatent

__all__ = ["render_latent", "skin_tone_for_model", "SKIN_TONE_BASE"]

#: Reference skin tone (warm light-brown); individual models vary around it.
SKIN_TONE_BASE: Tuple[float, float, float] = (0.86, 0.62, 0.50)


@functools.lru_cache(maxsize=1024)
def skin_tone_for_model(model_id: int | None) -> np.ndarray:
    """Consistent skin tone for a model identity.

    Images of the same model share a tone, which keeps packs visually
    coherent (the paper notes packs contain "the same (or visually
    similar) model").  Memoised, since seeding a generator costs more
    than painting with it (a full-scale world has ~900 models); the
    returned array is shared and read-only.
    """
    tone = np.array(SKIN_TONE_BASE, dtype=np.float64)
    if model_id is not None:
        tone_rng = np.random.default_rng(model_id * 2654435761 % (2**32))
        jitter = tone_rng.uniform(-0.08, 0.08, size=3)
        tone = np.clip(tone + jitter, 0.0, 1.0)
    tone.setflags(write=False)
    return tone


def render_latent(latent: ImageLatent) -> np.ndarray:
    """Render a latent to pixels, applying its transform chain in order."""
    rng = np.random.default_rng(latent.visual_seed % (2**63))
    pixels = _render_base(latent, rng)
    if latent.transform_chain:
        from .transforms import apply_transform

        for step, name in enumerate(latent.transform_chain):
            pixels = apply_transform(name, pixels, seed=latent.visual_seed + step + 1)
    # float32 halves the cache footprint of crawled-image sets without
    # affecting any classifier decision at raster scale.
    return pixels.astype(np.float32)


# ----------------------------------------------------------------------
# Base rendering
# ----------------------------------------------------------------------

def _render_base(latent: ImageLatent, rng: np.random.Generator) -> np.ndarray:
    size = latent.size
    kind = latent.kind
    if kind.is_screenshot:
        pixels = _screenshot_background(kind, size, rng)
    elif kind is ImageKind.LANDSCAPE:
        pixels = _landscape_background(size, rng)
    elif kind is ImageKind.GAME_SCREENSHOT:
        pixels = _game_background(size, rng)
    elif kind is ImageKind.MEME:
        pixels = _photo_background(size, rng)
    else:  # model images and casual photos
        pixels = _photo_background(size, rng)

    if latent.skin_fraction > 0.0:
        _paint_skin(pixels, latent, rng)
    if latent.word_count > 0:
        _paint_words(pixels, latent, rng)

    # Per-image identity texture: low-amplitude seeded noise everywhere.
    pixels += rng.normal(0.0, 0.015, size=pixels.shape)
    return np.clip(pixels, 0.0, 1.0, out=pixels)


def _screenshot_background(kind: ImageKind, size: int, rng: np.random.Generator) -> np.ndarray:
    if kind is ImageKind.SOURCE_CODE:
        # Dark editor theme.
        base = rng.uniform(0.08, 0.14)
        pixels = np.full((size, size, 3), base, dtype=np.float64)
        pixels[..., 2] += 0.03  # bluish
    else:
        base = rng.uniform(0.90, 0.97)
        pixels = np.full((size, size, 3), base, dtype=np.float64)
        # Window chrome: a slightly tinted header band.
        header = max(3, size // 16)
        tint = rng.uniform(0.75, 0.88)
        pixels[:header, :, :] = tint
        if kind is ImageKind.PROOF_SCREENSHOT:
            # Dashboard sidebar, as in payment-platform screenshots.
            sidebar = max(4, size // 8)
            pixels[header:, :sidebar, :] = np.array([0.82, 0.86, 0.92])
    return pixels


def _landscape_background(size: int, rng: np.random.Generator) -> np.ndarray:
    """Sky gradient over shaded ground, fully vectorised.

    Bit-identical to the obvious per-row loop: the sky mix uses the same
    ``row / max(horizon - 1, 1)`` float division per row, and the ground
    shades come from one vectorised ``rng.uniform`` call, which PCG64
    guarantees draws the same stream as ``size - horizon`` scalar calls
    (see ``test_landscape_background_matches_row_loop``).
    """
    pixels = np.zeros((size, size, 3), dtype=np.float64)
    horizon = int(size * rng.uniform(0.35, 0.6))
    sky_top = np.array([0.45, 0.68, 0.92])
    sky_bottom = np.array([0.75, 0.85, 0.96])
    if horizon > 0:
        mix = np.arange(horizon, dtype=np.float64) / max(horizon - 1, 1)
        mix = mix[:, None, None]
        pixels[:horizon, :, :] = (
            sky_top[None, None, :] * (1 - mix) + sky_bottom[None, None, :] * mix
        )
    # Ground: sometimes sandy/tan — the "colours resembling the human
    # body" failure mode the paper reports for hard-to-classify images.
    sandy = rng.random() < 0.15
    ground = np.array([0.80, 0.66, 0.48]) if sandy else np.array([0.30, 0.55, 0.25])
    if horizon < size:
        shades = rng.uniform(0.9, 1.05, size=size - horizon)[:, None, None]
        pixels[horizon:, :, :] = np.clip(ground[None, None, :] * shades, 0.0, 1.0)
    return pixels


def _game_background(size: int, rng: np.random.Generator) -> np.ndarray:
    pixels = np.zeros((size, size, 3), dtype=np.float64)
    # HUD-style saturated rectangles.
    n_blocks = int(rng.integers(6, 14))
    pixels[:, :, :] = rng.uniform(0.1, 0.35, size=3)
    for _ in range(n_blocks):
        top = int(rng.integers(0, size - 8))
        left = int(rng.integers(0, size - 8))
        height = int(rng.integers(4, size // 2))
        width = int(rng.integers(4, size // 2))
        colour = _mostly_cool(rng, rng.uniform(0.2, 1.0, size=3), warm_rate=0.12)
        pixels[top : top + height, left : left + width, :] = colour
    return pixels


def _mostly_cool(rng: np.random.Generator, colour: np.ndarray, warm_rate: float) -> np.ndarray:
    """Re-order channels so skin-like warm colours stay a minority.

    Game HUDs, UI chrome and interior decor are predominantly cool or
    saturated primaries; only a small fraction of incidental colours fall
    into the skin-tone cone (keeping the §4.4 hard-to-classify cases rare
    but present).
    """
    r, g, b = colour
    is_warm = r > g > b and (r - b) > 0.12
    if is_warm and rng.random() > warm_rate:
        return np.sort(colour)  # ascending → blue-dominant, never skin-like
    return colour


def _photo_background(size: int, rng: np.random.Generator) -> np.ndarray:
    # Muted indoor/outdoor photographic background with soft gradients.
    base = _mostly_cool(rng, rng.uniform(0.25, 0.65, size=3), warm_rate=0.18)
    vertical = np.linspace(-0.08, 0.08, size)[:, None, None]
    horizontal = np.linspace(-0.05, 0.05, size)[None, :, None]
    pixels = np.clip(base[None, None, :] + vertical + horizontal, 0.0, 1.0)
    # A few soft furniture/scenery rectangles.
    for _ in range(int(rng.integers(2, 6))):
        top = int(rng.integers(0, size - 6))
        left = int(rng.integers(0, size - 6))
        height = int(rng.integers(4, size // 2))
        width = int(rng.integers(4, size // 2))
        colour = np.clip(base + rng.uniform(-0.2, 0.2, size=3), 0.0, 1.0)
        pixels[top : top + height, left : left + width, :] = colour
    return pixels


# ----------------------------------------------------------------------
# Skin and text painting
# ----------------------------------------------------------------------

#: Blob attempts per image, and the uniform draws each attempt consumes:
#: area scale, aspect ratio, centre row, centre column, rotation angle.
_SKIN_ATTEMPTS = 64
_SKIN_LOW = np.array([0.5, 0.4, 0.2, 0.2, 0.0])
_SKIN_HIGH = np.array([1.0, 2.5, 0.8, 0.8, np.pi])


def _paint_skin(pixels: np.ndarray, latent: ImageLatent, rng: np.random.Generator) -> None:
    """Add elliptical skin-tone blobs until coverage reaches the target.

    Bit-identical, in pixels and in RNG stream consumption, to drawing
    each attempt's five parameters with scalar ``rng.uniform`` calls and
    testing every blob on the full grid (``_paint_skin_reference`` in
    ``tests/test_media.py``), at a fraction of the cost:

    * the parameters of all 64 attempts come from one ``rng.random`` call,
      mapped as ``low + (high - low) * u``, which is exactly what
      ``Generator.uniform`` computes.  The loop usually stops early, so
      afterwards the generator is rewound and re-advanced by exactly the
      draws the loop used, leaving the stream where the scalar calls
      would have left it;
    * the scalar geometry runs on Python floats (``math.sqrt`` and
      ``math.floor`` are exact, like NumPy's); ``cos``/``sin`` stay NumPy
      ufuncs, called once for all 64 angles, because NumPy's SIMD
      kernels may differ from libm's in the last ulp;
    * each blob is rasterised on its bounding box only, skipped when that
      box is already fully covered (it cannot add coverage), and the
      coverage count grows by the newly covered pixels instead of
      rescanning the grid.
    """
    size = latent.size
    tone = skin_tone_for_model(latent.model_id)
    target = latent.skin_fraction
    total_pixels = size * size
    covered = np.zeros((size, size), dtype=bool)
    n_covered = 0
    axis = np.arange(size, dtype=np.float64)

    state = rng.bit_generator.state
    params = _SKIN_LOW + (_SKIN_HIGH - _SKIN_LOW) * rng.random((_SKIN_ATTEMPTS, 5))
    draws = zip(params.tolist(), np.cos(params[:, 4]).tolist(), np.sin(params[:, 4]).tolist())

    # Start with one dominant body blob, then add limbs until coverage.
    attempts = 0
    for (area_scale, aspect, centre_r, centre_c, _), cos_a, sin_a in draws:
        coverage = n_covered / total_pixels
        if coverage >= target:
            break
        attempts += 1
        remaining = target - coverage
        # Blob area proportional to what is still missing.
        area = max(remaining * total_pixels * area_scale, 9.0)
        semi_minor = max(math.sqrt(area / (math.pi * aspect)), 1.5)
        semi_major = semi_minor * aspect
        centre_r *= size
        centre_c *= size
        # Axis-aligned bounding box of the rotated ellipse (+1px guard
        # against float fuzz at the rim).
        half_r = math.sqrt((semi_major * cos_a) ** 2 + (semi_minor * sin_a) ** 2) + 1.0
        half_c = math.sqrt((semi_major * sin_a) ** 2 + (semi_minor * cos_a) ** 2) + 1.0
        r0 = max(math.floor(centre_r - half_r), 0)
        r1 = min(math.ceil(centre_r + half_r) + 1, size)
        c0 = max(math.floor(centre_c - half_c), 0)
        c1 = min(math.ceil(centre_c + half_c) + 1, size)
        if r0 >= r1 or c0 >= c1:
            continue
        window = covered[r0:r1, c0:c1]
        inside = np.count_nonzero(window)
        if inside == window.size:
            continue
        dr = (axis[r0:r1] - centre_r)[:, None]
        dc = (axis[c0:c1] - centre_c)[None, :]
        rot_r = dr * cos_a + dc * sin_a
        rot_c = -dr * sin_a + dc * cos_a
        window |= (rot_r / semi_major) ** 2 + (rot_c / semi_minor) ** 2 <= 1.0
        n_covered += np.count_nonzero(window) - inside

    # Rewind, then re-draw exactly the parameters the loop consumed.
    rng.bit_generator.state = state
    rng.random(5 * attempts)

    # Shade only the covered pixels; a (3, n) product keeps NumPy's inner
    # loops long instead of three elements wide.
    shading = rng.uniform(0.92, 1.05, size=(size, size))[covered]
    blob = tone[:, None] * shading
    np.clip(blob, 0.0, 1.0, out=blob)
    pixels[covered] = blob.T


def _paint_words(pixels: np.ndarray, latent: ImageLatent, rng: np.random.Generator) -> None:
    """Draw up to ``word_count`` word blocks in text rows.

    Words are 2-pixel-tall dark (or light, on dark themes) blocks with at
    least two blank columns between them and blank rows between lines —
    exactly the structure the OCR analogue's connected-component pass
    recovers.
    """
    size = latent.size
    dark_theme = latent.kind is ImageKind.SOURCE_CODE
    ink = np.array([0.85, 0.85, 0.80]) if dark_theme else np.array([0.05, 0.05, 0.08])

    if latent.kind is ImageKind.MEME:
        # Meme captions: top and bottom bands only.
        row_starts = [2, size - 8]
        panel_margin = 2
    else:
        header = max(3, size // 16) + 2
        row_starts = list(range(header, size - 4, 4))
        panel_margin = 3

    remaining = latent.word_count
    word_height = 2
    # The word-placement draws are inherently sequential (each column
    # position depends on the previous width/gap draw), so the loop keeps
    # the exact scalar RNG sequence and only *records* span boundaries in
    # a difference array; the painting itself is one vectorised cumsum +
    # masked assignment instead of a slice write per word (bit-identical:
    # same ink value at the same positions — see
    # ``test_paint_words_matches_slice_loop``).
    span_diff = np.zeros((size, size + 1), dtype=np.int16)
    for row_start in row_starts:
        if remaining <= 0:
            break
        column = panel_margin + int(rng.integers(0, 3))
        while remaining > 0 and column < size - panel_margin - 3:
            width = int(rng.integers(3, 7))
            if column + width >= size - panel_margin:
                break
            span_diff[row_start : row_start + word_height, column] += 1
            span_diff[row_start : row_start + word_height, column + width] -= 1
            column += width + 2 + int(rng.integers(0, 2))
            remaining -= 1
    mask = np.cumsum(span_diff[:, :-1], axis=1) > 0
    pixels[mask] = ink
