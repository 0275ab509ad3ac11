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
Each latent seeds its own generator, so an image renders the same at
world build and at crawl time, whatever was rendered before it.
"""

from __future__ import annotations

import functools
import math
from typing import List, Tuple

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

    # Per-image identity texture: low-amplitude seeded noise everywhere,
    # drawn in float32 (the precision the raster is returned in).
    noise = rng.standard_normal(pixels.shape, dtype=np.float32)
    noise *= np.float32(0.015)
    pixels += noise
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
    # HUD-style saturated rectangles over a flat fill.
    pixels = np.empty((size, size, 3), dtype=np.float64)
    pixels[:, :, :] = rng.uniform(0.1, 0.35, size=3)
    n_blocks = int(rng.integers(6, 14))
    rects = _rectangles(rng, n_blocks, size, margin=8)
    colours = _mostly_cool(rng, rng.uniform(0.2, 1.0, size=(n_blocks, 3)), warm_rate=0.12)
    for (top, left, height, width), colour in zip(rects, colours):
        pixels[top : top + height, left : left + width, :] = colour
    return pixels


def _rectangles(rng: np.random.Generator, n: int, size: int, margin: int) -> List[List[int]]:
    """``n`` rectangles as ``[top, left, height, width]`` rows, in one draw.

    Top and left fall in ``[0, size - margin)``, height and width in
    ``[4, size // 2)``.
    """
    spans = (size - margin, size - margin, size // 2 - 4, size // 2 - 4)
    return (rng.random((n, 4)) * spans + (0, 0, 4, 4)).astype(np.int64).tolist()


def _mostly_cool(rng: np.random.Generator, colours: np.ndarray, warm_rate: float) -> np.ndarray:
    """Re-order channels so skin-like warm colours stay a minority.

    Game HUDs, UI chrome and interior decor are predominantly cool or
    saturated primaries; only a small fraction of incidental colours fall
    into the skin-tone cone (keeping the §4.4 hard-to-classify cases rare
    but present).  ``colours`` is ``(n, 3)``; a warm row keeps its order
    with probability ``warm_rate``, else is sorted ascending in place
    (blue-dominant, never skin-like).
    """
    for row, roll in zip(colours, rng.random(len(colours)).tolist()):
        r, g, b = row.tolist()
        if r > g > b and r - b > 0.12 and roll > warm_rate:
            row.sort()
    return colours


@functools.lru_cache(maxsize=8)
def _photo_gradient(size: int) -> np.ndarray:
    """The soft vertical-plus-horizontal shading of a photo background."""
    gradient = np.linspace(-0.08, 0.08, size)[:, None] + np.linspace(-0.05, 0.05, size)
    gradient.setflags(write=False)
    return gradient


def _photo_background(size: int, rng: np.random.Generator) -> np.ndarray:
    # Muted indoor/outdoor photographic background with soft gradients.
    # The base is within [0.25, 0.65], so base plus gradient needs no clip.
    base = _mostly_cool(rng, rng.uniform(0.25, 0.65, size=(1, 3)), warm_rate=0.18)[0]
    pixels = np.empty((size, size, 3), dtype=np.float64)
    # Added one channel plane at a time: NumPy's inner loop then runs
    # along a row instead of across three channels.
    np.add(_photo_gradient(size), base[:, None, None], out=pixels.transpose(2, 0, 1))
    # A few soft furniture/scenery rectangles.
    n_rects = int(rng.integers(2, 6))
    rects = _rectangles(rng, n_rects, size, margin=6)
    colours = np.clip(base + rng.uniform(-0.2, 0.2, size=(n_rects, 3)), 0.0, 1.0)
    for (top, left, height, width), colour in zip(rects, colours):
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

    The first blob, the dominant body, is centred uniformly in the
    central box (0.2–0.8 of each side).  Every later blob is centred on
    an uncovered pixel of that box, chosen uniformly, or of the whole
    grid once the box is full, so each one covers at least its centre
    and no attempt is wasted on skin already painted.  Each blob's area
    is sized from the coverage still missing, so the attempts are
    sequential; model latents reach their target in about six.

    The parameters of all attempts come from one ``rng.random`` block,
    whatever the number used, and each blob is rasterised on its
    bounding box only.  ``_paint_skin_reference`` in
    ``tests/test_media.py`` is the same painter on the full grid.
    """
    size = latent.size
    tone = skin_tone_for_model(latent.model_id)
    target = latent.skin_fraction
    total_pixels = size * size
    covered = np.zeros((size, size), dtype=bool)
    n_covered = 0
    axis = np.arange(size, dtype=np.float64)
    lo, hi = math.ceil(0.2 * size), math.ceil(0.8 * size)
    box = covered[lo:hi, lo:hi]

    uniforms = rng.random((_SKIN_ATTEMPTS, 5))
    params = _SKIN_LOW + (_SKIN_HIGH - _SKIN_LOW) * uniforms
    draws = zip(
        params.tolist(),
        uniforms[:, 2].tolist(),
        np.cos(params[:, 4]).tolist(),
        np.sin(params[:, 4]).tolist(),
    )
    for (area_scale, aspect, centre_r, centre_c, _), pick, cos_a, sin_a in draws:
        coverage = n_covered / total_pixels
        if coverage >= target:
            break
        if n_covered:
            # Centre on an uncovered pixel, of the central box while it
            # has one.
            free, origin, width = np.flatnonzero(~box), lo, hi - lo
            if not free.size:
                free, origin, width = np.flatnonzero(~covered), 0, size
            row, col = divmod(int(free[int(pick * free.size)]), width)
            centre_r, centre_c = float(origin + row), float(origin + col)
        else:
            centre_r *= size
            centre_c *= size
        # Blob area proportional to what is still missing.
        area = max((target - coverage) * total_pixels * area_scale, 9.0)
        semi_minor = max(math.sqrt(area / (math.pi * aspect)), 1.5)
        semi_major = semi_minor * aspect
        # Axis-aligned bounding box of the rotated ellipse (+1px guard
        # against float fuzz at the rim).
        half_r = math.sqrt((semi_major * cos_a) ** 2 + (semi_minor * sin_a) ** 2) + 1.0
        half_c = math.sqrt((semi_major * sin_a) ** 2 + (semi_minor * cos_a) ** 2) + 1.0
        r0 = max(math.floor(centre_r - half_r), 0)
        r1 = min(math.ceil(centre_r + half_r) + 1, size)
        c0 = max(math.floor(centre_c - half_c), 0)
        c1 = min(math.ceil(centre_c + half_c) + 1, size)
        # The rotated ellipse as a quadratic form in the offsets from its
        # centre: a*dr² + b*dr*dc + c*dc² <= 1.
        inv_major = 1.0 / (semi_major * semi_major)
        inv_minor = 1.0 / (semi_minor * semi_minor)
        a = cos_a * cos_a * inv_major + sin_a * sin_a * inv_minor
        b = 2.0 * cos_a * sin_a * (inv_major - inv_minor)
        c = sin_a * sin_a * inv_major + cos_a * cos_a * inv_minor
        dr = axis[r0:r1] - centre_r
        dc = axis[c0:c1] - centre_c
        window = covered[r0:r1, c0:c1]
        inside = np.count_nonzero(window)
        form = (a * dr * dr)[:, None] + (b * dr)[:, None] * dc
        form += c * dc * dc
        window |= form <= 1.0
        n_covered += np.count_nonzero(window) - inside

    # Shade only the covered pixels; a (3, n) product keeps NumPy's inner
    # loops long instead of three elements wide.
    blob = tone[:, None] * rng.uniform(0.92, 1.05, size=n_covered)
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
