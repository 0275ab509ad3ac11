"""Tests for the synthetic image substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.media import (
    DEFAULT_SIZE,
    EVASION_TRANSFORMS,
    ImageKind,
    ImageLatent,
    Pack,
    SyntheticImage,
    apply_transform,
    pack_stage_mix,
    render_latent,
    sample_latent,
    skin_tone_for_model,
    transform_names,
)


def latent_for(kind=ImageKind.MODEL_NUDE, seed=42, **kwargs):
    defaults = dict(
        visual_seed=seed,
        kind=kind,
        skin_fraction=0.4 if kind.is_model else 0.0,
        word_count=0 if kind.is_model else 30,
        model_id=1 if kind.is_model else None,
    )
    defaults.update(kwargs)
    return ImageLatent(**defaults)


class TestLatent:
    def test_validation_skin_fraction(self):
        with pytest.raises(ValueError):
            latent_for(skin_fraction=1.5)

    def test_validation_word_count(self):
        with pytest.raises(ValueError):
            latent_for(word_count=-1)

    def test_validation_size(self):
        with pytest.raises(ValueError):
            latent_for(size=4)

    def test_with_transform_appends(self):
        lat = latent_for().with_transform("mirror").with_transform("watermark")
        assert lat.transform_chain == ("mirror", "watermark")

    def test_kind_flags(self):
        assert ImageKind.MODEL_SEXUAL.is_nude
        assert not ImageKind.MODEL_DRESSED.is_nude
        assert ImageKind.PROOF_SCREENSHOT.is_screenshot
        assert ImageKind.MODEL_DRESSED.is_model
        assert not ImageKind.LANDSCAPE.is_model

    def test_sample_latent_respects_kind(self, rng):
        lat = sample_latent(rng, ImageKind.PROOF_SCREENSHOT)
        assert lat.word_count >= 25
        assert lat.skin_fraction == 0.0


class TestRendering:
    def test_deterministic(self):
        a = render_latent(latent_for())
        b = render_latent(latent_for())
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = render_latent(latent_for(seed=1))
        b = render_latent(latent_for(seed=2))
        assert not np.array_equal(a, b)

    def test_shape_and_range(self):
        pixels = render_latent(latent_for())
        assert pixels.shape == (DEFAULT_SIZE, DEFAULT_SIZE, 3)
        assert pixels.min() >= 0.0 and pixels.max() <= 1.0

    def test_float32_output(self):
        assert render_latent(latent_for()).dtype == np.float32

    def test_transform_chain_applied(self):
        base = render_latent(latent_for())
        mirrored = render_latent(latent_for().with_transform("mirror"))
        assert np.allclose(mirrored, base[:, ::-1, :], atol=1e-6)

    def test_model_tone_consistency(self):
        tone_a = skin_tone_for_model(7)
        tone_b = skin_tone_for_model(7)
        assert np.array_equal(tone_a, tone_b)
        assert not np.array_equal(tone_a, skin_tone_for_model(8))

    @pytest.mark.parametrize("model_id", [None, 7])
    def test_model_tone_is_shared_and_read_only(self, model_id):
        # The tone is memoised, so every render of this model shares one
        # array: a caller that mutates it must fail, not poison later renders.
        tone = skin_tone_for_model(model_id)
        assert skin_tone_for_model(model_id) is tone
        before = render_latent(latent_for(model_id=model_id))
        with pytest.raises(ValueError, match="read-only"):
            tone[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            tone *= 0.5
        assert np.array_equal(render_latent(latent_for(model_id=model_id)), before)

    @given(st.sampled_from(list(ImageKind)), st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_any_kind_renders_in_range(self, kind, seed):
        rng = np.random.default_rng(seed)
        lat = sample_latent(rng, kind, model_id=1 if kind.is_model else None)
        pixels = render_latent(lat)
        assert pixels.min() >= 0.0 and pixels.max() <= 1.0


class TestVectorisedRenderBitIdentity:
    """The vectorised background/word painters must be bit-identical to the
    original per-row loops, *including* identical RNG stream consumption."""

    @staticmethod
    def _landscape_reference(size, rng):
        pixels = np.zeros((size, size, 3), dtype=np.float64)
        horizon = int(size * rng.uniform(0.35, 0.6))
        sky_top = np.array([0.45, 0.68, 0.92])
        sky_bottom = np.array([0.75, 0.85, 0.96])
        for row in range(horizon):
            mix = row / max(horizon - 1, 1)
            pixels[row, :, :] = sky_top * (1 - mix) + sky_bottom * mix
        sandy = rng.random() < 0.15
        ground = (
            np.array([0.80, 0.66, 0.48]) if sandy else np.array([0.30, 0.55, 0.25])
        )
        for row in range(horizon, size):
            shade = rng.uniform(0.9, 1.05)
            pixels[row, :, :] = np.clip(ground * shade, 0.0, 1.0)
        return pixels

    @staticmethod
    def _paint_words_reference(pixels, latent, rng):
        size = latent.size
        dark_theme = latent.kind is ImageKind.SOURCE_CODE
        ink = (
            np.array([0.85, 0.85, 0.80])
            if dark_theme
            else np.array([0.05, 0.05, 0.08])
        )
        if latent.kind is ImageKind.MEME:
            row_starts = [2, size - 8]
            panel_margin = 2
        else:
            header = max(3, size // 16) + 2
            row_starts = list(range(header, size - 4, 4))
            panel_margin = 3
        remaining = latent.word_count
        word_height = 2
        for row_start in row_starts:
            if remaining <= 0:
                break
            column = panel_margin + int(rng.integers(0, 3))
            while remaining > 0 and column < size - panel_margin - 3:
                width = int(rng.integers(3, 7))
                if column + width >= size - panel_margin:
                    break
                pixels[row_start : row_start + word_height, column : column + width, :] = ink
                column += width + 2 + int(rng.integers(0, 2))
                remaining -= 1

    @pytest.mark.parametrize("seed", range(12))
    def test_landscape_background_matches_row_loop(self, seed):
        from repro.media.render import _landscape_background

        for size in (24, DEFAULT_SIZE, 65):
            rng_new = np.random.default_rng(seed)
            rng_ref = np.random.default_rng(seed)
            new = _landscape_background(size, rng_new)
            ref = self._landscape_reference(size, rng_ref)
            assert np.array_equal(new, ref)
            # Identical stream consumption — downstream draws unaffected.
            assert (
                rng_new.bit_generator.state == rng_ref.bit_generator.state
            )

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize(
        "kind", [ImageKind.PROOF_SCREENSHOT, ImageKind.SOURCE_CODE, ImageKind.MEME]
    )
    def test_paint_words_matches_slice_loop(self, seed, kind):
        from repro.media.render import _paint_words

        latent = latent_for(kind=kind, seed=seed, word_count=25)
        base = np.random.default_rng(999).uniform(0.2, 0.8, (latent.size, latent.size, 3))
        new_pixels, ref_pixels = base.copy(), base.copy()
        rng_new = np.random.default_rng(seed)
        rng_ref = np.random.default_rng(seed)
        _paint_words(new_pixels, latent, rng_new)
        self._paint_words_reference(ref_pixels, latent, rng_ref)
        assert np.array_equal(new_pixels, ref_pixels)
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    @staticmethod
    def _paint_skin_reference(pixels, latent, rng):
        """The skin painter on the full grid: every blob is tested on every
        pixel, and uncovered pixels are found with a full-grid box mask.
        Returns the number of blobs painted."""
        from repro.media.render import skin_tone_for_model

        size = latent.size
        tone = skin_tone_for_model(latent.model_id)
        target = latent.skin_fraction
        total_pixels = size * size
        rows, cols = np.mgrid[0:size, 0:size]
        in_box = (
            (rows >= 0.2 * size) & (rows < 0.8 * size)
            & (cols >= 0.2 * size) & (cols < 0.8 * size)
        )
        covered = np.zeros((size, size), dtype=bool)
        low = np.array([0.5, 0.4, 0.2, 0.2, 0.0])
        high = np.array([1.0, 2.5, 0.8, 0.8, np.pi])
        uniforms = rng.random((64, 5))
        attempts = 0
        for u, (area_scale, aspect, centre_r, centre_c, angle) in zip(
            uniforms, low + (high - low) * uniforms
        ):
            coverage = covered.sum() / total_pixels
            if coverage >= target:
                break
            attempts += 1
            if covered.any():
                free = np.flatnonzero(in_box & ~covered)
                if not free.size:
                    free = np.flatnonzero(~covered)
                centre_r, centre_c = divmod(int(free[int(u[2] * free.size)]), size)
            else:
                centre_r *= size
                centre_c *= size
            remaining = target - coverage
            area = max(remaining * total_pixels * area_scale, 9.0)
            semi_minor = max(np.sqrt(area / (np.pi * aspect)), 1.5)
            semi_major = semi_minor * aspect
            # The rotated ellipse's quadratic form in the centre offsets.
            cos_a, sin_a = np.cos(angle), np.sin(angle)
            inv_major = 1.0 / (semi_major * semi_major)
            inv_minor = 1.0 / (semi_minor * semi_minor)
            a = cos_a * cos_a * inv_major + sin_a * sin_a * inv_minor
            b = 2.0 * cos_a * sin_a * (inv_major - inv_minor)
            c = sin_a * sin_a * inv_major + cos_a * cos_a * inv_minor
            dr = rows - centre_r
            dc = cols - centre_c
            covered |= a * dr * dr + b * dr * dc + c * dc * dc <= 1.0
        shading = rng.uniform(0.92, 1.05, size=int(covered.sum()))
        pixels[covered] = np.clip(tone[None, :] * shading[:, None], 0.0, 1.0)
        return attempts

    def _assert_paint_skin_matches_reference(self, latent, base, seed):
        """Paint ``base`` with both painters; pixels and the generator
        state afterwards must be equal.  Returns the attempts made."""
        from repro.media.render import _paint_skin

        new_pixels, ref_pixels = base.copy(), base.copy()
        rng_new = np.random.default_rng(seed)
        rng_ref = np.random.default_rng(seed)
        _paint_skin(new_pixels, latent, rng_new)
        attempts = self._paint_skin_reference(ref_pixels, latent, rng_ref)
        assert np.array_equal(new_pixels, ref_pixels), latent
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state, latent
        return attempts

    @pytest.mark.parametrize("seed", range(20))
    def test_paint_skin_matches_full_grid(self, seed):
        """The bounding-box painter equals the full-grid one bit-for-bit,
        including RNG stream consumption (the coverage early-break must
        fire on identical attempt counts)."""
        meta = np.random.default_rng(seed)
        kind = ImageKind.MODEL_SEXUAL if seed % 2 else ImageKind.MODEL_NUDE
        latent = sample_latent(meta, kind, model_id=int(meta.integers(1, 30)))
        base = meta.uniform(0.0, 1.0, (latent.size, latent.size, 3))
        self._assert_paint_skin_matches_reference(latent, base, seed)

        # Edges: odd and minimum raster sizes, no model, near-zero coverage
        # (stops after a blob or two) and full coverage (the central box
        # fills, so later blobs centre anywhere on the grid).
        for size in (16, DEFAULT_SIZE, 65):
            base = meta.uniform(0.0, 1.0, (size, size, 3))
            for skin_fraction in (0.002, 0.9, 1.0):
                for model_id in (None, 7):
                    latent = ImageLatent(
                        visual_seed=seed,
                        kind=kind,
                        skin_fraction=skin_fraction,
                        word_count=0,
                        model_id=model_id,
                        size=size,
                    )
                    attempts = self._assert_paint_skin_matches_reference(
                        latent, base, seed
                    )
                    if skin_fraction == 0.002:
                        assert attempts <= 3

    @pytest.mark.parametrize("seed", range(24))
    def test_render_matches_reference_skin_painter(self, seed, monkeypatch):
        """Whole renders equal the same renders with the reference skin
        painter swapped in: nothing drawn after the skin (shading, words,
        noise, transforms) sees a different stream."""
        import repro.media.render as render_module
        from repro.media.image import KIND_SKIN_RANGE

        # Every kind that can show skin, so each background painter runs.
        kinds = [kind for kind in ImageKind if KIND_SKIN_RANGE[kind][1] > 0]
        kind = kinds[seed % len(kinds)]
        rng = np.random.default_rng(seed)
        latent = sample_latent(rng, kind, model_id=seed if kind.is_model else None)
        assert latent.skin_fraction > 0
        if seed % 3 == 0:
            latent = latent.with_transform("mirror")
        fast = render_latent(latent)
        monkeypatch.setattr(render_module, "_paint_skin", self._paint_skin_reference)
        assert np.array_equal(fast, render_latent(latent))

    @given(st.sampled_from(list(ImageKind)), st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_render_seed_sweep_stable(self, kind, seed):
        # Full-renderer determinism across the seed sweep: two renders of
        # the same latent remain bit-identical under the vectorised paths.
        rng = np.random.default_rng(seed)
        lat = sample_latent(rng, kind, model_id=1 if kind.is_model else None)
        assert np.array_equal(render_latent(lat), render_latent(lat))


class TestSkinPainter:
    """Properties of the skin painter that the §4.4 NSFW score rests on."""

    #: Largest coverage past its target a latent may end at.  The last
    #: blob is sized from what is missing (at least 9 pixels) and covers
    #: at least its centre, so it overshoots by a fraction of a point.
    MAX_OVERSHOOT = 0.01

    @staticmethod
    def _coverage(latent, seed):
        from repro.media.render import _paint_skin

        pixels = np.full((latent.size, latent.size, 3), -1.0)
        _paint_skin(pixels, latent, np.random.default_rng(seed))
        return float((pixels[..., 0] >= 0.0).mean())

    @pytest.mark.parametrize("kind", [kind for kind in ImageKind if kind.is_model])
    def test_model_latents_reach_their_target(self, kind):
        rng = np.random.default_rng(17)
        for model_id in range(1, 201):
            latent = sample_latent(rng, kind, model_id=model_id)
            coverage = self._coverage(latent, latent.visual_seed)
            assert latent.skin_fraction <= coverage
            assert coverage <= latent.skin_fraction + self.MAX_OVERSHOOT, latent

    def test_build_and_crawl_renders_agree(self):
        """An image the world build rendered, featurised and dropped
        renders to the same digest again later, in another order and on
        a fresh object, as a crawl renders it."""
        from repro import build_world

        world = build_world(seed=5, scale=0.005)
        built = [
            circulating.image
            for model in world.supply.models
            for circulating in model.pool
            if circulating.image.known_digest is not None
        ]
        assert len(built) > 20
        for image in reversed(built[:60]):
            assert image.known_digest in world.image_features.cache
            again = SyntheticImage(image.image_id, image.latent)
            assert again.content_digest == image.known_digest


class TestSyntheticImage:
    def test_lazy_and_cached(self):
        image = SyntheticImage(1, latent_for())
        first = image.pixels
        assert image.pixels is first  # cached

    def test_drop_pixels(self):
        image = SyntheticImage(1, latent_for())
        _ = image.pixels
        image.drop_pixels()
        assert image._pixels is None


class TestTransforms:
    def test_registry_contains_all(self):
        names = transform_names()
        for name in ("mirror", "watermark", "shadow", "recompress",
                     "crop_border", "resize_small"):
            assert name in names

    def test_unknown_transform_raises(self):
        with pytest.raises(KeyError):
            apply_transform("nope", np.zeros((8, 8, 3)))

    def test_transforms_preserve_shape_and_range(self):
        pixels = render_latent(latent_for())
        for name in transform_names():
            out = apply_transform(name, pixels, seed=1)
            assert out.shape == pixels.shape
            assert out.min() >= 0.0 and out.max() <= 1.0 + 1e-9

    def test_mirror_involution(self):
        pixels = render_latent(latent_for())
        assert np.allclose(apply_transform("mirror", apply_transform("mirror", pixels)), pixels)

    def test_transforms_do_not_mutate_input(self):
        pixels = render_latent(latent_for())
        copy = pixels.copy()
        for name in transform_names():
            apply_transform(name, pixels, seed=2)
        assert np.array_equal(pixels, copy)

    def test_evasion_transforms_registered(self):
        for name in EVASION_TRANSFORMS:
            assert name in transform_names()


class TestPack:
    def make_pack(self, n=10):
        images = [SyntheticImage(i, latent_for(seed=i)) for i in range(n)]
        return Pack(pack_id=1, model_id=3, images=images)

    def test_requires_images(self):
        with pytest.raises(ValueError):
            Pack(pack_id=1, model_id=1, images=[])

    def test_len_and_iter(self):
        pack = self.make_pack(5)
        assert len(pack) == 5
        assert len(list(pack)) == 5

    def test_stage_mix_total(self):
        for n in (1, 3, 10, 89):
            assert len(pack_stage_mix(n)) == n

    def test_stage_mix_composition(self):
        kinds = pack_stage_mix(100)
        dressed = kinds.count(ImageKind.MODEL_DRESSED)
        sexual = kinds.count(ImageKind.MODEL_SEXUAL)
        assert dressed > sexual  # dressed images dominate (§4)

    def test_stage_mix_invalid(self):
        with pytest.raises(ValueError):
            pack_stage_mix(0)
