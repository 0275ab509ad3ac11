"""Tests for the vision substrate: NSFW, OCR, PhotoDNA, reverse search."""

from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.media import ImageKind, SyntheticImage, apply_transform, sample_latent
from repro.vision import (
    AbuseSeverity,
    HashListEntry,
    HashListService,
    IndexedCopy,
    NsfwScorer,
    OcrEngine,
    ReportLog,
    ReportRecord,
    ReverseImageIndex,
    hamming_distance,
    ocr_word_count,
    robust_hash,
)
from repro.vision.nsfw import _skin

T0 = datetime(2015, 1, 1)
nsfw_score = NsfwScorer().score


def render(kind, rng, model_id=None):
    lat = sample_latent(rng, kind, model_id=model_id)
    return SyntheticImage(0, lat).pixels


class TestNsfw:
    def test_screenshots_score_near_zero(self, rng):
        for _ in range(5):
            score = nsfw_score(render(ImageKind.PROOF_SCREENSHOT, rng))
            assert score < 0.01

    def test_nude_scores_high(self, rng):
        for _ in range(5):
            assert nsfw_score(render(ImageKind.MODEL_NUDE, rng, 1)) > 0.3

    def test_sexual_scores_highest_band(self, rng):
        assert nsfw_score(render(ImageKind.MODEL_SEXUAL, rng, 1)) > 0.5

    def test_dressed_in_ambiguous_band(self, rng):
        # §4.4: clothed models land between ~0.03 and ~0.97, never near 0.
        scores = [nsfw_score(render(ImageKind.MODEL_DRESSED, rng, 1)) for _ in range(10)]
        assert all(s > 0.01 for s in scores)

    def test_score_in_unit_interval(self, rng):
        for kind in ImageKind:
            score = nsfw_score(render(kind, rng, 1 if kind.is_model else None))
            assert 0.0 < score < 1.0

    def test_skin_mask_rejects_grayscale_shape(self):
        with pytest.raises(ValueError):
            nsfw_score(np.zeros((8, 8)))

    def test_skin_mask_detects_skin_patch(self):
        pixels = np.zeros((8, 8, 3))
        pixels[:, :, 0] = 0.86
        pixels[:, :, 1] = 0.62
        pixels[:, :, 2] = 0.50
        assert _skin(pixels).all()

    def test_skin_mask_rejects_blue(self):
        pixels = np.zeros((8, 8, 3))
        pixels[:, :, 2] = 0.9
        assert not _skin(pixels).any()

    def test_scorer_callable(self, rng):
        scorer = NsfwScorer()
        pixels = render(ImageKind.MODEL_NUDE, rng, 1)
        assert scorer(pixels) == scorer.score(pixels)


def _score_with_sum_labels(scorer, pixels):
    """The score as first written: default structure, ``sum_labels`` sizes."""
    from scipy import ndimage

    mask = _skin(pixels)
    total = mask.size
    coverage = float(mask.sum()) / total
    largest = 0.0
    if coverage > 0.0:
        labels, n_components = ndimage.label(mask)
        sizes = ndimage.sum_labels(mask, labels, index=range(1, n_components + 1))
        largest = float(np.max(sizes)) / total
    effective = 0.8 * coverage + 0.4 * largest
    return float(1.0 / (1.0 + np.exp(-scorer.gain * (effective - scorer.midpoint))))


class TestNsfwLargestComponent:
    def test_scores_equal_the_sum_labels_formula(self, rng):
        scorer = NsfwScorer()
        rasters = [
            render(kind, rng, 1 if kind.is_model else None)
            for kind in ImageKind
            for _ in range(6)
        ]
        # Zero-skin rasters, one skin pixel, and diagonal-only speckle
        # (4-connectivity keeps each pixel its own component).
        rasters.append(np.zeros((16, 16, 3)))
        blue = np.zeros((16, 16, 3))
        blue[..., 2] = 0.9
        rasters.append(blue)
        one = np.zeros((16, 16, 3))
        one[3, 4] = (0.86, 0.62, 0.50)
        rasters.append(one)
        speckle = np.zeros((16, 16, 3))
        speckle[::2, ::2] = speckle[1::2, 1::2] = (0.86, 0.62, 0.50)
        rasters.append(speckle)
        assert any(not _skin(r).any() for r in rasters)
        for pixels in rasters:
            assert scorer.score(pixels) == _score_with_sum_labels(scorer, pixels)


SKIN = (0.86, 0.62, 0.50)


def _stack(seed, n, height, width, density):
    """``n`` random rasters, about ``density`` of their pixels skin."""
    rng = np.random.default_rng(seed)
    stack = rng.random((n, height, width, 3))
    stack[rng.random((n, height, width)) < density] = SKIN
    return list(stack)


class TestNsfwScoreBlock:
    """``score_block`` labels a whole stack at once and must give exactly
    ``score``'s value for each image."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 6),
        st.integers(1, 12),
        st.integers(1, 12),
        st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
    )
    def test_equals_score_on_random_stacks(self, seed, n, height, width, density):
        scorer = NsfwScorer()
        rasters = _stack(seed, n, height, width, density)
        assert scorer.score_block(rasters) == [scorer.score(r) for r in rasters]

    def test_skin_across_image_boundaries_does_not_join(self):
        # Image i's bottom row and image i+1's top row are both skin: in
        # the stacked volume they are neighbours along the image axis.
        scorer = NsfwScorer()
        empty, full = np.zeros((8, 8, 3)), np.tile(np.array(SKIN), (8, 8, 1))
        bottom, top = np.zeros((8, 8, 3)), np.zeros((8, 8, 3))
        bottom[-1, :] = SKIN
        top[0, :3] = SKIN
        top[4:, 4:] = SKIN  # the larger of two blobs
        rasters = [empty, bottom, top, full, empty, full, bottom]
        assert scorer.score_block(rasters) == [scorer.score(r) for r in rasters]

    def test_rendered_images_and_edge_cases(self, rng):
        scorer = NsfwScorer()
        rasters = [render(kind, rng, 1 if kind.is_model else None) for kind in ImageKind]
        assert scorer.score_block(rasters) == [scorer.score(r) for r in rasters]
        assert scorer.score_block([]) == []
        with pytest.raises(ValueError):
            scorer.score_block([np.zeros((8, 8, 3)), np.full((8, 8, 3), np.nan)])


class TestOcr:
    def test_counts_words_in_screenshots(self, rng):
        for _ in range(5):
            lat = sample_latent(rng, ImageKind.PROOF_SCREENSHOT)
            count = ocr_word_count(SyntheticImage(0, lat).pixels)
            assert abs(count - lat.word_count) <= 3

    def test_few_words_on_model_images(self, rng):
        for _ in range(5):
            count = ocr_word_count(render(ImageKind.MODEL_NUDE, rng, 1))
            assert count <= 4

    def test_blank_image_zero_words(self):
        assert ocr_word_count(np.full((32, 32, 3), 0.9)) == 0

    def test_rejects_grayscale(self):
        with pytest.raises(ValueError):
            OcrEngine().word_count(np.zeros((8, 8)))

    def test_boxes_sorted_reading_order(self, rng):
        lat = sample_latent(rng, ImageKind.DOCUMENT)
        boxes = OcrEngine().find_words(SyntheticImage(0, lat).pixels)
        keys = [(b.top, b.left) for b in boxes]
        assert keys == sorted(keys)

    def test_wordbox_geometry(self, rng):
        lat = sample_latent(rng, ImageKind.DOCUMENT)
        for box in OcrEngine().find_words(SyntheticImage(0, lat).pixels):
            assert box.width >= 3
            assert box.height <= 3
            assert box.area == box.width * box.height


class TestRobustHash:
    def test_deterministic(self, rng):
        pixels = render(ImageKind.MODEL_NUDE, rng, 1)
        assert robust_hash(pixels) == robust_hash(pixels)

    def test_64_bit_range(self, rng):
        value = robust_hash(render(ImageKind.LANDSCAPE, rng))
        assert 0 <= value < 2**64

    def test_survives_recompression(self, rng):
        pixels = render(ImageKind.MODEL_NUDE, rng, 1)
        h = robust_hash(pixels)
        h2 = robust_hash(apply_transform("recompress", pixels, seed=9))
        assert hamming_distance(h, h2) <= 4

    def test_survives_resize(self, rng):
        pixels = render(ImageKind.MODEL_NUDE, rng, 1)
        h2 = robust_hash(apply_transform("resize_small", pixels, seed=9))
        assert hamming_distance(robust_hash(pixels), h2) <= 9

    def test_mirror_defeats_hash(self, rng):
        # The documented evasion (§4.5) must actually work.
        pixels = render(ImageKind.MODEL_NUDE, rng, 1)
        h2 = robust_hash(apply_transform("mirror", pixels))
        assert hamming_distance(robust_hash(pixels), h2) > 12

    def test_distinct_images_far_apart(self, rng):
        a = robust_hash(render(ImageKind.MODEL_NUDE, rng, 1))
        b = robust_hash(render(ImageKind.MODEL_NUDE, rng, 2))
        assert hamming_distance(a, b) > 10

    def test_brightness_invariance(self, rng):
        # The DC term is dropped, so a global brightness shift is benign.
        pixels = render(ImageKind.MODEL_NUDE, rng, 1)
        brighter = np.clip(pixels + 0.08, 0.0, 1.0)
        assert hamming_distance(robust_hash(pixels), robust_hash(brighter)) <= 8

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
    def test_hamming_symmetry(self, a, b):
        assert hamming_distance(a, b) == hamming_distance(b, a)
        assert hamming_distance(a, a) == 0
        assert 0 <= hamming_distance(a, b) <= 64


class TestHashList:
    def test_empty_list_never_matches(self, rng):
        service = HashListService()
        assert not service.match_hash(robust_hash(render(ImageKind.MODEL_NUDE, rng, 1))).matched

    def test_exact_match(self, rng):
        service = HashListService()
        pixels = render(ImageKind.MODEL_NUDE, rng, 1)
        entry = service.add_known_image(pixels, AbuseSeverity.CATEGORY_B, victim_age=17)
        result = service.match_hash(robust_hash(pixels))
        assert result.matched
        assert result.entry == entry
        assert result.distance == 0

    def test_match_within_radius(self, rng):
        service = HashListService(radius=10)
        pixels = render(ImageKind.MODEL_NUDE, rng, 1)
        service.add_known_image(pixels, AbuseSeverity.CATEGORY_A)
        recompressed = apply_transform("recompress", pixels, seed=1)
        assert service.match_hash(robust_hash(recompressed)).matched

    def test_no_match_beyond_radius(self, rng):
        service = HashListService(radius=5)
        pixels = render(ImageKind.MODEL_NUDE, rng, 1)
        service.add_known_image(pixels, AbuseSeverity.CATEGORY_A)
        other = render(ImageKind.MODEL_NUDE, rng, 99)
        assert not service.match_hash(robust_hash(other)).matched

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            HashListService(radius=64)

    def test_nearest_entry_wins(self, rng):
        service = HashListService(radius=20)
        service.add_entry(HashListEntry(0b1111, AbuseSeverity.CATEGORY_C))
        service.add_entry(HashListEntry(0b0000, AbuseSeverity.CATEGORY_A))
        result = service.match_hash(0b0001)
        assert result.entry.severity is AbuseSeverity.CATEGORY_A


class TestReportLog:
    def make_record(self, severity=AbuseSeverity.CATEGORY_B, urls=("u1", "u2")):
        return ReportRecord(
            image_ref="digest",
            urls=tuple(urls),
            severity=severity,
            victim_age=17,
            hosting_regions=("UK", "Europe"),
            site_types=("forum", "blog"),
        )

    def test_histograms(self):
        log = ReportLog()
        log.report(self.make_record())
        log.report(self.make_record(severity=AbuseSeverity.CATEGORY_A, urls=("u3",)))
        assert len(log.records) == 2
        assert len(log.actioned_urls()) == 3
        assert log.severity_histogram()[AbuseSeverity.CATEGORY_B] == 2
        assert log.region_histogram()["UK"] == 2
        assert log.site_type_histogram()["forum"] == 2


class TestReverseIndex:
    def test_search_empty_index(self, rng):
        index = ReverseImageIndex()
        report = index.search_hash(robust_hash(render(ImageKind.MODEL_NUDE, rng, 1)))
        assert report.n_matches == 0
        assert not report.matched

    def test_finds_indexed_copy(self, rng):
        index = ReverseImageIndex()
        pixels = render(ImageKind.MODEL_NUDE, rng, 1)
        copy = IndexedCopy(url="https://a.com/1", domain="a.com", crawl_date=T0)
        index.index_hash(robust_hash(pixels), copy)
        report = index.search_hash(robust_hash(pixels))
        assert report.matched
        assert report.matches[0].copy == copy
        assert report.matches[0].distance == 0

    def test_matches_sorted_by_similarity(self, rng):
        index = ReverseImageIndex(radius=12)
        pixels = render(ImageKind.MODEL_NUDE, rng, 1)
        h = robust_hash(pixels)
        index.index_hash(h ^ 0b111, IndexedCopy("https://far.com/x", "far.com", T0))
        index.index_hash(h, IndexedCopy("https://near.com/x", "near.com", T0))
        report = index.search_hash(h)
        assert [m.copy.domain for m in report.matches] == ["near.com", "far.com"]

    def test_domains_deduplicated(self, rng):
        index = ReverseImageIndex()
        h = 777
        for i in range(3):
            index.index_hash(h, IndexedCopy(f"https://same.com/{i}", "same.com", T0))
        report = index.search_hash(h)
        assert report.domains() == ["same.com"]

    def test_mirror_not_found(self, rng):
        index = ReverseImageIndex()
        pixels = render(ImageKind.MODEL_NUDE, rng, 1)
        index.index_hash(robust_hash(pixels), IndexedCopy("https://a.com/1", "a.com", T0))
        mirrored = apply_transform("mirror", pixels)
        assert not index.search_hash(robust_hash(mirrored)).matched
