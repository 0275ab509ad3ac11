"""Tests for the raster-validation boundary and its error taxonomy."""

import numpy as np
import pytest

from repro.media.validate import (
    MAX_RASTER_DIM,
    MIN_RASTER_DIM,
    AbsurdDimensionError,
    CorruptPayloadError,
    DecoyPayloadError,
    EmptyPayloadError,
    NonFinitePixelError,
    TruncatedRasterError,
    UnexpectedResourceError,
    WrongDtypeError,
    WrongShapeError,
    ensure_color_raster,
    validate_raster,
)


def good_raster(h=16, w=16):
    return np.random.default_rng(0).random((h, w, 3))


class TestTaxonomy:
    def test_every_error_is_a_value_error(self):
        """Pre-taxonomy boundaries caught ValueError; that must keep working."""
        for cls in (
            AbsurdDimensionError,
            DecoyPayloadError,
            EmptyPayloadError,
            NonFinitePixelError,
            TruncatedRasterError,
            UnexpectedResourceError,
            WrongDtypeError,
            WrongShapeError,
        ):
            assert issubclass(cls, CorruptPayloadError)
            assert issubclass(cls, ValueError)

    def test_catchable_as_valueerror(self):
        with pytest.raises(ValueError):
            validate_raster(np.full((16, 16, 3), np.inf))


class TestValidateRaster:
    def test_clean_raster_returned_unchanged(self):
        raster = good_raster()
        assert validate_raster(raster) is raster

    def test_decoy_bytes(self):
        with pytest.raises(DecoyPayloadError):
            validate_raster(b"<html>404</html>")

    def test_decoy_scalar_array(self):
        with pytest.raises(DecoyPayloadError):
            validate_raster(np.float64(3.0) * np.ones(()))

    def test_none_payload(self):
        with pytest.raises(DecoyPayloadError):
            validate_raster(None)

    def test_empty_payload(self):
        with pytest.raises(EmptyPayloadError):
            validate_raster(np.empty((0, 0, 3)))

    def test_wrong_dtype(self):
        with pytest.raises(WrongDtypeError):
            validate_raster((good_raster() * 255).astype(np.uint8))

    def test_grayscale_2d(self):
        with pytest.raises(WrongShapeError):
            validate_raster(good_raster().mean(axis=2))

    def test_rgba(self):
        raster = good_raster()
        rgba = np.concatenate([raster, np.ones(raster.shape[:2] + (1,))], axis=2)
        with pytest.raises(WrongShapeError):
            validate_raster(rgba)

    def test_truncated(self):
        with pytest.raises(TruncatedRasterError):
            validate_raster(good_raster()[: MIN_RASTER_DIM - 1])

    def test_min_dim_boundary_is_legal(self):
        assert validate_raster(good_raster(MIN_RASTER_DIM, MIN_RASTER_DIM)) is not None

    def test_absurd_dims(self):
        bomb = np.zeros((4, MAX_RASTER_DIM + 1, 3))
        with pytest.raises(AbsurdDimensionError):
            validate_raster(bomb)

    def test_nan_pixels(self):
        raster = good_raster()
        raster[3, 4, 1] = np.nan
        with pytest.raises(NonFinitePixelError):
            validate_raster(raster)

    def test_inf_pixels(self):
        raster = good_raster()
        raster[0, 0, 0] = -np.inf
        with pytest.raises(NonFinitePixelError):
            validate_raster(raster)

    def test_context_lands_in_message(self):
        with pytest.raises(EmptyPayloadError, match=r"https://imgur\.com/x"):
            validate_raster(np.empty((0, 0, 3)), context="https://imgur.com/x")

    def test_float32_accepted(self):
        assert validate_raster(good_raster().astype(np.float32)) is not None


class TestEnsureColorRaster:
    def test_tiny_patches_accepted(self):
        """Kernel contract: classifier tests legitimately feed 1×1 patches."""
        patch = np.zeros((1, 1, 3))
        assert ensure_color_raster(patch) is patch

    def test_uint8_accepted(self):
        """Kernel contract is structural: dtype is the caller's business."""
        assert ensure_color_raster(np.zeros((4, 4, 3), dtype=np.uint8)) is not None

    def test_rejects_2d(self):
        with pytest.raises(WrongShapeError, match="H×W×3"):
            ensure_color_raster(np.zeros((4, 4)))

    def test_rejects_decoy(self):
        with pytest.raises(DecoyPayloadError, match="H×W×3"):
            ensure_color_raster("not an array")

    def test_rejects_empty(self):
        with pytest.raises(EmptyPayloadError):
            ensure_color_raster(np.empty((0, 0, 3)))

    def test_rejects_nan(self):
        with pytest.raises(NonFinitePixelError):
            ensure_color_raster(np.full((4, 4, 3), np.nan))


class TestKernelBoundaries:
    """The classifiers use the taxonomy at their own edges."""

    def test_nsfw_scorer_rejects_poison(self):
        from repro.vision.nsfw import NsfwScorer

        with pytest.raises(CorruptPayloadError):
            NsfwScorer().score(np.zeros((16, 16)))

    def test_ocr_rejects_poison(self):
        from repro.vision.ocr import OcrEngine

        with pytest.raises(CorruptPayloadError):
            OcrEngine().find_words(np.full((16, 16, 3), np.inf))

    def test_robust_hash_rejects_nonfinite(self):
        from repro.vision.photodna import robust_hash

        with pytest.raises(NonFinitePixelError):
            robust_hash(np.full((64, 64, 3), np.nan))

    def test_hash_batch_rejects_nonfinite(self):
        from repro.vision.batch import hash_batch

        clean = good_raster(64, 64)
        poison = np.full((64, 64, 3), np.inf)
        with pytest.raises(NonFinitePixelError):
            hash_batch([clean, poison])

    def test_hash_batch_rejects_decoy(self):
        from repro.vision.batch import hash_batch
        from repro.vision.photodna import robust_hash

        with pytest.raises(CorruptPayloadError):
            hash_batch([good_raster(), b"<html>404</html>"])
        with pytest.raises(DecoyPayloadError):
            robust_hash(b"<html>404</html>")

    def test_hash_batch_rejects_empty_member(self):
        from repro.vision.batch import hash_batch
        from repro.vision.photodna import robust_hash

        with pytest.raises(CorruptPayloadError):
            hash_batch([good_raster(), np.empty((0, 0, 3))])
        with pytest.raises(EmptyPayloadError):
            robust_hash(np.empty((0, 0, 3)))

    def test_robust_hash_rejects_wrong_rank(self):
        from repro.vision.photodna import robust_hash

        with pytest.raises(WrongShapeError):
            robust_hash(np.zeros((4, 16, 16, 3)))
