"""Tests for the corrupt-payload injector and its determinism contract."""

import numpy as np
import pytest

from repro.media.image import ImageKind, SyntheticImage, raster_digest, sample_latent
from repro.media.pack import Pack
from repro.media.validate import CorruptPayloadError, validate_raster
from repro.web.crawler import content_digest
from repro.web.payload_faults import (
    CORRUPTION_KINDS,
    CorruptImage,
    PAYLOAD_PROFILES,
    PayloadFaultInjector,
    PayloadFaultProfile,
    PayloadFaultSpec,
    corrupt_raster,
    payload_profile,
    stable_noise_seed,
)


def make_image(image_id=1, seed=0):
    rng = np.random.default_rng(seed)
    return SyntheticImage(image_id, sample_latent(rng, ImageKind.MODEL_DRESSED))


def make_pack(pack_id=1, n=4, seed=0):
    rng = np.random.default_rng(seed)
    images = [
        SyntheticImage(100 + i, sample_latent(rng, ImageKind.MODEL_DRESSED))
        for i in range(n)
    ]
    return Pack(pack_id=pack_id, model_id=1, images=images)


class TestCorruptRaster:
    @pytest.mark.parametrize("kind", CORRUPTION_KINDS)
    def test_every_kind_fails_validation(self, kind):
        """The taxonomy must catch every corruption the injector can emit —
        this is what makes `injected == quarantined` an invariant."""
        raster = make_image().pixels
        payload = corrupt_raster(raster, kind, np.random.default_rng(0))
        with pytest.raises(CorruptPayloadError):
            validate_raster(payload)

    @pytest.mark.parametrize("kind", CORRUPTION_KINDS)
    def test_input_never_mutated(self, kind):
        raster = make_image().pixels
        before = raster.copy()
        corrupt_raster(raster, kind, np.random.default_rng(0))
        np.testing.assert_array_equal(raster, before)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown corruption kind"):
            corrupt_raster(make_image().pixels, "bitrot", np.random.default_rng(0))

    def test_truncated_keeps_under_min_dim(self):
        raster = make_image().pixels
        for seed in range(5):
            out = corrupt_raster(raster, "truncated", np.random.default_rng(seed))
            assert 1 <= out.shape[0] < 8


class TestCorruptImage:
    def test_pixels_are_corrupt_and_lazy(self):
        base = make_image()
        view = CorruptImage(base, "nan_pixels", noise_seed=42)
        assert view._pixels is None  # lazy until accessed
        assert np.isnan(view.pixels).any()

    def test_hosted_original_untouched(self):
        base = make_image()
        clean = base.pixels.copy()
        view = CorruptImage(base, "nan_pixels", noise_seed=42)
        _ = view.pixels
        np.testing.assert_array_equal(base.pixels, clean)

    def test_rerender_is_deterministic(self):
        base = make_image()
        view = CorruptImage(base, "nan_pixels", noise_seed=42)
        first = view.pixels.copy()
        view.drop_pixels()
        np.testing.assert_array_equal(view.pixels, first)

    def test_identity_preserved(self):
        base = make_image(image_id=77)
        view = CorruptImage(base, "rgba", noise_seed=1)
        assert view.image_id == 77
        assert view.latent is base.latent

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CorruptImage(make_image(), "bitrot", noise_seed=0)


class TestStableNoiseSeed:
    def test_deterministic(self):
        assert stable_noise_seed(7, "u", "a") == stable_noise_seed(7, "u", "a")

    def test_sensitive_to_every_part(self):
        base = stable_noise_seed(7, "u", "a")
        assert stable_noise_seed(8, "u", "a") != base
        assert stable_noise_seed(7, "v", "a") != base
        assert stable_noise_seed(7, "u", "b") != base

    def test_in_64_bit_range(self):
        seed = stable_noise_seed(0, "x")
        assert 0 <= seed < 2**64


class TestSpecAndProfiles:
    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            PayloadFaultSpec(corrupt_rate=1.5)

    def test_unknown_kind_in_weights(self):
        with pytest.raises(ValueError):
            PayloadFaultSpec(corrupt_rate=0.1, kind_weights={"bitrot": 1.0})

    def test_negative_weight(self):
        with pytest.raises(ValueError):
            PayloadFaultSpec(corrupt_rate=0.1, kind_weights={"truncated": -1.0})

    def test_normalized_weights_cumulative(self):
        pairs = PayloadFaultSpec(corrupt_rate=0.5).normalized_weights()
        assert [kind for kind, _ in pairs] == list(CORRUPTION_KINDS)
        assert pairs[-1][1] == pytest.approx(1.0)

    def test_zero_total_weight_rejected(self):
        spec = PayloadFaultSpec(corrupt_rate=0.5, kind_weights={"truncated": 0.0})
        with pytest.raises(ValueError, match="weight > 0"):
            spec.normalized_weights()

    def test_builtin_profiles(self):
        assert set(PAYLOAD_PROFILES) == {"none", "dirty", "hostile"}
        assert payload_profile("none").default.corrupt_rate == 0.0
        assert 0 < payload_profile("dirty").default.corrupt_rate
        assert (
            payload_profile("dirty").default.corrupt_rate
            < payload_profile("hostile").default.corrupt_rate
        )

    def test_unknown_profile(self):
        with pytest.raises(ValueError, match="unknown payload profile"):
            payload_profile("cursed")

    def test_spec_for_override(self):
        profile = PayloadFaultProfile(
            "t",
            PayloadFaultSpec(corrupt_rate=0.1),
            overrides={"imgur.com": PayloadFaultSpec(corrupt_rate=0.9)},
        )
        assert profile.spec_for("imgur.com").corrupt_rate == 0.9
        assert profile.spec_for("gyazo.com").corrupt_rate == 0.1


class TestInjector:
    def always(self, **kw):
        return PayloadFaultInjector(
            PayloadFaultProfile("all", PayloadFaultSpec(corrupt_rate=1.0, **kw)),
            seed=5,
        )

    def never(self):
        return PayloadFaultInjector(payload_profile("none"), seed=5)

    def test_decide_pure_function(self):
        a = PayloadFaultInjector(payload_profile("hostile"), seed=9)
        b = PayloadFaultInjector(payload_profile("hostile"), seed=9)
        urls = [f"https://imgur.com/{i}" for i in range(200)]
        assert [a.decide("imgur.com", u) for u in urls] == [
            b.decide("imgur.com", u) for u in urls
        ]

    def test_decide_rate_zero_never_fires(self):
        inj = self.never()
        assert all(
            inj.decide("imgur.com", f"https://imgur.com/{i}") is None
            for i in range(100)
        )

    def test_decide_rate_one_always_fires(self):
        inj = self.always()
        kinds = {inj.decide("imgur.com", f"https://imgur.com/{i}") for i in range(100)}
        assert None not in kinds
        assert kinds <= set(CORRUPTION_KINDS)
        assert len(kinds) > 3  # uniform default exercises many modes

    def test_kind_weights_respected(self):
        inj = self.always(kind_weights={"decoy_bytes": 1.0})
        for i in range(50):
            assert inj.decide("imgur.com", f"https://imgur.com/{i}") == "decoy_bytes"

    def test_rate_roughly_honoured(self):
        inj = PayloadFaultInjector(payload_profile("hostile"), seed=1)
        hits = sum(
            inj.decide("imgur.com", f"https://imgur.com/{i}") is not None
            for i in range(2000)
        )
        assert 0.18 < hits / 2000 < 0.32  # rate 0.25

    def test_corrupt_image_wrapped_and_counted(self):
        inj = self.always(kind_weights={"uint8": 1.0})
        image = make_image()
        out = inj.corrupt_resource("https://imgur.com/a", "imgur.com", image)
        assert isinstance(out, CorruptImage)
        assert out.pixels.dtype == np.uint8
        assert inj.n_injected == 1
        assert inj.by_kind == {"uint8": 1}

    def test_clean_image_passes_through_identically(self):
        inj = self.never()
        image = make_image()
        assert inj.corrupt_resource("https://imgur.com/a", "imgur.com", image) is image
        assert inj.n_injected == 0

    def test_clean_pack_passes_through_identically(self):
        inj = self.never()
        pack = make_pack()
        assert inj.corrupt_resource("https://mega.nz/p", "mega.nz", pack) is pack

    def test_pack_members_keyed_individually(self):
        inj = PayloadFaultInjector(
            PayloadFaultProfile("half", PayloadFaultSpec(corrupt_rate=0.5)), seed=3
        )
        pack = make_pack(n=24)
        out = inj.corrupt_resource("https://mega.nz/p", "mega.nz", pack)
        corrupt = [im for im in out.images if isinstance(im, CorruptImage)]
        clean = [im for im in out.images if not isinstance(im, CorruptImage)]
        assert corrupt and clean  # a partial archive, not all-or-nothing
        assert inj.n_injected == len(corrupt)
        # clean members are the original objects, untouched
        assert all(im in pack.images for im in clean)
        assert out.pack_id == pack.pack_id

    def test_pack_corruption_deterministic(self):
        def run():
            inj = PayloadFaultInjector(
                PayloadFaultProfile("half", PayloadFaultSpec(corrupt_rate=0.5)),
                seed=3,
            )
            out = inj.corrupt_resource("https://mega.nz/p", "mega.nz", make_pack(n=24))
            return [
                im.corruption if isinstance(im, CorruptImage) else None
                for im in out.images
            ]

        assert run() == run()

    def test_same_url_same_corruption_across_fetches(self):
        """Corruption is keyed on the URL, not the attempt — so every run
        of one world sees the same corrupt payloads."""
        inj = self.always()
        first = inj.corrupt_resource("https://imgur.com/a", "imgur.com", make_image())
        second = inj.corrupt_resource("https://imgur.com/a", "imgur.com", make_image())
        assert first.corruption == second.corruption
        np.testing.assert_array_equal(first.pixels, second.pixels)


class TestContentDigestDtype:
    def test_dtype_folds_into_digest(self):
        """Regression: two rasters with the same shape and identical raw
        bytes but different dtypes are different files and must not
        collide in the dedup step."""

        as_float64 = np.arange(3, dtype=np.float64).reshape(1, 1, 3)
        as_int64 = as_float64.view(np.int64)  # same shape, same bytes
        assert as_float64.shape == as_int64.shape
        assert as_float64.tobytes() == as_int64.tobytes()
        digests = {raster_digest(as_float64), raster_digest(as_int64)}
        assert len(digests) == 2

    def test_same_content_same_digest(self):
        image = make_image(seed=4)
        clone = make_image(seed=4)
        assert content_digest(image) == content_digest(clone)
