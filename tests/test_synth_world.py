"""Tests for supply-side generation and world construction."""

import gc
import itertools
import weakref
from datetime import datetime

import numpy as np
import pytest

import repro.synth.world as world_module
from repro.forum.dataset import ForumDataset
from repro.media import ImageKind
from repro.media.validate import CorruptPayloadError
from repro.synth import (
    FORUM_SPECS,
    WorldConfig,
    build_world,
    generate_supply_side,
)
from repro.synth.forum_gen import DATASET_END, DATASET_START
from repro.vision import Featurizer, VisionCache, robust_hash


class TestSupplySide:
    def make(self, rng, n_models=6, n_sites=80):
        return generate_supply_side(rng, n_models=n_models, n_origin_sites=n_sites)

    def test_counts(self, rng):
        supply = self.make(rng)
        assert len(supply.models) == 6
        assert len(supply.origin_sites) == 80

    def test_models_have_pools(self, rng):
        for model in self.make(rng).models:
            assert 40 <= model.pool_size <= 140
            kinds = {c.image.kind for c in model.pool}
            assert ImageKind.MODEL_DRESSED in kinds
            assert ImageKind.MODEL_NUDE in kinds

    def test_pool_images_share_model_id(self, rng):
        for model in self.make(rng).models:
            for circulating in model.pool:
                assert circulating.image.latent.model_id == model.model_id

    def test_copy_plans_attached(self, rng):
        supply = self.make(rng)
        counts = [c.n_copies for c in supply.by_image_id.values()]
        assert min(counts) >= 1
        assert np.mean(counts) > 5  # Table 5 calibration: ~13 on average

    def test_by_image_id_index(self, rng):
        supply = self.make(rng)
        for model in supply.models:
            for circulating in model.pool:
                assert supply.by_image_id[circulating.image.image_id] is circulating

    def test_origin_site_categories_weighted(self, rng):
        supply = self.make(rng, n_sites=400)
        categories = [s.category for s in supply.origin_sites]
        assert categories.count("Pornography") > categories.count("Games")

    def test_underage_rate_override(self, rng):
        supply = generate_supply_side(
            rng, n_models=40, n_origin_sites=60, underage_rate=1.0, hashlist_rate=1.0
        )
        assert all(m.is_underage for m in supply.models)
        assert all(c.in_hashlist for m in supply.models for c in m.pool)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            generate_supply_side(rng, n_models=0, n_origin_sites=60)


class TestForumSpecs:
    def test_table1_totals(self):
        assert sum(s.n_threads for s in FORUM_SPECS) == 44_520
        assert sum(s.n_posts for s in FORUM_SPECS) == 626_784
        assert sum(s.n_actors for s in FORUM_SPECS) == 72_982
        assert sum(s.n_tops for s in FORUM_SPECS) == 4_137

    def test_bhw_has_no_tops(self):
        bhw = next(s for s in FORUM_SPECS if s.name == "BlackHatWorld")
        assert bhw.n_tops == 0
        assert bhw.bans_ewhoring

    def test_only_hackforums_has_board(self):
        with_board = [s.name for s in FORUM_SPECS if s.has_ewhoring_board]
        assert with_board == ["Hackforums"]


class TestBlockDraws:
    """World synthesis draws per-copy lags in blocks instead of one scalar
    call per copy; on NumPy's ``Generator`` both give the same values and
    leave the generator in the same state, which keeps every later draw
    and the golden outputs unchanged."""

    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    def test_uniform_block_equals_scalar_draws(self, n):
        scalar, block = np.random.default_rng(11), np.random.default_rng(11)
        expected = [float(scalar.uniform(0.0, 1234)) for _ in range(n)]
        got = block.uniform(0.0, 1234, size=n)
        assert [float(x) for x in got] == expected
        assert block.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 300])
    def test_exponential_block_equals_scalar_draws(self, n):
        scalar, block = np.random.default_rng(11), np.random.default_rng(11)
        expected = [float(scalar.exponential(700.0)) for _ in range(n)]
        got = block.exponential(700.0, size=n)
        assert [float(x) for x in got] == expected
        assert block.bit_generator.state == scalar.bit_generator.state


class TestWorld:
    def test_reproducible(self):
        a = build_world(seed=3, scale=0.005, with_other_activity=False)
        b = build_world(seed=3, scale=0.005, with_other_activity=False)
        assert a.dataset.n_posts == b.dataset.n_posts
        assert a.reverse_index.n_indexed == b.reverse_index.n_indexed
        headings_a = sorted(t.heading for t in a.dataset.threads())
        headings_b = sorted(t.heading for t in b.dataset.threads())
        assert headings_a == headings_b

    def test_seed_changes_world(self):
        a = build_world(seed=3, scale=0.005, with_other_activity=False)
        b = build_world(seed=4, scale=0.005, with_other_activity=False)
        assert sorted(t.heading for t in a.dataset.threads()) != sorted(
            t.heading for t in b.dataset.threads()
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WorldConfig(scale=0.0)
        with pytest.raises(TypeError):
            build_world(WorldConfig(), seed=3)

    def test_dataset_within_time_bounds(self, world):
        first, last = world.dataset.span()
        assert last <= DATASET_END
        # Other-board "before" activity may precede the window slightly.
        assert first >= DATASET_START.replace(year=DATASET_START.year - 3)

    def test_every_forum_generated(self, world):
        names = {f.name for f in world.dataset.forums()}
        assert names == {s.name for s in FORUM_SPECS}

    def test_ground_truth_tops_exist(self, world):
        tops = [t for t, v in world.forums.thread_types.items() if v == "top"]
        assert len(tops) > 10

    def test_packs_reference_known_models(self, world):
        model_ids = {m.model_id for m in world.supply.models}
        for pack in world.forums.packs.values():
            assert pack.model_id in model_ids

    def test_reverse_index_populated(self, world):
        assert world.reverse_index.n_indexed > 1000

    def test_hashlist_entries_from_underage_models(self, world):
        assert world.hashlist.n_entries > 0
        underage_ids = {m.model_id for m in world.supply.models if m.is_underage}
        for model in world.supply.models:
            for circ in model.pool:
                if circ.in_hashlist:
                    assert model.model_id in underage_ids

    def test_indexed_circulating_images_findable(self, world):
        # Any indexed, non-evaded circulating image used in a pack must be
        # discoverable through the reverse index.
        checked = 0
        for pack in world.forums.packs.values():
            if pack.evasion:
                continue
            for image in pack.images[:2]:
                circ = world.supply.by_image_id.get(image.image_id)
                if circ is None or not circ.indexed:
                    continue
                report = world.reverse_index.search_hash(robust_hash(image.pixels))
                assert report.matched
                checked += 1
                if checked >= 5:
                    return
        assert checked > 0

    def test_domain_categories_cover_origin_sites(self, world):
        for site in world.supply.origin_sites:
            assert world.domain_categories[site.domain] == site.category

    def test_epoch_world_keeps_only_its_slice(self, monkeypatch):
        alive, init = weakref.WeakSet(), ForumDataset.__init__

        def tracked_init(self):
            init(self)
            alive.add(self)

        monkeypatch.setattr(ForumDataset, "__init__", tracked_init)
        world = build_world(seed=3, scale=0.005, epoch=1, epoch_total=2)
        gc.collect()
        assert list(alive) == [world.dataset]

    def test_proof_truth_images_hosted(self, world):
        assert len(world.forums.proof_truth) > 5


class TestBlockFeaturisation:
    """The build renders, hashes and scores its images in blocks; the
    result must be what one image at a time gave: the same records in
    the same order, counters, screened counts and hashlist entries."""

    CONFIG = WorldConfig(seed=3, scale=0.006, underage_rate=0.30, hashlist_rate=0.5)

    def _build(self, monkeypatch, known, per_image):
        calls = itertools.count()

        def validate(pixels):
            # Every seventh rendered raster fails validation.
            if next(calls) % 7 == 3:
                raise CorruptPayloadError("injected")
            return pixels

        with monkeypatch.context() as patch:
            patch.setattr(world_module, "validate_raster", validate)
            if per_image:
                patch.setattr(world_module, "_FEATURE_BLOCK", 1)
                patch.setattr(world_module, "hash_batch", lambda rasters: np.array(
                    [robust_hash(r) for r in rasters], dtype=np.uint64
                ))

                def features_block(featurizer, items):
                    for digest, image in items:
                        featurizer.features(digest, image)

                patch.setattr(Featurizer, "features_block", features_block)
            world = build_world(self.CONFIG, known=known)
        features = world.image_features
        return {
            "records": list(features.cache.items()),
            "digests": list(features.cache.digests.items()),
            "counters": (features.cache.hits, features.cache.misses),
            "screened": features._screened,
            "entries": world.hashlist._entries,
        }

    def test_blocks_match_one_image_at_a_time(self, monkeypatch):
        full = build_world(self.CONFIG).image_features.cache
        # Known images are not rendered; their entries keep their place.
        partial = VisionCache()
        for latent, digest in list(full.digests.items())[::3]:
            partial.digests[latent] = digest
            partial[digest] = dict(full[digest])
        before = (dict(partial), dict(partial.digests))
        blocks = self._build(monkeypatch, partial, per_image=False)
        reference = self._build(monkeypatch, partial, per_image=True)
        assert (dict(partial), dict(partial.digests)) == before  # read, never written
        assert blocks == reference
        hits, misses = blocks["counters"]
        assert hits > 0 and misses > 0 and len(blocks["entries"]) > 64
        assert len(blocks["records"]) < len(full) - len(partial)  # failures
        assert not set(partial.digests) & {latent for latent, _ in blocks["digests"]}


class TestGarbageCollectorPause:
    """``build_world`` pauses the cyclic collector, which is safe only
    because the build makes no reference cycles."""

    def test_build_leaves_no_cyclic_garbage(self):
        gc.collect()
        build_world(seed=11, scale=0.02)
        assert gc.collect() == 0

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restores_the_callers_setting(self, monkeypatch, enabled):
        seen = []

        def supply(*args, **kwargs):
            seen.append(gc.isenabled())
            raise RuntimeError("build failed")

        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            build_world(seed=3, scale=0.005, with_other_activity=False)
            assert gc.isenabled() is enabled
            with monkeypatch.context() as patch:
                patch.setattr(world_module, "generate_supply_side", supply)
                with pytest.raises(RuntimeError, match="build failed"):
                    build_world(seed=3, scale=0.005)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False]
