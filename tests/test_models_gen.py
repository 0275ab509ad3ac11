"""Direct unit tests for supply-side internals (copy plans, hashes)."""

from datetime import datetime

import numpy as np
import pytest

from repro.synth import generate_supply_side
from repro.synth.models_gen import (
    _sample_copy_count,
    fill_copy_hashes,
)
from repro.vision import hamming_distance


class TestCopyCounts:
    def test_positive_and_capped(self, rng):
        counts = [_sample_copy_count(rng, popularity=1.0) for _ in range(3000)]
        assert min(counts) >= 1
        assert max(counts) <= 2500

    def test_mean_calibrated_to_table5(self, rng):
        counts = [_sample_copy_count(rng, popularity=1.0) for _ in range(8000)]
        # Table 5: mean matches per matched image ≈ 12.7–17.3.
        assert 8.0 < np.mean(counts) < 30.0

    def test_heavy_tail(self, rng):
        counts = [_sample_copy_count(rng, popularity=1.0) for _ in range(8000)]
        assert max(counts) > 10 * np.median(counts)

    def test_popularity_scales(self, rng):
        low = np.mean([_sample_copy_count(rng, 0.5) for _ in range(3000)])
        high = np.mean([_sample_copy_count(rng, 3.0) for _ in range(3000)])
        assert high > 2 * low


class TestFillCopyHashes:
    def test_hashes_close_to_base(self, rng):
        supply = generate_supply_side(rng, n_models=2, n_origin_sites=60)
        circulating = supply.models[0].pool[0]
        base = 0x0123456789ABCDEF
        fill_copy_hashes(rng, circulating, base)
        assert circulating.copies  # plans were attached at generation
        for copy in circulating.copies:
            assert 0 <= hamming_distance(copy.copy_hash, base) <= 3

    def test_flips_zero_to_three_bits_per_copy(self, rng):
        # Every copy of every image sits 0–3 bits from its origin hash,
        # and each of those distances occurs.
        supply = generate_supply_side(rng, n_models=3, n_origin_sites=60)
        flips = []
        for circulating in [c for m in supply.models for c in m.pool][:40]:
            base = int(rng.integers(0, 2**63)) * 2 + 1
            fill_copy_hashes(rng, circulating, base)
            flips.extend(hamming_distance(c.copy_hash, base) for c in circulating.copies)
        assert len(flips) > 200
        assert set(flips) == {0, 1, 2, 3}

    def test_plan_metadata_preserved(self, rng):
        supply = generate_supply_side(rng, n_models=2, n_origin_sites=60)
        circulating = supply.models[0].pool[0]
        before = [(c.domain, c.published_at, c.url_path) for c in circulating.copies]
        fill_copy_hashes(rng, circulating, 42)
        after = [(c.domain, c.published_at, c.url_path) for c in circulating.copies]
        assert before == after


class TestSupplyStructure:
    def test_copy_dates_follow_first_publication(self, rng):
        supply = generate_supply_side(rng, n_models=3, n_origin_sites=60)
        for model in supply.models:
            for circulating in model.pool[:10]:
                for copy in circulating.copies:
                    assert copy.published_at >= circulating.first_published

    def test_copy_domains_are_registered_sites(self, rng):
        supply = generate_supply_side(rng, n_models=2, n_origin_sites=60)
        domains = {site.domain for site in supply.origin_sites}
        for model in supply.models:
            for circulating in model.pool[:10]:
                for copy in circulating.copies:
                    assert copy.domain in domains

    def test_origin_domains_unique(self, rng):
        supply = generate_supply_side(rng, n_models=2, n_origin_sites=200)
        domains = [site.domain for site in supply.origin_sites]
        assert len(domains) == len(set(domains))

    def test_underage_models_minority_by_default(self, rng):
        supply = generate_supply_side(rng, n_models=60, n_origin_sites=60)
        underage = sum(1 for m in supply.models if m.is_underage)
        assert underage <= 6  # 1.2% expected of 60
