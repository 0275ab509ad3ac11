"""Tests for the content-addressed feature records and their stage wiring.

Covers the :class:`Featurizer` itself (one computation per digest,
hit/miss accounting, no NSFW score for abuse material, completion of
partial records), record-driven ``NsfvClassifier.classify_batch`` (must
be verdict-identical to the scalar path, including OCR-band edges), the
abuse filter's per-digest hashing, and the memory structure of a
pipeline run: pixels dropped at crawl ingest, one render per crawled
image object, and one NSFW scorer shared by every stage.
"""

from datetime import datetime
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.media.render as render_module
import repro.vision.cache as cache_module
from repro import build_world, pipeline_for_world
from repro.core import AbuseFilter, Quarantine
from repro.core.nsfv import NsfvClassifier, NsfvVerdict
from repro.core.provenance import ProvenanceAnalyzer
from repro.core.report_text import render_telemetry
from repro.media import ImageKind, SyntheticImage, sample_latent
from repro.obs import RunTelemetry
from repro.vision import (
    AbuseSeverity,
    Featurizer,
    HashListEntry,
    HashListService,
    NsfwScorer,
    VisionCache,
    robust_hash,
)
from repro.web import LinkRecord, Url
from repro.web.crawler import CrawledImage, Crawler, content_digest
from repro.web.payload_faults import CorruptImage

T0 = datetime(2016, 1, 1)


class CountingScorer:
    """NSFW 'scorer' returning a canned score per raster id."""

    def __init__(self, scores):
        self.scores = scores
        self.calls = 0

    def score(self, pixels):
        self.calls += 1
        return self.scores[int(pixels[0, 0, 0])]


class CountingOcr:
    def __init__(self, words):
        self.words = words
        self.calls = 0

    def word_count(self, pixels):
        self.calls += 1
        return self.words[int(pixels[0, 0, 0])]


def _tagged_raster(tag: int) -> np.ndarray:
    pixels = np.zeros((2, 2, 3))
    pixels[0, 0, 0] = tag
    return pixels


def _tagged(tag: int, digest=None):
    """A crawled-image stand-in: a digest plus a tagged raster."""
    return SimpleNamespace(
        digest=digest if digest is not None else f"d{tag}",
        image=SimpleNamespace(pixels=_tagged_raster(tag)),
    )


class _RenderCounter:
    """Counts ``render_latent`` calls while installed."""

    def __init__(self, monkeypatch):
        self.calls = 0
        real = render_module.render_latent

        def counting(latent):
            self.calls += 1
            return real(latent)

        monkeypatch.setattr(render_module, "render_latent", counting)


# ---------------------------------------------------------------------------
# Featurizer unit behaviour
# ---------------------------------------------------------------------------

class TestVisionCache:
    def test_get_or_compute_memoises(self):
        # Featurizer.features gets a digest's record or computes it once.
        scorer = CountingScorer({1: 0.4})
        features = Featurizer(scorer=scorer)
        item = _tagged(1)
        first = features.features(item.digest, item.image)
        assert features.features(item.digest, item.image) is first
        assert scorer.calls == 1
        assert set(first) == {"hash", "nsfw"} and first["nsfw"] == 0.4
        stats = features.cache.stats()
        assert (stats.hits, stats.misses, stats.n_entries) == (1, 1, 1)

    def test_abuse_matched_record_holds_hash_only(self, rng):
        bad = SyntheticImage(1, sample_latent(rng, ImageKind.MODEL_NUDE, is_underage=True))
        service = HashListService()
        service.add_known_image(bad.pixels, AbuseSeverity.CATEGORY_B, victim_age=10)
        scorer = CountingScorer({})
        features = Featurizer(hashlist=service, scorer=scorer)
        record = features.features("bad", bad)
        assert set(record) == {"hash"}
        assert scorer.calls == 0
        # A complete abuse record is served without re-rendering.
        bad.drop_pixels()
        assert features.features("bad", bad) is record
        assert bad._pixels is None

    def test_fields_are_independent(self):
        # A record persisted before NSFW scores moved to ingest holds
        # only the hash: the first stage that needs the score fills that
        # field from the pixels and leaves the stored hash alone.
        cache = VisionCache()
        cache["d1"] = {"hash": 5}
        features = Featurizer(cache, scorer=CountingScorer({1: 0.2}))
        record = features.features("d1", _tagged(1).image)
        assert record == {"hash": 5, "nsfw": 0.2}
        assert cache.misses == 1

    def test_features_block_equals_features_in_order(self, rng):
        # Repeated digests (within the block and across calls), a record
        # without a hash, an abuse match and clean misses.
        images = [
            SyntheticImage(i, sample_latent(rng, kind, model_id=1))
            for i, kind in enumerate([ImageKind.MODEL_NUDE] * 3 + [ImageKind.MODEL_DRESSED] * 2)
        ]
        service = HashListService()
        service.add_known_image(images[1].pixels, AbuseSeverity.CATEGORY_B)
        items = [(f"d{i}", image) for i, image in enumerate(images)]
        items = [items[0], items[1], items[0], items[2], items[1], items[2], items[3], items[4]]
        featurizers = []
        for block in (True, False):
            features = Featurizer(hashlist=service)
            features.cache["d3"] = {"nsfw": 0.5}  # a score without its hash
            features.features("d0", images[0])
            for digest, image in items[1:4]:
                features.cache.setdefault(digest, {"hash": robust_hash(image.pixels)})
            if block:
                features.features_block(items)
            else:
                for digest, image in items:
                    features.features(digest, image)
            featurizers.append(features)
        blocks, reference = featurizers
        assert list(blocks.cache.items()) == list(reference.cache.items())
        assert (blocks.cache.hits, blocks.cache.misses) == (
            reference.cache.hits, reference.cache.misses
        ) == (5, 4)
        assert blocks._screened == reference._screened == {(10, 1): 3}
        assert "nsfw" not in blocks.cache["d1"]

    def test_adopt_copies_records_scored_the_same_way(self):
        built = Featurizer()
        built.cache["d1"] = {"hash": 5, "nsfw": 0.2}
        run = Featurizer()
        run.adopt(built)
        assert run.cache == {"d1": {"hash": 5, "nsfw": 0.2}}
        run.cache["d1"]["ocr"] = 3
        assert built.cache["d1"] == {"hash": 5, "nsfw": 0.2}

    def test_adopt_takes_nothing_from_another_scorer(self):
        built = Featurizer(scorer=NsfwScorer(gain=9.0))
        built.cache["d1"] = {"hash": 5, "nsfw": 0.2}
        run = Featurizer()
        run.adopt(built)
        assert run.cache == {}

    def test_adopt_keeps_held_records_and_drops_scores_the_hashlist_matches(self):
        service = HashListService(radius=0)
        service.add_entry(HashListEntry(entry_hash=7, severity=AbuseSeverity.CATEGORY_B))
        built = Featurizer()
        built.cache.update(
            held={"hash": 1, "nsfw": 0.9},
            listed={"hash": 7, "nsfw": 0.5},
            clean={"hash": 8, "nsfw": 0.1},
        )
        cache = VisionCache()
        cache["held"] = {"hash": 1, "nsfw": 0.3}
        run = Featurizer(cache, hashlist=service)
        run.adopt(built)
        assert cache == {
            "held": {"hash": 1, "nsfw": 0.3},
            "listed": {"hash": 7},
            "clean": {"hash": 8, "nsfw": 0.1},
        }

    @pytest.mark.parametrize("drift_radius", [None, 2])
    def test_adopt_rematches_only_when_the_hashlist_moved(self, monkeypatch, drift_radius):
        """Scores the build screened against the run's own hashlist, at
        its current radius and entry count, are adopted without a
        lookup; a radius set after the build (drift's ``set_radius``)
        forces the re-match, which drops a score that now matches."""
        service = HashListService(radius=0)
        service.add_entry(HashListEntry(entry_hash=0, severity=AbuseSeverity.CATEGORY_B))
        scorer = CountingScorer({1: 0.2})
        built = Featurizer(hashlist=service, scorer=scorer)
        built.cache["d1"] = {"hash": 0b11}  # 2 bits from the entry
        built.features("d1", _tagged(1).image)
        assert built.cache["d1"] == {"hash": 0b11, "nsfw": 0.2}
        if drift_radius is not None:
            service.set_radius(drift_radius)

        lookups = []
        match_hashes = service.match_hashes
        monkeypatch.setattr(
            service, "match_hashes", lambda hashes: lookups.append(hashes) or match_hashes(hashes)
        )
        run = Featurizer(hashlist=service, scorer=scorer)
        run.adopt(built)
        if drift_radius is None:
            assert lookups == []
            assert run.cache == {"d1": {"hash": 0b11, "nsfw": 0.2}}
        else:
            assert lookups == [[0b11]]
            assert run.cache == {"d1": {"hash": 0b11}}

    def test_adopt_rematches_scores_the_source_did_not_compute(self):
        # A record handed to the build featurizer, not scored by it, may
        # never have been screened: the run re-matches it.
        service = HashListService(radius=0)
        service.add_entry(HashListEntry(entry_hash=7, severity=AbuseSeverity.CATEGORY_B))
        built = Featurizer(hashlist=service)
        built.cache["listed"] = {"hash": 7, "nsfw": 0.5}
        run = Featurizer(hashlist=service)
        run.adopt(built)
        assert run.cache == {"listed": {"hash": 7}}

    def test_stats_summary_renders(self):
        tele = RunTelemetry()
        for name, value in (("hits", 3), ("misses", 1), ("entries", 2)):
            tele.work.gauge(f"vision_cache.{name}").set(value)
        text = render_telemetry(SimpleNamespace(telemetry=tele))
        assert "vision cache: 3 hits, 1 misses, 2 entries" in text


# ---------------------------------------------------------------------------
# Record-driven NSFV classification
# ---------------------------------------------------------------------------

class TestClassifyBatchCache:
    # Scores straddling every Algorithm 1 band and its edges.
    BAND_SCORES = [0.0, 0.009, 0.01, 0.02, 0.049, 0.05, 0.15, 0.30, 0.31, 1.0]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 9), min_size=0, max_size=12),
        st.lists(st.integers(0, 25), min_size=10, max_size=10),
    )
    def test_verdicts_identical_to_scalar(self, tags, words):
        scores = self.BAND_SCORES
        clf_scalar = NsfvClassifier(
            scorer=CountingScorer(scores), ocr=CountingOcr(words)
        )
        clf_cached = NsfvClassifier(
            scorer=CountingScorer(scores), ocr=CountingOcr(words)
        )
        expected = [clf_scalar.classify(_tagged_raster(t)) for t in tags]
        got = clf_cached.classify_batch([_tagged(t) for t in tags])
        assert got == expected

    def test_ocr_only_runs_in_ambiguous_band(self):
        words = [15] * 10
        ocr = CountingOcr(words)
        clf = NsfvClassifier(scorer=CountingScorer(self.BAND_SCORES), ocr=ocr)
        clf.classify_batch([_tagged(t) for t in range(10)])
        # Ambiguous band is 0.01 <= s <= 0.30 (strict comparisons on both
        # clear-cut sides): scores 0.01, 0.02, 0.049, 0.05, 0.15, 0.30.
        assert ocr.calls == 6

    def test_duplicate_digests_scored_once(self):
        scorer = CountingScorer({1: 0.2})
        ocr = CountingOcr({1: 30})
        clf = NsfvClassifier(scorer=scorer, ocr=ocr)
        items = [_tagged(1, digest="same") for _ in range(4)]
        features = Featurizer(scorer=scorer)
        verdicts = clf.classify_batch(items, features)
        assert scorer.calls == 1 and ocr.calls == 1
        assert len(verdicts) == 4
        assert all(v == verdicts[0] for v in verdicts)
        assert features.cache["same"]["ocr"] == 30
        # A later batch over the same digest is served from its record.
        clf.classify_batch(items[:1], features)
        assert scorer.calls == 1 and ocr.calls == 1

    def test_without_cache_falls_back_to_scalar(self):
        scorer = CountingScorer({1: 0.2})
        clf = NsfvClassifier(scorer=scorer, ocr=CountingOcr({1: 5}))
        # Without a featuriser the classifier scores with its own scorer.
        out = clf.classify_batch([_tagged(1, digest="a"), _tagged(1, digest="b")])
        assert scorer.calls == 2
        assert out == [NsfvVerdict(False, 0.2, 5)] * 2


# ---------------------------------------------------------------------------
# Abuse filter hashing deduplication
# ---------------------------------------------------------------------------

def _crawled(image, thread_id=1, digest=None):
    return CrawledImage(
        image=image,
        digest=digest if digest is not None else content_digest(image),
        link=LinkRecord(
            url=Url("imgur.com", f"/x{image.image_id}"),
            thread_id=thread_id,
            post_id=1,
            author_id=1,
            posted_at=T0,
        ),
    )


class TestAbuseFilterDedupe:
    @pytest.fixture()
    def images(self, rng):
        bad = SyntheticImage(
            1, sample_latent(rng, ImageKind.MODEL_NUDE, model_id=1, is_underage=True)
        )
        clean = SyntheticImage(2, sample_latent(rng, ImageKind.MODEL_NUDE, model_id=2))
        return bad, clean

    def _service(self, bad):
        service = HashListService()
        service.add_known_image(
            bad.pixels, AbuseSeverity.CATEGORY_B, victim_age=10
        )
        return service

    def test_each_digest_hashed_once(self, images, monkeypatch):
        bad, clean = images
        calls = []
        real_hash = cache_module.robust_hash

        def counting_hash(pixels):
            calls.append(1)
            return real_hash(pixels)

        monkeypatch.setattr(cache_module, "robust_hash", counting_hash)
        # Three crawled copies of `bad` (same digest), two of `clean`.
        crawled = [
            _crawled(bad, thread_id=1),
            _crawled(bad, thread_id=2),
            _crawled(bad, thread_id=3),
            _crawled(clean, thread_id=4),
            _crawled(clean, thread_id=5),
        ]
        result = AbuseFilter(self._service(bad)).sweep(crawled)
        # One hash per distinct digest only.
        assert len(calls) == 2
        # Result semantics unchanged by deduplication:
        assert result.n_matched_images == 1
        assert result.matched_digests == {crawled[0].digest}
        assert result.affected_thread_ids == {1, 2, 3}
        assert all(not result.is_clean(c) for c in crawled[:3])
        assert all(result.is_clean(c) for c in crawled[3:])
        # Every matched copy's pixels were dropped.
        assert all(c.image._pixels is None for c in crawled[:3])

    def test_cache_shares_hashes_across_sweeps(self, images):
        bad, clean = images
        service = self._service(bad)
        features = Featurizer(hashlist=service)
        cache = features.cache
        first = AbuseFilter(service, features=features).sweep([_crawled(clean)])
        assert first.n_matched_images == 0
        before = cache.stats()
        assert before.misses >= 1
        # Second sweep over the same digest: pure record hits, no recompute.
        AbuseFilter(service, features=features).sweep([_crawled(clean)])
        after = cache.stats()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_cached_and_uncached_sweeps_agree(self, images):
        bad, clean = images
        crawled_a = [_crawled(bad), _crawled(clean), _crawled(bad)]
        crawled_b = [_crawled(bad), _crawled(clean), _crawled(bad)]
        plain = AbuseFilter(self._service(bad)).sweep(crawled_a)
        service = self._service(bad)
        cached = AbuseFilter(
            service, features=Featurizer(hashlist=service)
        ).sweep(crawled_b)
        assert plain.n_matched_images == cached.n_matched_images
        assert plain.matched_digests == cached.matched_digests
        assert plain.affected_thread_ids == cached.affected_thread_ids


# ---------------------------------------------------------------------------
# Memory structure of a pipeline run
# ---------------------------------------------------------------------------

def _link(path="/x"):
    return LinkRecord(url=Url("imgur.com", path), thread_id=1, posted_at=T0)


@pytest.fixture(scope="module")
def small_world():
    return build_world(seed=3, scale=0.006, underage_rate=0.30, hashlist_rate=0.5)


@pytest.fixture(scope="module")
def counted_run(small_world):
    """A cold run that counts renders and inspects each crawl's result."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        renders = _RenderCounter(monkeypatch)
        crawled_holding_pixels = {}
        crawled_images = {}
        real_crawl = Crawler.crawl

        def inspecting_crawl(self, links, *args, **kwargs):
            result = real_crawl(self, links, *args, **kwargs)
            stage = kwargs.get("stage", "url_crawl")
            crawled_holding_pixels[stage] = sum(
                c.image._pixels is not None for c in result.all_images
            )
            crawled_images[stage] = result.all_images
            return result

        monkeypatch.setattr(Crawler, "crawl", inspecting_crawl)
        pipeline = pipeline_for_world(small_world)
        report = pipeline.run(
            top_oracle=lambda t: small_world.forums.thread_types.get(t) == "top",
            proof_oracle=small_world.forums.proof_truth.get,
            annotate_n=200,
        )
    return (
        report, pipeline.vision_cache, renders.calls, crawled_holding_pixels,
        crawled_images,
    )


class TestMemoryStructure:
    def test_no_crawled_image_holds_pixels_after_url_crawl(self, counted_run):
        report, _, _, holding, _ = counted_run
        assert report.crawl.all_images
        assert holding["url_crawl"] == 0

    def test_earnings_crawl_leaves_records_and_no_pixels(self, counted_run):
        report, cache, _, holding, crawled = counted_run
        proofs = crawled["earnings"]
        assert proofs and len(proofs) == report.earnings.n_downloaded
        assert holding["earnings"] == 0
        assert all(c.digest in cache for c in proofs)

    def test_renders_bounded_by_image_objects_plus_ocr_band(self, counted_run):
        report, cache, renders, _, crawled = counted_run
        images = [c for stage in crawled.values() for c in stage]
        clf = NsfvClassifier()
        # Both crawls featurise at ingest; only Algorithm 1's ambiguous
        # band re-renders a raster, for OCR.
        ocr_band = {
            c.digest for c in images
            if clf.sfv_threshold <= cache[c.digest].get("nsfw", -1) <= clf.nsfv_threshold
        }
        assert renders <= len({id(c.image) for c in images}) + len(ocr_band)

    def test_abuse_matched_digest_never_scored(self, counted_run):
        report, cache, _, _, _ = counted_run
        assert report.abuse.matched_digests, "world should contain abuse matches"
        for digest in report.abuse.matched_digests:
            assert "nsfw" not in cache[digest]

    def test_no_hashlist_matched_record_has_a_score(self, small_world, counted_run):
        _, cache, _, _, _ = counted_run
        hashlist = small_world.hashlist
        for records in (small_world.image_features.cache, cache):
            matched = [
                r for r in records.values() if hashlist.match_hash(r["hash"]).matched
            ]
            assert matched, "world should contain hashlist matches"
            assert not any("nsfw" in r for r in matched)

    def test_drop_pixels_keeps_digest_and_repeat_ingest_renders_nothing(
        self, rng, monkeypatch
    ):
        image = SyntheticImage(1, sample_latent(rng, ImageKind.MODEL_NUDE))
        crawler = Crawler(None, features=Featurizer())
        quarantine = Quarantine()
        renders = _RenderCounter(monkeypatch)
        first = crawler._ingest(_link("/a"), image, quarantine, "url_crawl")
        assert renders.calls == 1
        assert image._pixels is None
        assert image.known_digest == first.digest
        second = crawler._ingest(_link("/b"), image, quarantine, "url_crawl")
        assert renders.calls == 1
        assert second.digest == first.digest
        # Another object of the same latent is found by latent, not rendered.
        copy = SyntheticImage(2, image.latent)
        third = crawler._ingest(_link("/c"), copy, quarantine, "url_crawl")
        assert renders.calls == 1
        assert third.digest == first.digest and copy.known_digest is None

    def test_corrupt_view_of_a_known_latent_is_still_quarantined(self, rng):
        base = SyntheticImage(1, sample_latent(rng, ImageKind.MODEL_NUDE))
        features = Featurizer()
        crawler = Crawler(None, features=features)
        quarantine = Quarantine()
        clean = crawler._ingest(_link("/a"), base, quarantine, "url_crawl")
        assert features.cache.digests == {base.latent: clean.digest}
        poison = CorruptImage(base, "nan_pixels", noise_seed=1)
        assert crawler._ingest(_link("/b"), poison, quarantine, "url_crawl") is None
        assert [(r.ref, r.error_type) for r in quarantine.records] == [
            ("https://imgur.com/b", "NonFinitePixelError")
        ]
        assert features.cache.digest_of(poison) is None
        assert features.cache.digests == {base.latent: clean.digest}

    def test_unknown_poison_digest_still_quarantined_by_abuse_filter(self, rng):
        base = SyntheticImage(1, sample_latent(rng, ImageKind.MODEL_NUDE))
        poison = CrawledImage(
            image=CorruptImage(base, "nan_pixels", noise_seed=1),
            digest="never-seen",
            link=_link(),
        )
        ledger = Quarantine()
        result = AbuseFilter(HashListService()).sweep([poison], quarantine=ledger)
        assert not result.is_clean(poison)
        assert [(r.stage, r.ref) for r in ledger.records] == [("abuse_filter", "never-seen")]


class InvertedScorer(NsfwScorer):
    """Ranks images in the opposite order to the default scorer."""

    def score(self, pixels):
        return 1.0 - super().score(pixels)


class TestOneScorerPerRun:
    def test_pack_sampling_sees_the_nsfv_scorer(self, small_world):
        pipeline = pipeline_for_world(small_world)
        pipeline.nsfv = NsfvClassifier(scorer=InvertedScorer())
        report = pipeline.run(
            top_oracle=lambda t: small_world.forums.thread_types.get(t) == "top",
            proof_oracle=small_world.forums.proof_truth.get,
            annotate_n=200,
        )
        packs = [c for c in report.crawl.pack_images if report.abuse.is_clean(c)]

        def sampled_with(scorer):
            analyzer = ProvenanceAnalyzer(
                small_world.reverse_index, features=Featurizer(scorer=scorer)
            )
            return [c.digest for c in analyzer._sample_packs(packs)]

        got = [o.digest for o in report.provenance.pack_outcomes]
        assert got == sampled_with(InvertedScorer())
        assert got != sampled_with(NsfwScorer())
