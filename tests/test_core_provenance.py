"""Tests for the provenance stage (§4.5)."""

from datetime import datetime, timedelta

import pytest

from repro.core import PackSampling, ProvenanceAnalyzer
from repro.domains import default_classifiers
from repro.media import ImageKind, Pack, SyntheticImage, sample_latent
from repro.vision import IndexedCopy, ReverseImageIndex, robust_hash
from repro.web import LinkRecord, Url, WaybackArchive
from repro.web.crawler import CrawledImage, content_digest

T0 = datetime(2016, 6, 1)
EARLIER = T0 - timedelta(days=400)
LATER = T0 + timedelta(days=100)


def crawled(image, pack_id=None, posted_at=T0):
    return CrawledImage(
        image=image,
        digest=content_digest(image),
        link=LinkRecord(url=Url("mediafire.com", f"/p{image.image_id}"),
                        thread_id=1, posted_at=posted_at,
                        link_kind="pack" if pack_id else "preview"),
        pack_id=pack_id,
    )


@pytest.fixture()
def setting(rng):
    """Three pack images: one indexed early, one indexed late, one not."""
    images = [
        SyntheticImage(i, sample_latent(rng, ImageKind.MODEL_NUDE, model_id=i))
        for i in (1, 2, 3)
    ]
    index = ReverseImageIndex()
    index.index_hash(robust_hash(images[0].pixels),
                     IndexedCopy("https://porn0.com/a", "porn0.com", EARLIER))
    index.index_hash(robust_hash(images[1].pixels),
                     IndexedCopy("https://porn1.com/b", "porn1.com", LATER))
    archive = WaybackArchive(seed=0, coverage=1.0)
    return images, index, archive


class TestQueryOutcomes:
    def test_match_and_seen_before(self, setting):
        images, index, archive = setting
        analyzer = ProvenanceAnalyzer(index, archive=archive)
        result = analyzer.analyze([crawled(img, pack_id=1) for img in images], [])
        outcomes = {o.digest: o for o in result.pack_outcomes}
        early = outcomes[content_digest(images[0])]
        late = outcomes[content_digest(images[1])]
        missing = outcomes[content_digest(images[2])]
        assert early.matched and early.seen_before
        assert late.matched and not late.seen_before
        assert not missing.matched and not missing.seen_before

    def test_archive_rescues_seen_before(self, setting):
        """A match crawled late still counts as seen-before when the
        Wayback analogue archived the URL early."""
        images, index, archive = setting
        archive.record("https://porn1.com/b", EARLIER)
        analyzer = ProvenanceAnalyzer(index, archive=archive)
        result = analyzer.analyze([crawled(images[1], pack_id=1)], [])
        assert result.pack_outcomes[0].seen_before

    def test_zero_match_packs(self, setting):
        images, index, archive = setting
        analyzer = ProvenanceAnalyzer(index)
        result = analyzer.analyze(
            [crawled(images[0], pack_id=1), crawled(images[2], pack_id=2)], []
        )
        assert result.zero_match_pack_ids == {2}

    def test_summary_rows(self, setting):
        images, index, _ = setting
        analyzer = ProvenanceAnalyzer(index)
        result = analyzer.analyze([crawled(img, pack_id=1) for img in images], [])
        summary = result.summary("packs")
        assert summary.total == 3
        assert summary.matches == 2
        assert summary.match_rate == pytest.approx(2 / 3)
        assert summary.mean_matches_per_matched == pytest.approx(1.0)
        assert summary.max_matches == 1

    def test_previews_analyzed_without_sampling(self, setting):
        images, index, _ = setting
        analyzer = ProvenanceAnalyzer(index)
        result = analyzer.analyze([], [crawled(img) for img in images])
        assert len(result.preview_outcomes) == 3


class TestPackSampling:
    def test_at_most_three_per_pack(self, rng):
        images = [
            SyntheticImage(i, sample_latent(rng, ImageKind.MODEL_NUDE, model_id=1))
            for i in range(10)
        ]
        index = ReverseImageIndex()
        analyzer = ProvenanceAnalyzer(index)
        result = analyzer.analyze([crawled(img, pack_id=7) for img in images], [])
        assert len(result.pack_outcomes) == 3

    def test_small_pack_fully_sampled(self, rng):
        images = [
            SyntheticImage(i, sample_latent(rng, ImageKind.MODEL_NUDE, model_id=1))
            for i in range(2)
        ]
        analyzer = ProvenanceAnalyzer(ReverseImageIndex())
        result = analyzer.analyze([crawled(img, pack_id=7) for img in images], [])
        assert len(result.pack_outcomes) == 2

    def test_duplicates_collapsed_before_sampling(self, rng):
        image = SyntheticImage(1, sample_latent(rng, ImageKind.MODEL_NUDE, model_id=1))
        analyzer = ProvenanceAnalyzer(ReverseImageIndex())
        result = analyzer.analyze([crawled(image, pack_id=7)] * 5, [])
        assert len(result.pack_outcomes) == 1

    def test_configurable_sampling(self, rng):
        images = [
            SyntheticImage(i, sample_latent(rng, ImageKind.MODEL_NUDE, model_id=1))
            for i in range(10)
        ]
        analyzer = ProvenanceAnalyzer(
            ReverseImageIndex(), sampling=PackSampling(per_pack=5)
        )
        result = analyzer.analyze([crawled(img, pack_id=7) for img in images], [])
        assert len(result.pack_outcomes) == 5


class TestDomainClassification:
    def test_tables_per_classifier(self, setting):
        images, index, _ = setting
        categories = {"porn0.com": "Pornography", "porn1.com": "Blogs"}
        analyzer = ProvenanceAnalyzer(
            index,
            classifiers=default_classifiers(seed=0),
            category_lookup=categories.get,
        )
        result = analyzer.analyze([crawled(img, pack_id=1) for img in images], [])
        assert set(result.domain_tables) == {"McAfee", "VirusTotal", "OpenDNS"}
        assert set(result.matched_domains) == {"porn0.com", "porn1.com"}
        for rows in result.domain_tables.values():
            assert rows  # every classifier produced a distribution


class TestWorldProvenance:
    def test_table5_shape(self, report):
        """Table 5 shape: majority of pack images match; previews match
        less often (modifications); seen-before below match rate."""
        packs = report.provenance.summary("packs")
        previews = report.provenance.summary("previews")
        assert packs.total > 0 and previews.total > 0
        assert packs.match_rate > 0.5
        assert previews.match_rate < packs.match_rate
        assert packs.seen_before <= packs.matches
        assert previews.seen_before <= previews.matches

    def test_match_ratio_ballpark(self, report):
        packs = report.provenance.summary("packs")
        if packs.matches >= 10:
            assert 3.0 < packs.mean_matches_per_matched < 60.0

    def test_zero_match_packs_minority(self, report):
        n_packs = len(report.crawl.packs)
        if n_packs >= 10:
            fraction = len(report.provenance.zero_match_pack_ids) / n_packs
            assert fraction < 0.5

    def test_porn_dominates_domain_tables(self, report):
        """§4.5: top categories are mostly porn-related."""
        rows = report.provenance.domain_tables.get("McAfee", [])
        if not rows:
            pytest.skip("no domains matched at this scale")
        top_tags = [tag for tag, _, _ in rows[:3]]
        assert any(tag in ("Pornography", "Provocative Attire", "Nudity")
                   for tag in top_tags)
