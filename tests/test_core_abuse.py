"""Tests for the abuse filter (§4.3)."""

from datetime import datetime

import pytest

from repro.core import AbuseFilter
from repro.media import ImageKind, SyntheticImage, sample_latent
from repro.vision import (
    AbuseSeverity,
    HashListService,
    IndexedCopy,
    ReverseImageIndex,
    robust_hash,
)
from repro.web import LinkRecord, Url
from repro.web.crawler import CrawledImage, content_digest

T0 = datetime(2016, 1, 1)


def crawled(image, thread_id=1):
    return CrawledImage(
        image=image,
        digest=content_digest(image),
        link=LinkRecord(url=Url("imgur.com", f"/x{image.image_id}"),
                        thread_id=thread_id, post_id=1, author_id=1, posted_at=T0),
    )


@pytest.fixture()
def abusive_and_clean(rng):
    bad = SyntheticImage(1, sample_latent(rng, ImageKind.MODEL_NUDE, model_id=1, is_underage=True))
    clean = SyntheticImage(2, sample_latent(rng, ImageKind.MODEL_NUDE, model_id=2))
    return bad, clean


class TestSweep:
    def test_detects_known_image(self, abusive_and_clean):
        bad, clean = abusive_and_clean
        hashlist = HashListService()
        hashlist.add_known_image(bad.pixels, AbuseSeverity.CATEGORY_B, victim_age=17)
        result = AbuseFilter(hashlist).sweep([crawled(bad), crawled(clean)])
        assert result.n_matched_images == 1
        assert not result.is_clean(crawled(bad))
        assert result.is_clean(crawled(clean))

    def test_pixels_dropped_on_match(self, abusive_and_clean):
        bad, _ = abusive_and_clean
        hashlist = HashListService()
        hashlist.add_known_image(bad.pixels, AbuseSeverity.CATEGORY_A)
        record = crawled(bad)
        AbuseFilter(hashlist).sweep([record])
        assert record.image._pixels is None

    def test_duplicate_copies_counted_once(self, abusive_and_clean):
        bad, _ = abusive_and_clean
        hashlist = HashListService()
        hashlist.add_known_image(bad.pixels, AbuseSeverity.CATEGORY_B)
        result = AbuseFilter(hashlist).sweep([crawled(bad, 1), crawled(bad, 2)])
        assert result.n_matched_images == 1
        assert result.affected_thread_ids == {1, 2}

    def test_actionable_entries_reported_with_urls(self, abusive_and_clean):
        bad, _ = abusive_and_clean
        hashlist = HashListService()
        hashlist.add_known_image(bad.pixels, AbuseSeverity.CATEGORY_B, victim_age=17,
                                 actionable=True)
        index = ReverseImageIndex()
        h = robust_hash(bad.pixels)
        index.index_hash(h, IndexedCopy("https://porn.example/1", "porn.example", T0))
        index.index_hash(h, IndexedCopy("https://blog.example/2", "blog.example", T0))

        def domain_info(domain):
            return ("Europe", "blog" if "blog" in domain else "regular website")

        result = AbuseFilter(hashlist, reverse_index=index, domain_info=domain_info).sweep(
            [crawled(bad)]
        )
        assert result.n_actioned_urls == 2
        assert result.severity_histogram[AbuseSeverity.CATEGORY_B] == 2
        assert result.region_histogram["Europe"] == 2
        assert result.site_type_histogram["blog"] == 1

    def test_non_actionable_not_reported(self, abusive_and_clean):
        bad, _ = abusive_and_clean
        hashlist = HashListService()
        hashlist.add_known_image(bad.pixels, AbuseSeverity.CATEGORY_B, actionable=False)
        result = AbuseFilter(hashlist).sweep([crawled(bad)])
        assert result.n_matched_images == 1
        assert result.n_actioned_urls == 0

    def test_empty_sweep(self):
        result = AbuseFilter(HashListService()).sweep([])
        assert result.n_matched_images == 0
        assert result.matched_digests == set()


class TestWorldSweep:
    def test_world_abuse_statistics(self, world, report):
        """With elevated test-world rates the sweep must find material."""
        result = report.abuse
        assert result.n_matched_images > 0
        assert result.affected_thread_ids
        # Exposure lower bound: repliers of affected threads.
        assert len(result.exposed_actor_ids) > 0

    def test_matched_images_excluded_downstream(self, report):
        matched = report.abuse.matched_digests
        for crawled_image, _ in report.preview_verdicts:
            assert crawled_image.digest not in matched
        for outcome in report.provenance.pack_outcomes:
            assert outcome.digest not in matched

    def test_actioned_urls_have_metadata(self, report):
        log = report.abuse.report_log
        if not log.records:
            pytest.skip("no actionable reports in this world")
        for record in log.records:
            assert record.severity in AbuseSeverity
