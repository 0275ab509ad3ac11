"""End-to-end pipeline integration tests: cross-stage invariants."""

import pytest

from repro import build_world, pipeline_for_world, run_pipeline
from repro.web import FetchStatus


class TestPipelineReport:
    def test_selection_covers_every_summary(self, report):
        total = sum(s.n_threads for s in report.forum_summaries)
        assert total == len(report.selection)

    def test_tops_subset_of_selection(self, report):
        selection_ids = {t.thread_id for t in report.selection}
        assert all(t.thread_id in selection_ids for t in report.tops)

    def test_tops_per_forum_totals(self, report):
        assert sum(report.tops_per_forum.values()) == len(report.tops)

    def test_links_originate_from_tops(self, report):
        top_ids = {t.thread_id for t in report.tops}
        for link in report.links.all_links:
            assert link.thread_id in top_ids

    def test_crawl_status_accounting(self, report):
        stats = report.crawl.stats
        assert stats.n_links == len(report.links.all_links)
        assert sum(stats.by_status.values()) == stats.n_links

    def test_registration_walls_respected(self, report):
        """Dropbox/Drive packs are never downloaded (§4.2)."""
        walls = report.crawl.stats.count(FetchStatus.REGISTRATION_REQUIRED)
        for crawled in report.crawl.pack_images:
            assert crawled.link.url.host not in ("dropbox.com", "drive.google.com")

    def test_unique_files_not_more_than_downloads(self, report):
        assert report.crawl.n_unique_files <= len(report.crawl.all_images)

    def test_duplicates_exist(self, report):
        """§4.2: free packs are saturated — duplicates are expected."""
        if len(report.crawl.pack_images) > 200:
            assert report.crawl.n_unique_files < len(report.crawl.all_images)

    def test_preview_verdicts_cover_clean_previews(self, report):
        matched = report.abuse.matched_digests
        clean = [c for c in report.crawl.preview_images if c.digest not in matched]
        assert len(report.preview_verdicts) == len(clean)

    def test_provenance_queries_bounded_by_sampling(self, report):
        n_packs = len(report.crawl.packs)
        assert len(report.provenance.pack_outcomes) <= 3 * n_packs

    def test_actor_metrics_cover_selection_authors(self, report):
        metrics = report.actor_analyzer.metrics()
        for thread in report.selection[:200]:
            assert thread.author_id in metrics

    def test_vision_cache_recorded_and_used(self, report):
        """The shared VisionCache must see cross-stage reuse."""
        stats = report.vision_cache_stats
        assert stats is not None
        assert stats.n_entries > 0
        # NSFV previews are re-queried by provenance (§4.5), so at least
        # those lookups must be served from cache.
        assert stats.hits > 0


class TestOracleDiscipline:
    def test_pipeline_runs_without_world_ground_truth(self, world):
        """The pipeline only touches ground truth through the two oracle
        callables — a run with independently supplied oracles works."""
        pipeline = pipeline_for_world(world)
        truth_types = dict(world.forums.thread_types)
        proof_truth = dict(world.forums.proof_truth)
        report = pipeline.run(
            top_oracle=lambda tid: truth_types.get(tid) == "top",
            proof_oracle=proof_truth.get,
            annotate_n=300,
        )
        assert report.n_annotated == 300

    def test_annotation_sample_too_small_rejected(self, world):
        pipeline = pipeline_for_world(world)
        with pytest.raises(ValueError):
            pipeline.run(
                top_oracle=lambda tid: True,
                proof_oracle=lambda iid: None,
                annotate_n=5,
            )


class TestDeterminism:
    def test_same_seed_same_report(self):
        config = dict(seed=19, scale=0.006, with_other_activity=False)
        report_a = run_pipeline(build_world(**config), annotate_n=200)
        report_b = run_pipeline(build_world(**config), annotate_n=200)
        assert report_a.extraction_stats == report_b.extraction_stats
        assert len(report_a.links.all_links) == len(report_b.links.all_links)
        assert report_a.earnings.total_usd == report_b.earnings.total_usd
        assert report_a.provenance.summary("packs") == report_b.provenance.summary("packs")
