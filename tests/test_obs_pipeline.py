"""Integration tests: telemetry threaded through a full pipeline run.

Covers the DESIGN.md §9 contracts:

* the Figure-1 funnel recorded on ``report.telemetry`` matches the
  counts the report itself carries;
* mirrored metrics equal the source statistics objects;
* with tracing enabled, the span hierarchy reflects the pipeline
  (``pipeline.run`` root → ``stage.*`` children → crawl/vision leaves)
  and retry/quarantine activity surfaces as span events;
* **determinism**: two runs of one seed produce identical
  ``deterministic_snapshot()`` / ``deterministic_manifest_view()``
  results — with tracing on, off, or mixed.
"""

from __future__ import annotations

import pytest

from repro import build_world, run_pipeline
from repro.obs import RunTelemetry, Tracer
from repro.obs.export import build_manifest, deterministic_manifest_view

SMALL_SEED = 3
SMALL_SCALE = 0.006
SMALL_ANNOTATE = 200


def _small_world(**overrides):
    kwargs = dict(seed=SMALL_SEED, scale=SMALL_SCALE)
    kwargs.update(overrides)
    return build_world(**kwargs)


def _run(world, tracer=None):
    telemetry = RunTelemetry(tracer=tracer)
    report = run_pipeline(world, annotate_n=SMALL_ANNOTATE, telemetry=telemetry)
    return report, telemetry


@pytest.fixture(scope="module")
def traced_run():
    """One traced small-world run shared by the inspection tests."""
    return _run(_small_world(), tracer=Tracer())


class TestFunnelMatchesReport:
    def test_funnel_counts_equal_report_counts(self, report):
        funnel = {row["stage"]: row["count"] for row in report.telemetry.funnel()}
        assert funnel["threads_selected"] == len(report.selection)
        assert funnel["images_downloaded"] == len(report.crawl.all_images)
        assert funnel["unique_files"] == report.crawl.n_unique_files
        assert funnel["nsfv_previews"] == report.n_nsfv_previews
        assert funnel["quarantined_records"] == report.n_quarantined

    def test_funnel_order_is_pipeline_order(self, report):
        stages = [row["stage"] for row in report.telemetry.funnel()]
        assert stages == [
            "threads_selected",
            "tops_extracted",
            "links_extracted",
            "images_downloaded",
            "unique_files",
            "nsfv_previews",
            "provenance_matches",
            "quarantined_records",
        ]

    def test_funnel_rows_mirrored_as_gauges(self, report):
        tele = report.telemetry
        snap = {
            m["name"]: m["value"]
            for m in tele.metrics.snapshot()
            if m["name"].startswith("funnel.")
        }
        for row in tele.funnel():
            if row["count"] is not None:
                assert snap[f"funnel.{row['stage']}"] == row["count"]


def _gauge_values(telemetry):
    return {
        m["name"]: m["value"]
        for m in telemetry.metrics.snapshot()
        if "value" in m
    }


class TestMetricMirrors:
    def test_vision_cache_metrics_equal_stats(self, report):
        snap = _gauge_values(report.telemetry)
        stats = report.vision_cache_stats
        assert snap["vision_cache.hits"] == stats.hits
        assert snap["vision_cache.misses"] == stats.misses
        assert snap["vision_cache.entries"] == stats.n_entries

    def test_crawl_metrics_equal_stats(self, report):
        snap = _gauge_values(report.telemetry)
        stats = report.crawl.stats
        assert snap["crawl.links"] == stats.n_links
        assert snap["crawl.retries"] == stats.n_retries
        assert snap["crawl.giveups"] == stats.n_giveups
        assert snap["crawl.breaker_skips"] == stats.n_breaker_skips

    def test_stage_timing_histograms_recorded(self, report):
        timing = [
            m
            for m in report.telemetry.metrics.snapshot()
            if m["name"] == "pipeline.stage_seconds"
        ]
        # one histogram per completed stage, each with one observation
        assert len(timing) == len(report.stage_outcomes)
        assert all(m["count"] == 1 for m in timing)

    def test_stage_run_counters(self, report):
        ok = [
            m
            for m in report.telemetry.metrics.snapshot()
            if m["name"] == "pipeline.stage_runs" and m["labels"]["status"] == "ok"
        ]
        assert len(ok) == len(
            [o for o in report.stage_outcomes if o.status == "ok"]
        )


class TestSpanHierarchy:
    def test_root_span_is_pipeline_run(self, traced_run):
        _, telemetry = traced_run
        spans = telemetry.tracer.spans()
        roots = [s for s in spans if s.parent_id is None]
        assert [s.name for s in roots] == ["pipeline.run"]
        assert roots[0].attributes["seed"] == SMALL_SEED

    def test_stage_spans_parent_under_root(self, traced_run):
        _, telemetry = traced_run
        spans = telemetry.tracer.spans()
        root = next(s for s in spans if s.parent_id is None)
        stage_spans = [s for s in spans if s.name.startswith("stage.")]
        assert stage_spans, "expected one span per pipeline stage"
        assert all(s.parent_id == root.span_id for s in stage_spans)

    def test_fetch_spans_parent_under_crawl_stage(self, traced_run):
        _, telemetry = traced_run
        spans = telemetry.tracer.spans()
        crawl_stage = next(s for s in spans if s.name == "stage.url_crawl")
        fetches = [s for s in spans if s.name == "crawl.fetch"]
        assert fetches, "expected one span per crawled link"
        assert all(s.parent_id == crawl_stage.span_id for s in fetches)
        for span in fetches:
            assert "domain" in span.attributes
            assert span.attributes["attempts"] >= 1

    def test_fetch_span_count_matches_crawl_stats(self, traced_run):
        report, telemetry = traced_run
        fetches = [s for s in telemetry.tracer.spans() if s.name == "crawl.fetch"]
        assert len(fetches) == report.crawl.stats.n_links

    def test_vision_kernel_spans_present(self, monkeypatch):
        # The hash kernel runs at crawl ingest, inside each link's
        # crawl.fetch span (the §5 earnings crawl is not featurised at
        # ingest, so its stage hashes its own downloads); the abuse,
        # NSFV and provenance stages read the records.
        import repro.vision.cache as cache_module

        tracer = Tracer()
        hashed_under = []
        real_hash = cache_module.robust_hash

        def locating_hash(pixels):
            hashed_under.append(tracer.current.name)
            return real_hash(pixels)

        monkeypatch.setattr(cache_module, "robust_hash", locating_hash)
        _run(_small_world(), tracer=tracer)
        assert "crawl.fetch" in hashed_under
        assert set(hashed_under) <= {"crawl.fetch", "stage.earnings"}
        names = {s.name for s in tracer.spans()}
        assert "vision.nsfv_batch" in names

    def test_untraced_run_records_no_spans(self, report):
        # the session report ran with the default (null) recorder
        assert report.telemetry.tracing_enabled is False
        assert report.telemetry.tracer.spans() == []


class TestFaultEvents:
    @pytest.fixture(scope="class")
    def flaky_run(self):
        world = _small_world(fault_profile="flaky")
        return _run(world, tracer=Tracer())

    def test_retry_events_recorded(self, flaky_run):
        report, telemetry = flaky_run
        stats = report.crawl.stats
        assert stats.n_transient_faults > 0, "flaky profile should inject faults"
        events = [
            e for s in telemetry.tracer.spans() for e in s.events
        ]
        names = {e.name for e in events}
        assert "retry.attempt" in names
        n_attempts = sum(1 for e in events if e.name == "retry.attempt")
        assert n_attempts == stats.n_transient_faults

    def test_backoff_events_match_retries(self, flaky_run):
        report, telemetry = flaky_run
        events = [e for s in telemetry.tracer.spans() for e in s.events]
        n_backoffs = sum(1 for e in events if e.name == "retry.backoff")
        assert n_backoffs == report.crawl.stats.n_retries


class TestDeterminism:
    """Two runs of one seed agree on everything non-timing."""

    def test_same_seed_same_deterministic_snapshot(self):
        report_a, tele_a = _run(_small_world(), tracer=Tracer())
        report_b, tele_b = _run(_small_world(), tracer=None)
        assert tele_a.deterministic_snapshot() == tele_b.deterministic_snapshot()

    def test_same_seed_same_manifest_view(self):
        config = {"scale": SMALL_SCALE, "annotate": SMALL_ANNOTATE}
        report_a, _ = _run(_small_world(), tracer=Tracer())
        report_b, _ = _run(_small_world(), tracer=Tracer())
        view_a = deterministic_manifest_view(
            build_manifest(report_a, seed=SMALL_SEED, config=config)
        )
        view_b = deterministic_manifest_view(
            build_manifest(report_b, seed=SMALL_SEED, config=config)
        )
        assert view_a == view_b

    def test_tracing_does_not_change_the_measurement(self):
        report_a, _ = _run(_small_world(), tracer=Tracer())
        report_b, _ = _run(_small_world(), tracer=None)
        assert len(report_a.selection) == len(report_b.selection)
        assert report_a.crawl.digest() == report_b.crawl.digest()
        assert report_a.n_nsfv_previews == report_b.n_nsfv_previews
        assert report_a.earnings.total_usd == report_b.earnings.total_usd

    def test_ignored_workers_argument_changes_nothing(self):
        # benchmarks/e2e/worker.py still passes workers=2 to run_pipeline.
        report_a, tele_a = _run(_small_world())
        tele_b = RunTelemetry()
        report_b = run_pipeline(
            _small_world(), annotate_n=SMALL_ANNOTATE, telemetry=tele_b, workers=2
        )
        assert report_b.crawl.digest() == report_a.crawl.digest()
        assert tele_b.measurement_view() == tele_a.measurement_view()

    def test_span_structure_is_seed_deterministic(self):
        _, tele_a = _run(_small_world(), tracer=Tracer())
        _, tele_b = _run(_small_world(), tracer=Tracer())

        def shape(tele):
            return [
                (s.name, s.parent_id, sorted(s.attributes), [e.name for e in s.events])
                for s in sorted(tele.tracer.spans(), key=lambda s: s.span_id)
            ]

        assert shape(tele_a) == shape(tele_b)
