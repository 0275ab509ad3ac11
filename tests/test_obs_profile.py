"""Resource profiler tests (repro.obs.profile, DESIGN.md §14).

Covers the two contracts that make ``--profile`` safe to ship:

* **observer purity** — a profiled run's crawl digest, quarantine
  ledger and ``measurement_view()`` are bit-identical to an unprofiled
  run of the same seed, across worker counts and fault/payload
  profiles, because every profiler reading is a ``profile.*`` span
  attribute and never a metric;
* **aggregation correctness** — :func:`aggregate_spans` computes
  self-time (duration minus direct children), cpu/rss/alloc roll-ups
  and error counts from plain span dicts, streamed or in-memory.
"""

from __future__ import annotations

import threading

import pytest

from repro import build_world, run_pipeline
from repro.obs import (
    ProfilingTracer,
    RunTelemetry,
    Tracer,
    aggregate_spans,
)
from repro.obs.profile import (
    ALLOC_SPAN_PREFIXES,
    PROFILE_ATTR_PREFIX,
    rss_peak_kb,
)

SMALL_SEED = 3
SMALL_SCALE = 0.006
SMALL_ANNOTATE = 200


def _small_world(**overrides):
    kwargs = dict(seed=SMALL_SEED, scale=SMALL_SCALE)
    kwargs.update(overrides)
    return build_world(**kwargs)


def _run(world, tracer=None):
    telemetry = RunTelemetry(tracer=tracer)
    try:
        report = run_pipeline(
            world,
            annotate_n=SMALL_ANNOTATE,
            telemetry=telemetry,
        )
    finally:
        if tracer is not None and getattr(tracer, "profiled", False):
            tracer.stop()
    return report, telemetry


def _profiler(**kwargs):
    return ProfilingTracer(**kwargs).start()


class TestRssHelpers:
    def test_peak_positive_on_linux(self):
        assert rss_peak_kb() > 0


class TestProfilingTracer:
    def test_is_a_tracer_and_marked_profiled(self):
        tracer = ProfilingTracer()
        assert isinstance(tracer, Tracer)
        assert tracer.profiled
        assert not Tracer.__dict__.get("profiled", False)

    def test_spans_carry_profile_attrs(self):
        tracer = _profiler()
        with tracer.span("stage.demo"):
            sum(range(20_000))
        tracer.stop()
        (span,) = tracer.spans()
        attrs = span.attributes
        assert attrs["profile.cpu_seconds"] >= 0.0
        assert attrs["profile.rss_peak_kb"] > 0
        assert "profile.rss_growth_kb" in attrs
        # The span was opened bare: every attribute is the profiler's.
        assert all(key.startswith(PROFILE_ATTR_PREFIX) for key in attrs)

    def test_alloc_attr_only_on_alloc_prefixes(self):
        tracer = _profiler(allocations=True)
        with tracer.span("pipeline.demo"):
            _ = [bytearray(1024) for _ in range(200)]
        with tracer.span("crawl.fetch"):
            _ = [bytearray(1024) for _ in range(200)]
        tracer.stop()
        by_name = {s.name: s.attributes for s in tracer.spans()}
        assert "profile.alloc_kb" in by_name["pipeline.demo"]
        assert "profile.alloc_kb" not in by_name["crawl.fetch"]
        assert any("pipeline.demo".startswith(p) for p in ALLOC_SPAN_PREFIXES)

    def test_alloc_off_by_default(self):
        tracer = _profiler()
        with tracer.span("pipeline.demo"):
            pass
        tracer.stop()
        (span,) = tracer.spans()
        assert "profile.alloc_kb" not in span.attributes

    def test_stop_is_idempotent(self):
        tracer = _profiler()
        tracer.stop()
        tracer.stop()

    def test_nested_spans_get_independent_profiles(self):
        tracer = _profiler()
        with tracer.span("stage.outer"):
            with tracer.span("stage.inner"):
                sum(range(10_000))
        tracer.stop()
        by_name = {s.name: s.attributes for s in tracer.spans()}
        assert by_name["stage.outer"]["profile.cpu_seconds"] >= (
            by_name["stage.inner"]["profile.cpu_seconds"]
        )


class TestAggregateSpans:
    def _records(self):
        return [
            {"id": 1, "parent": None, "name": "root", "duration": 1.0,
             "status": "ok", "attrs": {"profile.cpu_seconds": 0.9,
                                       "profile.rss_peak_kb": 100}},
            {"id": 2, "parent": 1, "name": "leaf", "duration": 0.3,
             "status": "ok", "attrs": {"profile.cpu_seconds": 0.2,
                                       "profile.rss_peak_kb": 120}},
            {"id": 3, "parent": 1, "name": "leaf", "duration": 0.4,
             "status": "error", "attrs": {}},
        ]

    def test_self_time_subtracts_direct_children(self):
        rows = {r["name"]: r for r in aggregate_spans(self._records())}
        assert rows["root"]["self_seconds"] == pytest.approx(0.3)
        assert rows["root"]["total_seconds"] == pytest.approx(1.0)
        assert rows["leaf"]["total_seconds"] == pytest.approx(0.7)
        assert rows["leaf"]["count"] == 2

    def test_rollups(self):
        rows = {r["name"]: r for r in aggregate_spans(self._records())}
        assert rows["leaf"]["errors"] == 1
        assert rows["leaf"]["rss_peak_kb"] == 120
        assert rows["leaf"]["cpu_seconds"] == pytest.approx(0.2)
        assert rows["leaf"]["max_seconds"] == pytest.approx(0.4)
        assert rows["root"]["rss_peak_kb"] == 100

    def test_no_profile_attrs_yields_none_rollups(self):
        rows = aggregate_spans(
            [{"id": 1, "parent": None, "name": "a", "duration": 0.1,
              "status": "ok", "attrs": {}}]
        )
        assert rows[0]["cpu_seconds"] is None
        assert rows[0]["rss_peak_kb"] is None
        assert rows[0]["alloc_kb"] is None

    def test_self_time_clamped_non_negative(self):
        rows = aggregate_spans(
            [
                {"id": 1, "parent": None, "name": "p", "duration": 0.1,
                 "status": "ok", "attrs": {}},
                {"id": 2, "parent": 1, "name": "c", "duration": 0.5,
                 "status": "ok", "attrs": {}},
            ]
        )
        assert {r["name"]: r for r in rows}["p"]["self_seconds"] == 0.0

    def test_empty(self):
        assert aggregate_spans([]) == []


class TestObserverPurity:
    """Profiling must not perturb the measurement — property-tested."""

    @pytest.mark.parametrize(
        "fault_profile,payload_profile",
        [(None, None), ("flaky", "dirty")],
    )
    def test_profiled_run_bit_identical(self, fault_profile, payload_profile):
        overrides = {}
        if fault_profile:
            overrides["fault_profile"] = fault_profile
        if payload_profile:
            overrides["payload_profile"] = payload_profile
        report_off, tele_off = _run(_small_world(**overrides), tracer=None)
        report_prof, tele_prof = _run(
            _small_world(**overrides), tracer=_profiler(allocations=True)
        )
        assert report_off.crawl.digest() == report_prof.crawl.digest()
        assert tele_off.measurement_view() == tele_prof.measurement_view()
        assert [r.to_dict() for r in report_off.quarantine.records] == (
            [r.to_dict() for r in report_prof.quarantine.records]
        )

    def test_profiler_starts_no_thread(self):
        before = threading.active_count()
        tracer = ProfilingTracer(allocations=True).start()
        run_pipeline(_small_world(), annotate_n=SMALL_ANNOTATE,
                     telemetry=RunTelemetry(tracer=tracer))
        during = threading.active_count()
        tracer.stop()
        assert during == before

    def test_mixed_with_plain_tracer(self):
        _, tele_traced = _run(_small_world(), tracer=Tracer())
        _, tele_prof = _run(_small_world(), tracer=_profiler())
        # Same spans: the profiler adds attributes, never spans.
        assert len(tele_traced.tracer.spans()) == len(tele_prof.tracer.spans())
        assert tele_traced.measurement_view() == tele_prof.measurement_view()
        assert (
            tele_traced.deterministic_snapshot()
            == tele_prof.deterministic_snapshot()
        )

    def test_measurement_view_contains_no_profile_keys(self):
        _, tele = _run(_small_world(), tracer=_profiler())
        names = [m["name"] for m in tele.measurement_view()["metrics"]]
        assert not [n for n in names if n.startswith("profile.")]
