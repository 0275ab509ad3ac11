"""Unit tests for trace export (repro.obs.export) and logging."""

from __future__ import annotations

import io
import json
import logging
import os
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import RunTelemetry, Tracer, get_logger, setup_logging
from repro.obs.export import (
    MANIFEST_KEYS,
    TRACE_SCHEMA_VERSION,
    build_manifest,
    deterministic_manifest_view,
    iter_trace,
    read_trace,
    render_funnel,
    render_trace,
    write_trace,
)


def _sample_tracer() -> Tracer:
    tracer = Tracer()
    with tracer.span("pipeline.run", seed=7):
        with tracer.span("stage.crawl"):
            tracer.event("retry.attempt", domain="a.example", attempt=1)
        with tracer.span("stage.nsfv", n=10):
            pass
    return tracer


class TestTraceFile:
    def test_round_trip(self, tmp_path):
        tracer = _sample_tracer()
        path = tmp_path / "t.jsonl"
        write_trace(path, tracer.spans(), meta={"seed": 7, "funnel": []})
        meta, spans = read_trace(path)
        assert meta["kind"] == "repro.trace"
        assert meta["schema_version"] == TRACE_SCHEMA_VERSION
        assert meta["seed"] == 7
        assert [s["name"] for s in spans] == [
            "pipeline.run",
            "stage.crawl",
            "stage.nsfv",
        ]
        # events survive the round trip, inlined on their span
        crawl = next(s for s in spans if s["name"] == "stage.crawl")
        assert crawl["events"][0]["name"] == "retry.attempt"

    def test_one_json_object_per_line(self, tmp_path):
        path = write_trace(tmp_path / "t.jsonl", _sample_tracer().spans())
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4  # meta + 3 spans
        for line in lines:
            json.loads(line)

    def test_meta_type_cannot_be_overwritten(self, tmp_path):
        path = write_trace(tmp_path / "t.jsonl", [], meta={
            "type": "span", "kind": "x", "schema_version": 0,
        })
        meta, spans = read_trace(path)
        assert (meta["type"], meta["kind"]) == ("meta", "repro.trace")
        assert meta["schema_version"] == TRACE_SCHEMA_VERSION
        assert spans == []

    def test_unknown_record_type_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta"}\n{"type": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown trace record type"):
            read_trace(path)

    def test_missing_meta_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="missing trace meta"):
            read_trace(path)


class TestManifest:
    def _manifest(self):
        tele = RunTelemetry(tracer=_sample_tracer())
        tele.funnel_row("threads_selected", 100)
        tele.funnel_row("tops_extracted", 10)
        tele.metrics.counter("crawl.retries").inc(3)
        tele.work.gauge("vision_cache.hits").set(2)
        return build_manifest(SimpleNamespace(telemetry=tele), seed=7,
                              config={"scale": 0.01})

    def test_schema_stability(self):
        # The trace writer owns the header's type, kind and schema version.
        # Version 3: the counts live in ``metrics`` alone.
        assert tuple(self._manifest().keys()) == MANIFEST_KEYS == (
            "seed", "config", "versions", "degraded", "funnel", "stages",
            "metrics", "cpu_count")
        assert TRACE_SCHEMA_VERSION == 3

    def test_json_serialisable(self, tmp_path):
        path = write_trace(tmp_path / "t.jsonl", [], meta=self._manifest())
        loaded = json.loads(path.read_text().splitlines()[0])
        assert loaded["seed"] == 7
        assert loaded["config"] == {"scale": 0.01}
        assert set(loaded.keys()) == {*MANIFEST_KEYS, "type", "kind",
                                      "schema_version", "created_unix"}

    def test_funnel_and_metrics_embedded(self):
        manifest = self._manifest()
        assert manifest["funnel"][0] == {"stage": "threads_selected", "count": 100}
        names = [m["name"] for m in manifest["metrics"]]
        # Both registries: measured metrics and work accounting.
        assert names == ["crawl.retries", "funnel.threads_selected",
                         "funnel.tops_extracted", "vision_cache.hits"]

    def test_versions_present(self):
        versions = self._manifest()["versions"]
        assert set(versions) >= {"python", "numpy", "scipy", "repro"}

    def test_cpu_count_recorded(self):
        manifest = self._manifest()
        assert manifest["cpu_count"] == os.cpu_count()

    def test_deterministic_view_strips_timing(self):
        manifest = self._manifest()
        view = deterministic_manifest_view(manifest)
        for absent in ("created_unix", "versions", "slowest_spans",
                       "n_spans", "n_events", "cpu_count"):
            assert absent not in view
        # Every metric is seed-determined: the view keeps them all.
        assert view["metrics"] == manifest["metrics"]
        for stage in view["stages"]:
            assert "elapsed_seconds" not in stage


class TestRenderers:
    def test_render_funnel_table(self):
        funnel = [
            {"stage": "threads", "count": 100},
            {"stage": "tops", "count": 10},
            {"stage": "lost", "count": None},
        ]
        text = render_funnel(funnel)
        assert "threads" in text and "100" in text
        assert "10.0% of previous" in text
        assert "-" in text  # None renders as a dash
        assert render_funnel([]) == "no funnel recorded"

    def test_render_trace_aggregates_spans(self, tmp_path):
        tracer = Tracer()
        with tracer.span("pipeline.run"):
            with tracer.span("stage.crawl"):
                for _ in range(3):
                    with tracer.span("crawl.fetch"):
                        pass
        path = write_trace(
            tmp_path / "t.jsonl",
            tracer.spans(),
            meta={"seed": 7, "funnel": [{"stage": "s", "count": 1}]},
        )
        meta, spans = read_trace(path)
        text = render_trace(meta, spans)
        assert "crawl.fetch ×3" in text
        assert "pipeline.run" in text
        assert "-- funnel --" in text
        assert "seed=7" in text

    def test_render_trace_counts_errors(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("x")
        text = render_trace({}, [s.as_dict() for s in tracer.spans()])
        assert "1 errors" in text
        assert "errors=1" in text


class TestLogging:
    def test_human_format(self):
        stream = io.StringIO()
        setup_logging(level="info", json_mode=False, stream=stream)
        get_logger("cli").info("hello %s", "world")
        line = stream.getvalue().strip()
        assert line.endswith("repro.cli: hello world")
        assert "info" in line

    def test_json_format_includes_extra(self):
        stream = io.StringIO()
        setup_logging(level="debug", json_mode=True, stream=stream)
        get_logger("cli").info("building world", extra={"seed": 7, "scale": 0.02})
        payload = json.loads(stream.getvalue())
        assert payload["msg"] == "building world"
        assert payload["level"] == "info"
        assert payload["logger"] == "repro.cli"
        assert payload["seed"] == 7
        assert payload["scale"] == 0.02

    def test_level_filtering(self):
        stream = io.StringIO()
        setup_logging(level="warning", json_mode=False, stream=stream)
        get_logger().info("quiet")
        get_logger().warning("loud")
        output = stream.getvalue()
        assert "quiet" not in output
        assert "loud" in output

    def test_bad_level_raises(self):
        with pytest.raises(ValueError):
            setup_logging(level="chatty")

    def test_idempotent_reconfiguration(self):
        first = io.StringIO()
        second = io.StringIO()
        setup_logging(stream=first)
        setup_logging(stream=second)
        logger = get_logger()
        assert len(logger.handlers) == 1
        logger.warning("only once")
        assert first.getvalue() == ""
        assert "only once" in second.getvalue()

    def test_get_logger_namespacing(self):
        assert get_logger().name == "repro"
        assert get_logger("cli").name == "repro.cli"
        assert get_logger("repro.web").name == "repro.web"

    def teardown_method(self):
        # restore a sane default so later tests logging to stderr work
        logger = logging.getLogger("repro")
        for handler in list(logger.handlers):
            logger.removeHandler(handler)


class TestIterTrace:
    """Streaming reader: equivalence with read_trace, tolerant modes."""

    def test_streams_meta_then_spans(self, tmp_path):
        path = write_trace(
            tmp_path / "t.jsonl", _sample_tracer().spans(), meta={"seed": 7}
        )
        records = list(iter_trace(path))
        assert records[0]["type"] == "meta"
        assert [r["type"] for r in records[1:]] == ["span"] * 3

    def test_is_a_lazy_iterator(self, tmp_path):
        path = write_trace(tmp_path / "t.jsonl", _sample_tracer().spans())
        it = iter_trace(path)
        assert iter(it) is it
        assert next(it)["type"] == "meta"

    def test_strict_rejects_unknown_type(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"type": "meta"}\n{"type": "flux"}\n')
        with pytest.raises(ValueError, match="unknown trace record type"):
            list(iter_trace(path))

    def test_tolerant_skips_unknown_type_and_non_objects(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"type": "meta"}\n'
            '{"type": "flux"}\n'
            "[1, 2]\n"
            '{"type": "span", "name": "a"}\n'
        )
        records = list(iter_trace(path, strict=False))
        assert [r["type"] for r in records] == ["meta", "span"]

    def test_malformed_json_raises_even_tolerant(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"type": "meta"}\n{torn')
        with pytest.raises(ValueError, match="not JSON"):
            list(iter_trace(path, strict=False))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"type": "meta"}\n\n\n{"type": "span"}\n')
        assert len(list(iter_trace(path))) == 2

    def test_tolerant_read_trace_missing_meta(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_trace(path, strict=False) == ({}, [])

    @given(
        spans=st.lists(
            st.fixed_dictionaries(
                {
                    "type": st.just("span"),
                    "id": st.integers(min_value=1, max_value=10_000),
                    "parent": st.none() | st.integers(1, 10_000),
                    "name": st.text(
                        alphabet=st.characters(
                            blacklist_categories=("Cs",),
                            blacklist_characters="\n\r",
                        ),
                        max_size=20,
                    ),
                    "duration": st.floats(0, 100, allow_nan=False),
                }
            ),
            max_size=20,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_round_trip_streamed_equals_eager(self, spans, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "t.jsonl"
        write_trace(path, spans, meta={"seed": 1})
        meta, eager = read_trace(path)
        streamed = list(iter_trace(path))
        assert streamed[0] == meta
        assert streamed[1:] == eager
        assert [s["name"] for s in eager] == [s["name"] for s in spans]


class TestRendererHardening:
    """repro trace must render weird traces, never crash on them."""

    def test_render_empty_trace(self):
        text = render_trace({}, [])
        assert "0 spans" in text

    def test_render_unknown_span_names(self):
        spans = [
            {"type": "span", "id": 1, "parent": None,
             "name": "profile.sample", "duration": 0.0},
            {"type": "span", "id": 2, "parent": None,
             "name": "future.unknown", "duration": 0.1},
        ]
        text = render_trace({}, spans)
        assert "profile.sample" in text
        assert "future.unknown" in text

    def test_render_missing_ids_and_names(self):
        spans = [
            {"type": "span", "duration": 0.1},
            {"type": "span", "id": 5, "name": "x", "duration": 0.2},
        ]
        text = render_trace({}, spans)
        assert "2 spans" in text

    def test_render_dangling_parent(self):
        spans = [
            {"type": "span", "id": 2, "parent": 999, "name": "orphan",
             "duration": 0.1},
        ]
        assert "orphan" in render_trace({}, spans)

    def test_render_parent_cycle_terminates(self):
        spans = [
            {"type": "span", "id": 1, "parent": 2, "name": "a",
             "duration": 0.1},
            {"type": "span", "id": 2, "parent": 1, "name": "b",
             "duration": 0.1},
        ]
        text = render_trace({}, spans)
        assert "a" in text and "b" in text

    def test_render_funnel_non_numeric_counts(self):
        funnel = [
            {"stage": "ok", "count": 10},
            {"count": 5},
            {"stage": "weird", "count": "NaNish"},
            {"stage": "boolish", "count": True},
        ]
        text = render_funnel(funnel)
        assert "ok" in text and "?" in text and "weird" in text
