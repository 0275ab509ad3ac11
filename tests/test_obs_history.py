"""Persisted run history tests (DESIGN.md §14).

Covers ``repro.obs.history`` (summaries, store round-trip, the
run_incremental linkage, diffs) and the ``repro obs`` CLI exit-code
contract.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.obs import ProfilingTracer, RunTelemetry, Tracer
from repro.obs.export import build_manifest, write_trace
from repro.obs.history import (
    HistorySummary,
    diff_histories,
    record_history,
    summarize_run,
    summarize_trace,
)
from repro.store import RunStore, run_incremental

from .test_store_incremental import add_orphan_quarantine_row, write_sql

WORLD = dict(seed=3, scale=0.006)
CLI_WORLD = ["--seed", "3", "--scale", "0.006"]


def _telemetry(profiled: bool = False) -> RunTelemetry:
    tracer = ProfilingTracer() if profiled else Tracer()
    tele = RunTelemetry(tracer=tracer)
    with tracer.span("pipeline.run"):
        with tracer.span("stage.crawl"):
            tracer.event("retry.attempt", domain="a.example")
    tele.funnel_row("threads_selected", 10)
    tele.funnel_row("images_downloaded", 40)
    tele.funnel_row("quarantined_records", 2)
    tele.metrics.gauge("nsfv.rate").set(0.25)
    return tele


def _summary(wall=1.0, rss=1000, funnel_n=40, **kwargs) -> HistorySummary:
    return HistorySummary(
        source="run",
        wall_seconds=wall,
        peak_rss_kb=rss,
        funnel=[
            {"stage": "threads_selected", "count": 10},
            {"stage": "images_downloaded", "count": funnel_n},
        ],
        **kwargs,
    )


class TestSummarizeRun:
    def test_unprofiled_summary(self):
        summary = summarize_run(_telemetry(), seed=3, epoch=1, wall_seconds=2.0)
        assert summary.source == "run"
        assert not summary.profiled
        assert summary.cpu_seconds is None
        assert summary.n_spans == 2
        assert summary.n_events == 1
        assert summary.n_records == 40
        assert summary.n_quarantined == 2
        assert {"stage": "threads_selected", "count": 10} in summary.funnel
        assert {r["name"] for r in summary.spans} == {
            "pipeline.run",
            "stage.crawl",
        }
        assert any(m["name"] == "nsfv.rate" for m in summary.metrics)

    def test_profiled_summary_has_cpu(self):
        summary = summarize_run(_telemetry(profiled=True))
        assert summary.profiled
        assert summary.cpu_seconds is not None and summary.cpu_seconds >= 0
        assert summary.peak_rss_kb > 0

    def test_profiled_cpu_counts_nested_spans_once(self, tmp_path):
        # Each span's CPU time includes its children's: the run's CPU is
        # the root's, however deep the nesting, from the run and from
        # its written trace alike.
        tracer = ProfilingTracer()
        tele = RunTelemetry(tracer=tracer)
        with tracer.span("pipeline.run"):
            with tracer.span("stage.crawl"):
                with tracer.span("crawl.fetch"):
                    sum(range(200_000))
        tracer.stop()
        root = next(s for s in tracer.spans() if s.parent_id is None)
        root_cpu = root.attributes["profile.cpu_seconds"]
        path = write_trace(tmp_path / "t.jsonl", tracer.spans(),
                           meta=build_manifest(SimpleNamespace(telemetry=tele)))
        for summary in (summarize_run(tele), summarize_trace(path)):
            assert summary.cpu_seconds == pytest.approx(root_cpu)

    def test_null_tracer_still_summarises_funnel(self):
        tele = RunTelemetry()
        tele.funnel_row("images_downloaded", 7)
        summary = summarize_run(tele)
        assert summary.n_spans == 0
        assert summary.n_records == 7


class TestSummarizeTrace:
    def test_matches_summarize_run(self, tmp_path):
        tele = _telemetry(profiled=True)
        tele.tracer.stop()
        path = write_trace(
            tmp_path / "t.jsonl", tele.tracer.spans(),
            meta=build_manifest(SimpleNamespace(telemetry=tele), seed=3),
        )
        from_run = summarize_run(tele, seed=3)
        from_trace = summarize_trace(path)
        assert (from_trace.source, from_trace.seed) == ("trace", 3)
        assert from_trace.profiled
        assert from_trace.cpu_count == from_run.cpu_count == os.cpu_count()
        assert from_trace.n_spans == from_run.n_spans
        assert from_trace.funnel == from_run.funnel
        assert from_trace.metrics == from_run.metrics
        run_names = {r["name"]: r["count"] for r in from_run.spans}
        trace_names = {r["name"]: r["count"] for r in from_trace.spans}
        assert trace_names == run_names

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        summary = summarize_trace(path)
        assert summary.n_spans == 0
        assert summary.wall_seconds is None
        assert not summary.profiled


class TestStoreRoundTrip:
    def test_save_and_query(self, tmp_path):
        store = RunStore(tmp_path / "s.sqlite")
        tele = _telemetry(profiled=True)
        tele.tracer.stop()
        summary = summarize_run(tele, seed=3, epoch=1, wall_seconds=1.5)
        history_id = record_history(store, summary)
        (run,) = store.history_runs()
        assert run["history_id"] == history_id
        assert run["seed"] == 3
        assert run["epoch"] == 1
        assert run["wall_seconds"] == pytest.approx(1.5)
        assert run["profiled"]
        assert run["n_records"] == 40
        assert {r["stage"] for r in run["funnel"]} == {
            "threads_selected",
            "images_downloaded",
            "quarantined_records",
        }
        spans = store.history_spans(history_id)
        assert {r["name"] for r in spans} == {"pipeline.run", "stage.crawl"}
        metrics = store.history_metrics(history_id)
        by_name = {m["name"]: m for m in metrics}
        assert by_name["nsfv.rate"]["value"] == pytest.approx(0.25)
        store.close()

    def test_legacy_parallel_row_still_displays(self, tmp_path, capsys):
        # Earlier versions recorded parallel crawls as executor/workers.
        path = tmp_path / "s.sqlite"
        with RunStore(path) as store:
            store._execute(
                "INSERT INTO history_runs (source, created_unix, n_spans, "
                "n_events, profiled, executor, workers, cpu_count) "
                "VALUES ('run', 0.0, 0, 0, 0, 'thread', 2, 2)"
            )
            store.commit()
            record_history(store, _summary(cpu_count=4))
        assert main(["obs", "runs", "--store", str(path)]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        # (history id, cpus column) per listed row.
        assert [(row[0], row[-2]) for row in rows] == [("1", "2"), ("2", "4")]
        assert main(["obs", "diff", "1", "2", "--store", str(path)]) == 0
        assert "cpus: #1 on 2 vs #2 on 4" in capsys.readouterr().out

    def test_legacy_bench_results_store_still_works(self, tmp_path, capsys):
        # Earlier versions kept bench_results and profile_samples tables;
        # stores that hold them must still verify, repair and list.
        path = tmp_path / "s.sqlite"
        run_incremental(path, epoch=1, annotate_n=200, **WORLD)
        write_sql(path, """
            CREATE TABLE bench_results (name TEXT NOT NULL, recorded_unix REAL NOT NULL,
                payload TEXT NOT NULL, PRIMARY KEY (name, recorded_unix));
            INSERT INTO bench_results VALUES ('BENCH_telemetry', 5.0, '{}');
            CREATE TABLE profile_samples (history_id INTEGER NOT NULL, seq INTEGER NOT NULL,
                t REAL NOT NULL, rss_kb REAL NOT NULL, cpu_seconds REAL NOT NULL,
                PRIMARY KEY (history_id, seq));
            INSERT INTO profile_samples VALUES (1, 0, 0.1, 8e4, 0.2);
        """)
        assert main(["store", "verify", str(path)]) == 0
        capsys.readouterr()
        assert main(["obs", "runs", "--store", str(path)]) == 0
        listed = capsys.readouterr().out
        assert "no run history" not in listed
        with RunStore(path) as store:
            runs = store.runs()
        # A dangling quarantine row forces repair to rebuild the store
        # table by table, past the legacy one.
        add_orphan_quarantine_row(path)
        assert main(["store", "repair", str(path)]) == 0
        assert "rebuilt store" in capsys.readouterr().out
        with RunStore(path) as store:
            assert store.runs() == runs
        assert main(["obs", "runs", "--store", str(path)]) == 0
        assert capsys.readouterr().out == listed

    def test_incremental_run_records_history(self, tmp_path):
        result = run_incremental(
            tmp_path / "s.sqlite", epoch=1, annotate_n=200, **WORLD
        )
        assert result.history_id is not None
        with RunStore(tmp_path / "s.sqlite") as store:
            (run,) = store.history_runs()
            assert run["history_id"] == result.history_id
            assert run["run_id"] == result.run_id
            assert run["epoch"] == 1
            assert run["n_records"] == len(result.report.crawl.all_images)
            # Default telemetry runs untraced: history still carries the
            # funnel and metrics, just no span aggregates.
            assert store.history_spans(result.history_id) == []

    def test_incremental_traced_run_records_spans(self, tmp_path):
        result = run_incremental(
            tmp_path / "s.sqlite", epoch=1, annotate_n=200,
            telemetry=RunTelemetry(tracer=Tracer()), **WORLD
        )
        with RunStore(tmp_path / "s.sqlite") as store:
            names = {
                r["name"] for r in store.history_spans(result.history_id)
            }
            # store.epoch is still open when history is summarised
            # (history rides inside it), so it is absent by design.
            assert "pipeline.run" in names
            assert "store.read" in names


class _FakeStore:
    """Duck-typed store: just the two methods diff_histories uses."""

    def __init__(self, runs, metrics=None):
        self._runs = runs
        self._metrics = metrics or {}

    def history_runs(self):
        return self._runs

    def history_metrics(self, history_id):
        return self._metrics.get(history_id, [])


def _run_row(history_id, wall=1.0, rss=1000, images=40, **extra):
    row = {
        "history_id": history_id,
        "label": f"run {history_id}",
        "source": "run",
        "wall_seconds": wall,
        "cpu_seconds": None,
        "peak_rss_kb": rss,
        "funnel": [{"stage": "images_downloaded", "count": images}],
    }
    row.update(extra)
    return row


def _flagged(store, id_a=1, id_b=2):
    return [r["name"] for r in diff_histories(store, id_a, id_b) if r["flagged"]]


class TestCheckRegressions:
    """Regression checks between two history rows, as ``repro obs diff``
    makes them: a regression is a flagged row of ``diff_histories``."""

    def test_clean_pair_passes(self):
        store = _FakeStore([_run_row(1), _run_row(2, wall=1.05)])
        assert diff_histories(store, 1, 2) and _flagged(store) == []

    def test_wall_time_regression_detected(self):
        store = _FakeStore([_run_row(1, wall=1.0), _run_row(2, wall=4.0)])
        assert _flagged(store) == ["wall_seconds"]

    def test_wall_time_across_sources_is_not_comparable(self):
        # A run row's wall time is the whole epoch; a trace row's is its
        # longest span.  The 7.5x gap is a change of definition.
        store = _FakeStore([_run_row(1, wall=2.18), _run_row(2, wall=0.29, source="trace")])
        row = next(r for r in diff_histories(store, 1, 2) if r["name"] == "wall_seconds")
        assert (row["a"], row["b"], row["delta"], row["ratio"]) == (2.18, 0.29, None, None)
        assert not row["flagged"] and not row["comparable"]
        assert _flagged(store) == []

    def test_funnel_recall_regression_detected(self):
        store = _FakeStore([_run_row(1, images=100), _run_row(2, images=50)])
        row = diff_histories(store, 1, 2)[0]
        assert (row["kind"], row["name"], row["flagged"]) == (
            "funnel", "images_downloaded", True
        )
        assert (row["delta"], row["ratio"]) == (-50, 0.5)

    def test_missing_funnel_stage_is_a_violation(self):
        latest = _run_row(2)
        latest["funnel"] = []
        row = diff_histories(_FakeStore([_run_row(1), latest]), 1, 2)[0]
        assert (row["name"], row["a"], row["b"]) == ("images_downloaded", 40, None)
        assert row["flagged"]

    def test_metric_floor(self):
        gauge = {"name": "nsfv.rate", "kind": "gauge", "labels": {}}
        store = _FakeStore(
            [_run_row(1), _run_row(2)],
            metrics={1: [dict(gauge, value=0.2)], 2: [dict(gauge, value=0.1)]},
        )
        assert _flagged(store) == ["nsfv.rate"]

    def test_explicit_baseline_latest(self):
        store = _FakeStore([_run_row(1, wall=4.0), _run_row(2, wall=1.0)])
        row = diff_histories(store, 2, 1)[0]
        assert (row["name"], row["a"], row["b"]) == ("wall_seconds", 1.0, 4.0)

    def test_empty_history_raises(self):
        with pytest.raises(ValueError, match="history #1 not found"):
            diff_histories(_FakeStore([]), 1, 2)

    def test_single_row_raises(self):
        with pytest.raises(ValueError, match="history #2 not found"):
            diff_histories(_FakeStore([_run_row(1)]), 1, 2)

    def test_unknown_id_raises(self):
        store = _FakeStore([_run_row(1), _run_row(2)])
        with pytest.raises(ValueError, match="history #99 not found"):
            diff_histories(store, 99, 2)


class TestDiffHistories:
    def test_flags_large_changes(self):
        store = _FakeStore(
            [_run_row(1, wall=1.0, images=40), _run_row(2, wall=2.0, images=41)]
        )
        rows = diff_histories(store, 1, 2)
        by_name = {r["name"]: r for r in rows}
        assert by_name["wall_seconds"]["flagged"]
        assert by_name["wall_seconds"]["ratio"] == pytest.approx(2.0)
        assert not by_name["images_downloaded"]["flagged"]
        # flagged rows sort first
        assert rows[0]["flagged"]

    def test_unknown_id_raises(self):
        with pytest.raises(ValueError, match="not found"):
            diff_histories(_FakeStore([_run_row(1)]), 1, 2)


class TestObsCli:
    @pytest.fixture(scope="class")
    def store_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("obs") / "store.sqlite"
        for epoch in ("1", "2"):
            code = main(
                ["run", *CLI_WORLD, "--annotate", "200",
                 "--store", str(path), "--epoch", epoch,
                 "--epoch-total", "2", "--profile"]
            )
            assert code == 0
        return path

    def test_runs_lists_both(self, store_path, capsys):
        assert main(["obs", "runs", "--store", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "epoch 1/2" in out and "epoch 2/2" in out

    def test_top(self, store_path, capsys):
        assert main(["obs", "top", "--store", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "pipeline.run" in out and "store.read" in out

    def test_diff(self, store_path, capsys):
        assert main(
            ["obs", "diff", "1", "2", "--store", str(store_path)]
        ) == 0
        assert "history #1 -> #2" in capsys.readouterr().out

    def test_regressions_clean(self, store_path):
        # Epoch funnels are cumulative, so no stage falls from #1 to #2.
        with RunStore(store_path) as store:
            rows = diff_histories(store, 1, 2)
        funnel = [r for r in rows if r["kind"] == "funnel"]
        assert funnel and all(r["b"] >= r["a"] for r in funnel)

    def test_top_without_store_or_trace_exits_2(self):
        assert main(["obs", "top"]) == 2

    def test_ingest_trace_then_top_trace(
        self, store_path, tmp_path, capsys, v1_trace, v2_trace
    ):
        trace = tmp_path / "t.jsonl"
        assert main(
            ["run", *CLI_WORLD, "--annotate", "200",
             "--trace-out", str(trace), "--profile"]
        ) == 0
        capsys.readouterr()
        for path, label in ((trace, "from-trace"), (v2_trace, "from-v2"),
                            (v1_trace, "from-v1")):
            assert main(["obs", "top", "--trace", str(path)]) == 0
            assert "profiled" in capsys.readouterr().out
            assert main(
                ["obs", "ingest-trace", str(path), "--store", str(store_path),
                 "--label", label]
            ) == 0
            assert main(["obs", "runs", "--store", str(store_path)]) == 0
            assert label in capsys.readouterr().out
            with RunStore(store_path) as store:
                (row,) = [r for r in store.history_runs() if r["label"] == label]
                names = {m["name"] for m in store.history_metrics(row["history_id"])}
            assert "crawl.links" in names
        assert (row["seed"], row["cpu_count"], row["n_events"]) == (3, None, 1)

    def test_profiled_store_run_measurement_matches_plain(self, tmp_path):
        plain = run_incremental(
            tmp_path / "a.sqlite", epoch=1, annotate_n=200, **WORLD
        )
        profiler = ProfilingTracer(allocations=True)
        profiler.start()
        try:
            profiled = run_incremental(
                tmp_path / "b.sqlite", epoch=1, annotate_n=200,
                telemetry=RunTelemetry(tracer=profiler), **WORLD
            )
        finally:
            profiler.stop()
        assert plain.measurement == profiled.measurement
        assert plain.crawl_digest == profiled.crawl_digest

    def test_ingested_trace_carries_cpu_count(self, store_path, tmp_path):
        tele = _telemetry()
        trace = write_trace(
            tmp_path / "t.jsonl", tele.tracer.spans(),
            meta=build_manifest(SimpleNamespace(telemetry=tele), seed=3),
        )
        assert main(["obs", "ingest-trace", str(trace), "--store",
                     str(store_path), "--label", "cpus"]) == 0
        with RunStore(store_path) as store:
            (row,) = [r for r in store.history_runs() if r["label"] == "cpus"]
        assert row["cpu_count"] == os.cpu_count()
