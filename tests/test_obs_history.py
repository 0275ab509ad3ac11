"""Persisted run history + regression gate tests (DESIGN.md §14).

Covers ``repro.obs.history`` (summaries, store round-trip, the
run_incremental linkage), ``repro.obs.regress`` (SLO validation,
violations, diffs) and the ``repro obs`` CLI exit-code contract.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.cli import main
from repro.obs import ProfilingTracer, RunTelemetry, Tracer
from repro.obs.export import write_trace
from repro.obs.history import (
    HistorySummary,
    record_history,
    summarize_run,
    summarize_trace,
)
from repro.obs.regress import (
    DEFAULT_SLO,
    EXIT_REGRESSION,
    check_regressions,
    diff_histories,
    load_slo,
)
from repro.store import RunStore, run_incremental

WORLD = dict(seed=3, scale=0.006)
CLI_WORLD = ["--seed", "3", "--scale", "0.006"]


def _telemetry(profiled: bool = False) -> RunTelemetry:
    tracer = ProfilingTracer(sample_interval=0.0) if profiled else Tracer()
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
            tmp_path / "t.jsonl",
            tele.tracer.spans(),
            meta={
                "seed": 3,
                "funnel": tele.funnel(),
                "metrics": tele.deterministic_snapshot()["metrics"],
            },
        )
        from_run = summarize_run(tele, seed=3)
        from_trace = summarize_trace(path)
        assert from_trace.source == "trace"
        assert from_trace.seed == 3
        assert from_trace.profiled
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
        # Earlier versions kept ingested bench results in a bench_results
        # table; stores that hold one must still verify, repair and list.
        path = tmp_path / "s.sqlite"
        run_incremental(path, epoch=1, annotate_n=200, **WORLD)
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE bench_results (name TEXT NOT NULL, recorded_unix "
            "REAL NOT NULL, payload TEXT NOT NULL, "
            "PRIMARY KEY (name, recorded_unix))"
        )
        conn.execute(
            "INSERT INTO bench_results VALUES ('BENCH_telemetry', 5.0, '{}')"
        )
        conn.commit()
        conn.close()
        assert main(["store", "verify", str(path)]) == 0
        capsys.readouterr()
        assert main(["obs", "runs", "--store", str(path)]) == 0
        listed = capsys.readouterr().out
        assert "no run history" not in listed
        with RunStore(path) as store:
            runs = store.runs()
        # A dangling quarantine row forces repair to rebuild the store
        # table by table, past the legacy one.
        conn = sqlite3.connect(path)
        conn.execute(
            "INSERT INTO quarantine (run_id, seq, stage, ref, error_type, "
            "message, context) VALUES (999, 0, 'url_crawl', 'x', 'E', 'm', '{}')"
        )
        conn.commit()
        conn.close()
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


class TestLoadSlo:
    def test_defaults_pass_validation(self):
        assert load_slo(DEFAULT_SLO) == DEFAULT_SLO

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            load_slo({"wall_ratio_typo": 2.0})

    def test_non_positive_ratio_rejected(self):
        with pytest.raises(ValueError, match="must be > 0"):
            load_slo({"wall_seconds_max_ratio": 0})

    def test_floors_coerced_to_float(self):
        spec = load_slo({"funnel_floors": {"images_downloaded": 5}})
        assert spec["funnel_floors"]["images_downloaded"] == 5.0

    def test_doc_keys_tolerated(self):
        assert load_slo({"description": "hi"}) == {}

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({"funnel_min_ratio": 0.8}))
        assert load_slo(path) == {"funnel_min_ratio": 0.8}


class _FakeStore:
    """Duck-typed store: just the two methods check_regressions uses."""

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


class TestCheckRegressions:
    def test_clean_pair_passes(self):
        store = _FakeStore([_run_row(1), _run_row(2, wall=1.1)])
        report = check_regressions(store)
        assert report.ok
        assert report.checks

    def test_wall_time_regression_detected(self):
        store = _FakeStore([_run_row(1, wall=1.0), _run_row(2, wall=4.0)])
        report = check_regressions(store)
        assert not report.ok
        assert [v.check for v in report.violations] == ["wall_time"]
        joined = "\n".join(report.summary_lines())
        assert "REGRESSION [wall_time]" in joined
        assert "!!  wall_time" in joined
        assert "ok  wall_time" not in joined

    def test_funnel_recall_regression_detected(self):
        store = _FakeStore([_run_row(1, images=100), _run_row(2, images=50)])
        report = check_regressions(store)
        assert [v.check for v in report.violations] == (
            ["funnel[images_downloaded]"]
        )

    def test_missing_funnel_stage_is_a_violation(self):
        latest = _run_row(2)
        latest["funnel"] = []
        store = _FakeStore([_run_row(1), latest])
        report = check_regressions(store)
        assert not report.ok

    def test_metric_floor(self):
        store = _FakeStore(
            [_run_row(1), _run_row(2)],
            metrics={
                2: [{"name": "nsfv.rate", "kind": "gauge", "labels": {},
                     "value": 0.1}]
            },
        )
        report = check_regressions(store, {"metric_floors": {"nsfv.rate": 0.2}})
        assert [v.check for v in report.violations] == (
            ["metric_floor[nsfv.rate]"]
        )

    def test_explicit_baseline_latest(self):
        store = _FakeStore([_run_row(1, wall=4.0), _run_row(2, wall=1.0)])
        report = check_regressions(store, baseline_id=2, latest_id=1)
        assert not report.ok

    def test_empty_history_raises(self):
        with pytest.raises(ValueError, match="no run history"):
            check_regressions(_FakeStore([]))

    def test_single_row_raises(self):
        with pytest.raises(ValueError, match="single history row"):
            check_regressions(_FakeStore([_run_row(1)]))

    def test_unknown_id_raises(self):
        store = _FakeStore([_run_row(1), _run_row(2)])
        with pytest.raises(ValueError, match="not found"):
            check_regressions(store, baseline_id=99)


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

    def test_regressions_clean(self, store_path, capsys):
        code = main(
            ["obs", "regressions", "--store", str(store_path),
             "--slo", "slo.json"]
        )
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_regressions_injected_failure_exits_5(
        self, store_path, tmp_path, capsys
    ):
        slo = tmp_path / "slo.json"
        slo.write_text(json.dumps({"funnel_floors": {"images_downloaded": 1e9}}))
        code = main(
            ["obs", "regressions", "--store", str(store_path),
             "--slo", str(slo)]
        )
        assert code == EXIT_REGRESSION == 5
        assert "REGRESSION" in capsys.readouterr().out

    def test_regressions_bad_slo_exits_2(self, store_path, tmp_path):
        slo = tmp_path / "bad.json"
        slo.write_text(json.dumps({"nope": 1}))
        assert main(
            ["obs", "regressions", "--store", str(store_path),
             "--slo", str(slo)]
        ) == 2

    def test_top_without_store_or_trace_exits_2(self):
        assert main(["obs", "top"]) == 2

    def test_ingest_trace_then_top_trace(self, store_path, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(
            ["run", *CLI_WORLD, "--annotate", "200",
             "--trace-out", str(trace), "--profile"]
        ) == 0
        capsys.readouterr()
        assert main(["obs", "top", "--trace", str(trace)]) == 0
        assert "profiled" in capsys.readouterr().out
        assert main(
            ["obs", "ingest-trace", str(trace), "--store", str(store_path),
             "--label", "from-trace"]
        ) == 0
        assert main(["obs", "runs", "--store", str(store_path)]) == 0
        assert "from-trace" in capsys.readouterr().out
        with RunStore(store_path) as store:
            (row,) = [r for r in store.history_runs() if r["label"] == "from-trace"]
            names = {m["name"] for m in store.history_metrics(row["history_id"])}
        assert "crawl.links" in names

    def test_profiled_store_run_measurement_matches_plain(self, tmp_path):
        plain = run_incremental(
            tmp_path / "a.sqlite", epoch=1, annotate_n=200, **WORLD
        )
        profiler = ProfilingTracer(allocations=True, sample_interval=0.0)
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
