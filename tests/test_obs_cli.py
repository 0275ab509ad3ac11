"""CLI-level tests for the telemetry surface: --trace-out / repro trace."""

from __future__ import annotations

import json

from repro.cli import main
from repro.obs.export import manifest_path_for, read_trace

#: Tiny world so each CLI invocation stays fast.
CLI_WORLD = ["--seed", "3", "--scale", "0.006"]


class TestTraceOut:
    def test_run_writes_trace_and_manifest(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        code = main(
            ["run", *CLI_WORLD, "--annotate", "200", "--trace-out", str(trace)]
        )
        assert code == 0
        assert trace.exists()
        manifest_path = manifest_path_for(trace)
        assert manifest_path.exists()

        # every line is a JSON object; first is the meta header
        lines = trace.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["type"] == "meta"
        assert records[0]["seed"] == 3
        assert all(r["type"] == "span" for r in records[1:])
        assert len(records) > 5  # root + stages + fetches at least

        manifest = json.loads(manifest_path.read_text())
        assert manifest["kind"] == "repro.run_manifest"
        assert manifest["seed"] == 3
        # the manifest funnel equals the trace meta funnel
        assert manifest["funnel"] == records[0]["funnel"]
        funnel = {row["stage"]: row["count"] for row in manifest["funnel"]}
        assert funnel["threads_selected"] > 0
        assert funnel["unique_files"] > 0

    def test_trace_meta_is_self_describing(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        main(["run", *CLI_WORLD, "--annotate", "200", "--trace-out", str(trace)])
        meta, spans = read_trace(trace)
        assert meta["funnel"], "meta must embed the funnel"
        assert meta["stages"], "meta must embed the stage table"
        assert {s["name"] for s in spans} >= {"pipeline.run", "stage.url_crawl"}

    def test_trace_subcommand_renders(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        main(["run", *CLI_WORLD, "--annotate", "200", "--trace-out", str(trace)])
        capsys.readouterr()  # drop the run output
        code = main(["trace", str(trace)])
        assert code == 0
        output = capsys.readouterr().out
        assert "-- flame summary --" in output
        assert "pipeline.run" in output
        assert "stage.url_crawl" in output
        assert "-- funnel --" in output
        assert "seed=3" in output

    def test_run_without_trace_out_writes_nothing(self, tmp_path, capsys):
        code = main(["run", *CLI_WORLD, "--annotate", "200"])
        assert code == 0
        assert list(tmp_path.iterdir()) == []
        output = capsys.readouterr().out
        assert "== telemetry (DESIGN.md §9) ==" in output  # summary still rendered


class TestLoggingFlags:
    def test_log_json_emits_json_lines(self, capsys):
        code = main(
            ["--log-json", "run", *CLI_WORLD, "--annotate", "200"]
        )
        assert code == 0
        err_lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
        assert err_lines
        for line in err_lines:
            payload = json.loads(line)
            assert payload["logger"].startswith("repro")
            assert "msg" in payload

    def test_log_level_error_silences_progress(self, capsys):
        code = main(
            ["--log-level", "error", "run", *CLI_WORLD, "--annotate", "200"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "building world" not in captured.err
        assert "== selection" in captured.out  # stdout output unaffected
