"""CLI-level tests for the telemetry surface: --trace-out / repro trace."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.cli import main
from repro.obs import Tracer
from repro.obs.export import MANIFEST_KEYS, TRACE_SCHEMA_VERSION, read_trace, write_trace

#: Tiny world so each CLI invocation stays fast.
CLI_WORLD = ["--seed", "3", "--scale", "0.006"]


class TestTraceOut:
    def test_run_writes_trace_and_manifest(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(["run", *CLI_WORLD, "--annotate", "200",
                     "--trace-out", str(trace)]) == 0
        # One file: the trace's header line is the run manifest.
        assert [p.name for p in tmp_path.iterdir()] == ["run.jsonl"]
        header, *spans = [json.loads(line) for line in trace.read_text().splitlines()]
        assert set(header) == {*MANIFEST_KEYS, "type", "kind", "schema_version",
                               "created_unix"}
        assert (header["type"], header["kind"], header["schema_version"]) == (
            "meta", "repro.trace", TRACE_SCHEMA_VERSION
        )
        assert header["seed"] == 3 and header["config"]["scale"] == 0.006
        assert len(spans) > 4 and all(r["type"] == "span" for r in spans)
        funnel = {row["stage"]: row["count"] for row in header["funnel"]}
        assert funnel["threads_selected"] > 0 and funnel["unique_files"] > 0

    def test_trace_meta_is_self_describing(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        main(["run", *CLI_WORLD, "--annotate", "200", "--trace-out", str(trace)])
        meta, spans = read_trace(trace)
        assert meta["funnel"], "meta must embed the funnel"
        assert meta["stages"], "meta must embed the stage table"
        assert {s["name"] for s in spans} >= {"pipeline.run", "stage.url_crawl"}

    def test_trace_subcommand_renders(self, tmp_path, capsys, v1_trace, v2_trace):
        trace = tmp_path / "run.jsonl"
        main(["run", *CLI_WORLD, "--annotate", "200", "--trace-out", str(trace)])
        capsys.readouterr()  # drop the run output
        for path in (trace, v2_trace, v1_trace):
            code = main(["trace", str(path)])
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


class TestClosedStdout:
    def test_trace_into_a_reader_that_closes_early(self, tmp_path):
        """``repro trace t.jsonl | head`` ends quietly: the reader takes
        one line and closes the pipe while the render is still being
        written, and no traceback reaches stderr."""
        tracer = Tracer()
        with tracer.span("pipeline.run"):
            for i in range(3000):
                with tracer.span(f"stage.s{i}"):
                    pass
        path = write_trace(tmp_path / "t.jsonl", tracer.spans(), meta={"seed": 3})
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "trace", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in stderr and "BrokenPipeError" not in stderr
