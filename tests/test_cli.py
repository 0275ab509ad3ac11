"""Tests for the command-line interface and text renderers."""

import os
import re
import signal

import pytest

from repro import build_world
from repro.chaos import SignalInterrupt, graceful_signals
from repro.cli import build_parser, main
from repro.core.report_text import (
    render_digest,
    render_earnings,
    render_table1,
    render_table5,
    render_table7,
    render_table8,
)
from repro.store import RunStore
from repro.web import SimulatedInternet

CLI_WORLD = ["--seed", "3", "--scale", "0.006"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_build_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["build"])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.seed == 7
        assert args.scale == 0.02
        assert args.annotate == 1000
        assert args.fault_profile is None
        assert args.payload_profile is None
        assert args.lenient is False

    def test_payload_profile_choices(self):
        args = build_parser().parse_args(["run", "--payload-profile", "hostile"])
        assert args.payload_profile == "hostile"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--payload-profile", "bogus"])

    def test_fault_profile_choices(self):
        args = build_parser().parse_args(["run", "--fault-profile", "flaky"])
        assert args.fault_profile == "flaky"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--fault-profile", "bogus"])

    def test_lenient_flag(self):
        args = build_parser().parse_args(["run", "--lenient"])
        assert args.lenient is True

    @pytest.mark.parametrize("flag, value, base", [
        ("--epoch-total", "3", "--store"), ("--drift-epoch", "2", "--drift-profile")])
    def test_modifier_without_its_base_flag_is_refused(self, flag, value, base):
        with pytest.raises(SystemExit, match=f"{flag} requires {base}"):
            main(["run", *CLI_WORLD, flag, value])


class TestRenderers:
    def test_table1_totals_line(self, report):
        text = render_table1(report)
        assert "TOTAL" in text
        assert "Hackforums" in text

    def test_table5_groups(self, report):
        text = render_table5(report)
        assert "packs" in text and "previews" in text

    def test_table7_currencies(self, report):
        text = render_table7(report.currency_exchange)
        for currency in ("PayPal", "BTC", "AGC"):
            assert currency in text

    def test_table8_rows(self, report):
        text = render_table8(report)
        assert ">= 1" in text and ">= 1000" in text

    def test_earnings_block(self, report):
        text = render_earnings(report.earnings)
        assert "mean transaction" in text

    def test_digest_contains_all_sections(self, report):
        digest = render_digest(report)
        for marker in ("§3", "§4.1", "§4.2", "§4.3", "§4.4", "§4.5", "§5", "§6"):
            assert marker in digest

    def test_digest_states_funnel_counts_once(self, report):
        """§4.2 and §4.4 print only what the funnel rows lack."""
        lines = render_digest(report).splitlines()
        links, crawl = report.links, report.crawl
        assert lines[lines.index("== crawl (§4.2) ==") + 1] == (
            f"links {len(links.preview_links)} previews, {len(links.pack_links)} packs; "
            f"downloads {len(crawl.preview_images)} previews, "
            f"{len(crawl.packs)} packs / {len(crawl.pack_images)} images")
        share = report.n_nsfv_previews / len(report.preview_verdicts)
        assert lines[lines.index("== NSFV (§4.4) ==") + 1] == (
            f"NSFV share of downloaded previews: {share:.1%}")
        funnel = {row["stage"]: row["count"] for row in report.telemetry.funnel()}
        for stage in ("unique_files", "nsfv_previews"):
            assert re.search(rf"^{stage} +{funnel[stage]:,}\b", "\n".join(lines), re.M)


@pytest.mark.slow
class TestCommands:
    def test_build_round_trip(self, tmp_path, capsys):
        out = tmp_path / "world.sqlite"
        code = main(["build", *CLI_WORLD, "--out", str(out)])
        assert code == 0
        with RunStore(out) as store:
            dataset = store.read_dataset()
        assert dataset.n_posts > 100
        # The store holds the world's records exactly (read in id order).
        built = build_world(seed=3, scale=0.006).dataset
        for records in ("forums", "boards", "actors", "threads", "posts"):
            assert set(getattr(dataset, records)()) == set(getattr(built, records)())

    def test_run_prints_digest(self, capsys):
        code = main(["run", *CLI_WORLD, "--annotate", "200"])
        assert code == 0
        output = capsys.readouterr().out
        assert "== selection (§3) ==" in output
        assert "key actors:" in output

    def test_run_with_fault_profile(self, capsys):
        code = main(
            ["run", *CLI_WORLD, "--annotate", "200", "--fault-profile", "flaky"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "-- crawl resilience --" in output
        assert re.search(r"^crawl: \d+ retries, \d+ giveups, ", output, re.M)

    def test_run_with_payload_profile_reports_quarantine(self, capsys):
        code = main(
            ["run", *CLI_WORLD, "--annotate", "200", "--payload-profile", "hostile"]
        )
        assert code == 0
        output = capsys.readouterr().out
        # the run still completes and renders the digest ...
        assert "== selection (§3) ==" in output
        # ... whose quarantine section carries the ledger
        assert "== quarantine (record-level faults) ==" in output
        assert "records quarantined" in output

    @pytest.mark.parametrize("payload_profile", [None, "hostile"])
    def test_run_prints_each_section_once(self, capsys, payload_profile):
        argv = ["run", *CLI_WORLD, "--annotate", "200"]
        if payload_profile is not None:
            argv += ["--payload-profile", payload_profile]
        assert main(argv) == 0
        captured = capsys.readouterr()
        output = captured.out
        # ``== name ==`` (digest) or ``-- name --`` (resilience summary).
        headers = [
            line for line in output.splitlines()
            if re.match(r"^(==|--) .+ (==|--)$", line)
        ]
        assert len(headers) == len(set(headers)), headers
        assert headers.count("== telemetry (DESIGN.md §9) ==") == 1
        assert headers.count("-- crawl resilience --") == 1
        quarantined = payload_profile is not None
        assert headers.count("== quarantine (record-level faults) ==") == int(quarantined)
        assert "-- quarantine --" not in headers
        assert "-- telemetry --" not in headers
        assert output.count("records quarantined") == int(quarantined)
        # Each fact once across the report and the log: no count below the
        # funnel table repeats a funnel row, and each other count prints once.
        everything = output + captured.err
        assert everything.count("metrics: ") == 1
        assert "funnel: " not in everything
        below_funnel = output.split("quarantined_records", 1)[1]
        assert not re.search(r"\d+ (links|records)\b", below_funnel)
        for label in ("retries", "giveups", "breaker skips", "transient faults",
                      "domains", "open", "opens", "hits", "misses", "entries"):
            assert len(re.findall(rf"\b\d+ {label}\b", everything)) == 1, label

    def test_tables_writes_files(self, tmp_path, capsys):
        out = tmp_path / "tables"
        code = main(["run", *CLI_WORLD, "--annotate", "200", "--out", str(out)])
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert {"table1_forums.txt", "digest.txt"} <= names


class TestGracefulInterruption:
    """SIGINT/SIGTERM mid-run: a typed exit code and no partial artifact.

    Re-running the command is the recovery, so all an interrupted run
    must leave behind is nothing half-written (DESIGN.md §13).
    """

    @pytest.mark.slow
    @pytest.mark.parametrize("signum, code", [
        (signal.SIGINT, 130), (signal.SIGTERM, 143)], ids=["sigint", "sigterm"])
    def test_signal_mid_crawl_leaves_no_trace(
        self, tmp_path, monkeypatch, signum, code
    ):
        fetch = SimulatedInternet.fetch
        calls = []

        def interrupting_fetch(self, url, attempt=0):
            calls.append(url)
            if len(calls) == 3:
                os.kill(os.getpid(), signum)
            return fetch(self, url, attempt=attempt)

        monkeypatch.setattr(SimulatedInternet, "fetch", interrupting_fetch)
        trace = tmp_path / "t.jsonl"
        assert main(["run", *CLI_WORLD, "--annotate", "200",
                     "--trace-out", str(trace)]) == code
        assert len(calls) == 3
        assert not trace.exists()
        assert not trace.with_name("t.jsonl.tmp").exists()

    def test_graceful_signals_restores_handlers(self):
        before = signal.getsignal(signal.SIGINT)
        with graceful_signals():
            assert signal.getsignal(signal.SIGINT) is not before
        assert signal.getsignal(signal.SIGINT) is before

    def test_signal_interrupt_is_not_an_exception_subclass(self):
        # BaseException, so lenient stage boundaries can't absorb it —
        # an interrupted run stops, it doesn't half-continue.
        assert not issubclass(SignalInterrupt, Exception)
