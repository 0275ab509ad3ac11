"""Command-line interface for the reproduction.

Six subcommands:

* ``repro build``  — generate a synthetic world and save its forum
  dataset as a SQLite run store (the corpus tables ``run --store``
  persists; check it with ``repro store verify``);
* ``repro run``    — generate a world, run the full pipeline, print the
  measurement digest (optionally writing each table to a directory
  with ``--out`` and a span trace via ``--trace-out``, whose header is
  the run manifest);
* ``repro drift``  — the adversarial-drift decay experiment: per-stage
  recall/precision by epoch, defenses off vs on;
* ``repro trace``  — render a previously written trace file as a
  per-stage flame summary and funnel table;
* ``repro store``  — crash-recovery tooling for persistent run stores:
  ``verify`` (integrity probe + watermark/fingerprint report, typed
  exit codes) and ``repair`` (salvage the committed prefix of a
  damaged store);
* ``repro obs``    — cross-run observability over the history tables a
  store-backed run records (DESIGN.md §14): ``runs`` (history table),
  ``top`` (hottest spans by self-time/CPU/RSS), ``diff`` (deltas
  between two runs), ``ingest-trace`` (fold a trace file into the
  history).

Examples::

    repro run --seed 7 --scale 0.02
    repro run --trace-out trace.jsonl            # spans under a run-manifest header
    repro run --profile --store store.sqlite     # resource-profiled run, history persisted
    repro trace trace.jsonl
    repro --log-level debug --log-json run --seed 7
    repro run --fault-profile flaky                   # unreliable network, retried crawl
    repro run --fault-profile hostile --lenient       # degrade instead of aborting
    repro run --payload-profile hostile               # corrupt payloads, quarantined per record
    repro run --drift-profile aggressive --drift-epoch 2   # measure a drifted world
    repro drift --profile hostile --epochs 2 --out drift.json
    repro build --seed 11 --scale 0.05 --out world.sqlite
    repro run --seed 11 --scale 0.05 --out results/   # + the table files
    repro store verify store.sqlite                   # post-crash health probe
    repro store repair store.sqlite                   # salvage committed epochs
    repro obs runs --store store.sqlite               # wall/CPU/RSS/funnel per run
    repro obs top --store store.sqlite --by cpu       # hottest spans of the latest run
    repro obs diff 1 2 --store store.sqlite           # metric/funnel deltas

Progress goes through :mod:`repro.obs.log` (structured ``logging`` on
stderr, JSON with ``--log-json``); measurement output stays on stdout.

Interruption contract (DESIGN.md §13): SIGINT/SIGTERM during ``run``
rolls back any open store epoch transaction (the store stays at its
previous watermark), closes the store cleanly, leaves no partial
artifact and exits with the conventional distinct code ``128 +
signum`` (130 for SIGINT, 143 for SIGTERM).  Re-running the same
command is the recovery: a run is rebuilt from its seed, so the re-run
is exactly the run that was interrupted.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from . import build_world, run_pipeline
from .atomicio import atomic_write_text
from .chaos import SignalInterrupt, graceful_signals, install_from_env
from .obs import RunTelemetry, Tracer, get_logger, setup_logging
from .obs.export import build_manifest, read_trace, render_trace, write_trace
from .drift.profiles import DRIFT_PROFILES
from .web.faults import FAULT_PROFILES
from .web.payload_faults import PAYLOAD_PROFILES
from .core.report_text import (
    render_digest,
    render_earnings,
    render_table1,
    render_table5,
    render_table7,
    render_table8,
    render_telemetry,
)

__all__ = ["build_parser", "main"]

_LOG_LEVELS = ("debug", "info", "warning", "error")


def _nonneg_int(value: str) -> int:
    parsed = int(value)
    if parsed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {parsed}")
    return parsed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Measuring eWhoring' (IMC 2019) on a synthetic substrate.",
    )
    parser.add_argument(
        "--log-level", choices=_LOG_LEVELS, default="info",
        help="stderr logging level (default info)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit log lines as JSON objects instead of human-readable text",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_world_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=7, help="world seed (default 7)")
        p.add_argument(
            "--scale", type=float, default=0.02,
            help="fraction of the paper's population sizes (default 0.02)",
        )

    p_build = sub.add_parser("build", help="generate a world and save the dataset")
    add_world_args(p_build)
    p_build.add_argument("--out", type=Path, required=True, help="output run-store path")

    p_run = sub.add_parser("run", help="run the full measurement and print the digest")
    add_world_args(p_run)
    p_run.add_argument("--annotate", type=int, default=1000,
                       help="annotation sample size (default 1000)")
    p_run.add_argument("--out", type=Path, default=None,
                       help="also write table files into this directory")
    p_run.add_argument(
        "--trace-out", type=Path, default=None, metavar="TRACE",
        help="enable span tracing and write the JSONL trace here, its "
             "header line the run manifest; view it with "
             "'repro trace TRACE'",
    )
    p_run.add_argument(
        "--profile", action="store_true",
        help="enable the resource profiler: per-span CPU time and peak "
             "RSS on every span; measurement output stays bit-identical "
             "(profile data is outside the determinism contract)",
    )
    p_run.add_argument(
        "--profile-alloc", action="store_true",
        help="like --profile, additionally tracking tracemalloc "
             "allocation deltas per pipeline stage (slower)",
    )
    p_run.add_argument(
        "--fault-profile", choices=sorted(FAULT_PROFILES), default=None,
        help="inject transient fetch faults (timeouts/rate limits/5xx) "
             "from this named profile",
    )
    p_run.add_argument(
        "--payload-profile", choices=sorted(PAYLOAD_PROFILES), default=None,
        help="serve corrupt payloads (truncated/NaN/decoy/... rasters) "
             "from this named profile; poison records are quarantined "
             "per record, never allowed to poison the measurement",
    )
    p_run.add_argument(
        "--drift-profile", choices=sorted(DRIFT_PROFILES), default=None,
        help="apply this adversarial-drift scenario to the world before "
             "measuring (see 'repro drift' for the decay experiment)",
    )
    p_run.add_argument(
        "--drift-epoch", type=_nonneg_int, default=None, metavar="E",
        help="how many drift epochs to apply (requires --drift-profile; "
             "default 1; 0 = build the world but mutate nothing)",
    )
    p_run.add_argument(
        "--lenient", action="store_true",
        help="degrade gracefully on stage failures (strict=False) instead "
             "of aborting the measurement",
    )
    p_run.add_argument(
        "--store", type=Path, default=None, metavar="STORE",
        help="persist this run into a SQLite run store and reuse every "
             "memo it already holds; repeated runs with increasing "
             "--epoch become watermark-based delta runs, bit-identical "
             "to a cold run over the union",
    )
    p_run.add_argument(
        "--epoch", type=int, default=None, metavar="E",
        help="observation epoch to measure (1..EPOCH_TOTAL; requires "
             "--store; default: the full timeline)",
    )
    p_run.add_argument(
        "--epoch-total", type=int, default=None, metavar="N",
        help="number of equal-population observation epochs the world's "
             "timeline is divided into (requires --store; default 1)",
    )

    p_drift = sub.add_parser(
        "drift",
        help="run the adversarial-drift decay experiment (per-stage "
             "recall/precision by epoch, defenses off vs on)",
    )
    add_world_args(p_drift)
    p_drift.add_argument(
        "--profile", choices=sorted(DRIFT_PROFILES), default="aggressive",
        help="drift scenario to run (default aggressive)",
    )
    p_drift.add_argument(
        "--epochs", type=_nonneg_int, default=2,
        help="drift epochs to measure beyond the baseline (default 2)",
    )
    p_drift.add_argument(
        "--defenses", choices=("off", "on", "both"), default="both",
        help="run the static instrument (off), the adaptive one (on), "
             "or both for comparison (default both)",
    )
    p_drift.add_argument(
        "--out", type=Path, default=None,
        help="write the full decay report as JSON here",
    )

    p_trace = sub.add_parser(
        "trace", help="render a trace file written by 'run --trace-out'"
    )
    p_trace.add_argument("path", type=Path, help="trace JSONL path")
    p_trace.add_argument(
        "--max-depth", type=int, default=6,
        help="flame-summary nesting depth (default 6)",
    )

    p_store = sub.add_parser(
        "store",
        help="inspect and repair persistent run stores (crash recovery)",
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_verify = store_sub.add_parser(
        "verify",
        help="integrity probe + watermark/fingerprint report; exit 0 ok, "
             "3 corrupt, 4 config mismatch",
    )
    p_verify.add_argument("path", type=Path, help="store file to probe")
    p_verify.add_argument(
        "--shallow", action="store_true",
        help="skip the full corpus re-validation (page-level probe only)",
    )
    p_repair = store_sub.add_parser(
        "repair",
        help="salvage the committed epochs of a damaged store (torn WAL "
             "drop, then row-level rebuild); refuses when the committed "
             "prefix is unrecoverable",
    )
    p_repair.add_argument("path", type=Path, help="store file to repair")
    p_repair.add_argument(
        "--shallow", action="store_true",
        help="skip the full corpus re-validation in the post-repair verify",
    )
    p_repair.add_argument(
        "--no-backup", action="store_true",
        help="do not keep the damaged original as <store>.corrupt",
    )

    p_obs = sub.add_parser(
        "obs",
        help="cross-run observability: query the run history a store "
             "accumulates, profile hot spans",
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    def add_store_arg(p: argparse.ArgumentParser, required: bool = True) -> None:
        p.add_argument(
            "--store", type=Path, required=required, metavar="STORE",
            help="run store holding the history tables",
        )

    p_obs_runs = obs_sub.add_parser(
        "runs", help="run-history table: wall/CPU time, RSS, records, funnel"
    )
    add_store_arg(p_obs_runs)
    p_obs_runs.add_argument(
        "--limit", type=_nonneg_int, default=0, metavar="N",
        help="show only the newest N rows (default: all)",
    )

    p_obs_top = obs_sub.add_parser(
        "top", help="hottest spans of a run by self-time / CPU / RSS"
    )
    add_store_arg(p_obs_top, required=False)
    p_obs_top.add_argument(
        "--trace", type=Path, default=None, metavar="TRACE",
        help="summarise this trace file instead of a store history row",
    )
    p_obs_top.add_argument(
        "--run", type=int, default=None, metavar="ID",
        help="history row to summarise (default: the latest)",
    )
    p_obs_top.add_argument(
        "--by", choices=("self", "total", "cpu", "rss", "alloc"),
        default="self", help="ranking dimension (default self-time)",
    )
    p_obs_top.add_argument(
        "-n", "--top", type=_nonneg_int, default=15, metavar="N",
        help="rows to show (default 15)",
    )

    p_obs_diff = obs_sub.add_parser(
        "diff", help="metric/funnel/resource deltas between two history rows"
    )
    p_obs_diff.add_argument("run_a", type=int, help="baseline history id")
    p_obs_diff.add_argument("run_b", type=int, help="candidate history id")
    add_store_arg(p_obs_diff)
    p_obs_diff.add_argument(
        "--threshold", type=float, default=0.10, metavar="F",
        help="relative change flagged as notable (default 0.10)",
    )

    p_obs_trace = obs_sub.add_parser(
        "ingest-trace",
        help="summarise a trace file into the store's history tables",
    )
    p_obs_trace.add_argument("path", type=Path, help="trace JSONL path")
    add_store_arg(p_obs_trace)
    p_obs_trace.add_argument(
        "--label", default=None, help="history label (default: the path)"
    )

    return parser


def _write_tables(report, out_dir: Path) -> list:
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = {
        "table1_forums": render_table1(report),
        "table5_reverse": render_table5(report),
        "table7_currency": render_table7(report.currency_exchange),
        "table8_actors": render_table8(report),
        "earnings": render_earnings(report.earnings),
        "digest": render_digest(report),
    }
    written = []
    for name, text in tables.items():
        written.append(atomic_write_text(out_dir / f"{name}.txt", text + "\n"))
    return written


def _resilience_summary(report) -> str:
    """Crawl-resilience and stage-boundary lines for the ``run`` command.

    The retry and breaker counts are read from the run's metrics
    registry, their one home; only the breakers still open at crawl end
    and the retried links come from the crawl result itself.
    """
    lines = ["-- crawl resilience --"]
    crawl = report.crawl
    if crawl is not None:
        metrics = report.telemetry.metrics
        lines.append(
            f"crawl: {metrics.value('crawl.retries')} retries, "
            f"{metrics.value('crawl.giveups')} giveups, "
            f"{metrics.value('crawl.breaker_skips')} breaker skips, "
            f"{metrics.value('crawl.transient_faults')} transient faults"
        )
        if crawl.breaker_summary is not None:
            lines.append(
                f"breakers: {metrics.value('crawl.breaker_domains')} domains, "
                f"{crawl.breaker_summary['n_open']} open, "
                f"{metrics.value('crawl.breaker_opens')} opens"
            )
        if crawl.attempt_logs:
            lines.append(f"links that needed the retry machinery: "
                         f"{len(crawl.attempt_logs)}")
    else:
        lines.append("crawl unavailable (stage failed or skipped)")
    lines.append("-- stage boundaries --")
    lines.extend(_stage_boundary_lines(report.stage_outcomes))
    return "\n".join(lines)


def _stage_boundary_lines(outcomes) -> list:
    """One line per stage of a degraded run, else a one-line all-clear."""
    if not outcomes:
        return ["no stage records"]
    if all(outcome.ok for outcome in outcomes):
        return [f"all {len(outcomes)} stages completed"]
    lines = []
    for outcome in outcomes:
        if outcome.status == "failed" and outcome.failure is not None:
            lines.append(f"FAILED  {outcome.failure.summary()}")
        elif outcome.status == "skipped":
            line = f"skipped {outcome.stage} (requires {outcome.skipped_due_to}"
            if (
                outcome.root_cause is not None
                and outcome.root_cause != outcome.skipped_due_to
            ):
                line += f"; root cause {outcome.root_cause}"
            lines.append(line + ")")
        else:
            lines.append(f"ok      {outcome.stage} [{outcome.elapsed:.2f}s]")
    return lines


def _print_run_report(report, log) -> None:
    """Print a ``run`` report, every section once.

    The digest ends with the quarantine and telemetry sections (the
    latter carries the vision-cache line); a degraded run has no digest,
    so those print on their own after the resilience summary.
    """
    if not report.degraded:
        print(render_digest(report))
        print(_resilience_summary(report))
        return
    log.warning("measurement DEGRADED: some sections unavailable")
    print(_resilience_summary(report))
    print("-- quarantine --")
    if report.quarantine is not None:
        print("\n".join(report.quarantine.summary_lines()))
    else:
        print("no quarantine ledger recorded")
    print("-- telemetry --")
    print(render_telemetry(report))


def _write_trace(args, report, telemetry, log) -> None:
    """Write a traced ``run``'s JSONL trace, the run manifest its header."""
    config = {
        "scale": args.scale,
        "annotate": args.annotate,
        "fault_profile": args.fault_profile,
        "payload_profile": args.payload_profile,
        "drift_profile": args.drift_profile,
        "drift_epoch": args.drift_epoch,
        "lenient": bool(args.lenient),
    }
    spans = telemetry.tracer.spans()
    trace_path = write_trace(
        args.trace_out, spans,
        meta=build_manifest(report, seed=args.seed, config=config),
    )
    log.info(
        "wrote trace %s (%d spans, %d events)",
        trace_path, len(spans), telemetry.tracer.n_events,
    )


def _make_run_telemetry(args) -> RunTelemetry:
    """Telemetry for a ``run`` command: plain, traced, or profiled.

    A started :class:`~repro.obs.ProfilingTracer` when ``--profile`` /
    ``--profile-alloc`` was passed (tracing implied), a plain
    :class:`Tracer` for ``--trace-out``, else the zero-cost default.
    """
    if args.profile or args.profile_alloc:
        from .obs import ProfilingTracer

        tracer = ProfilingTracer(allocations=args.profile_alloc)
        tracer.start()
        return RunTelemetry(tracer=tracer)
    if args.trace_out is not None:
        return RunTelemetry(tracer=Tracer())
    return RunTelemetry()


def _stop_profile(telemetry) -> None:
    """Release a profiling tracer's tracemalloc (no-op otherwise)."""
    if getattr(telemetry.tracer, "profiled", False):
        telemetry.tracer.stop()


def _print_profile(telemetry, top_n: int = 8) -> None:
    """Print the hot-span summary of a (stopped) profiling tracer."""
    tracer = telemetry.tracer
    if not getattr(tracer, "profiled", False):
        return
    from .obs import aggregate_spans
    from .obs.profile import rss_peak_kb

    print("-- profile --")
    print(f"peak RSS: {rss_peak_kb() / 1024:.1f} MiB")
    rows = aggregate_spans([s.as_dict() for s in tracer.spans()])
    _print_span_table(rows, "self", top_n)


def _run_drift_command(args, log) -> int:
    """The ``repro drift`` decay experiment (defenses off vs on)."""
    import json

    from .drift import DefenseConfig, STAGE_NAMES, run_drift

    configs = []
    if args.defenses in ("off", "both"):
        configs.append(("defenses_off", DefenseConfig.none()))
    if args.defenses in ("on", "both"):
        configs.append(("defenses_on", DefenseConfig.full()))

    payload = {
        "profile": args.profile,
        "seed": args.seed,
        "scale": args.scale,
        "epochs": args.epochs,
        "runs": {},
    }
    for key, defense_config in configs:
        log.info(
            "drift experiment: profile=%s epochs=%d %s",
            args.profile, args.epochs, key,
        )
        start = time.perf_counter()
        report = run_drift(
            args.profile,
            epochs=args.epochs,
            seed=args.seed,
            scale=args.scale,
            defenses=defense_config,
        )
        log.info("%s done [%.1fs]", key, time.perf_counter() - start)
        payload["runs"][key] = report.as_dict()
        print(f"-- drift {args.profile} / {key.replace('_', ' ')} --")
        print(f"{'stage':<12} " + " ".join(f"epoch{e:>2}" for e in range(args.epochs + 1)))
        for stage in STAGE_NAMES:
            curve = report.recall_curve(stage)
            print(f"{stage:<12} " + " ".join(f"{value:7.3f}" for value in curve))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.out}")
    return 0


def _run_store_command(args, log) -> int:
    """``repro run --store PATH [--epoch E --epoch-total N]``.

    Creates (or extends) a persistent run store and executes one
    watermark-delta pipeline run against it; results are bit-identical
    to a storeless cold run over the same observation epoch.
    """
    from .store import StoreError, run_incremental
    from .synth.world import WorldConfig

    config = WorldConfig(
        seed=args.seed,
        scale=args.scale,
        fault_profile=args.fault_profile,
        payload_profile=args.payload_profile,
        drift_profile=args.drift_profile,
        drift_epoch=args.drift_epoch,
        epoch_total=args.epoch_total if args.epoch_total is not None else 1,
    )
    telemetry = _make_run_telemetry(args)
    log.info(
        "store run: %s epoch=%s/%d",
        args.store, args.epoch if args.epoch is not None else "full",
        config.epoch_total,
    )
    start = time.perf_counter()
    try:
        result = run_incremental(
            args.store,
            epoch=args.epoch,
            config=config,
            annotate_n=args.annotate,
            strict=not args.lenient,
            telemetry=telemetry,
        )
    except StoreError as exc:
        log.error("store run refused: %s", exc)
        return 2
    finally:
        _stop_profile(telemetry)
    report = result.report
    log.info(
        "store run done [%.1fs]: epoch %d/%d, run #%d (history #%s), "
        "%d dataset rows appended, store %.1f MiB",
        time.perf_counter() - start, result.epoch, result.epoch_total,
        result.run_id, result.history_id, result.rows_added,
        result.store_size_bytes / (1024 * 1024),
    )
    _print_run_report(report, log)
    _print_profile(telemetry)
    if args.trace_out is not None:
        _write_trace(args, report, telemetry, log)
    if args.out is not None and not report.degraded:
        for path in _write_tables(report, args.out):
            log.info("wrote %s", path)
    return 0


def _run_store_tool(args, log) -> int:
    """``repro store verify|repair`` — typed exit codes throughout.

    0 = healthy (or repaired); :data:`~repro.store.EXIT_CORRUPT` (3) =
    damaged / unrecoverable; :data:`~repro.store.EXIT_CONFIG` (4) = the
    file is intact but disagrees with its own bookkeeping or config.
    """
    from .store import (
        EXIT_CONFIG,
        EXIT_CORRUPT,
        StoreConfigError,
        StoreCorruptionError,
        repair_store,
        verify_store,
    )

    deep = not args.shallow
    try:
        if args.store_command == "verify":
            report = verify_store(args.path, deep=deep)
            print("\n".join(report.summary_lines()))
            print("store OK")
        else:
            result = repair_store(
                args.path, deep=deep, backup=not args.no_backup
            )
            print("\n".join(result.summary_lines()))
            if result.repaired:
                log.info("repaired %s (%d actions)", args.path, len(result.actions))
        return 0
    except StoreConfigError as exc:
        log.error("store %s failed: %s", args.store_command, exc)
        return EXIT_CONFIG
    except StoreCorruptionError as exc:
        log.error("store %s failed: %s", args.store_command, exc)
        return EXIT_CORRUPT


def _save_built_world(world, path: Path, log) -> int:
    """``repro build --out``: the world's corpus into a run store.

    Exit codes as in :func:`_run_store_tool`: a store bound to another
    world config exits :data:`~repro.store.EXIT_CONFIG`, a damaged one
    :data:`~repro.store.EXIT_CORRUPT`.
    """
    from .store import (
        EXIT_CONFIG,
        EXIT_CORRUPT,
        RunStore,
        StoreConfigError,
        StoreCorruptionError,
    )

    try:
        with RunStore(path) as store:
            store.bind_config(world.config)
            n_records = store.append_dataset(world.dataset)
    except StoreConfigError as exc:
        log.error("build failed: %s", exc)
        return EXIT_CONFIG
    except StoreCorruptionError as exc:
        log.error("build failed: %s", exc)
        return EXIT_CORRUPT
    print(f"wrote {n_records} records to {path}")
    return 0


def _fmt_opt(value, fmt: str, missing: str = "-") -> str:
    return missing if value is None else format(value, fmt)


def _print_span_table(rows, by: str, top_n: int) -> None:
    """The ``repro obs top`` table over aggregate span rows."""
    sort_keys = {
        "self": lambda r: r["self_seconds"],
        "total": lambda r: r["total_seconds"],
        "cpu": lambda r: r.get("cpu_seconds") or 0.0,
        "rss": lambda r: r.get("rss_peak_kb") or 0,
        "alloc": lambda r: r.get("alloc_kb") or 0.0,
    }
    rows = sorted(rows, key=sort_keys[by], reverse=True)
    if top_n:
        rows = rows[:top_n]
    print(f"{'span':<32} {'count':>7} {'self':>9} {'total':>9} "
          f"{'max':>9} {'cpu':>9} {'rss MiB':>8} {'alloc kB':>9} {'err':>4}")
    for row in rows:
        rss = row.get("rss_peak_kb")
        print(
            f"{row['name'][:32]:<32} {row['count']:>7} "
            f"{row['self_seconds']:>8.3f}s {row['total_seconds']:>8.3f}s "
            f"{row['max_seconds']:>8.3f}s "
            f"{_fmt_opt(row.get('cpu_seconds'), '8.3f', '       -')}"
            f"{'s' if row.get('cpu_seconds') is not None else ' '} "
            f"{_fmt_opt(None if rss is None else rss / 1024, '8.1f', '       -')} "
            f"{_fmt_opt(row.get('alloc_kb'), '9.1f', '        -')} "
            f"{row['errors']:>4}"
        )


def _run_obs_command(args, log) -> int:
    """``repro obs runs|top|diff|ingest-trace``.

    Exit codes: 0 ok; 2 usage/value error; 3 corrupt store; 4 config
    mismatch.
    """
    from .obs.history import diff_histories, record_history, summarize_trace
    from .store import (
        EXIT_CONFIG,
        EXIT_CORRUPT,
        RunStore,
        StoreConfigError,
        StoreCorruptionError,
    )

    cmd = args.obs_command

    # `obs top --trace` works without any store at all.
    if cmd == "top" and args.trace is not None:
        try:
            summary = summarize_trace(args.trace)
        except (OSError, ValueError) as exc:
            log.error("obs top: cannot read trace %s: %s", args.trace, exc)
            return 2
        print(f"trace {args.trace}: {summary.n_spans} spans, "
              f"{'profiled' if summary.profiled else 'unprofiled'}")
        _print_span_table(summary.spans, args.by, args.top)
        return 0
    if cmd == "top" and args.store is None:
        log.error("obs top needs --store or --trace")
        return 2

    try:
        store = RunStore(args.store)
    except StoreCorruptionError as exc:
        log.error("obs %s: %s", cmd, exc)
        return EXIT_CORRUPT

    with store:
        try:
            if cmd == "runs":
                runs = store.history_runs()
                if args.limit:
                    runs = runs[-args.limit:]
                if not runs:
                    print("no run history recorded "
                          "(run with --store, or obs ingest-trace)")
                    return 0
                print(f"{'id':>4} {'run':>4} {'epoch':>5} {'wall':>8} "
                      f"{'cpu':>8} {'rss MiB':>8} {'spans':>6} "
                      f"{'records':>8} {'quar':>5} {'prof':>4} "
                      f"{'cpus':>4}  label")
                for run in runs:
                    rss = run.get("peak_rss_kb")
                    print(
                        f"{run['history_id']:>4} "
                        f"{_fmt_opt(run.get('run_id'), '>4'):>4} "
                        f"{_fmt_opt(run.get('epoch'), '>5'):>5} "
                        f"{_fmt_opt(run.get('wall_seconds'), '7.2f', '      -')}"
                        f"{'s' if run.get('wall_seconds') is not None else ' '} "
                        f"{_fmt_opt(run.get('cpu_seconds'), '7.2f', '      -')}"
                        f"{'s' if run.get('cpu_seconds') is not None else ' '} "
                        f"{_fmt_opt(None if rss is None else rss / 1024, '8.1f', '       -')} "
                        f"{run['n_spans']:>6} "
                        f"{_fmt_opt(run.get('n_records'), '>8'):>8} "
                        f"{_fmt_opt(run.get('n_quarantined'), '>5'):>5} "
                        f"{'yes' if run.get('profiled') else '-':>4} "
                        f"{_fmt_opt(run.get('cpu_count'), '>4'):>4}  "
                        f"{run.get('label') or run.get('source')}"
                    )
                return 0

            if cmd == "top":
                runs = store.history_runs()
                if not runs:
                    log.error("obs top: store has no run history")
                    return 2
                history_id = args.run if args.run is not None else (
                    runs[-1]["history_id"]
                )
                if history_id not in {r["history_id"] for r in runs}:
                    log.error("obs top: history #%d not found", history_id)
                    return 2
                rows = store.history_spans(history_id)
                print(f"history #{history_id}: {len(rows)} span names")
                _print_span_table(rows, args.by, args.top)
                return 0

            if cmd == "diff":
                rows = diff_histories(
                    store, args.run_a, args.run_b, threshold=args.threshold
                )
                flagged = [r for r in rows if r["flagged"]]
                print(f"history #{args.run_a} -> #{args.run_b}: "
                      f"{len(flagged)} of {len(rows)} quantities changed "
                      f"beyond ±{args.threshold:.0%}")
                by_id = {r["history_id"]: r for r in store.history_runs()}
                machines = [
                    f"#{hid} on {_fmt_opt(by_id[hid].get('cpu_count'), '>1')}"
                    for hid in (args.run_a, args.run_b) if hid in by_id
                ]
                if machines:
                    print("cpus: " + " vs ".join(machines))
                print(f"{'':>2} {'kind':<9} {'name':<36} {'a':>12} "
                      f"{'b':>12} {'ratio':>7}")
                for row in rows:
                    if not row["flagged"] and flagged:
                        continue  # flagged-only view when anything changed
                    mark = "!" if row["flagged"] else " "
                    ratio = _fmt_opt(row.get("ratio"), "7.3f")
                    if not row["comparable"]:
                        ratio = "n/c"  # the two rows define it differently
                    print(
                        f"{mark:>2} {row['kind']:<9} {row['name'][:36]:<36} "
                        f"{_fmt_opt(row.get('a'), '>12.6g'):>12} "
                        f"{_fmt_opt(row.get('b'), '>12.6g'):>12} "
                        f"{ratio:>7}"
                    )
                return 0

            # ingest-trace
            summary = summarize_trace(args.path, label=args.label)
            history_id = record_history(store, summary)
            print(f"ingested {args.path} as history #{history_id} "
                  f"({summary.n_spans} spans, "
                  f"{'profiled' if summary.profiled else 'unprofiled'})")
            return 0
        except ValueError as exc:
            log.error("obs %s: %s", cmd, exc)
            return 2
        except StoreConfigError as exc:
            log.error("obs %s: %s", cmd, exc)
            return EXIT_CONFIG
        except StoreCorruptionError as exc:
            log.error("obs %s: %s", cmd, exc)
            return EXIT_CORRUPT


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    setup_logging(level=args.log_level, json_mode=args.log_json)
    log = get_logger("cli")
    # Arm the chaos monkey when a test driver set REPRO_CHAOS_* in our
    # environment (no-op otherwise; see repro.chaos).
    install_from_env()
    try:
        with graceful_signals():
            return _dispatch(args, log)
    except SignalInterrupt as exc:
        # The unwind already did the durable work: the store epoch
        # transaction rolled back (the store is at its previous
        # watermark) and closed.
        log.error(
            "%s: store closed cleanly; exiting %d", exc, exc.exit_code,
        )
        return exc.exit_code
    except BrokenPipeError:
        # The reader closed stdout early (``repro trace t.jsonl | head``).
        # Point stdout at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _dispatch(args, log) -> int:
    if args.command == "store":
        return _run_store_tool(args, log)

    if args.command == "trace":
        # Tolerant read: renders empty/truncated traces and traces with
        # unknown record types (e.g. from newer writers) best-effort.
        meta, spans = read_trace(args.path, strict=False)
        print(render_trace(meta, spans, max_depth=args.max_depth))
        return 0

    if args.command == "obs":
        return _run_obs_command(args, log)

    if args.command == "drift":
        return _run_drift_command(args, log)

    fault_profile = getattr(args, "fault_profile", None)
    payload_profile = getattr(args, "payload_profile", None)
    drift_profile = getattr(args, "drift_profile", None)

    if args.command == "run":
        # A flag that modifies another is refused without it, before any
        # world is built, rather than silently ignored.
        if args.drift_epoch is None:
            args.drift_epoch = 1 if drift_profile is not None else 0
        elif drift_profile is None:
            raise SystemExit(
                "--drift-epoch requires --drift-profile (see 'repro run --help')"
            )
        if args.store is not None:
            return _run_store_command(args, log)
        if args.epoch is not None:
            raise SystemExit("--epoch requires --store (see 'repro run --help')")
        if args.epoch_total is not None:
            raise SystemExit("--epoch-total requires --store (see 'repro run --help')")

    log.info(
        "building world",
        extra={
            "seed": args.seed,
            "scale": args.scale,
            "fault_profile": fault_profile,
            "payload_profile": payload_profile,
            "drift_profile": drift_profile,
        },
    )
    start = time.perf_counter()
    world = build_world(
        seed=args.seed,
        scale=args.scale,
        fault_profile=fault_profile,
        payload_profile=payload_profile,
        drift_profile=drift_profile,
        drift_epoch=getattr(args, "drift_epoch", 0),
    )
    log.info(
        "world ready: %s [%.1fs]", world.dataset, time.perf_counter() - start
    )

    if args.command == "build":
        return _save_built_world(world, args.out, log)

    telemetry = _make_run_telemetry(args)
    log.info("running pipeline", extra={"tracing": telemetry.tracing_enabled})
    start = time.perf_counter()
    try:
        report = run_pipeline(
            world,
            annotate_n=args.annotate,
            strict=not args.lenient,
            telemetry=telemetry,
        )
    finally:
        _stop_profile(telemetry)
    log.info("pipeline done [%.1fs]", time.perf_counter() - start)

    _print_run_report(report, log)
    _print_profile(telemetry)
    if args.trace_out is not None:
        _write_trace(args, report, telemetry, log)
    if args.out is not None and not report.degraded:
        for path in _write_tables(report, args.out):
            log.info("wrote %s", path)
    return 0


if __name__ == "__main__":  # pragma: no cover - module execution path
    raise SystemExit(main())
