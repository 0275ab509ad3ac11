"""O1 — telemetry overhead and determinism gates (DESIGN.md §9).

Two questions, one gate each:

1. **What does full tracing cost end-to-end?**  The complete pipeline is
   timed with tracing disabled (the default :data:`NULL_TRACER`
   recorder) and with a recording :class:`~repro.obs.Tracer` — spans on
   every stage, every link fetch and every batched vision kernel.
   Acceptance: overhead **< 3%** (with a small absolute floor so
   sub-second runs don't fail on scheduler noise).
2. **Does telemetry perturb the measurement?**  The traced and untraced
   runs must agree exactly on the deterministic telemetry view — funnel
   counts and every non-``*_seconds`` metric (the DESIGN.md §9
   determinism contract, also property-tested at unit scale in
   ``tests/test_obs_pipeline.py``).

Writes ``benchmarks/results/BENCH_telemetry.json`` (CI artifact) and
prints the human-readable table.
"""

from __future__ import annotations

import statistics
import time

from repro import run_pipeline
from repro.obs import ProfilingTracer, RunTelemetry, Tracer

from _common import (
    BENCH_SCALE,
    BENCH_SEED,
    print_table,
    scale_note,
    write_result_json,
)


#: Timed runs per side.  Each gate compares the *medians* of its two
#: sides: on a shared 2-CPU box a single slow or fast run moved the
#: best-of-3 minima by more than the 1% and 3% targets.
ROUNDS = 7
OVERHEAD_TARGET = 0.03
#: Profiling *disabled* must be structurally free — the profiler lives
#: entirely in a Tracer subclass, so an unprofiled run executes exactly
#: the NULL_TRACER path.  Gated far tighter than tracing itself.
PROFILE_DISABLED_TARGET = 0.01
#: Sub-second absolute slack: scheduler noise on small CI worlds can
#: exceed 3% of a short run without reflecting any real per-record cost.
ABSOLUTE_FLOOR_SECONDS = 0.25


def _timed_run(world, tracer):
    """One timed full pipeline run; returns (seconds, telemetry)."""
    telemetry = RunTelemetry(tracer=tracer)
    start = time.perf_counter()
    run_pipeline(world, telemetry=telemetry)
    return time.perf_counter() - start, telemetry


def _interleaved_medians(world, make_a, make_b):
    """Median seconds of ``ROUNDS`` runs per side, plus each side's last
    telemetry.  The sides alternate, and so does which side goes first in
    a round, so slow drift and position bias both cancel."""
    seconds = ([], [])
    telemetry = [None, None]
    makers = (make_a, make_b)
    for i in range(ROUNDS):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            elapsed, telemetry[side] = _timed_run(world, makers[side]())
            seconds[side].append(elapsed)
    return (
        statistics.median(seconds[0]),
        telemetry[0],
        statistics.median(seconds[1]),
        telemetry[1],
    )


def test_o1_telemetry_overhead(bench_world, benchmark):
    # Warm-up (caches, lazy imports) before any timed round, then
    # *interleave* traced/untraced rounds so drift in shared world
    # state cannot bias either side; compare the medians.
    run_pipeline(bench_world, telemetry=RunTelemetry(tracer=Tracer()))
    t_off, tele_off, t_on, tele_on = _interleaved_medians(
        bench_world, lambda: None, Tracer
    )
    overhead = t_on / t_off - 1.0
    delta = t_on - t_off
    benchmark.pedantic(
        lambda: run_pipeline(
            bench_world, telemetry=RunTelemetry(tracer=Tracer())
        ),
        rounds=1,
        iterations=1,
    )

    n_spans = len(tele_on.tracer.spans())
    n_events = tele_on.tracer.n_events

    # ---- gate 2: telemetry must not perturb the measurement ----------
    view_off = tele_off.deterministic_snapshot()
    view_on = tele_on.deterministic_snapshot()
    deterministic = view_off == view_on

    payload = {
        "config": {
            "seed": BENCH_SEED,
            "scale": BENCH_SCALE,
            "rounds": ROUNDS,
        },
        "pipeline_seconds": {
            "tracing_off": round(t_off, 4),
            "tracing_on": round(t_on, 4),
        },
        "overhead": round(overhead, 4),
        "overhead_seconds": round(delta, 4),
        "overhead_target": OVERHEAD_TARGET,
        "absolute_floor_seconds": ABSOLUTE_FLOOR_SECONDS,
        "n_spans": n_spans,
        "n_events": n_events,
        "funnel": tele_on.funnel(),
        "deterministic_views_equal": deterministic,
    }
    write_result_json("BENCH_telemetry", payload)

    lines = [
        "O1 — telemetry overhead and determinism " + scale_note(),
        f"pipeline, tracing off: {t_off:.3f}s (median of {ROUNDS})",
        f"pipeline, tracing on : {t_on:.3f}s ({n_spans} spans, {n_events} events)",
        f"overhead             : {overhead:+.2%} ({delta:+.3f}s; "
        f"target < {OVERHEAD_TARGET:.0%} or < {ABSOLUTE_FLOOR_SECONDS}s absolute)",
        f"deterministic views  : {'identical' if deterministic else 'DIVERGED'}",
        "",
        "funnel (traced run):",
    ]
    for row in tele_on.funnel():
        lines.append(f"  {row['stage']:<22} {row['count']}")
    print_table("BENCH_telemetry", "\n".join(lines))

    # Acceptance gates.
    assert deterministic, (
        "tracing changed the deterministic telemetry view — it must be "
        "a pure observer"
    )
    assert overhead < OVERHEAD_TARGET or delta < ABSOLUTE_FLOOR_SECONDS, (
        f"full tracing costs {overhead:.1%} ({delta:.3f}s) end-to-end "
        f"(target < {OVERHEAD_TARGET:.0%})"
    )
    assert n_spans > 0 and tele_on.tracing_enabled


def test_o1_profiler_disabled_overhead(bench_world, benchmark):
    """Profiling OFF must cost < 1% — including after a profiler ran.

    The "after" rounds run once a :class:`ProfilingTracer` (allocation
    tracking on) has been started and stopped in this process, so the
    gate also catches ambient leakage — tracemalloc left running would
    show up here even though the timed runs themselves use the plain
    NULL_TRACER path.
    """
    run_pipeline(bench_world, telemetry=RunTelemetry())  # warm-up

    # Baseline: the process has never started a profiler.
    never = [_timed_run(bench_world, None) for _ in range(ROUNDS)]
    t_never = statistics.median(seconds for seconds, _ in never)
    tele_never = never[-1][1]

    # Exercise (and tear down) a full profiled run, allocations on —
    # the worst case for anything it could leave behind.
    profiler = ProfilingTracer(allocations=True)
    profiler.start()
    try:
        t_prof, tele_prof = _timed_run(bench_world, profiler)
    finally:
        profiler.stop()

    # The same NULL_TRACER path again, now after the profiler: anything
    # it left running shows up as a gap to the never-used median.
    t_after = statistics.median(
        _timed_run(bench_world, None)[0] for _ in range(ROUNDS)
    )
    overhead = t_after / t_never - 1.0
    delta = t_after - t_never
    benchmark.pedantic(
        lambda: run_pipeline(bench_world, telemetry=RunTelemetry()),
        rounds=1,
        iterations=1,
    )

    # Determinism across off / profiled: the profiler is a pure
    # observer too — profile.* attrs are runtime metrics, excluded
    # from the deterministic view.
    view_off = tele_never.deterministic_snapshot()
    view_prof = tele_prof.deterministic_snapshot()
    deterministic = view_off == view_prof

    payload = {
        "config": {
            "seed": BENCH_SEED,
            "scale": BENCH_SCALE,
            "rounds": ROUNDS,
        },
        "pipeline_seconds": {
            "profiling_never": round(t_never, 4),
            "profiling_disabled_after_use": round(t_after, 4),
            "profiling_on": round(t_prof, 4),
        },
        "disabled_overhead": round(overhead, 4),
        "disabled_overhead_seconds": round(delta, 4),
        "disabled_overhead_target": PROFILE_DISABLED_TARGET,
        "absolute_floor_seconds": ABSOLUTE_FLOOR_SECONDS,
        "profiled_overhead": round(t_prof / t_never - 1.0, 4),
        "deterministic_views_equal": deterministic,
    }
    write_result_json("BENCH_profiler", payload)

    print_table(
        "BENCH_profiler",
        "\n".join(
            [
                "O1b — profiler overhead " + scale_note(),
                f"profiling never used : {t_never:.3f}s (median of {ROUNDS})",
                f"disabled (after use) : {t_after:.3f}s (median of {ROUNDS})",
                f"profiling on         : {t_prof:.3f}s",
                f"disabled overhead    : {overhead:+.2%} ({delta:+.3f}s; "
                f"target < {PROFILE_DISABLED_TARGET:.0%} or "
                f"< {ABSOLUTE_FLOOR_SECONDS}s absolute)",
                f"deterministic views  : "
                f"{'identical' if deterministic else 'DIVERGED'}",
            ]
        ),
    )

    assert deterministic, (
        "profiling changed the deterministic telemetry view — it must "
        "be a pure observer"
    )
    assert overhead < PROFILE_DISABLED_TARGET or delta < ABSOLUTE_FLOOR_SECONDS, (
        f"disabled profiling costs {overhead:.1%} ({delta:.3f}s) — a "
        f"stopped profiler must leave nothing running "
        f"(target < {PROFILE_DISABLED_TARGET:.0%})"
    )
