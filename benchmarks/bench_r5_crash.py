"""R5-crash — crash-consistency layer: free when idle, cheap to recover.

Benchmarks the DESIGN.md §13 layer against its two performance gates:

* **steady-state overhead** — the instrumentation that makes violent
  death safe (kill points, the deferred single-COMMIT epoch
  transaction, atomic artifact writes) must cost < 2 % of wall time on
  an uninterrupted store epoch.  Measured best-of-``REPEATS`` with an
  *armed but never-firing* chaos monkey against the unarmed path, so
  the number covers the worst case (counting every kill-point hit), and
  backed by a microbenchmark of the disarmed ``kill_point`` call
  itself;
* **recovery cost** — after ``SIGKILL`` mid-epoch, recovering
  (integrity verify + re-running the killed epoch) must cost at most
  1.5× the epoch's cold wall time: rollback means re-doing one epoch's
  work, never a rebuild.

Identity is asserted alongside the clocks: the post-crash re-run's
crawl digest and measurement view must equal an uninterrupted run's.

Writes ``benchmarks/results/BENCH_crash.json`` and prints its table.

Env knobs: ``REPRO_BENCH_CRASH_OVERHEAD`` (overhead gate, default
0.02), ``REPRO_BENCH_CRASH_RECOVERY`` (recovery ratio gate, default
1.5), ``REPRO_BENCH_CRASH_REPEATS`` (default 3).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.chaos import ChaosMonkey, chosen_hit, install, kill_point, uninstall
from repro.store import run_incremental, verify_store

from _common import BENCH_SCALE, BENCH_SEED, print_table, write_result_json

OVERHEAD_GATE = float(os.environ.get("REPRO_BENCH_CRASH_OVERHEAD", "0.02"))
RECOVERY_GATE = float(os.environ.get("REPRO_BENCH_CRASH_RECOVERY", "1.5"))
REPEATS = int(os.environ.get("REPRO_BENCH_CRASH_REPEATS", "3"))
PIPELINE_SCALE = min(BENCH_SCALE, 0.02)
KILL_SITE = "store.commit.before"

#: Sub-second absolute slack (same idiom as bench_o1): scheduler noise
#: on small CI worlds can exceed a tight relative gate without
#: reflecting any real per-record cost.
ABSOLUTE_FLOOR_SECONDS = 0.25

SRC_DIR = Path(repro.__file__).resolve().parents[1]


def _timed_epoch(store_path, armed: bool) -> float:
    """One cold store epoch; returns wall seconds."""
    if armed:
        # A real registered site with an unreachable target hit: every
        # kill point pays the full armed bookkeeping, nothing fires.
        install(ChaosMonkey(KILL_SITE, action="raise", hit=10**9))
    try:
        start = time.perf_counter()
        run_incremental(
            store_path, epoch=1, seed=BENCH_SEED, scale=PIPELINE_SCALE,
            epoch_total=1,
        )
        return time.perf_counter() - start
    finally:
        uninstall()


def _interleaved_best(tmp) -> tuple:
    """Best-of-``REPEATS`` for the unarmed and armed paths.

    Rounds interleave the two configurations and alternate their order
    (same idiom as bench_o1): thermal/page-cache drift across a block
    of runs would otherwise read as fake instrumentation overhead.
    """
    times = {False: [], True: []}
    for i in range(REPEATS):
        order = (False, True) if i % 2 == 0 else (True, False)
        for armed in order:
            label = "armed" if armed else "unarmed"
            times[armed].append(_timed_epoch(tmp / f"{label}-{i}.sqlite", armed))
    return min(times[False]), min(times[True])


def _kill_point_ns() -> float:
    """Per-call cost of a disarmed kill point, nanoseconds."""
    uninstall()
    n = 1_000_000
    start = time.perf_counter()
    for _ in range(n):
        kill_point(KILL_SITE)
    return (time.perf_counter() - start) / n * 1e9


def _driver(store_path, chaos: bool, tmp) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_CHAOS_KILL", None)
    if chaos:
        env["REPRO_CHAOS_KILL"] = KILL_SITE
        env["REPRO_CHAOS_SEED"] = str(BENCH_SEED)
        env["REPRO_CHAOS_HIT"] = str(chosen_hit(BENCH_SEED, KILL_SITE, 1))
    return subprocess.run(
        [sys.executable, "-m", "repro.chaos.driver", "--mode", "store",
         "--store", str(store_path), "--seed", str(BENCH_SEED),
         "--scale", str(PIPELINE_SCALE), "--epoch", "1", "--epoch-total", "1"],
        env=env, cwd=tmp, capture_output=True, text=True, timeout=600,
    )


def test_r5_crash_overhead_and_recovery(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench-crash")

    # ---- gate 1: steady-state overhead of the armed worst case -------
    t_unarmed, t_armed = _interleaved_best(tmp)
    overhead = (t_armed - t_unarmed) / t_unarmed
    ns_per_call = _kill_point_ns()
    overhead_ok = (
        overhead <= OVERHEAD_GATE
        or (t_armed - t_unarmed) <= ABSOLUTE_FLOOR_SECONDS
    )

    # ---- gate 2: SIGKILL mid-epoch, recover, converge ----------------
    start = time.perf_counter()
    cold = _driver(tmp / "cold.sqlite", chaos=False, tmp=tmp)
    t_cold = time.perf_counter() - start
    assert cold.returncode == 0, cold.stderr
    cold_json = json.loads(cold.stdout)

    killed_store = tmp / "killed.sqlite"
    start = time.perf_counter()
    killed = _driver(killed_store, chaos=True, tmp=tmp)
    t_killed = time.perf_counter() - start
    assert killed.returncode == -signal.SIGKILL, killed.stderr

    start = time.perf_counter()
    verify_store(killed_store)  # integrity probe over the rolled-back store
    recovered = _driver(killed_store, chaos=False, tmp=tmp)
    t_recover = time.perf_counter() - start
    assert recovered.returncode == 0, recovered.stderr
    recovered_json = json.loads(recovered.stdout)
    assert recovered_json["crawl_digest"] == cold_json["crawl_digest"]
    assert recovered_json["quarantine"] == cold_json["quarantine"]
    assert recovered_json["measurement"] == cold_json["measurement"]

    recovery_ratio = t_recover / t_cold
    recovery_ok = (
        recovery_ratio <= RECOVERY_GATE
        or (t_recover - t_cold) <= ABSOLUTE_FLOOR_SECONDS
    )

    payload = {
        "scale": PIPELINE_SCALE,
        "seed": BENCH_SEED,
        "kill_site": KILL_SITE,
        "repeats": REPEATS,
        "overhead": {
            "t_unarmed_s": round(t_unarmed, 3),
            "t_armed_s": round(t_armed, 3),
            "relative": round(overhead, 4),
            "kill_point_disarmed_ns": round(ns_per_call, 1),
        },
        "recovery": {
            "t_cold_epoch_s": round(t_cold, 3),
            "t_killed_run_s": round(t_killed, 3),
            "t_recover_s": round(t_recover, 3),
            "ratio_vs_cold": round(recovery_ratio, 3),
            "recovered_equals_cold": True,
        },
        "gates": {
            "overhead": {"threshold": OVERHEAD_GATE, "passed": bool(overhead_ok)},
            "recovery": {"threshold": RECOVERY_GATE, "passed": bool(recovery_ok)},
        },
    }
    write_result_json("BENCH_crash", payload)

    print_table(
        "BENCH_crash",
        "\n".join(
            [
                f"R5-crash chaos harness (scale={PIPELINE_SCALE}, "
                f"site={KILL_SITE})",
                f"steady-state: unarmed {t_unarmed:.2f}s, armed "
                f"{t_armed:.2f}s, overhead {overhead * 100:+.1f}% "
                f"(gate <= {OVERHEAD_GATE * 100:.0f}%)",
                f"disarmed kill_point: {ns_per_call:.0f} ns/call",
                f"recovery: cold epoch {t_cold:.2f}s, SIGKILLed run "
                f"{t_killed:.2f}s, verify+rerun {t_recover:.2f}s "
                f"(ratio {recovery_ratio:.2f}, gate <= {RECOVERY_GATE})",
                "recovered run is bit-identical to cold: True",
            ]
        ),
    )

    assert overhead_ok, (
        f"armed chaos instrumentation cost {overhead * 100:.1f}% "
        f"(gate {OVERHEAD_GATE * 100:.0f}%)"
    )
    assert recovery_ok, (
        f"crash recovery cost {recovery_ratio:.2f}x the cold epoch "
        f"(gate {RECOVERY_GATE}x)"
    )
