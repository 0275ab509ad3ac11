"""S1-store — persistent store: delta-run speedup + flat size growth.

Benchmarks the watermark-delta engine of :mod:`repro.store` (DESIGN.md
§12) against its two performance gates:

* **delta speedup** — with the timeline split into ``EPOCH_TOTAL``
  equal-population epochs, the final delta epoch (≤ 10 % new records
  over the previous watermark) must complete in ≤ 40 % of the cold-run
  wall time over the same union, warm memos doing the rest;
* **flat growth** — appending that ≤ 10 % delta must grow the store
  file sub-linearly in runs, not rewrite it: relative size growth is
  capped at ``GROWTH_GATE``.

Identity is asserted alongside the clocks: the delta run's crawl
digest, quarantine ledger and measurement view must equal the cold
run's exactly (the tentpole invariant, also property-tested in
``tests/test_store_incremental.py``).

Writes ``benchmarks/results/BENCH_store.json`` and prints its table.

Env knobs: ``REPRO_BENCH_STORE_EPOCHS`` (default 10),
``REPRO_BENCH_STORE_RATIO`` (speedup gate, default 0.40),
``REPRO_BENCH_STORE_GROWTH`` (relative growth gate, default 0.35).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.store import RunStore, run_incremental

from _common import BENCH_SCALE, BENCH_SEED, print_table, write_result_json


EPOCH_TOTAL = int(os.environ.get("REPRO_BENCH_STORE_EPOCHS", "10"))
RATIO_GATE = float(os.environ.get("REPRO_BENCH_STORE_RATIO", "0.40"))
GROWTH_GATE = float(os.environ.get("REPRO_BENCH_STORE_GROWTH", "0.35"))
PIPELINE_SCALE = min(BENCH_SCALE, 0.02)


def _sized(store_path):
    with RunStore(store_path) as store:
        store.checkpoint_wal()
        return store.size_bytes(), store.row_counts()


def test_s1_store_delta_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench-store")
    cfg = dict(seed=BENCH_SEED, scale=PIPELINE_SCALE, epoch_total=EPOCH_TOTAL)

    # ---- cold run over the union (fresh store, no memos) --------------
    start = time.perf_counter()
    cold = run_incremental(tmp / "cold.sqlite", epoch=EPOCH_TOTAL, **cfg)
    t_cold = time.perf_counter() - start

    # ---- warm the incremental store up to the penultimate epoch -------
    inc_path = tmp / "inc.sqlite"
    prior = run_incremental(inc_path, epoch=EPOCH_TOTAL - 1, **cfg)
    size_before, rows_before = _sized(inc_path)

    # ---- the timed delta epoch ---------------------------------------
    start = time.perf_counter()
    delta = run_incremental(inc_path, epoch=EPOCH_TOTAL, **cfg)
    t_delta = time.perf_counter() - start
    size_after, rows_after = _sized(inc_path)

    # ---- identity: delta == cold, bit for bit ------------------------
    assert delta.crawl_digest == cold.crawl_digest
    assert [r.to_dict() for r in delta.report.quarantine.records] == [
        r.to_dict() for r in cold.report.quarantine.records
    ]
    assert delta.measurement == cold.measurement

    # ---- the gates ---------------------------------------------------
    total_rows = sum(rows_after.values())
    delta_fraction = delta.rows_added / total_rows if total_rows else 0.0
    ratio = t_delta / t_cold if t_cold > 0 else float("inf")
    growth = (size_after - size_before) / size_before if size_before else 0.0

    assert delta_fraction <= 0.10 + 1e-9, (
        f"delta epoch added {delta_fraction:.1%} of records; the gate is "
        f"calibrated for <= 10% deltas (raise EPOCH_TOTAL)"
    )

    payload = {
        "config": {
            "seed": BENCH_SEED,
            "scale": PIPELINE_SCALE,
            "epoch_total": EPOCH_TOTAL,
            "cpus": os.cpu_count() or 1,
            "numpy": np.__version__,
        },
        "seconds": {"cold": round(t_cold, 3), "delta": round(t_delta, 3)},
        "ratio_delta_vs_cold": round(ratio, 3),
        "delta_rows_added": delta.rows_added,
        "delta_fraction_of_records": round(delta_fraction, 4),
        "store_bytes": {
            "before_delta": size_before,
            "after_delta": size_after,
            "relative_growth": round(growth, 4),
        },
        "row_counts": rows_after,
        "identity": {
            "crawl_digest": cold.crawl_digest,
            "n_quarantined": len(cold.report.quarantine.records),
            "delta_equals_cold": True,
        },
        "gates": {
            "ratio": {"threshold": RATIO_GATE, "passed": bool(ratio <= RATIO_GATE)},
            "growth": {
                "threshold": GROWTH_GATE,
                "passed": bool(growth <= GROWTH_GATE),
            },
        },
    }
    write_result_json("BENCH_store", payload)

    print_table(
        "BENCH_store",
        "\n".join(
            [
                f"S1-store delta runs (epochs={EPOCH_TOTAL}, "
                f"scale={PIPELINE_SCALE})",
                f"cold: {t_cold:.2f}s   delta epoch: {t_delta:.2f}s   "
                f"ratio={ratio:.2f} (gate <= {RATIO_GATE})",
                f"delta rows: {delta.rows_added} "
                f"({delta_fraction:.1%} of {total_rows})",
                f"store size: {size_before} -> {size_after} bytes "
                f"(+{growth:.1%}, gate <= {GROWTH_GATE:.0%})",
                "identity: delta digest/ledger/measurement == cold",
            ]
        ),
    )

    assert ratio <= RATIO_GATE, (
        f"delta epoch took {ratio:.1%} of the cold run "
        f"(gate <= {RATIO_GATE:.0%}): the warm memos are not paying"
    )
    assert growth <= GROWTH_GATE, (
        f"store grew {growth:.1%} on a <= 10% record delta "
        f"(gate <= {GROWTH_GATE:.0%}): appends are rewriting, not appending"
    )
