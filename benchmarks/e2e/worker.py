"""One repetition of one end-to-end benchmark workload.

``run.py`` starts this script in a fresh interpreter for every
repetition, so import time and peak RSS belong to that repetition
alone.  It makes the public calls ``repro run`` makes --
``build_world`` -> ``run_pipeline`` -> ``render_digest``, or
``run_incremental`` -> ``render_digest`` for the store workload --
prints the report digest as ``repro run`` does, and ends with one JSON
line: phase timings, peak RSS and the output fingerprints ``run.py``
checks.  ``--trace-out`` runs the same calls under the layer wrappers of
``layers.py`` and writes their spans as a ``repro trace`` file.

    PYTHONPATH=src python3 benchmarks/e2e/worker.py --workload cold --seed 11 --scale 0.05
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from typing import Optional, Sequence

#: Per-workload ``WorldConfig`` overrides and crawl worker count.  The
#: store workload (``epoch_total`` set) measures epoch 2 against a copy
#: of a store that already holds epoch 1.
WORKLOADS = {
    "cold": {"config": {}, "workers": None},
    "warm_delta": {"config": {"epoch_total": 2}, "workers": None},
    "hostile": {
        "config": {"fault_profile": "hostile", "payload_profile": "hostile"},
        "workers": None,
    },
    "threads2": {"config": {}, "workers": 2},
}


def view_sha256(report) -> str:
    """sha256 of the canonical JSON of the run's measurement view."""
    view = report.telemetry.measurement_view()
    blob = json.dumps(view, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux; RUSAGE_SELF covers this repetition only.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--store", help="run store path (warm_delta only)")
    parser.add_argument(
        "--template", action="store_true",
        help="build the epoch-1 store at --store instead of measuring",
    )
    parser.add_argument("--trace-out", help="trace this repetition into a JSONL file")
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]

    start = time.perf_counter()
    import repro
    import repro.store
    from repro.core import report_text

    import_s = time.perf_counter() - start

    layer_trace = None
    if args.trace_out:
        from repro.obs import Tracer

        from layers import LayerTrace

        layer_trace = LayerTrace(Tracer())
        layer_trace.install()

    config = repro.WorldConfig(seed=args.seed, scale=args.scale, **spec["config"])
    out = {"import_s": import_s, "setup_s": None}
    injected = rows_added = 0
    if args.template:
        _, out["setup_s"] = _timed(
            repro.store.run_incremental, args.store, epoch=1, config=config
        )
        print(json.dumps(out))
        return 0
    if args.store:
        result, out["measure_s"] = _timed(
            repro.store.run_incremental, args.store, epoch=2, config=config
        )
        report, rows_added = result.report, result.rows_added
    else:
        world, out["setup_s"] = _timed(repro.build_world, config)
        report, out["measure_s"] = _timed(
            repro.run_pipeline, world, workers=spec["workers"]
        )
        injector = world.internet.payload_injector
        injected = injector.n_injected if injector is not None else 0
    text, out["report_s"] = _timed(report_text.render_digest, report)
    print(text)

    out.update(
        peak_rss_mb=_peak_rss_mb(),
        images_downloaded=len(report.crawl.all_images),
        crawl_digest=report.crawl.digest(),
        view_sha256=view_sha256(report),
        injected=injected,
        quarantined=report.n_quarantined,
        degraded=report.degraded,
        stage_failures=[failure.stage for failure in report.stage_failures],
    )
    if layer_trace is not None:
        from repro.obs.export import write_trace

        records = layer_trace.span_records(import_s)
        layers = layer_trace.metrics(records, report)
        layers["core.quarantine.injected"] = injected
        layers["store.rows_added"] = rows_added
        out["layers"] = layers
        write_trace(args.trace_out, records, meta={
            "seed": args.seed,
            "scale": args.scale,
            "workload": args.workload,
            "funnel": report.telemetry.funnel(),
        })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
