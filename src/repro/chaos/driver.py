"""Subprocess entry point for the kill-point chaos harness.

``python -m repro.chaos.driver`` runs one store-backed incremental
epoch with the chaos monkey armed from ``REPRO_CHAOS_*`` environment
variables.  The parent test (``tests/test_chaos_kill.py``,
``benchmarks/bench_r5_crash.py``) sends ``SIGKILL`` expectations
against the exit status, then recovers and re-runs to assert
bit-identical convergence with an uninterrupted run.

On (non-killed) success the run's identity surface is printed as one
JSON object on stdout: crawl digest, quarantine ledger, measurement
view — exactly the three quantities of the store equivalence contract.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .sites import install_from_env


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos.driver",
        description="chaos-harness pipeline driver (see repro.chaos)",
    )
    parser.add_argument("--store", type=Path, required=True, help="store path")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scale", type=float, default=0.005)
    parser.add_argument("--epoch", type=int, default=None)
    parser.add_argument("--epoch-total", type=int, default=1)
    parser.add_argument("--payload-profile", default=None)
    parser.add_argument("--fault-profile", default=None)
    return parser


def run_epoch(args) -> dict:
    from ..store import run_incremental

    result = run_incremental(
        args.store,
        epoch=args.epoch,
        seed=args.seed,
        scale=args.scale,
        epoch_total=args.epoch_total,
        fault_profile=args.fault_profile,
        payload_profile=args.payload_profile,
    )
    quarantine = (
        [r.to_dict() for r in result.report.quarantine.records]
        if result.report.quarantine is not None
        else []
    )
    return {
        "crawl_digest": result.crawl_digest,
        "quarantine": quarantine,
        "measurement": result.measurement,
        "epoch": result.epoch,
        "run_id": result.run_id,
        "rows_added": result.rows_added,
    }


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    install_from_env()
    json.dump(run_epoch(args), sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    raise SystemExit(main())
