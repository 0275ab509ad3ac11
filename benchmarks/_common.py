"""Shared helpers for benchmark modules (importable, unlike conftest).

A bench with pass/fail gates writes one record, ``results/BENCH_<x>.json``
(:func:`write_result_json`), stamped with the fingerprint of the machine
that measured it, and prints its table.  A paper-shape bench has no
record; its table is the result, written to ``results/<name>.txt``
(:func:`write_result_text`).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Any

from repro.atomicio import atomic_write_json, atomic_write_text

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

from run import fingerprint  # noqa: E402

BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "11"))
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.05"))

RESULTS_DIR = Path(__file__).parent / "results"


def scale_note() -> str:
    """One-line provenance header for every emitted table."""
    return f"(seed={BENCH_SEED}, scale={BENCH_SCALE} of paper population)"


def print_table(name: str, text: str) -> None:
    """Print a result table under its name (visible with ``pytest -s``)."""
    print(f"\n=== {name} ===\n{text}")


def write_result_text(name: str, text: str) -> Path:
    """Atomically write ``results/<name>.txt`` (DESIGN.md §13).

    Routed through :func:`repro.atomicio.atomic_write_text` so an
    interrupted benchmark run leaves the previous complete artifact,
    never a torn one.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    return atomic_write_text(RESULTS_DIR / f"{name}.txt", text + "\n")


def write_result_json(name: str, payload: dict, **dumps_kwargs: Any) -> Path:
    """Atomically write ``results/<name>.json`` with a machine fingerprint.

    The ``fingerprint`` block is the one the end-to-end benchmark puts
    in its records (``benchmarks/e2e/run.py``), so numbers from
    different machines are never compared blind.
    """
    dumps_kwargs.setdefault("indent", 2)
    RESULTS_DIR.mkdir(exist_ok=True)
    record = {**payload, "fingerprint": fingerprint()}
    return atomic_write_json(RESULTS_DIR / f"{name}.json", record, **dumps_kwargs)
