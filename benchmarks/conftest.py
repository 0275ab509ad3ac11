"""Shared benchmark fixtures: one world + one pipeline run per session.

Benchmarks regenerate every table and figure of the paper from a seeded
synthetic world.  The default scale (0.05 of the paper's population
sizes) keeps a full benchmark run in the minutes range; set
``REPRO_BENCH_SCALE`` to 1.0 for a paper-sized world.

Each paper-shape benchmark writes its reproduced table to
``benchmarks/results/<name>.txt`` through :func:`emit` and prints it
(visible with ``pytest -s``).  A gated benchmark writes one
fingerprinted ``BENCH_*.json`` record instead and only prints its
table (see ``_common.py``).  The pytest-benchmark fixture times each
stage's core computation.
"""

from __future__ import annotations

import pytest

from repro import build_world, run_pipeline
from repro.synth import WorldConfig

from _common import (
    BENCH_SCALE,
    BENCH_SEED,
    print_table,
    write_result_text,
)


@pytest.fixture(scope="session")
def bench_world():
    """The benchmark world (Table 1 populations × BENCH_SCALE)."""
    return build_world(WorldConfig(seed=BENCH_SEED, scale=BENCH_SCALE))


@pytest.fixture(scope="session")
def bench_report(bench_world):
    """One full pipeline run over the benchmark world."""
    return run_pipeline(bench_world)


@pytest.fixture(scope="session")
def emit():
    """Callable writing a named result table to disk and stdout."""
    def _emit(name: str, text: str) -> None:
        write_result_text(name, text)
        print_table(name, text)

    return _emit
