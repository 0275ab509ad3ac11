"""P1 — vision throughput: batched hashing vs the seed scalar loop.

Writes ``benchmarks/results/BENCH_vision.json`` with images/second for

* ``seed_scalar``   — a faithful copy of the seed implementation of
  :func:`robust_hash` (per-image NumPy calls, per-bit Python packing,
  reduceat-only resize), the pre-batching baseline;
* ``scalar``        — the current per-image :func:`robust_hash` (shares
  the vectorised resize/pack kernels);
* ``batched``       — :func:`repro.vision.batch.hash_batch` over the
  whole stack;
* ``nsfw_scalar``   — :meth:`repro.vision.NsfwScorer.score` per image;
* ``nsfw_block``    — :meth:`repro.vision.NsfwScorer.score_block` over
  blocks of 64, as the world build scores.  Both score rendered images
  of every kind, the build's input: uniform noise is all speckle;

plus the VisionCache hit rate of a full pipeline run and the acceptance
ratio ``batched / seed_scalar`` (target: ≥ 3×).

Env knobs: ``REPRO_BENCH_VISION_N`` (raster count, default 512),
``REPRO_BENCH_VISION_REPEATS`` (timing repeats, best-of, default 3).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest
from scipy import fft as scipy_fft

from repro.media import ImageKind, SyntheticImage, sample_latent
from repro.vision import NsfwScorer, hash_batch, robust_hash
from repro.vision.batch import prepare_thumbnails

from _common import (
    BENCH_SCALE,
    BENCH_SEED,
    print_table,
    scale_note,
    write_result_json,
)


N_RASTERS = int(os.environ.get("REPRO_BENCH_VISION_N", "512"))
REPEATS = int(os.environ.get("REPRO_BENCH_VISION_REPEATS", "3"))
RASTER_SHAPE = (64, 64, 3)  # the synthetic renderer's native raster size
SCORE_BLOCK = 64  # images per score_block call, as in the world build


# ---------------------------------------------------------------------------
# Seed-era scalar implementation (pre-batching baseline), kept verbatim so
# the speedup is measured against what the repository actually shipped.
# ---------------------------------------------------------------------------

_HASH_GRID = 32


def _seed_block_mean_resize(gray: np.ndarray, target: int) -> np.ndarray:
    rows, cols = gray.shape
    if rows < target or cols < target:
        row_idx = np.clip((np.arange(target) * rows / target).astype(int), 0, rows - 1)
        col_idx = np.clip((np.arange(target) * cols / target).astype(int), 0, cols - 1)
        return gray[np.ix_(row_idx, col_idx)].astype(np.float64)
    row_edges = np.linspace(0, rows, target + 1).astype(int)
    col_edges = np.linspace(0, cols, target + 1).astype(int)
    summed = np.add.reduceat(
        np.add.reduceat(gray, row_edges[:-1], axis=0), col_edges[:-1], axis=1
    )
    counts = np.outer(np.diff(row_edges), np.diff(col_edges)).astype(np.float64)
    return summed / counts


def _seed_robust_hash(pixels: np.ndarray) -> int:
    gray = np.asarray(pixels, dtype=np.float64)
    if gray.ndim == 3:
        gray = gray.mean(axis=2)
    small = _seed_block_mean_resize(gray, _HASH_GRID)
    spectrum = scipy_fft.dctn(small, norm="ortho")
    block = spectrum[:8, :8].flatten()
    block[0] = spectrum[8, 8]
    median = np.median(block)
    bits = block > median
    value = 0
    for bit in bits:
        value = (value << 1) | int(bit)
    return value


# ---------------------------------------------------------------------------


def _make_rasters(n: int) -> list:
    rng = np.random.default_rng(BENCH_SEED)
    return [rng.uniform(0.0, 1.0, size=RASTER_SHAPE) for _ in range(n)]


def _best_rate(fn, n_images: int, repeats: int = REPEATS) -> float:
    """Best-of-``repeats`` throughput in images/second."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return n_images / best


def _render_rasters(n: int) -> list:
    rng = np.random.default_rng(BENCH_SEED)
    kinds = list(ImageKind)
    return [
        SyntheticImage(i, sample_latent(rng, kinds[i % len(kinds)], model_id=1)).pixels
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def rasters():
    return _make_rasters(N_RASTERS)


def test_p1_vision_throughput(rasters, bench_report, benchmark):
    # Correctness gate before timing anything: all three paths agree.
    sample = rasters[:32]
    seed_hashes = [_seed_robust_hash(r) for r in sample]
    assert [robust_hash(r) for r in sample] == seed_hashes
    assert [int(h) for h in hash_batch(sample)] == seed_hashes
    scorer = NsfwScorer()
    rendered = _render_rasters(len(rasters))
    for stack in (sample, rendered):
        assert scorer.score_block(stack) == [scorer.score(r) for r in stack]

    def score_blocks():
        for start in range(0, len(rendered), SCORE_BLOCK):
            scorer.score_block(rendered[start : start + SCORE_BLOCK])

    seed_rate = _best_rate(lambda: [_seed_robust_hash(r) for r in rasters], len(rasters))
    scalar_rate = _best_rate(lambda: [robust_hash(r) for r in rasters], len(rasters))
    batched_rate = _best_rate(lambda: hash_batch(rasters), len(rasters))
    nsfw_scalar_rate = _best_rate(lambda: [scorer.score(r) for r in rendered], len(rendered))
    nsfw_block_rate = _best_rate(score_blocks, len(rendered))
    benchmark.pedantic(lambda: hash_batch(rasters), rounds=1, iterations=1)

    cache_stats = bench_report.vision_cache_stats
    payload = {
        "config": {
            "n_rasters": len(rasters),
            "raster_shape": list(RASTER_SHAPE),
            "repeats": REPEATS,
            "seed": BENCH_SEED,
            "pipeline_scale": BENCH_SCALE,
            "numpy": np.__version__,
        },
        "images_per_second": {
            "seed_scalar": round(seed_rate, 1),
            "scalar": round(scalar_rate, 1),
            "batched": round(batched_rate, 1),
            "nsfw_scalar": round(nsfw_scalar_rate, 1),
            "nsfw_block": round(nsfw_block_rate, 1),
        },
        "speedup": {
            "batched_vs_seed_scalar": round(batched_rate / seed_rate, 2),
            "batched_vs_scalar": round(batched_rate / scalar_rate, 2),
            "scalar_vs_seed_scalar": round(scalar_rate / seed_rate, 2),
            "nsfw_block_vs_scalar": round(nsfw_block_rate / nsfw_scalar_rate, 2),
        },
        "vision_cache": (
            {
                "hits": cache_stats.hits,
                "misses": cache_stats.misses,
                "hit_rate": round(cache_stats.hit_rate, 4),
                "entries": cache_stats.n_entries,
            }
            if cache_stats is not None
            else None
        ),
    }
    write_result_json("BENCH_vision", payload)

    speed = payload["speedup"]["batched_vs_seed_scalar"]
    lines = [
        "P1 — vision throughput " + scale_note(),
        f"rasters          : {len(rasters)} × {RASTER_SHAPE}",
        f"seed scalar loop : {seed_rate:,.0f} img/s",
        f"current scalar   : {scalar_rate:,.0f} img/s",
        f"batched          : {batched_rate:,.0f} img/s",
        f"speedup (vs seed): {speed:.2f}× (target ≥ 3×)",
        f"nsfw per image   : {nsfw_scalar_rate:,.0f} img/s",
        f"nsfw blocks of {SCORE_BLOCK}: {nsfw_block_rate:,.0f} img/s "
        f"({nsfw_block_rate / nsfw_scalar_rate:.2f}×)",
        f"vision cache     : "
        + (cache_stats.summary() if cache_stats is not None else "n/a"),
    ]
    print_table("BENCH_vision", "\n".join(lines))

    # Acceptance: the batched engine must beat the seed loop ≥ 3×.
    assert speed >= 3.0, f"batched speedup {speed:.2f}× below the 3× target"


def test_p1_thumbnails_bit_identical(rasters):
    """The batched thumbnail path must equal the scalar resize exactly."""
    thumbs = prepare_thumbnails(rasters[:64])
    for raster, thumb in zip(rasters[:64], thumbs):
        expected = _seed_block_mean_resize(raster.mean(axis=2), _HASH_GRID)
        np.testing.assert_array_equal(thumb, expected)
