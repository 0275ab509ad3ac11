"""P1 — vision throughput: batched hashing vs the seed scalar loop.

Writes ``benchmarks/results/BENCH_vision.json`` with images/second for

* ``seed_scalar``   — a faithful copy of the seed implementation of
  :func:`robust_hash` (per-image NumPy calls, per-bit Python packing,
  reduceat-only resize), the pre-batching baseline;
* ``one_image``     — :func:`robust_hash` per image: one-image calls of
  the hash kernel;
* ``batched``       — :func:`repro.vision.batch.hash_batch` over the
  whole stack;
* ``nsfw_scalar``   — :meth:`repro.vision.NsfwScorer.score` per image;
* ``nsfw_block``    — :meth:`repro.vision.NsfwScorer.score_block` over
  blocks of 64, as the world build scores.  Both score rendered images
  of every kind, the build's input: uniform noise is all speckle;

plus the VisionCache hit rate of a full pipeline run and the acceptance
ratio ``batched / seed_scalar`` (target: ≥ 3×).

The variants are timed in interleaved rounds: each round runs every
variant once, in an order that rotates from round to round, so load
from other processes on a shared machine falls on all of them alike.
A rate is images over the median round time; the gated ratio is the
median of the per-round ratios ``seed_scalar time / batched time``.

Env knobs: ``REPRO_BENCH_VISION_N`` (raster count, default 512),
``REPRO_BENCH_VISION_REPEATS`` (timing rounds, default 9, at least 7).
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
ROUNDS = max(7, int(os.environ.get("REPRO_BENCH_VISION_REPEATS", "9")))
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


def _time_rounds(variants: dict, rounds: int = ROUNDS) -> dict:
    """Wall seconds of each variant per round, interleaved round by round.

    Round ``r`` starts at variant ``r mod len(variants)``, so no variant
    always runs first (cold) or right after the same neighbour.
    """
    names = list(variants)
    times = {name: [] for name in names}
    for r in range(rounds):
        for name in names[r % len(names):] + names[: r % len(names)]:
            start = time.perf_counter()
            variants[name]()
            times[name].append(time.perf_counter() - start)
    return times


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

    times = _time_rounds({
        "seed_scalar": lambda: [_seed_robust_hash(r) for r in rasters],
        "one_image": lambda: [robust_hash(r) for r in rasters],
        "batched": lambda: hash_batch(rasters),
        "nsfw_scalar": lambda: [scorer.score(r) for r in rendered],
        "nsfw_block": score_blocks,
    })
    rate = {name: len(rasters) / float(np.median(t)) for name, t in times.items()}
    speed = float(np.median(np.array(times["seed_scalar"]) / np.array(times["batched"])))
    benchmark.pedantic(lambda: hash_batch(rasters), rounds=1, iterations=1)

    cache_stats = bench_report.vision_cache_stats
    hit_rate = None
    if cache_stats is not None:
        lookups = cache_stats.hits + cache_stats.misses
        hit_rate = cache_stats.hits / lookups if lookups else 0.0
    payload = {
        "config": {
            "n_rasters": len(rasters),
            "raster_shape": list(RASTER_SHAPE),
            "rounds": ROUNDS,
            "seed": BENCH_SEED,
            "pipeline_scale": BENCH_SCALE,
            "numpy": np.__version__,
        },
        "images_per_second": {name: round(r, 1) for name, r in rate.items()},
        "speedup": {
            "batched_vs_seed_scalar": round(speed, 2),
            "batched_vs_one_image": round(rate["batched"] / rate["one_image"], 2),
            "one_image_vs_seed_scalar": round(rate["one_image"] / rate["seed_scalar"], 2),
            "nsfw_block_vs_scalar": round(rate["nsfw_block"] / rate["nsfw_scalar"], 2),
        },
        "vision_cache": (
            {
                "hits": cache_stats.hits,
                "misses": cache_stats.misses,
                "hit_rate": round(hit_rate, 4),
                "entries": cache_stats.n_entries,
            }
            if cache_stats is not None
            else None
        ),
    }
    write_result_json("BENCH_vision", payload)

    lines = [
        "P1 — vision throughput " + scale_note(),
        f"rasters          : {len(rasters)} × {RASTER_SHAPE}, {ROUNDS} interleaved rounds",
        f"seed scalar loop : {rate['seed_scalar']:,.0f} img/s",
        f"one-image calls  : {rate['one_image']:,.0f} img/s",
        f"batched          : {rate['batched']:,.0f} img/s",
        f"speedup (vs seed): {speed:.2f}× median per-round ratio (target ≥ 3×)",
        f"nsfw per image   : {rate['nsfw_scalar']:,.0f} img/s",
        f"nsfw blocks of {SCORE_BLOCK}: {rate['nsfw_block']:,.0f} img/s "
        f"({rate['nsfw_block'] / rate['nsfw_scalar']:.2f}×)",
        f"vision cache     : "
        + (
            f"{cache_stats.hits} hits, {cache_stats.misses} misses "
            f"({hit_rate:.1%}), {cache_stats.n_entries} entries"
            if cache_stats is not None
            else "n/a"
        ),
    ]
    print_table("BENCH_vision", "\n".join(lines))

    # Acceptance: the batched engine must beat the seed loop ≥ 3×.
    assert speed >= 3.0, f"batched speedup {speed:.2f}× below the 3× target"


def test_p1_thumbnails_bit_identical(rasters):
    """The batched thumbnail path must equal the seed resize exactly."""
    thumbs = prepare_thumbnails(rasters[:64])
    for raster, thumb in zip(rasters[:64], thumbs):
        expected = _seed_block_mean_resize(raster.mean(axis=2), _HASH_GRID)
        np.testing.assert_array_equal(thumb, expected)
