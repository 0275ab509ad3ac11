"""Each world image is rendered once per run, and each latent digested once.

The world build renders every circulating image in use to hash it, and
featurises it there (DESIGN.md §7): validated, digested, hashed and
NSFW-scored while its pixels are live, then dropped.  A run adopts
copies of those records and of the build's latent → digest map, so its
crawl renders none of those images again, whichever object or link
brings them.  These tests count renders per image object and content
digests per latent at seed 11, scale 0.02 (the golden world), and check
that adopting the records leaves runs repeatable and the quarantine
ledger whole; a two-epoch store digests no latent twice either.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import build_world, run_pipeline
from repro.media import SyntheticImage
from repro.store import run_incremental
from repro.synth import WorldConfig
from repro.vision.cache import VisionCache

SEED = 11
SCALE = 0.02


def count_digests(monkeypatch, digests, phase):
    """Count each content digest computed, by latent, under ``phase[0]``."""
    real = SyntheticImage.content_digest

    def counting(image):
        if image.known_digest is None:
            digests[phase[0]][image.latent] += 1
        return real.fget(image)

    monkeypatch.setattr(SyntheticImage, "content_digest", property(counting))


@pytest.fixture(scope="module")
def counted():
    """Build the world and run it twice, counting renders per object
    and digests per latent."""
    renders = {"build": Counter(), "run": Counter()}
    digests = {"build": Counter(), "run": Counter()}
    phase = ["build"]
    real = SyntheticImage.pixels

    def counting(image):
        if image._pixels is None:
            renders[phase[0]][id(image)] += 1
        return real.fget(image)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(SyntheticImage, "pixels", property(counting))
        count_digests(monkeypatch, digests, phase)
        world = build_world(WorldConfig(seed=SEED, scale=SCALE))
        phase[0] = "run"
        cache = VisionCache()
        first = run_pipeline(world, cache=cache)
    second = run_pipeline(world)
    return world, renders, first, cache, second, digests


def test_build_renders_each_image_once(counted):
    _, renders, _, _, _, _ = counted
    assert renders["build"]
    assert set(renders["build"].values()) == {1}


def test_run_renders_no_object_the_build_rendered(counted):
    _, renders, _, _, _, _ = counted
    # The world keeps every image object it rendered alive, so ids
    # cannot be reused between the two phases.
    again = set(renders["build"]) & set(renders["run"])
    assert not again, f"{len(again)} build-rendered objects rendered again"


def test_run_digests_no_latent_the_build_digested(counted):
    *_, digests = counted
    assert digests["build"] and digests["run"]
    again = set(digests["build"]) & set(digests["run"])
    assert not again, f"{len(again)} build-digested latents digested again"


def test_each_latent_is_digested_at_most_once(counted):
    *_, digests = counted
    total = digests["build"] + digests["run"]
    repeated = [latent for latent, n in total.items() if n > 1]
    assert not repeated, f"{len(repeated)} latents digested more than once"


@pytest.mark.slow
def test_store_epoch_2_digests_no_latent_epoch_1_digested(tmp_path):
    digests = {1: Counter(), 2: Counter()}
    phase = [1]
    config = WorldConfig(seed=SEED, scale=SCALE, epoch_total=2)
    with pytest.MonkeyPatch.context() as monkeypatch:
        count_digests(monkeypatch, digests, phase)
        for epoch in (1, 2):
            phase[0] = epoch
            run_incremental(tmp_path / "store.sqlite", epoch=epoch, config=config)
    assert digests[1] and digests[2]
    again = set(digests[1]) & set(digests[2])
    assert not again, f"{len(again)} epoch-1 latents digested again in epoch 2"


def test_run_records_equal_build_records(counted):
    world, _, report, run, _, _ = counted
    built = world.image_features.cache
    shared = {c.digest for c in report.crawl.all_images} & set(built)
    assert shared, "the crawl should meet build-rendered images"
    for digest in shared:
        record = {k: v for k, v in run[digest].items() if k != "ocr"}
        assert record == built[digest]


def test_two_runs_on_one_world_have_equal_snapshots(counted):
    _, _, first, _, second, _ = counted
    assert first.crawl.digest() == second.crawl.digest()
    assert (
        first.telemetry.deterministic_snapshot()
        == second.telemetry.deterministic_snapshot()
    )


def test_runs_do_not_write_into_the_world_records(counted):
    world, _, _, run, _, _ = counted
    built = world.image_features.cache
    # OCR words are added lazily, to the run's copies only.
    assert any("ocr" in run[d] for d in built if d in run)
    assert not any("ocr" in r for r in built.values())


@pytest.mark.slow
def test_hostile_payloads_all_quarantined():
    world = build_world(
        WorldConfig(seed=SEED, scale=SCALE, payload_profile="hostile")
    )
    report = run_pipeline(world)
    injected = world.internet.payload_injector.n_injected
    assert injected > 0
    assert report.n_quarantined == injected
    assert not report.degraded
