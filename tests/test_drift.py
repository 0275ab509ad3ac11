"""Adversarial drift: transform properties, engine determinism, isolation.

Three invariant families from the R4 acceptance criteria:

* every registered transform is a pure function of ``(pixels, seed)``
  that preserves dtype/shape and never mutates its input;
* the drift engine is bit-deterministic in ``(world seed, profile,
  epoch)`` and the ``none`` profile / epoch 0 is a strict no-op — the
  pipeline's digests, quarantine ledger and deterministic telemetry are
  identical to a world that never met the drift engine;
* the harness produces identical decay reports across runs and worker
  counts.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import build_world, run_pipeline
from repro.cli import build_parser
from repro.drift import (
    DRIFT_PROFILES,
    DefenseConfig,
    apply_drift,
    build_watchlist_selection,
    drift_profile,
    run_drift,
    sweep_hash_radius,
)
from repro.media.transforms import (
    STACKED_EVASION_TRANSFORMS,
    apply_transform,
    transform_names,
)
from repro.obs import RunTelemetry
from repro.synth.world import WorldConfig
from repro.web.internet import (
    FetchStatus,
    MAX_REDIRECT_HOPS,
    RedirectPage,
    SimulatedInternet,
)
from repro.web.url import (
    OBFUSCATION_STYLES,
    deobfuscate_text,
    extract_urls,
    normalize_url,
    obfuscate_url,
)

SCALE = 0.02


# ----------------------------------------------------------------------
# Transform property tests (satellite: media/transforms.py)
# ----------------------------------------------------------------------

def _raster_uint8(seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8)


@pytest.mark.parametrize("name", transform_names())
def test_transform_deterministic_and_pure(name):
    pixels = _raster_uint8()
    before = pixels.copy()
    first = apply_transform(name, pixels, seed=17)
    second = apply_transform(name, pixels, seed=17)
    # Deterministic in (pixels, seed) ...
    np.testing.assert_array_equal(first, second)
    # ... never mutates the input ...
    np.testing.assert_array_equal(pixels, before)
    assert first is not pixels
    # ... and preserves dtype and 3-channel shape.
    assert first.dtype == np.uint8
    assert first.ndim == 3 and first.shape[2] == 3


@pytest.mark.parametrize("name", transform_names())
def test_transform_float_path(name):
    rng = np.random.default_rng(11)
    pixels = rng.random((24, 24, 3))
    out = apply_transform(name, pixels, seed=5)
    assert out.dtype == pixels.dtype
    assert out.ndim == 3 and out.shape[2] == 3
    assert float(out.min()) >= 0.0 and float(out.max()) <= 1.0


def test_stacked_pool_registered():
    registered = set(transform_names())
    assert set(STACKED_EVASION_TRANSFORMS) <= registered
    with pytest.raises(KeyError, match="unknown transform"):
        apply_transform("nope", _raster_uint8())


# ----------------------------------------------------------------------
# URL obfuscation + redirects
# ----------------------------------------------------------------------

def test_obfuscation_roundtrip():
    url = normalize_url("https://imgur.com/abc123")
    for style in OBFUSCATION_STYLES:
        mangled = obfuscate_url(url, style)
        assert mangled != str(url)
        # The regex extractor must miss the de-fanged spelling ...
        assert extract_urls(f"grab it here {mangled} enjoy") == []
        # ... and recover it exactly after deobfuscation.
        assert extract_urls(deobfuscate_text(f"grab it {mangled}")) == [url]
    with pytest.raises(ValueError, match="unknown obfuscation style"):
        obfuscate_url(url, "rot13")


def test_redirect_chain_resolution_and_loop_cap():
    from datetime import datetime

    net = SimulatedInternet(seed=1)
    image_url = normalize_url("https://imgur.com/target")
    from repro.media.image import ImageKind, sample_latent, SyntheticImage

    rng = np.random.default_rng(0)
    image = SyntheticImage(1, sample_latent(rng, ImageKind.MODEL_NUDE))
    t0 = datetime(2018, 1, 1)
    net.host_exact(image_url, image, t0)
    hop2 = normalize_url("https://lnk-a.net/h2")
    hop1 = normalize_url("https://lnk-a.net/h1")
    net.host_exact(hop2, RedirectPage(target=image_url), t0)
    net.host_exact(hop1, RedirectPage(target=hop2), t0)

    # Each hop is one fetch: the two redirect pages, then the image.
    calls = net.n_fetch_calls
    result = net.fetch(hop1)
    assert result.ok and result.resource is image
    assert net.n_fetch_calls - calls == 3
    # Same (url, attempt) → same walk (checkpoint replay invariant).
    calls = net.n_fetch_calls
    again = net.fetch(hop1)
    assert net.n_fetch_calls - calls == 3 and again.resource is image

    loop_a = normalize_url("https://lnk-a.net/loop-a")
    loop_b = normalize_url("https://lnk-a.net/loop-b")
    net.host_exact(loop_a, RedirectPage(target=loop_b), t0)
    net.host_exact(loop_b, RedirectPage(target=loop_a), t0)
    calls = net.n_fetch_calls
    looped = net.fetch(loop_a)
    assert looped.status is FetchStatus.REDIRECT_LOOP
    assert net.n_fetch_calls - calls == MAX_REDIRECT_HOPS + 1


# ----------------------------------------------------------------------
# Profiles + config validation (satellite: CLI/profile rejection)
# ----------------------------------------------------------------------

def test_drift_profile_lookup_and_rejection():
    assert drift_profile("hostile").transform_depth == 3
    assert drift_profile("none").is_trivial
    assert not drift_profile("mild").is_trivial
    with pytest.raises(ValueError, match=r"unknown drift profile 'bogus' \(known: aggressive"):
        drift_profile("bogus")
    with pytest.raises(ValueError, match="unknown drift profile"):
        WorldConfig(seed=1, scale=SCALE, drift_profile="bogus")
    with pytest.raises(ValueError, match="drift_epoch"):
        WorldConfig(seed=1, scale=SCALE, drift_epoch=-1)


def test_cli_rejects_unknown_profiles(capsys):
    parser = build_parser()
    for argv in (
        ["run", "--drift-profile", "bogus"],
        ["run", "--fault-profile", "bogus"],
        ["run", "--payload-profile", "bogus"],
        ["drift", "--profile", "bogus"],
    ):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)
        err = capsys.readouterr().err
        # argparse lists the valid choices in the rejection message.
        assert "invalid choice: 'bogus'" in err
        assert "none" in err


def test_cli_drift_arguments():
    parser = build_parser()
    args = parser.parse_args(
        ["drift", "--profile", "hostile", "--epochs", "3", "--defenses", "on"]
    )
    assert args.profile == "hostile" and args.epochs == 3
    args = parser.parse_args(["run", "--drift-profile", "mild", "--drift-epoch", "2"])
    assert args.drift_profile == "mild" and args.drift_epoch == 2


# ----------------------------------------------------------------------
# Engine determinism + no-op isolation
# ----------------------------------------------------------------------

def _world_fingerprint(world) -> str:
    """Content hash over everything drift can touch."""
    h = hashlib.sha256()
    for post in sorted(world.dataset.posts(), key=lambda p: p.post_id):
        h.update(f"{post.post_id}|{post.content}\n".encode())
    for thread in sorted(world.dataset.threads(), key=lambda t: t.thread_id):
        h.update(f"{thread.thread_id}|{thread.board_id}|{thread.heading}\n".encode())
    for domain in sorted(world.internet._dynamic_services):
        h.update(domain.encode())
    return h.hexdigest()


def test_engine_bit_deterministic():
    worlds = [
        build_world(seed=5, scale=SCALE, drift_profile="hostile", drift_epoch=2)
        for _ in range(2)
    ]
    a, b = worlds
    assert _world_fingerprint(a) == _world_fingerprint(b)
    assert a.drift_ledger.totals() == b.drift_ledger.totals()
    refs_a, refs_b = a.drift_ledger.refs, b.drift_ledger.refs
    assert sorted(refs_a) == sorted(refs_b)
    for key in refs_a:
        ra, rb = refs_a[key], refs_b[key]
        assert (ra.post_text, ra.target_url, ra.image_ids) == (
            rb.post_text, rb.target_url, rb.image_ids
        )


def test_engine_channels_fire_and_ledger_consistent():
    world = build_world(seed=5, scale=SCALE, drift_profile="hostile", drift_epoch=2)
    ledger = world.drift_ledger
    totals = ledger.totals()
    assert totals["n_reuploads"] > 0
    assert totals["n_obfuscated"] > 0
    assert totals["n_redirects"] > 0
    assert totals["n_domains_killed"] > 0
    assert totals["n_domains_minted"] == 8  # 4 hosts/epoch x 2 epochs
    assert totals["n_threads_migrated"] + totals["n_threads_retitled"] > 0
    # Re-uploaded refs: fresh target is live, post text names it (either
    # verbatim or through a later redirector/obfuscation rewrite).
    reuploaded = [ref for ref in ledger.refs.values() if ref.reuploaded]
    assert reuploaded
    for ref in reuploaded:
        hosted = world.internet.hosted(ref.target_url)
        assert hosted is not None
        post = world.dataset.post(ref.post_id)
        assert ref.post_text in post.content
    # Killed domains host nothing fetchable (DEFUNCT, or NOT_FOUND when a
    # re-upload had already retired the URL in an earlier epoch).
    for domain in ledger.dead_domains:
        for url in world.internet.urls_on(domain):
            assert world.internet.hosted(url).status in (
                FetchStatus.DEFUNCT,
                FetchStatus.NOT_FOUND,
            )
    # Migrated "move" threads left the eWhoring board and the keyword.
    moved = [tid for tid, mode in ledger.migrated_threads.items() if mode == "move"]
    for tid in moved:
        thread = world.dataset.thread(tid)
        board = world.dataset.board(thread.board_id)
        assert not board.is_ewhoring_board
        assert "ewhor" not in thread.heading_lower()


def test_epoch_zero_and_none_profile_are_noops():
    baseline = build_world(seed=8, scale=SCALE)
    for kwargs in (
        {"drift_profile": "none", "drift_epoch": 3},
        {"drift_profile": "hostile", "drift_epoch": 0},
    ):
        other = build_world(seed=8, scale=SCALE, **kwargs)
        assert _world_fingerprint(other) == _world_fingerprint(baseline)
        assert other.drift_ledger is not None
        assert other.drift_ledger.totals()["n_reuploads"] == 0


def test_none_profile_pipeline_bit_identical():
    """--drift-profile none is invisible: digest, quarantine, telemetry."""
    views = []
    for kwargs in ({}, {"drift_profile": "none", "drift_epoch": 2}):
        world = build_world(seed=7, scale=SCALE, payload_profile="dirty", **kwargs)
        telemetry = RunTelemetry()
        report = run_pipeline(world, telemetry=telemetry)
        views.append(
            {
                "digest": report.crawl.digest(),
                "quarantine": [
                    r.to_dict()
                    for r in (
                        report.quarantine.records
                        if report.quarantine is not None
                        else ()
                    )
                ],
                "telemetry": telemetry.deterministic_snapshot(),
            }
        )
    assert views[0] == views[1]


def test_apply_drift_rejects_negative_epoch():
    world = build_world(seed=3, scale=SCALE)
    with pytest.raises(ValueError, match="epoch"):
        apply_drift(world, drift_profile("mild"), epoch=-1, seed=0)


# ----------------------------------------------------------------------
# Defenses
# ----------------------------------------------------------------------

def test_radius_sweep_deterministic_and_bounded():
    first = sweep_hash_radius(drift_profile("hostile"), seed=42, n_samples=8)
    second = sweep_hash_radius(drift_profile("hostile"), seed=42, n_samples=8)
    assert first == second
    assert 0 <= first.radius <= 30
    assert first.false_positive_rate <= 0.01


def test_watchlist_selection_augments_keyword_base():
    world = build_world(seed=7, scale=SCALE)
    from repro.forum.query import ewhoring_threads

    base = ewhoring_threads(world.dataset)
    author = base[0].author_id
    selection = build_watchlist_selection({author})(world.dataset)
    base_ids = {t.thread_id for t in base}
    assert base_ids <= {t.thread_id for t in selection}
    extras = [t for t in selection if t.thread_id not in base_ids]
    assert all(t.author_id == author for t in extras)


# ----------------------------------------------------------------------
# Harness: decay curves are bit-identical across runs
# ----------------------------------------------------------------------

def test_drift_report_identical_across_runs():
    first, second = (
        run_drift("aggressive", epochs=1, seed=7, scale=SCALE).as_dict()
        for _ in range(2)
    )
    assert first == second
    curves = first["recall_curves"]
    assert set(curves) == {"selection", "crawl", "abuse", "nsfv", "provenance"}
    assert all(len(curve) == 2 for curve in curves.values())


def test_drift_defenses_recover_recall():
    """Defenses-on dominates defenses-off on the decayed stages."""
    off = run_drift("aggressive", epochs=1, seed=7, scale=SCALE)
    on = run_drift(
        "aggressive", epochs=1, seed=7, scale=SCALE, defenses=DefenseConfig.full()
    )
    # Baselines agree: epoch 0 never applies defenses.
    for stage in ("selection", "crawl"):
        assert off.recall_curve(stage)[0] == on.recall_curve(stage)[0]
    off_final = {s: off.recall_curve(s)[-1] for s in ("selection", "crawl")}
    on_final = {s: on.recall_curve(s)[-1] for s in ("selection", "crawl")}
    assert any(off_final[s] < 1.0 for s in off_final), "no decay to recover from"
    for stage in off_final:
        assert on_final[stage] >= off_final[stage]
    assert sum(on_final.values()) > sum(off_final.values())
