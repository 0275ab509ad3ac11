"""RunStore unit tests: schema, typed failures, memo round trips.

The store's contract (DESIGN.md §12): append-only, bound to exactly one
world configuration, watermarked at the epoch it holds, and *typed* in
failure — anything wrong with the file or its contents raises a
:class:`~repro.store.errors.StoreError` subclass, never a bare
``sqlite3``/``json`` exception, and never yields a half-loaded object.
"""

from datetime import datetime, timedelta

import pytest

from repro.forum import Actor, Board, Forum, ForumDataset, Post, Thread
from repro.media.image import ImageKind, ImageLatent
from repro.store import (
    RunStore,
    StoreConfigError,
    StoreCorruptionError,
    StoreError,
    config_fingerprint,
)
from repro.synth.world import WorldConfig
from repro.vision.cache import VisionCache

from .test_store_incremental import write_sql

T0 = datetime(2014, 6, 15, 12, 30)


def small_dataset(n_posts: int = 3) -> ForumDataset:
    ds = ForumDataset()
    ds.add_forum(Forum(1, "F", has_ewhoring_board=True))
    ds.add_board(Board(2, 1, "eWhoring", category="Market", is_ewhoring_board=True))
    ds.add_actor(Actor(3, 1, "carol", T0))
    ds.add_thread(Thread(4, 2, 1, 3, "pack thread", T0))
    for i in range(n_posts):
        ds.add_post(Post(5 + i, 4, 3, T0 + timedelta(minutes=i), f"post {i}", i))
    return ds


@pytest.fixture()
def store(tmp_path):
    with RunStore(tmp_path / "run.sqlite") as s:
        yield s


class TestOpenAndIntegrity:
    def test_garbage_file_raises_typed(self, tmp_path):
        path = tmp_path / "garbage.sqlite"
        path.write_bytes(b"this is not a sqlite database at all" * 64)
        with pytest.raises(StoreCorruptionError):
            RunStore(path)

    def test_truncated_store_raises_typed(self, tmp_path):
        path = tmp_path / "trunc.sqlite"
        with RunStore(path) as s:
            s.append_dataset(small_dataset(50))
            s.checkpoint_wal()
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 3])
        with pytest.raises(StoreError):
            RunStore(path).read_dataset()

    def test_schema_version_mismatch_raises_typed(self, tmp_path):
        path = tmp_path / "future.sqlite"
        RunStore(path).close()
        write_sql(path, "UPDATE meta SET value='999' WHERE key='schema_version'")
        with pytest.raises(StoreCorruptionError, match="schema version"):
            RunStore(path)

    def test_reopen_is_clean(self, tmp_path):
        path = tmp_path / "ok.sqlite"
        with RunStore(path) as s:
            s.append_dataset(small_dataset())
        with RunStore(path) as s:
            assert s.row_counts()["posts"] == 3


class TestBindConfig:
    def test_first_bind_persists_fingerprint(self, store):
        cfg = WorldConfig(seed=7, scale=0.01)
        store.bind_config(cfg)
        store.bind_config(cfg)  # idempotent

    def test_epoch_is_not_identity(self, store):
        from dataclasses import replace

        cfg = WorldConfig(seed=7, scale=0.01, epoch_total=3)
        store.bind_config(cfg)
        store.bind_config(replace(cfg, epoch=2))
        assert config_fingerprint(cfg) == config_fingerprint(
            replace(cfg, epoch=1)
        )

    def test_different_world_refused(self, store):
        store.bind_config(WorldConfig(seed=7, scale=0.01))
        with pytest.raises(StoreConfigError, match="different world"):
            store.bind_config(WorldConfig(seed=8, scale=0.01))

    def test_epoch_total_is_identity(self, store):
        store.bind_config(WorldConfig(seed=7, scale=0.01, epoch_total=3))
        with pytest.raises(StoreConfigError):
            store.bind_config(WorldConfig(seed=7, scale=0.01, epoch_total=4))

    @pytest.mark.parametrize("stamp", [None, "1"])
    def test_store_of_an_older_world_stream_refused(self, tmp_path, stamp):
        """A store written before the world stream changed holds hashes
        of another world: stream 1, or no stamp at all (bound before the
        version was recorded).  Binding it to this build must refuse."""
        path = tmp_path / "old.sqlite"
        cfg = WorldConfig(seed=7, scale=0.01)
        with RunStore(path) as s:
            s.bind_config(cfg)
        write_sql(path, "DELETE FROM meta WHERE key='world_stream'" if stamp is None
                  else f"UPDATE meta SET value='{stamp}' WHERE key='world_stream'")
        with RunStore(path) as s:
            with pytest.raises(StoreConfigError, match="stream version 1"):
                s.bind_config(cfg)

    def test_tampered_persisted_config_fails_revalidation(self, tmp_path):
        path = tmp_path / "tampered.sqlite"
        with RunStore(path) as s:
            s.bind_config(WorldConfig(seed=7, scale=0.01))
        write_sql(path, """UPDATE meta SET value=REPLACE(value, '"seed": 7',
                           '"payload_profile": "bogus", "seed": 7')
                           WHERE key='config_fingerprint'""")
        with RunStore(path) as s:
            with pytest.raises(StoreCorruptionError, match="re-validate"):
                s.bind_config(WorldConfig(seed=7, scale=0.01))


class TestWatermarks:
    def test_absent_watermark_is_none(self, store):
        assert store.watermark() is None

    def test_round_trip(self, store):
        store.set_watermark(2, "2014-06-15T14:30:00")
        assert store.watermark() == {"epoch": 2, "cutoff": "2014-06-15T14:30:00"}

    def test_advance_allowed_rewind_refused(self, store):
        store.set_watermark(2)
        store.set_watermark(3)
        with pytest.raises(StoreConfigError, match="rewind"):
            store.set_watermark(1)


class TestDatasetRoundTrip:
    def test_append_then_read_identical(self, store):
        ds = small_dataset()
        store.append_dataset(ds)
        loaded = store.read_dataset()
        assert [p.content for p in loaded.posts()] == [p.content for p in ds.posts()]
        assert loaded.post(6).created_at == ds.post(6).created_at

    def test_reappend_is_idempotent(self, store):
        ds = small_dataset()
        assert store.append_dataset(ds) == 7  # 4 structure records + 3 posts
        assert store.append_dataset(ds) == 0
        assert store.row_counts()["posts"] == 3

    def test_since_filter_appends_only_the_suffix(self, store):
        ds = small_dataset(2)
        store.append_dataset(ds)
        cutoff = max(p.created_at for p in ds.posts()).isoformat()
        grown = small_dataset(4)  # same prefix, two newer posts
        added = store.append_dataset(grown, since=cutoff)
        assert added == 2
        assert store.row_counts()["posts"] == 4
        assert store.read_dataset().n_posts == 4

    def test_corrupted_row_never_half_loads(self, tmp_path):
        path = tmp_path / "danglers.sqlite"
        with RunStore(path) as s:
            s.append_dataset(small_dataset())
        write_sql(path, "UPDATE posts SET thread_id=999 WHERE post_id=5")
        with RunStore(path) as s:
            with pytest.raises(StoreCorruptionError, match="integrity"):
                s.read_dataset()


class TestMemoPersistence:
    def test_vision_cache_round_trip(self, store):
        cache = VisionCache()
        cache["d1"] = {"hash": 12345, "nsfw": 0.25}
        cache["d2"] = {"hash": 777}
        store.save_vision_cache(cache)
        warm = VisionCache()
        assert store.load_vision_cache(warm) == 2
        assert warm == {"d1": {"hash": 12345, "nsfw": 0.25}, "d2": {"hash": 777}}

    def test_latent_digests_round_trip_with_null_fields(self, store):
        cache = VisionCache()
        plain = ImageLatent(visual_seed=7, kind=ImageKind.LANDSCAPE,
                            skin_fraction=0.0, word_count=0)
        cache.digests[plain] = "digest-a"
        store.save_vision_cache(cache)
        warm = VisionCache()
        store.load_vision_cache(warm)
        assert warm.digests == {plain: "digest-a"}
        assert next(iter(warm.digests)).model_id is None

    def test_latent_digests_round_trip_exactly(self, store):
        cache = VisionCache()
        cache["d1"] = {"hash": 2**63 + 5}  # exceeds sqlite signed-int range
        latent = ImageLatent(
            visual_seed=2**63 - 2, kind=ImageKind.MODEL_NUDE,
            skin_fraction=0.1 + 0.2, word_count=1, model_id=12,
            is_underage=True, transform_chain=("mirror", "crop"),
        )
        cache.digests[latent] = "d1"
        store.save_vision_cache(cache)
        warm = VisionCache()
        store.load_vision_cache(warm)
        assert warm == {"d1": {"hash": 2**63 + 5}}
        assert warm.digests == {latent: "d1"}
        assert warm.hash_of(latent) == 2**63 + 5

    def test_undecodable_latent_row_is_corruption(self, tmp_path):
        path = tmp_path / "memo.sqlite"
        with RunStore(path) as s:
            cache = VisionCache()
            cache.digests[ImageLatent(1, ImageKind.MEME, 0.0, 3)] = "d"
            s.save_vision_cache(cache)
        write_sql(path, """UPDATE latent_digests SET latent='{"kind": "nope"}'""")
        with RunStore(path) as s:
            with pytest.raises(StoreCorruptionError, match="does not decode"):
                s.load_vision_cache(VisionCache())


class TestBlobsAndRuns:
    def test_record_run_and_quarantine_ledger(self, store):
        records = [
            {"stage": "url_crawl", "ref": "http://x/a",
             "error_type": "TruncatedRasterError", "message": "m", "context": "c"}
        ]
        run_id = store.record_run(2, "deadbeef", records, {"links": 10})
        runs = store.runs()
        assert runs[-1]["epoch"] == 2
        assert runs[-1]["crawl_digest"] == "deadbeef"
        assert runs[-1]["n_quarantined"] == 1
        ledger = store.quarantine_records(run_id)
        assert ledger == records
