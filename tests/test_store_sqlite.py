"""RunStore unit tests: schema, typed failures, memo round trips.

The store's contract (DESIGN.md §12): append-only, bound to exactly one
world configuration, watermarked per stage, and *typed* in failure —
anything wrong with the file or its contents raises a
:class:`~repro.store.errors.StoreError` subclass, never a bare
``sqlite3``/``json`` exception, and never yields a half-loaded object.
"""

import sqlite3
from datetime import datetime, timedelta

import pytest

from repro.forum import Actor, Board, Forum, ForumDataset, Post, Thread
from repro.media.validate import ValidationMemo
from repro.store import (
    RunStore,
    StoreConfigError,
    StoreCorruptionError,
    StoreError,
    config_fingerprint,
)
from repro.synth.world import WorldConfig
from repro.vision.cache import VisionCache
from repro.web.crawler import IngestMemo

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
        conn = sqlite3.connect(str(path))
        conn.execute("UPDATE meta SET value='999' WHERE key='schema_version'")
        conn.commit()
        conn.close()
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

    def test_tampered_persisted_config_fails_revalidation(self, tmp_path):
        path = tmp_path / "tampered.sqlite"
        with RunStore(path) as s:
            s.bind_config(WorldConfig(seed=7, scale=0.01))
        conn = sqlite3.connect(str(path))
        row = conn.execute(
            "SELECT value FROM meta WHERE key='config_fingerprint'"
        ).fetchone()
        tampered = row[0].replace('"seed": 7', '"payload_profile": "bogus", "seed": 7')
        conn.execute(
            "UPDATE meta SET value=? WHERE key='config_fingerprint'", (tampered,)
        )
        conn.commit()
        conn.close()
        with RunStore(path) as s:
            with pytest.raises(StoreCorruptionError, match="re-validate"):
                s.bind_config(WorldConfig(seed=7, scale=0.01))


class TestWatermarks:
    def test_absent_watermark_is_none(self, store):
        assert store.watermark("dataset") is None

    def test_round_trip(self, store):
        store.set_watermark("dataset", 2, "2014-06-15T14:30:00", None)
        wm = store.watermark("dataset")
        assert wm == {"epoch": 2, "cutoff": "2014-06-15T14:30:00", "run_id": None}

    def test_advance_allowed_rewind_refused(self, store):
        store.set_watermark("dataset", 2)
        store.set_watermark("dataset", 3)
        with pytest.raises(StoreConfigError, match="rewind"):
            store.set_watermark("dataset", 1)

    def test_stages_are_independent(self, store):
        store.set_watermark("dataset", 5)
        store.set_watermark("pipeline", 1)
        assert store.watermark("pipeline")["epoch"] == 1


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
        conn = sqlite3.connect(str(path))
        conn.execute("UPDATE posts SET thread_id=999 WHERE post_id=5")
        conn.commit()
        conn.close()
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

    def test_validation_memo_round_trip(self, store):
        memo = ValidationMemo()
        memo.record_ok("clean")
        memo.preload([("poison", ("TruncatedRasterError", "raster truncated"))])
        store.save_validation_memo(memo)
        warm = ValidationMemo()
        store.load_validation_memo(warm)
        assert warm.lookup("clean") == (True, None)
        assert warm.lookup("poison") == (
            True,
            ("TruncatedRasterError", "raster truncated"),
        )

    def test_ingest_memo_round_trip_with_null_keys(self, store):
        memo = IngestMemo()
        memo.record_ok(("http://x/a", 1, 0), "digest-a")
        memo.record_ok(("http://x/b", None, None), "digest-b")
        memo.record_error(("http://x/c", 2, 1), ValueError("boom"))
        store.save_ingest_memo("url_crawl", memo)
        warm = IngestMemo()
        store.load_ingest_memo("url_crawl", warm)
        assert warm.lookup(("http://x/b", None, None)) == ("ok", "digest-b")
        err = warm.lookup(("http://x/c", 2, 1))
        assert err[0] == "err" and err[1] == "ValueError"

    def test_ingest_memo_stages_are_namespaced(self, store):
        memo = IngestMemo()
        memo.record_ok(("http://x/a", None, None), "d")
        store.save_ingest_memo("url_crawl", memo)
        other = IngestMemo()
        assert store.load_ingest_memo("earnings", other) == 0

    def test_ok_row_without_digest_is_corruption(self, tmp_path):
        path = tmp_path / "memo.sqlite"
        with RunStore(path) as s:
            memo = IngestMemo()
            memo.record_ok(("http://x/a", None, None), "d")
            s.save_ingest_memo("url_crawl", memo)
        conn = sqlite3.connect(str(path))
        conn.execute("UPDATE ingest_memo SET digest=NULL")
        conn.commit()
        conn.close()
        with RunStore(path) as s:
            with pytest.raises(StoreCorruptionError, match="no digest"):
                s.load_ingest_memo("url_crawl", IngestMemo())

    def test_world_hashes_round_trip(self, store):
        hashes = {1: 2**63 + 5, 2: 42}  # exceeds sqlite signed-int range
        store.save_world_hashes(hashes)
        assert store.load_world_hashes() == hashes


class TestBlobsAndRuns:
    def test_blob_round_trip(self, store):
        payload = {"metrics": [1, 2, 3], "nested": {"ok": True}}
        store.save_blob("measurement", "epoch_1", payload)
        assert store.load_blob("measurement", "epoch_1") == payload
        assert store.load_blob("measurement", "missing") is None

    def test_unserialisable_blob_is_typed(self, store):
        with pytest.raises(StoreError):
            store.save_blob("measurement", "bad", {"x": object()})

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
