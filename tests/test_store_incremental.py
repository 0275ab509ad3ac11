"""The tentpole invariant: incremental runs are bit-identical to cold.

For any world configuration, running the store-backed pipeline over
epochs ``1..N`` one delta at a time must produce, at epoch ``N``,
exactly what a single cold run over the whole union produces:

* the same crawl digest (:meth:`CrawlResult.digest`),
* the same quarantine ledger, record for record,
* the same measurement view
  (:meth:`~repro.obs.RunTelemetry.measurement_view` — the funnel and
  measured metrics, without the work-accounting registry, whose
  cache/store counts legitimately differ between warm and cold runs).

The matrix deliberately crosses the store path with the failure
machinery of earlier PRs: fault profiles (transport chaos), payload
profiles (corrupt rasters → quarantine), drift profiles (adversarial
evasion).
"""

import re
import sqlite3

import pytest

from repro.store import (
    PersistSession,
    RunStore,
    StoreConfigError,
    StoreCorruptionError,
    repair_store,
    run_incremental,
    verify_store,
)
from repro.synth.world import WorldConfig, build_world

#: Small-but-inhabited world: every funnel stage sees traffic, including
#: quarantine (hostile payloads) and the underage/hashlist branches.
WORLD_KW = dict(
    seed=3,
    scale=0.006,
    with_other_activity=False,
    underage_rate=0.30,
    hashlist_rate=0.5,
    epoch_total=3,
)


def ledger(result):
    return [r.to_dict() for r in result.report.quarantine.records]


def run_epochs(tmp_path, name, epochs, **overrides):
    cfg = {**WORLD_KW, **overrides}
    path = tmp_path / f"{name}.sqlite"
    result = None
    for epoch in epochs:
        result = run_incremental(path, epoch=epoch, **cfg)
    return result


class TestIncrementalEqualsCold:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"payload_profile": "hostile"},
            {"fault_profile": "flaky"},
            {"drift_profile": "aggressive", "drift_epoch": 1},
            {"fault_profile": "hostile", "payload_profile": "hostile"},
        ],
        ids=["clean", "payload-hostile", "fault-flaky", "drift", "fault+payload"],
    )
    def test_epochs_1_to_3_equal_cold_union(self, tmp_path, overrides):
        cold = run_epochs(tmp_path, "cold", [3], **overrides)
        inc = run_epochs(tmp_path, "inc", [1, 2, 3], **overrides)
        assert inc.crawl_digest == cold.crawl_digest
        assert ledger(inc) == ledger(cold)
        assert inc.measurement == cold.measurement

    def test_delta_appends_are_monotone(self, tmp_path):
        path = tmp_path / "mono.sqlite"
        totals = []
        for epoch in (1, 2, 3):
            result = run_incremental(path, epoch=epoch, **WORLD_KW)
            totals.append(sum(result.row_counts.values()))
            assert result.rows_added > 0
        assert totals == sorted(totals)
        # the epoch-3 store holds exactly the cold union's row count
        cold = run_incremental(tmp_path / "cold.sqlite", epoch=3, **WORLD_KW)
        assert totals[-1] == sum(cold.row_counts.values())

    def test_rerun_at_same_epoch_adds_nothing_and_matches(self, tmp_path):
        path = tmp_path / "rerun.sqlite"
        first = run_incremental(path, epoch=3, **WORLD_KW)
        again = run_incremental(path, epoch=3, **WORLD_KW)
        assert again.rows_added == 0
        assert again.crawl_digest == first.crawl_digest
        assert again.measurement == first.measurement

    def test_warm_memos_are_actually_consulted(self, tmp_path):
        path = tmp_path / "warm.sqlite"
        run_incremental(path, epoch=2, **WORLD_KW)
        result = run_incremental(path, epoch=3, **WORLD_KW)
        hits = [
            metric["value"]
            for metric in result.report.telemetry.deterministic_snapshot()["metrics"]
            if metric["name"] == "vision_cache.hits"
        ]
        assert hits and hits[0] > 0

    def test_work_accounting_stays_out_of_the_measurement_view(self, tmp_path):
        path = tmp_path / "work.sqlite"
        run_incremental(path, epoch=2, **WORLD_KW)
        tele = run_incremental(path, epoch=3, **WORLD_KW).report.telemetry
        measured = [m["name"] for m in tele.measurement_view()["metrics"]]
        assert measured
        assert not [
            name
            for name in measured
            if name.startswith(("vision_cache.", "store.", "internet."))
        ]
        every = [m["name"] for m in tele.deterministic_snapshot()["metrics"]]
        assert "vision_cache.hits" in every
        assert set(measured) < set(every)


class TestStoreRefusals:
    def test_epoch_rewind_refused(self, tmp_path):
        path = tmp_path / "rewind.sqlite"
        run_incremental(path, epoch=2, **WORLD_KW)
        with pytest.raises(StoreConfigError, match="rewind"):
            run_incremental(path, epoch=1, **WORLD_KW)

    def test_foreign_config_refused(self, tmp_path):
        path = tmp_path / "bound.sqlite"
        run_incremental(path, epoch=1, **WORLD_KW)
        other = dict(WORLD_KW, seed=WORLD_KW["seed"] + 1)
        with pytest.raises(StoreConfigError, match="different world"):
            run_incremental(path, epoch=2, **other)

    def test_config_object_and_overrides_are_exclusive(self, tmp_path):
        with pytest.raises(TypeError):
            run_incremental(
                tmp_path / "x.sqlite",
                config=WorldConfig(**WORLD_KW),
                seed=9,
            )


def dataset_orders(dataset):
    """Every table and index of ``dataset``, in its iteration order."""
    orders = {
        "forums": list(dataset.forums()),
        "boards": list(dataset.boards()),
        "actors": list(dataset.actors()),
        "threads": list(dataset.threads()),
        "posts": list(dataset.posts()),
    }
    for forum in dataset.forums():
        orders["boards", forum.forum_id] = list(dataset.boards(forum.forum_id))
        orders["threads", forum.forum_id] = list(dataset.threads(forum.forum_id))
    for board in dataset.boards():
        orders["threads_in_board", board.board_id] = dataset.threads_in_board(board.board_id)
    for actor in dataset.actors():
        orders["posts_by_actor", actor.actor_id] = dataset.posts_by_actor(actor.actor_id)
    for thread in dataset.threads():
        orders["posts_in_thread", thread.thread_id] = dataset.posts_in_thread(thread.thread_id)
    return orders


def assert_orders_equal(built, stored):
    built_orders, stored_orders = dataset_orders(built), dataset_orders(stored)
    assert built_orders.keys() == stored_orders.keys()
    differing = [k for k in built_orders if built_orders[k] != stored_orders[k]]
    assert not differing, f"orders differ in {differing[:5]}"


class TestBuiltDatasetEqualsStored:
    """A store epoch measures the built dataset, not a copy read back.

    That is sound only while the built dataset iterates in the order the
    store's cursors read: then equal record sets give equal stage inputs.
    """

    def test_every_epoch_of_a_three_epoch_run(self, tmp_path):
        with RunStore(tmp_path / "orders.sqlite") as store:
            for epoch in (1, 2, 3):
                built = build_world(WorldConfig(**WORLD_KW, epoch=epoch)).dataset
                store.append_dataset(built)
                assert_orders_equal(built, store.read_dataset())

    def test_drifted_world(self, tmp_path):
        # Hostile drift moves threads between boards and forums; a moved
        # thread must take its id-order place in the indices.
        cfg = WorldConfig(**WORLD_KW, drift_profile="hostile", drift_epoch=2)
        world = build_world(cfg)
        assert any(kind == "move" for kind in world.drift_ledger.migrated_threads.values())
        with RunStore(tmp_path / "drifted.sqlite") as store:
            store.append_dataset(world.dataset)
            assert_orders_equal(world.dataset, store.read_dataset())


class TestCorpusRowCheck:
    def test_extra_stored_row_refuses_the_epoch(self, tmp_path):
        path = tmp_path / "extra.sqlite"
        run_incremental(path, epoch=1, **WORLD_KW)
        write_sql(path, "INSERT INTO posts SELECT post_id + 1000000000, thread_id, "
                  "author_id, created_at, content, position, quoted_post_id "
                  "FROM posts LIMIT 1")
        with RunStore(path) as store:
            before = store.watermark()
        with pytest.raises(StoreCorruptionError, match="corpus rows"):
            run_incremental(path, epoch=2, **WORLD_KW)
        with RunStore(path) as store:
            assert store.watermark() == before

    def test_store_with_legacy_images_table_runs_on(self, tmp_path):
        """A store from before the write-only ``images`` table was dropped
        keeps it; the next epoch and verify ignore it."""
        path = tmp_path / "legacy.sqlite"
        run_incremental(path, epoch=1, **WORLD_KW)
        add_legacy_images_table(path)
        result = run_incremental(path, epoch=2, **WORLD_KW)
        assert result.rows_added > 0
        verify_store(path)


def write_sql(path, script):
    """Run ``script`` on the store file at ``path``, past the store."""
    conn = sqlite3.connect(path)
    conn.executescript(script)
    conn.close()


def add_legacy_images_table(path):
    """Give ``path`` the ``images`` table older stores carry, with rows."""
    write_sql(path, f"""
        CREATE TABLE images (digest TEXT PRIMARY KEY,
                             first_epoch INTEGER NOT NULL, link_kind TEXT);
        INSERT INTO images VALUES ('{"d" * 64}', 1, 'pack'), ('{"e" * 64}', 1, 'preview');
    """)


#: What stores of earlier layouts carry and nothing reads: two
#: per-image memo tables, five corpus indices, a measurement blob per
#: epoch and a ``pipeline`` watermark beside the dataset one.
_PARENT_ERA_SCHEMA = """
CREATE TABLE ingest_memo (
    stage TEXT NOT NULL, url TEXT NOT NULL, pack_id INTEGER NOT NULL,
    member_index INTEGER NOT NULL, ok INTEGER NOT NULL, digest TEXT,
    error_type TEXT, message TEXT,
    PRIMARY KEY (stage, url, pack_id, member_index)
);
CREATE TABLE world_hashes (image_id INTEGER PRIMARY KEY, hash TEXT NOT NULL);
CREATE INDEX idx_boards_forum ON boards (forum_id);
CREATE INDEX idx_threads_board ON threads (board_id);
CREATE INDEX idx_threads_created ON threads (created_at);
CREATE INDEX idx_posts_author ON posts (author_id);
CREATE INDEX idx_posts_created ON posts (created_at);
CREATE TABLE blobs (kind TEXT NOT NULL, key TEXT NOT NULL, payload TEXT NOT NULL,
                    PRIMARY KEY (kind, key));
INSERT INTO blobs VALUES ('measurement', 'epoch_1', '{}');
INSERT INTO watermarks SELECT 'pipeline', epoch, cutoff, 1 FROM watermarks;
"""


def add_parent_era_facts(path, result, world):
    """Give the epoch-1 store at ``path`` what stores of earlier layouts
    carry, with memo rows that would change any run that read them:
    every crawled link replays a failure, and every world image has
    hash 0."""
    conn = sqlite3.connect(path)
    conn.executescript(_PARENT_ERA_SCHEMA)
    conn.executemany(
        "INSERT OR REPLACE INTO ingest_memo VALUES "
        "(?, ?, ?, ?, 0, NULL, 'ValueError', 'replayed')",
        [
            (stage, str(c.link.url), -1 if c.pack_id is None else c.pack_id, index)
            for c in result.report.crawl.all_images
            for stage in ("url_crawl", "earnings")
            for index in (-1, 0, 1, 2)
        ],
    )
    conn.executemany(
        "INSERT OR REPLACE INTO world_hashes VALUES (?, '0')",
        [(c.image.image_id,) for model in world.supply.models for c in model.pool],
    )
    conn.commit()
    conn.close()


def add_orphan_quarantine_row(path):
    """A quarantine row of no recorded run: repair rebuilds the store."""
    write_sql(path, "INSERT INTO quarantine VALUES (999, 0, 'url_crawl', 'x', 'E', 'm', '{}')")


class TestParentEraStore:
    def test_old_memo_tables_are_ignored_and_not_repaired(self, tmp_path):
        """So are the old layouts' indices, blobs and pipeline watermark."""
        path = tmp_path / "parent-era.sqlite"
        first = run_incremental(path, epoch=1, **WORLD_KW)
        add_parent_era_facts(path, first, build_world(WorldConfig(**WORLD_KW)))
        for epoch in (2, 3):
            inc = run_incremental(path, epoch=epoch, **WORLD_KW)
            assert verify_store(path).watermark["epoch"] == epoch
        cold = run_epochs(tmp_path, "cold", [3])
        assert inc.crawl_digest == cold.crawl_digest
        assert ledger(inc) == ledger(cold)
        assert inc.measurement == cold.measurement
        add_orphan_quarantine_row(path)
        assert repair_store(path).repaired
        verify_store(path)
        conn = sqlite3.connect(path)
        names = {row[0] for row in conn.execute("SELECT name FROM sqlite_master")}
        stages = [row[0] for row in conn.execute("SELECT stage FROM watermarks")]
        conn.close()
        legacy = re.findall(r"CREATE (?:TABLE|INDEX) (\w+)", _PARENT_ERA_SCHEMA)
        assert len(legacy) == 8 and not names & set(legacy)
        assert "latent_digests" in names and stages == ["dataset"]

    def test_new_store_holds_no_old_memo_table(self, tmp_path):
        path = tmp_path / "new.sqlite"
        run_incremental(path, epoch=1, **WORLD_KW)
        conn = sqlite3.connect(path)
        tables = {row[0] for row in conn.execute("SELECT name FROM sqlite_master")}
        (n_latents,) = conn.execute("SELECT COUNT(*) FROM latent_digests").fetchone()
        conn.close()
        assert not tables & {"ingest_memo", "world_hashes"}
        assert n_latents > 0


class TestDriftThroughStore:
    def test_drift_epoch_zero_is_strict_noop(self, tmp_path):
        """A drift profile armed at epoch 0 must not perturb anything.

        The store path re-validates the persisted profile; epoch 0 (and
        profile ``none``) must come out bit-identical to an undrifted run
        of the same world.
        """
        plain = run_epochs(tmp_path, "plain", [1, 2, 3])
        armed = run_epochs(
            tmp_path, "armed", [1, 2, 3],
            drift_profile="aggressive", drift_epoch=0,
        )
        assert armed.crawl_digest == plain.crawl_digest
        assert ledger(armed) == ledger(plain)
        assert armed.measurement == plain.measurement

    def test_store_loaded_world_revalidates_drift_profile(self, tmp_path):
        """Bad profile names die in WorldConfig before touching the store."""
        with pytest.raises(ValueError, match="profile"):
            run_incremental(
                tmp_path / "bad.sqlite", epoch=1,
                **dict(WORLD_KW, drift_profile="definitely-not-a-profile"),
            )


class TestPersistSession:
    def test_unchanged_memos_are_not_rewritten(self, tmp_path):
        path = tmp_path / "skip.sqlite"
        run_incremental(path, epoch=3, **WORLD_KW)
        with RunStore(path) as store:
            session = PersistSession.load(store)
            before = store._execute(
                "SELECT COUNT(*) FROM vision_cache"
            ).fetchone()[0]
            assert session.save(store) == 0  # nothing grew: every write skipped
            after = store._execute(
                "SELECT COUNT(*) FROM vision_cache"
            ).fetchone()[0]
        assert before == after

    def test_grown_memo_is_rewritten(self, tmp_path):
        path = tmp_path / "grow.sqlite"
        run_incremental(path, epoch=3, **WORLD_KW)
        with RunStore(path) as store:
            session = PersistSession.load(store)
            session.cache["brand-new-digest"] = {"hash": 12345}
            assert session.save(store) == 1  # the new row, and only it
            row = store._execute(
                "SELECT value FROM vision_cache "
                "WHERE digest='brand-new-digest' AND field='hash'"
            ).fetchone()
        assert row is not None and row[0] == "12345"
