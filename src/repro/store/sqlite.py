"""The append-only SQLite run store behind ``repro run --store``.

One :class:`RunStore` file persists the full funnel across runs:

* the forum corpus (typed tables, with the indexes the store cursors
  read) — also what ``repro build --out`` writes;
* per-stage watermarks — the observation epoch (and its post-date
  cutoff) up to which the corpus has been generated and measured;
* the warm-path memo that makes delta runs cheap: the
  :class:`~repro.vision.cache.VisionCache`, as two content-keyed tables
  — ``vision_cache`` (digest → feature record) and ``latent_digests``
  (image latent → digest);
* run history — one row per pipeline run with its digest, funnel and
  quarantine ledger, plus persisted longitudinal aggregates as JSON
  blobs.

Every SQLite failure crossing this boundary is wrapped in the typed
taxonomy of :mod:`repro.store.errors`; a damaged file raises
:class:`StoreCorruptionError` at open (integrity is probed eagerly) and
never half-loads into a run.

Writes are batched (``executemany`` inside one transaction per logical
save) and dataset appends are idempotent ``INSERT OR IGNORE`` — the
nested-epoch construction of :func:`repro.synth.world.epoch_cutoff`
guarantees each epoch's visible records are a superset of the last, so
re-appending is a no-op and the store is append-only by construction.

Crash consistency (DESIGN.md §13): an incremental run wraps *all* of an
epoch's writes — corpus delta, watermarks, memos, run record,
measurement blob — in one :meth:`RunStore.transaction`.  Inside the
block every :meth:`commit` defers to the single ``COMMIT`` issued at
exit, so a process dying at any instant (the chaos harness injects
``SIGKILL`` on the commit edge itself) leaves the store exactly at the
previous watermark; a partial epoch is never visible to a reader.
"""

from __future__ import annotations

import json
import sqlite3
from contextlib import contextmanager
from dataclasses import asdict
from datetime import datetime
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..chaos.sites import kill_point
from ..forum.dataset import ForumDataset
from ..forum.models import Actor, Board, Forum, Post, Thread
from ..media.image import ImageKind, ImageLatent
from .errors import StoreConfigError, StoreCorruptionError, StoreError

__all__ = ["RunStore", "config_fingerprint"]

_SCHEMA_VERSION = 1

#: WorldConfig fields excluded from the identity fingerprint: the epoch
#: is the watermark axis (it *varies* across runs of one store).
_FINGERPRINT_EXCLUDED = ("epoch",)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS forums (
    forum_id INTEGER PRIMARY KEY,
    name TEXT NOT NULL,
    has_ewhoring_board INTEGER NOT NULL,
    bans_ewhoring INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS boards (
    board_id INTEGER PRIMARY KEY,
    forum_id INTEGER NOT NULL,
    name TEXT NOT NULL,
    category TEXT,
    is_ewhoring_board INTEGER NOT NULL,
    is_currency_exchange INTEGER NOT NULL,
    is_bragging_board INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS actors (
    actor_id INTEGER PRIMARY KEY,
    forum_id INTEGER NOT NULL,
    username TEXT NOT NULL,
    registered_at TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS threads (
    thread_id INTEGER PRIMARY KEY,
    board_id INTEGER NOT NULL,
    forum_id INTEGER NOT NULL,
    author_id INTEGER NOT NULL,
    heading TEXT NOT NULL,
    created_at TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS posts (
    post_id INTEGER PRIMARY KEY,
    thread_id INTEGER NOT NULL,
    author_id INTEGER NOT NULL,
    created_at TEXT NOT NULL,
    content TEXT NOT NULL,
    position INTEGER NOT NULL,
    quoted_post_id INTEGER
);
CREATE INDEX IF NOT EXISTS idx_boards_forum ON boards (forum_id);
CREATE INDEX IF NOT EXISTS idx_threads_board ON threads (board_id);
CREATE INDEX IF NOT EXISTS idx_threads_created ON threads (created_at);
CREATE INDEX IF NOT EXISTS idx_posts_thread ON posts (thread_id, position);
CREATE INDEX IF NOT EXISTS idx_posts_author ON posts (author_id);
CREATE INDEX IF NOT EXISTS idx_posts_created ON posts (created_at);
CREATE TABLE IF NOT EXISTS watermarks (
    stage TEXT PRIMARY KEY,
    epoch INTEGER NOT NULL,
    cutoff TEXT,
    run_id INTEGER
);
CREATE TABLE IF NOT EXISTS runs (
    run_id INTEGER PRIMARY KEY AUTOINCREMENT,
    epoch INTEGER NOT NULL,
    crawl_digest TEXT NOT NULL,
    n_quarantined INTEGER NOT NULL,
    funnel TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS quarantine (
    run_id INTEGER NOT NULL,
    seq INTEGER NOT NULL,
    stage TEXT NOT NULL,
    ref TEXT NOT NULL,
    error_type TEXT NOT NULL,
    message TEXT NOT NULL,
    context TEXT NOT NULL,
    PRIMARY KEY (run_id, seq)
);
CREATE TABLE IF NOT EXISTS vision_cache (
    digest TEXT NOT NULL,
    field TEXT NOT NULL,
    value TEXT NOT NULL,
    PRIMARY KEY (digest, field)
);
CREATE TABLE IF NOT EXISTS latent_digests (
    latent TEXT PRIMARY KEY,
    digest TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS blobs (
    kind TEXT NOT NULL,
    key TEXT NOT NULL,
    payload TEXT NOT NULL,
    PRIMARY KEY (kind, key)
);
CREATE TABLE IF NOT EXISTS history_runs (
    history_id INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id INTEGER,
    source TEXT NOT NULL,
    label TEXT,
    created_unix REAL NOT NULL,
    seed INTEGER,
    epoch INTEGER,
    wall_seconds REAL,
    cpu_seconds REAL,
    peak_rss_kb INTEGER,
    n_spans INTEGER NOT NULL,
    n_events INTEGER NOT NULL,
    n_records INTEGER,
    n_quarantined INTEGER,
    profiled INTEGER NOT NULL,
    executor TEXT,
    workers INTEGER,
    cpu_count INTEGER
);
CREATE TABLE IF NOT EXISTS history_spans (
    history_id INTEGER NOT NULL,
    name TEXT NOT NULL,
    count INTEGER NOT NULL,
    total_seconds REAL NOT NULL,
    self_seconds REAL NOT NULL,
    max_seconds REAL NOT NULL,
    errors INTEGER NOT NULL,
    cpu_seconds REAL,
    rss_peak_kb INTEGER,
    alloc_kb REAL,
    PRIMARY KEY (history_id, name)
);
CREATE TABLE IF NOT EXISTS history_metrics (
    history_id INTEGER NOT NULL,
    name TEXT NOT NULL,
    labels TEXT NOT NULL,
    kind TEXT NOT NULL,
    payload TEXT NOT NULL,
    PRIMARY KEY (history_id, name, labels)
);
CREATE TABLE IF NOT EXISTS history_funnel (
    history_id INTEGER NOT NULL,
    seq INTEGER NOT NULL,
    stage TEXT NOT NULL,
    count INTEGER,
    PRIMARY KEY (history_id, seq)
);
"""

def config_fingerprint(config) -> str:
    """Canonical JSON identity of a world config, minus the epoch axis.

    Two runs share a store iff their fingerprints match: same seed,
    scale, fault/payload/drift profiles and rates.  The observation
    ``epoch`` is deliberately excluded (it is the watermark, not the
    identity).
    """
    payload = asdict(config)
    for excluded in _FINGERPRINT_EXCLUDED:
        payload.pop(excluded, None)
    return json.dumps(payload, sort_keys=True)


def _iso(value: datetime) -> str:
    return value.isoformat()


def _encode_latent(latent: ImageLatent) -> str:
    """Every field of ``latent`` as JSON; floats keep their shortest
    round-trip form, so :func:`_decode_latent` gives an equal latent."""
    fields = asdict(latent)
    fields["kind"] = latent.kind.value
    return json.dumps(fields, sort_keys=True)


def _decode_latent(text: str) -> ImageLatent:
    fields = json.loads(text)
    fields["kind"] = ImageKind(fields["kind"])
    fields["transform_chain"] = tuple(fields["transform_chain"])
    return ImageLatent(**fields)


def _from_iso(value: str) -> datetime:
    return datetime.fromisoformat(value)


class RunStore:
    """One SQLite-backed persistent store for incremental pipeline runs."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._txn_depth = 0
        try:
            self._conn = sqlite3.connect(str(self.path))
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            # Probe integrity eagerly: a truncated or garbage file must
            # fail here, typed, before anything is read out of it.
            # quick_check catches malformed pages and truncation like the
            # full check but skips index-order scans, keeping the probe
            # O(pages) cheap on every open of a grown store.
            probe = self._conn.execute("PRAGMA quick_check").fetchone()
            if probe is None or probe[0] != "ok":
                raise StoreCorruptionError(
                    f"{self.path}: integrity check failed: {probe and probe[0]}"
                )
            self._conn.executescript(_SCHEMA)
            self._migrate_meta()
            self._conn.commit()
        except sqlite3.Error as exc:
            raise StoreCorruptionError(
                f"{self.path}: not a usable store: {exc}"
            ) from exc

    def _migrate_meta(self) -> None:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key='schema_version'"
        ).fetchone()
        if row is None:
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(_SCHEMA_VERSION),),
            )
        elif int(row[0]) != _SCHEMA_VERSION:
            raise StoreCorruptionError(
                f"{self.path}: schema version {row[0]} unsupported "
                f"(expected {_SCHEMA_VERSION})"
            )
        self._migrate_history_executor()

    def _migrate_history_executor(self) -> None:
        # Additive, nullable executor-shape columns (PR 10).  Idempotent
        # ALTERs keep old stores readable without a version bump: a NULL
        # simply means the row predates executor recording.
        existing = {
            row[1]
            for row in self._conn.execute("PRAGMA table_info(history_runs)")
        }
        for name, kind in (
            ("executor", "TEXT"),
            ("workers", "INTEGER"),
            ("cpu_count", "INTEGER"),
        ):
            if name not in existing:
                self._conn.execute(
                    f"ALTER TABLE history_runs ADD COLUMN {name} {kind}"
                )

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _execute(self, sql: str, params: Tuple = ()):
        try:
            return self._conn.execute(sql, params)
        except sqlite3.Error as exc:
            raise StoreCorruptionError(f"{self.path}: {exc}") from exc

    def _executemany(self, sql: str, rows: Iterable[Tuple]) -> None:
        try:
            self._conn.executemany(sql, rows)
        except sqlite3.Error as exc:
            raise StoreCorruptionError(f"{self.path}: {exc}") from exc

    def commit(self) -> None:
        """Commit pending writes — deferred inside a :meth:`transaction`.

        Every logical save calls this, so wrapping a sequence of saves
        in :meth:`transaction` atomically batches them: the per-save
        commits become no-ops and the one real ``COMMIT`` happens at
        block exit (or nothing does, on a crash).
        """
        if self._txn_depth:
            return
        try:
            self._conn.commit()
        except sqlite3.Error as exc:
            raise StoreCorruptionError(f"{self.path}: {exc}") from exc

    @contextmanager
    def transaction(self) -> Iterator["RunStore"]:
        """One atomic commit unit spanning many logical saves.

        The crash-consistency primitive of the store: all writes issued
        inside the block become visible in a single SQLite ``COMMIT``
        at exit; any exception — including ``BaseException`` stop
        requests like :class:`~repro.chaos.SignalInterrupt` — rolls the
        whole unit back.  Reads inside the block observe the pending
        writes (same connection), so watermark checks and row counts
        work mid-epoch.  Nested use flattens into the outermost unit.
        """
        if self._txn_depth:
            self._txn_depth += 1
            try:
                yield self
            finally:
                self._txn_depth -= 1
            return
        self._txn_depth = 1
        try:
            yield self
        except BaseException:
            self._txn_depth = 0
            try:
                self._conn.rollback()
            except sqlite3.Error:  # pragma: no cover - rollback best effort
                pass
            raise
        else:
            self._txn_depth = 0
            kill_point("store.commit.before")
            self.commit()
            kill_point("store.commit.after")

    # ------------------------------------------------------------------
    # Config binding
    # ------------------------------------------------------------------
    def bind_config(self, config) -> None:
        """Bind the store to a world config, or verify an existing binding.

        First call stores the fingerprint and the world-stream version
        (:data:`~repro.synth.world.WORLD_STREAM_VERSION`); later calls
        require an exact match of both (:class:`StoreConfigError`
        otherwise).  The *persisted*
        copy is re-validated through ``WorldConfig(**payload)`` before
        comparison — its eager ``__post_init__`` re-checks every profile
        name, so a tampered store cannot smuggle an invalid
        ``drift_profile``/``payload_profile`` string into a run.
        """
        from ..synth.world import WORLD_STREAM_VERSION, WorldConfig

        fingerprint = config_fingerprint(config)
        row = self._execute(
            "SELECT value FROM meta WHERE key='config_fingerprint'"
        ).fetchone()
        if row is None:
            self._executemany(
                "INSERT INTO meta (key, value) VALUES (?, ?)",
                [("config_fingerprint", fingerprint),
                 ("world_stream", str(WORLD_STREAM_VERSION))],
            )
            self.commit()
            return
        stored = row[0]
        try:
            payload = json.loads(stored)
            revalidated = WorldConfig(**payload)
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            raise StoreCorruptionError(
                f"{self.path}: persisted config does not re-validate: {exc}"
            ) from exc
        if config_fingerprint(revalidated) != fingerprint:
            raise StoreConfigError(
                f"{self.path}: store is bound to a different world "
                f"configuration; refusing to mix runs.\n"
                f"  stored:    {stored}\n  requested: {fingerprint}"
            )
        # A store bound before the version was recorded holds stream 1.
        row = self._execute("SELECT value FROM meta WHERE key='world_stream'").fetchone()
        stream = int(row[0]) if row is not None else 1
        if stream != WORLD_STREAM_VERSION:
            raise StoreConfigError(
                f"{self.path}: store holds a world synthesised by stream "
                f"version {stream}, and this build synthesises version "
                f"{WORLD_STREAM_VERSION}; the same config is another world "
                f"now, so its hashes and corpus cannot be mixed in. Start "
                f"a new store."
            )

    # ------------------------------------------------------------------
    # Watermarks
    # ------------------------------------------------------------------
    def watermark(self, stage: str = "dataset") -> Optional[Dict[str, Any]]:
        row = self._execute(
            "SELECT epoch, cutoff, run_id FROM watermarks WHERE stage=?",
            (stage,),
        ).fetchone()
        if row is None:
            return None
        return {"epoch": int(row[0]), "cutoff": row[1], "run_id": row[2]}

    def set_watermark(
        self,
        stage: str,
        epoch: int,
        cutoff: Optional[str] = None,
        run_id: Optional[int] = None,
    ) -> None:
        existing = self.watermark(stage)
        if existing is not None and epoch < existing["epoch"]:
            raise StoreConfigError(
                f"{self.path}: watermark for {stage!r} is at epoch "
                f"{existing['epoch']}; the store is append-only and cannot "
                f"rewind to epoch {epoch}"
            )
        self._execute(
            "INSERT INTO watermarks (stage, epoch, cutoff, run_id) "
            "VALUES (?, ?, ?, ?) ON CONFLICT(stage) DO UPDATE SET "
            "epoch=excluded.epoch, cutoff=excluded.cutoff, run_id=excluded.run_id",
            (stage, int(epoch), cutoff, run_id),
        )

    # ------------------------------------------------------------------
    # Dataset tables
    # ------------------------------------------------------------------
    def append_dataset(
        self, dataset: ForumDataset, since: Optional[str] = None
    ) -> int:
        """Idempotently upsert the dataset's records; returns rows added.

        ``INSERT OR IGNORE`` keyed on primary ids makes the append a
        delta write: records already persisted by an earlier epoch cost
        one index probe each and change nothing.

        ``since`` (the previous watermark's cutoff, an ISO timestamp —
        by construction the newest post date visible at that epoch)
        skips even the index probes for the bulk tables: threads created
        at or before it, and each thread's post prefix up to the first
        post after it, are exactly the records the earlier epoch already
        persisted (the nested-epoch prefix rule of
        :func:`~repro.synth.world.slice_dataset_to_epoch`), so only the
        suffix is offered to SQLite at all.  Correctness never depends
        on the filter — ``INSERT OR IGNORE`` would absorb any overlap —
        it only removes ~90 % of the probe work from a ≤10 % delta.
        """
        before = self.row_counts()
        threads = list(dataset.threads())
        if since is None:
            new_threads = threads
            new_posts: Iterable[Post] = dataset.posts()
        else:
            since_dt = _from_iso(since)
            new_threads = [t for t in threads if t.created_at > since_dt]
            suffix: List[Post] = []
            for thread in threads:
                thread_posts = dataset.posts_in_thread(thread.thread_id)
                prefix = 0
                for post in thread_posts:
                    if post.created_at > since_dt:
                        break
                    prefix += 1
                suffix.extend(thread_posts[prefix:])
            new_posts = suffix
        self._executemany(
            "INSERT OR IGNORE INTO forums VALUES (?, ?, ?, ?)",
            (
                (f.forum_id, f.name, int(f.has_ewhoring_board), int(f.bans_ewhoring))
                for f in dataset.forums()
            ),
        )
        self._executemany(
            "INSERT OR IGNORE INTO boards VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                (
                    b.board_id, b.forum_id, b.name, b.category,
                    int(b.is_ewhoring_board), int(b.is_currency_exchange),
                    int(b.is_bragging_board),
                )
                for b in dataset.boards()
            ),
        )
        self._executemany(
            "INSERT OR IGNORE INTO actors VALUES (?, ?, ?, ?)",
            (
                (a.actor_id, a.forum_id, a.username, _iso(a.registered_at))
                for a in dataset.actors()
            ),
        )
        self._executemany(
            "INSERT OR IGNORE INTO threads VALUES (?, ?, ?, ?, ?, ?)",
            (
                (
                    t.thread_id, t.board_id, t.forum_id, t.author_id,
                    t.heading, _iso(t.created_at),
                )
                for t in new_threads
            ),
        )
        self._executemany(
            "INSERT OR IGNORE INTO posts VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                (
                    p.post_id, p.thread_id, p.author_id, _iso(p.created_at),
                    p.content, p.position, p.quoted_post_id,
                )
                for p in new_posts
            ),
        )
        self.commit()
        after = self.row_counts()
        return sum(after.values()) - sum(before.values())

    def read_dataset(self) -> ForumDataset:
        """The persisted corpus, in canonical id order, fully validated.

        ``repro store verify`` (deep mode) reads the corpus back through
        this cursor to re-validate every row.  Its order is the one a
        built :class:`ForumDataset` keeps, so a store epoch measures the
        built dataset directly and the two agree table for table.
        """
        from_iso = _from_iso
        try:
            forums = [
                Forum(int(r[0]), r[1], bool(r[2]), bool(r[3]))
                for r in self._execute(
                    "SELECT forum_id, name, has_ewhoring_board, bans_ewhoring "
                    "FROM forums ORDER BY forum_id"
                )
            ]
            boards = [
                Board(
                    int(r[0]), int(r[1]), r[2], r[3],
                    bool(r[4]), bool(r[5]), bool(r[6]),
                )
                for r in self._execute(
                    "SELECT board_id, forum_id, name, category, "
                    "is_ewhoring_board, is_currency_exchange, "
                    "is_bragging_board FROM boards ORDER BY board_id"
                )
            ]
            actors = [
                Actor(int(r[0]), int(r[1]), r[2], from_iso(r[3]))
                for r in self._execute(
                    "SELECT actor_id, forum_id, username, registered_at "
                    "FROM actors ORDER BY actor_id"
                )
            ]
            threads = [
                Thread(
                    int(r[0]), int(r[1]), int(r[2]), int(r[3]),
                    r[4], from_iso(r[5]),
                )
                for r in self._execute(
                    "SELECT thread_id, board_id, forum_id, author_id, "
                    "heading, created_at FROM threads ORDER BY thread_id"
                )
            ]
            posts = [
                Post(
                    int(r[0]), int(r[1]), int(r[2]), from_iso(r[3]),
                    r[4], int(r[5]),
                    None if r[6] is None else int(r[6]),
                )
                for r in self._execute(
                    "SELECT post_id, thread_id, author_id, created_at, "
                    "content, position, quoted_post_id FROM posts "
                    "ORDER BY thread_id, position"
                )
            ]
            dataset = ForumDataset.from_sorted_records(
                forums, boards, actors, threads, posts
            )
        except (ValueError, TypeError) as exc:
            # DatasetError subclasses ValueError: a store whose rows no
            # longer satisfy forum integrity is corrupt, not half-usable.
            raise StoreCorruptionError(
                f"{self.path}: persisted dataset fails integrity checks: {exc}"
            ) from exc
        return dataset

    def row_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for table in ("forums", "boards", "actors", "threads", "posts"):
            counts[table] = int(
                self._execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            )
        return counts

    # ------------------------------------------------------------------
    # Memo persistence
    # ------------------------------------------------------------------
    def save_vision_cache(self, cache) -> int:
        """Write ``cache``'s records and latent → digest map; return the records."""
        self._executemany(
            "INSERT OR REPLACE INTO vision_cache (digest, field, value) "
            "VALUES (?, ?, ?)",
            (
                (digest, fld, json.dumps(value))
                for digest, entry in cache.items()
                for fld, value in entry.items()
            ),
        )
        self._executemany(
            "INSERT OR REPLACE INTO latent_digests (latent, digest) VALUES (?, ?)",
            ((_encode_latent(latent), digest) for latent, digest in cache.digests.items()),
        )
        self.commit()
        return len(cache)

    def load_vision_cache(self, cache) -> int:
        """Load the records and latent → digest map into ``cache``; return the records."""
        rows = self._execute(
            "SELECT digest, field, value FROM vision_cache ORDER BY digest, field"
        ).fetchall()
        try:
            grouped: Dict[str, Dict[str, object]] = {}
            for digest, fld, value in rows:
                grouped.setdefault(digest, {})[fld] = json.loads(value)
        except json.JSONDecodeError as exc:
            raise StoreCorruptionError(
                f"{self.path}: vision cache payload is not JSON: {exc}"
            ) from exc
        for digest, record in grouped.items():
            cache.setdefault(digest, {}).update(record)
        rows = self._execute("SELECT latent, digest FROM latent_digests").fetchall()
        try:
            cache.digests.update((_decode_latent(latent), digest) for latent, digest in rows)
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreCorruptionError(
                f"{self.path}: latent digest row does not decode: {exc}"
            ) from exc
        return len(grouped)

    # ------------------------------------------------------------------
    # Checkpoints and aggregate blobs
    # ------------------------------------------------------------------
    def save_blob(self, kind: str, key: str, payload: Any) -> None:
        try:
            encoded = json.dumps(payload, sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise StoreError(f"blob {kind}/{key} is not JSON-serialisable: {exc}") from exc
        self._execute(
            "INSERT OR REPLACE INTO blobs (kind, key, payload) VALUES (?, ?, ?)",
            (kind, key, encoded),
        )
        self.commit()

    def load_blob(self, kind: str, key: str) -> Optional[Any]:
        row = self._execute(
            "SELECT payload FROM blobs WHERE kind=? AND key=?", (kind, key)
        ).fetchone()
        if row is None:
            return None
        try:
            return json.loads(row[0])
        except json.JSONDecodeError as exc:
            raise StoreCorruptionError(
                f"{self.path}: blob {kind}/{key} is not JSON: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # Run history
    # ------------------------------------------------------------------
    def record_run(
        self,
        epoch: int,
        crawl_digest: str,
        quarantine_records: List[dict],
        funnel: List[dict],
    ) -> int:
        cursor = self._execute(
            "INSERT INTO runs (epoch, crawl_digest, n_quarantined, funnel) "
            "VALUES (?, ?, ?, ?)",
            (
                int(epoch),
                crawl_digest,
                len(quarantine_records),
                json.dumps(funnel, sort_keys=True),
            ),
        )
        run_id = int(cursor.lastrowid)
        self._executemany(
            "INSERT INTO quarantine "
            "(run_id, seq, stage, ref, error_type, message, context) "
            "VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                (
                    run_id, seq, record["stage"], record["ref"],
                    record["error_type"], record["message"],
                    json.dumps(record.get("context", {}), sort_keys=True),
                )
                for seq, record in enumerate(quarantine_records)
            ),
        )
        self.commit()
        return run_id

    def runs(self) -> List[Dict[str, Any]]:
        rows = self._execute(
            "SELECT run_id, epoch, crawl_digest, n_quarantined, funnel "
            "FROM runs ORDER BY run_id"
        ).fetchall()
        try:
            return [
                {
                    "run_id": int(r[0]),
                    "epoch": int(r[1]),
                    "crawl_digest": r[2],
                    "n_quarantined": int(r[3]),
                    "funnel": json.loads(r[4]),
                }
                for r in rows
            ]
        except json.JSONDecodeError as exc:
            raise StoreCorruptionError(
                f"{self.path}: run funnel payload is not JSON: {exc}"
            ) from exc

    def quarantine_records(self, run_id: int) -> List[dict]:
        rows = self._execute(
            "SELECT stage, ref, error_type, message, context FROM quarantine "
            "WHERE run_id=? ORDER BY seq",
            (run_id,),
        ).fetchall()
        try:
            return [
                {
                    "stage": r[0],
                    "ref": r[1],
                    "error_type": r[2],
                    "message": r[3],
                    "context": json.loads(r[4]),
                }
                for r in rows
            ]
        except json.JSONDecodeError as exc:
            raise StoreCorruptionError(
                f"{self.path}: quarantine context is not JSON: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # Telemetry history (DESIGN.md §14): span summaries, deterministic
    # metric snapshots, funnel rows.
    # ------------------------------------------------------------------
    def save_history(self, summary, run_id: Optional[int] = None) -> int:
        """Persist one :class:`~repro.obs.history.HistorySummary`.

        Called inside :func:`~repro.store.run_incremental`'s atomic
        epoch transaction (history inherits the crash-consistency
        guarantees of DESIGN.md §13) or standalone by the ``repro obs``
        ingesters; returns the new ``history_id``.
        """
        cursor = self._execute(
            "INSERT INTO history_runs "
            "(run_id, source, label, created_unix, seed, epoch, "
            " wall_seconds, cpu_seconds, peak_rss_kb, n_spans, n_events, "
            " n_records, n_quarantined, profiled, cpu_count) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                run_id,
                summary.source,
                summary.label,
                float(summary.created_unix),
                summary.seed,
                summary.epoch,
                summary.wall_seconds,
                summary.cpu_seconds,
                summary.peak_rss_kb,
                int(summary.n_spans),
                int(summary.n_events),
                summary.n_records,
                summary.n_quarantined,
                int(bool(summary.profiled)),
                summary.cpu_count,
            ),
        )
        history_id = int(cursor.lastrowid)
        self._executemany(
            "INSERT OR REPLACE INTO history_spans "
            "(history_id, name, count, total_seconds, self_seconds, "
            " max_seconds, errors, cpu_seconds, rss_peak_kb, alloc_kb) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                (
                    history_id, row["name"], int(row["count"]),
                    float(row["total_seconds"]), float(row["self_seconds"]),
                    float(row["max_seconds"]), int(row["errors"]),
                    row.get("cpu_seconds"), row.get("rss_peak_kb"),
                    row.get("alloc_kb"),
                )
                for row in summary.spans
            ),
        )
        self._executemany(
            "INSERT OR REPLACE INTO history_metrics "
            "(history_id, name, labels, kind, payload) VALUES (?, ?, ?, ?, ?)",
            (
                (
                    history_id,
                    metric["name"],
                    json.dumps(metric.get("labels", {}), sort_keys=True),
                    metric.get("kind", ""),
                    json.dumps(
                        {
                            k: v for k, v in metric.items()
                            if k not in ("name", "labels", "kind")
                        },
                        sort_keys=True,
                    ),
                )
                for metric in summary.metrics
            ),
        )
        self._executemany(
            "INSERT INTO history_funnel (history_id, seq, stage, count) "
            "VALUES (?, ?, ?, ?)",
            (
                (history_id, seq, row.get("stage", "?"), row.get("count"))
                for seq, row in enumerate(summary.funnel)
            ),
        )
        self.commit()
        return history_id

    def history_runs(self) -> List[Dict[str, Any]]:
        """Every history row (funnel joined in), oldest first."""
        rows = self._execute(
            "SELECT history_id, run_id, source, label, created_unix, seed, "
            "epoch, wall_seconds, cpu_seconds, peak_rss_kb, n_spans, "
            "n_events, n_records, n_quarantined, profiled, cpu_count "
            "FROM history_runs ORDER BY history_id"
        ).fetchall()
        funnels: Dict[int, List[Dict[str, Any]]] = {}
        for history_id, stage, count in self._execute(
            "SELECT history_id, stage, count FROM history_funnel "
            "ORDER BY history_id, seq"
        ):
            funnels.setdefault(int(history_id), []).append(
                {"stage": stage, "count": None if count is None else int(count)}
            )
        return [
            {
                "history_id": int(r[0]),
                "run_id": None if r[1] is None else int(r[1]),
                "source": r[2],
                "label": r[3],
                "created_unix": float(r[4]),
                "seed": None if r[5] is None else int(r[5]),
                "epoch": None if r[6] is None else int(r[6]),
                "wall_seconds": None if r[7] is None else float(r[7]),
                "cpu_seconds": None if r[8] is None else float(r[8]),
                "peak_rss_kb": None if r[9] is None else int(r[9]),
                "n_spans": int(r[10]),
                "n_events": int(r[11]),
                "n_records": None if r[12] is None else int(r[12]),
                "n_quarantined": None if r[13] is None else int(r[13]),
                "profiled": bool(r[14]),
                "cpu_count": None if r[15] is None else int(r[15]),
                "funnel": funnels.get(int(r[0]), []),
            }
            for r in rows
        ]

    def history_spans(self, history_id: int) -> List[Dict[str, Any]]:
        """Per-name span summaries of one history row, hottest first."""
        rows = self._execute(
            "SELECT name, count, total_seconds, self_seconds, max_seconds, "
            "errors, cpu_seconds, rss_peak_kb, alloc_kb FROM history_spans "
            "WHERE history_id=? ORDER BY self_seconds DESC, name",
            (int(history_id),),
        ).fetchall()
        return [
            {
                "name": r[0],
                "count": int(r[1]),
                "total_seconds": float(r[2]),
                "self_seconds": float(r[3]),
                "max_seconds": float(r[4]),
                "errors": int(r[5]),
                "cpu_seconds": None if r[6] is None else float(r[6]),
                "rss_peak_kb": None if r[7] is None else int(r[7]),
                "alloc_kb": None if r[8] is None else float(r[8]),
            }
            for r in rows
        ]

    def history_metrics(self, history_id: int) -> List[Dict[str, Any]]:
        """One history row's deterministic metric snapshot, re-inflated."""
        rows = self._execute(
            "SELECT name, labels, kind, payload FROM history_metrics "
            "WHERE history_id=? ORDER BY name, labels",
            (int(history_id),),
        ).fetchall()
        try:
            return [
                {
                    "name": r[0],
                    "labels": json.loads(r[1]),
                    "kind": r[2],
                    **json.loads(r[3]),
                }
                for r in rows
            ]
        except json.JSONDecodeError as exc:
            raise StoreCorruptionError(
                f"{self.path}: history metric payload is not JSON: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """On-disk footprint (main file + WAL, for growth benchmarks)."""
        total = self.path.stat().st_size if self.path.exists() else 0
        for suffix in ("-wal", "-shm"):
            side = Path(str(self.path) + suffix)
            if side.exists():
                total += side.stat().st_size
        return total

    def checkpoint_wal(self) -> None:
        """Fold the WAL into the main file (before size measurements)."""
        try:
            self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        except sqlite3.Error as exc:  # pragma: no cover - defensive
            raise StoreCorruptionError(f"{self.path}: {exc}") from exc
