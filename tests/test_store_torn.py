"""Torn-file injection: damaged artifacts fail *typed*, never half-load.

Satellite of the crash-consistency layer (DESIGN.md §13): the chaos
harness proves a SIGKILL can't corrupt anything, so these tests supply
the corruption by hand — truncation and garbage bytes at
deterministically hash-chosen offsets — and assert three things:

* every damaged store raises the typed taxonomy
  (:class:`StoreCorruptionError`), never a bare ``sqlite3``/``json``
  exception or a half-loaded object;
* ``repro store verify`` maps the taxonomy to its typed exit codes;
* ``repro store repair`` salvages exactly the committed prefix — and
  **refuses** when there is no committed prefix left to save.

WAL-sidecar damage is special: SQLite's checksum chain means a torn or
garbage WAL is indistinguishable from a crash before COMMIT, so the
store must *survive* it at the previous watermark — that case asserts
recovery, not refusal.
"""

import hashlib
import os
import shutil
import sqlite3

import pytest

from repro.cli import main
from repro.store import (
    EXIT_CONFIG,
    EXIT_CORRUPT,
    EXIT_OK,
    RunStore,
    StoreConfigError,
    StoreCorruptionError,
    repair_store,
    run_incremental,
    verify_store,
)

from .test_store_incremental import (
    add_legacy_images_table,
    add_orphan_quarantine_row,
    write_sql,
)

SEED = 7


def hash_offset(label: str, size: int, lo: float = 0.1, hi: float = 0.9) -> int:
    """A deterministic byte offset inside ``[lo*size, hi*size)``.

    Pure ``blake2b(seed, label)`` — the same discipline as
    :func:`repro.chaos.chosen_hit`, so every injected tear is
    reproducible from the test name alone.
    """
    digest = hashlib.blake2b(f"{SEED}\x1f{label}".encode(), digest_size=8).digest()
    window = max(1, int(size * (hi - lo)))
    return int(size * lo) + int.from_bytes(digest, "big") % window


@pytest.fixture(scope="module")
def healthy_store(tmp_path_factory):
    """One committed epoch; every test copies it before damaging it."""
    path = tmp_path_factory.mktemp("torn") / "healthy.sqlite"
    run_incremental(path, epoch=1, seed=SEED, scale=0.005, epoch_total=1)
    return path


@pytest.fixture
def store_copy(healthy_store, tmp_path):
    return shutil.copy(healthy_store, tmp_path / "store.sqlite")


class TestTornDatabase:
    def test_truncated_db_fails_typed(self, store_copy):
        size = os.path.getsize(store_copy)
        os.truncate(store_copy, hash_offset("truncate-db", size))
        with pytest.raises(StoreCorruptionError):
            verify_store(store_copy)
        with pytest.raises(StoreCorruptionError):
            RunStore(store_copy)

    def test_truncated_to_stub_fails_typed(self, store_copy):
        os.truncate(store_copy, 50)
        with pytest.raises(StoreCorruptionError):
            verify_store(store_copy)

    def test_garbage_header_fails_typed(self, store_copy):
        with open(store_copy, "r+b") as handle:
            handle.write(b"\xde\xad" * 8)
        with pytest.raises(StoreCorruptionError, match="not a database"):
            verify_store(store_copy)

    def test_garbage_mid_file_fails_typed(self, store_copy):
        size = os.path.getsize(store_copy)
        with open(store_copy, "r+b") as handle:
            for label in ("tear-a", "tear-b", "tear-c"):
                handle.seek(hash_offset(label, size))
                handle.write(b"\xa5" * 2048)
        with pytest.raises(StoreCorruptionError):
            verify_store(store_copy)

    def test_unsupported_schema_version_fails_typed(self, store_copy):
        write_sql(store_copy, "UPDATE meta SET value='999' WHERE key='schema_version'")
        with pytest.raises(StoreCorruptionError, match="schema version"):
            verify_store(store_copy)

    def test_missing_store_fails_typed(self, tmp_path):
        with pytest.raises(StoreCorruptionError, match="no such store"):
            verify_store(tmp_path / "never-existed.sqlite")


class TestTornWal:
    """WAL damage ≡ crash before COMMIT: survive, don't refuse."""

    def _wal(self, store_copy, payload: bytes):
        with open(str(store_copy) + "-wal", "wb") as handle:
            handle.write(payload)

    def test_garbage_wal_is_discarded(self, store_copy):
        self._wal(store_copy, b"\xa5" * 8192)
        report = verify_store(store_copy)
        assert report.watermark["epoch"] == 1

    def test_truncated_wal_is_discarded(self, store_copy):
        size = 8192
        self._wal(store_copy, b"\x00" * hash_offset("truncate-wal", size))
        report = verify_store(store_copy)
        assert report.watermark["epoch"] == 1

    def test_wal_damage_never_raises_untyped(self, store_copy):
        self._wal(store_copy, b"\xff" * 4096)
        try:
            store = RunStore(store_copy)
        except StoreCorruptionError:
            return  # typed refusal is acceptable; bare sqlite3 error is not
        store.close()


class TestInconsistencyDetection:
    """Partial state that leaked past the commit discipline is caught."""

    def test_orphan_quarantine_rows_fail_verify(self, store_copy):
        add_orphan_quarantine_row(store_copy)
        with pytest.raises(StoreCorruptionError, match="belong to no recorded run"):
            verify_store(store_copy)

    def test_pipeline_watermark_ahead_fails_verify(self, store_copy):
        """A run recorded past the dataset watermark."""
        write_sql(store_copy, "UPDATE runs SET epoch=99")
        with pytest.raises(StoreCorruptionError, match="past the dataset watermark"):
            verify_store(store_copy)

    def test_dangling_watermark_run_id_fails_verify(self, store_copy):
        """Recorded runs, and no dataset watermark for them."""
        write_sql(store_copy, "DELETE FROM watermarks WHERE stage='dataset'")
        with pytest.raises(StoreCorruptionError, match="dataset watermark missing"):
            verify_store(store_copy)


class TestRepair:
    def test_healthy_store_is_left_alone(self, store_copy):
        report = repair_store(store_copy)
        assert not report.repaired
        assert report.verify is not None

    def test_orphan_quarantine_is_trimmed(self, store_copy, tmp_path):
        # The row-by-row rebuild also runs on a store that still carries
        # the crawled-image table older stores have; it is not copied.
        legacy = shutil.copy(store_copy, tmp_path / "legacy.sqlite")
        add_legacy_images_table(legacy)
        for path in (store_copy, legacy):
            add_orphan_quarantine_row(path)
            report = repair_store(path)
            assert report.repaired
            assert any("rebuilt store" in a for a in report.actions)
            verify_store(path)  # now clean
            # The damaged original was preserved for forensics.
            assert os.path.exists(str(path) + ".corrupt")
        conn = sqlite3.connect(legacy)
        tables = {row[0] for row in conn.execute("SELECT name FROM sqlite_master")}
        conn.close()
        assert "images" not in tables

    def test_garbage_mid_file_salvages_committed_prefix(self, store_copy):
        size = os.path.getsize(store_copy)
        with open(store_copy, "r+b") as handle:
            handle.seek(hash_offset("repair-tear", size))
            handle.write(b"\xa5" * 2048)
        report = repair_store(store_copy)
        assert report.repaired
        assert any("rebuilt store" in a for a in report.actions)
        verify_store(store_copy)

    def test_destroyed_meta_refuses(self, store_copy):
        with open(store_copy, "r+b") as handle:
            handle.write(b"\xde\xad" * 8)
        with pytest.raises(StoreCorruptionError, match="unrecoverable"):
            repair_store(store_copy)
        # The wreck is still there — repair never destroys evidence.
        assert os.path.exists(store_copy)

    def test_unfixable_inconsistency_refuses(self, store_copy):
        write_sql(store_copy, "UPDATE runs SET epoch=99")
        with pytest.raises(StoreCorruptionError, match="refusing to repair"):
            repair_store(store_copy)


class TestStoreCli:
    def test_verify_healthy_exits_zero(self, store_copy, capsys):
        assert main(["store", "verify", str(store_copy)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "store OK" in out
        assert "watermark:        epoch 1" in out

    def test_verify_shallow_flag(self, store_copy, capsys):
        assert main(["store", "verify", "--shallow", str(store_copy)]) == EXIT_OK
        assert "shallow probe" in capsys.readouterr().out

    def test_verify_torn_exits_corrupt(self, store_copy):
        os.truncate(store_copy, os.path.getsize(store_copy) // 2)
        assert main(["store", "verify", str(store_copy)]) == EXIT_CORRUPT

    def test_verify_missing_exits_corrupt(self, tmp_path):
        assert main(["store", "verify", str(tmp_path / "nope.sqlite")]) == EXIT_CORRUPT

    def test_repair_clean_store_exits_zero(self, store_copy, capsys):
        assert main(["store", "repair", str(store_copy)]) == EXIT_OK
        assert "nothing to do" in capsys.readouterr().out

    def test_repair_trims_and_exits_zero(self, store_copy, capsys):
        add_orphan_quarantine_row(store_copy)
        assert main(["store", "repair", str(store_copy)]) == EXIT_OK
        assert "post-repair verify" in capsys.readouterr().out
        assert main(["store", "verify", str(store_copy)]) == EXIT_OK

    def test_repair_unrecoverable_exits_corrupt(self, store_copy):
        with open(store_copy, "r+b") as handle:
            handle.write(b"\xde\xad" * 8)
        assert main(["store", "repair", str(store_copy)]) == EXIT_CORRUPT

    def test_exit_codes_are_distinct(self):
        assert len({EXIT_OK, EXIT_CORRUPT, EXIT_CONFIG}) == 3
        assert EXIT_OK == 0
