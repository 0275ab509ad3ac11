"""Store recovery tooling: ``repro store verify`` and ``repro store repair``.

``verify`` is the post-crash (and pre-flight) health probe: it opens the
store through the normal typed boundary — the eager ``quick_check``
integrity probe, schema-version check, persisted-config re-validation —
then cross-checks the crash-consistency invariants the atomic epoch
commit guarantees:

* a store with a recorded run has a dataset watermark, and no run's
  epoch is past it;
* every quarantine row belongs to a recorded run;
* (deep mode) the persisted corpus re-validates through the dataset
  integrity checks.

``repair`` salvages what the commit discipline preserved.  It is
deliberately conservative: drop a torn WAL (losing only the
never-committed tail), or — when the main file itself is damaged —
copy every readable committed row into a rebuilt store, drop the rows
whose owning run was lost, and atomically swap it into place only if
the result verifies.  When the committed prefix cannot be recovered
(schema/meta unreadable, corpus fails integrity), it **refuses** with a
typed error rather than half-heal.
"""

from __future__ import annotations

import os
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .errors import StoreConfigError, StoreCorruptionError
from .sqlite import RunStore

__all__ = [
    "EXIT_CONFIG",
    "EXIT_CORRUPT",
    "EXIT_OK",
    "RepairReport",
    "VerifyReport",
    "repair_store",
    "verify_store",
]

#: Typed process exit codes for the ``repro store`` subcommands.
EXIT_OK = 0
EXIT_CORRUPT = 3
EXIT_CONFIG = 4

#: Tables copied during salvage, parents first (owner rows before
#: dependents so a partially readable store keeps referential sense).
_SALVAGE_TABLES = (
    "meta",
    "forums",
    "boards",
    "actors",
    "threads",
    "posts",
    "watermarks",
    "runs",
    "quarantine",
    "vision_cache",
    "latent_digests",
    "history_runs",
    "history_spans",
    "history_metrics",
    "history_funnel",
)

#: Run on the salvaged copy, in its transaction: drop the rows whose
#: owner was lost, which verify would refuse the whole salvage over,
#: and the ``pipeline`` watermark row older stores carry.
_TRIM = (
    "DELETE FROM quarantine WHERE run_id NOT IN (SELECT run_id FROM runs)",
    *(
        f"DELETE FROM {detail} WHERE history_id NOT IN "
        f"(SELECT history_id FROM history_runs)"
        for detail in ("history_spans", "history_metrics", "history_funnel")
    ),
    "DELETE FROM watermarks WHERE stage != 'dataset'",
)

#: Sidecar suffixes of a SQLite database in WAL mode.
_SIDECARS = ("-wal", "-shm")


@dataclass
class VerifyReport:
    """What ``repro store verify`` found in a healthy store."""

    path: Path
    schema_version: int
    config_fingerprint: Optional[str]
    watermark: Optional[Dict[str, Any]]
    row_counts: Dict[str, int]
    n_runs: int
    n_quarantine: int
    size_bytes: int
    deep: bool

    def summary_lines(self) -> List[str]:
        lines = [
            f"store:            {self.path}",
            f"integrity:        ok ({'deep' if self.deep else 'shallow'} probe)",
            f"schema version:   {self.schema_version}",
        ]
        if self.config_fingerprint is not None:
            lines.append("config:           bound, re-validates")
        else:
            lines.append("config:           unbound (no run recorded yet)")
        if self.watermark is not None:
            lines.append(f"watermark:        epoch {self.watermark['epoch']}")
        else:
            lines.append("watermark:        none (empty store)")
        rows = ", ".join(f"{t}={n}" for t, n in sorted(self.row_counts.items()))
        lines.append(f"corpus rows:      {rows}")
        lines.append(
            f"runs:             {self.n_runs} recorded, "
            f"{self.n_quarantine} quarantine rows"
        )
        lines.append(f"size:             {self.size_bytes / (1024 * 1024):.2f} MiB")
        return lines


@dataclass
class RepairReport:
    """What ``repro store repair`` did (or found nothing to do)."""

    path: Path
    actions: List[str] = field(default_factory=list)
    skipped_rows: int = 0
    verify: Optional[VerifyReport] = None

    @property
    def repaired(self) -> bool:
        return bool(self.actions)

    def summary_lines(self) -> List[str]:
        lines = [f"store:            {self.path}"]
        if not self.actions:
            lines.append("repair:           nothing to do (store verifies clean)")
        else:
            for action in self.actions:
                lines.append(f"repair:           {action}")
            if self.skipped_rows:
                lines.append(
                    f"repair:           {self.skipped_rows} unreadable rows dropped"
                )
        if self.verify is not None:
            lines.append("post-repair verify:")
            lines.extend("  " + line for line in self.verify.summary_lines())
        return lines


def verify_store(path: Union[str, Path], deep: bool = True) -> VerifyReport:
    """Probe ``path`` and cross-check its crash-consistency invariants.

    Returns a :class:`VerifyReport` for a healthy store; raises
    :class:`StoreCorruptionError` (damaged) or :class:`StoreConfigError`
    (intact but inconsistent with its own bookkeeping) otherwise —
    mapped by the CLI to exit codes :data:`EXIT_CORRUPT` /
    :data:`EXIT_CONFIG`.
    """
    path = Path(path)
    if not path.exists():
        raise StoreCorruptionError(f"{path}: no such store")
    with RunStore(path) as store:
        row = store._execute(
            "SELECT value FROM meta WHERE key='schema_version'"
        ).fetchone()
        schema_version = int(row[0]) if row is not None else -1

        fingerprint = None
        row = store._execute(
            "SELECT value FROM meta WHERE key='config_fingerprint'"
        ).fetchone()
        if row is not None:
            fingerprint = row[0]
            _revalidate_fingerprint(path, fingerprint)

        watermark = store.watermark()
        runs = store.runs()

        problems: List[str] = []
        if runs and watermark is None:
            problems.append("runs recorded but dataset watermark missing")
        elif runs:
            newest = max(runs, key=lambda run: run["epoch"])
            if newest["epoch"] > watermark["epoch"]:
                problems.append(
                    f"run #{newest['run_id']} (epoch {newest['epoch']}) is "
                    f"past the dataset watermark (epoch {watermark['epoch']})"
                )

        n_quarantine = int(
            store._execute("SELECT COUNT(*) FROM quarantine").fetchone()[0]
        )
        orphans = int(
            store._execute(
                "SELECT COUNT(*) FROM quarantine WHERE run_id NOT IN "
                "(SELECT run_id FROM runs)"
            ).fetchone()[0]
        )
        if orphans:
            problems.append(f"{orphans} quarantine rows belong to no recorded run")

        if problems:
            raise StoreCorruptionError(
                f"{path}: store is inconsistent — a partial epoch leaked "
                f"past the commit discipline:\n  - " + "\n  - ".join(problems)
            )

        if deep:
            # Full corpus re-validation through the canonical cursors
            # (StoreCorruptionError on any integrity violation).
            store.read_dataset()

        return VerifyReport(
            path=path,
            schema_version=schema_version,
            config_fingerprint=fingerprint,
            watermark=watermark,
            row_counts=store.row_counts(),
            n_runs=len(runs),
            n_quarantine=n_quarantine,
            size_bytes=store.size_bytes(),
            deep=deep,
        )


def _revalidate_fingerprint(path: Path, fingerprint: str) -> None:
    """Re-validate a persisted config fingerprint (typed on failure)."""
    import json

    from ..synth.world import WorldConfig

    try:
        WorldConfig(**json.loads(fingerprint))
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise StoreCorruptionError(
            f"{path}: persisted config does not re-validate: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# Repair
# ----------------------------------------------------------------------
def repair_store(
    path: Union[str, Path], deep: bool = True, backup: bool = True
) -> RepairReport:
    """Salvage the committed prefix of a damaged store at ``path``.

    Escalates through the conservative ladder described in the module
    docstring; every successful repair ends with a full
    :func:`verify_store` pass and the report of what was done.  Raises
    :class:`StoreCorruptionError` — leaving the original untouched
    (modulo an optional ``.corrupt`` backup) — when the committed
    prefix is unrecoverable.
    """
    path = Path(path)
    report = RepairReport(path=path)

    try:
        report.verify = verify_store(path, deep=deep)
        return report
    except (StoreCorruptionError, StoreConfigError):
        pass

    # -- rung 1: drop a torn WAL (only ever loses uncommitted frames) --
    sidecars = [Path(str(path) + s) for s in _SIDECARS]
    if any(side.exists() for side in sidecars):
        for side in sidecars:
            if side.exists():
                dropped = side.with_name(side.name + ".dropped")
                os.replace(side, dropped)
                report.actions.append(f"dropped torn WAL sidecar {side.name}")
        try:
            report.verify = verify_store(path, deep=deep)
            return report
        except (StoreCorruptionError, StoreConfigError):
            pass

    # -- rung 2: rebuild from every readable committed row -------------
    rebuilt = path.with_name(path.name + ".repaired")
    for stale in (rebuilt, *(Path(str(rebuilt) + s) for s in _SIDECARS)):
        if stale.exists():
            stale.unlink()
    skipped = _salvage_copy(path, rebuilt)
    report.skipped_rows += skipped
    report.actions.append(
        f"rebuilt store from readable committed rows"
        + (f" ({skipped} rows unreadable)" if skipped else "")
    )

    try:
        report.verify = verify_store(rebuilt, deep=deep)
    except (StoreCorruptionError, StoreConfigError) as exc:
        rebuilt.unlink(missing_ok=True)
        raise StoreCorruptionError(
            f"{path}: committed prefix is unrecoverable; refusing to "
            f"repair ({exc})"
        ) from exc

    if backup:
        os.replace(path, path.with_name(path.name + ".corrupt"))
        report.actions.append(f"backed up damaged file to {path.name}.corrupt")
    for side in sidecars:
        side.unlink(missing_ok=True)
    os.replace(rebuilt, path)
    report.actions.append("swapped rebuilt store into place")
    report.verify = verify_store(path, deep=deep)
    return report


def _salvage_copy(source: Path, target: Path) -> int:
    """Copy every readable row of ``source`` into a fresh store, then
    trim it (:data:`_TRIM`).

    Row-by-row with per-row error absorption, so a malformed page loses
    only the rows that lived on it.  Raises
    :class:`StoreCorruptionError` when the schema/meta backbone cannot
    be read at all — there is no committed prefix to save.
    """
    try:
        raw = sqlite3.connect(str(source))
    except sqlite3.Error as exc:  # pragma: no cover - connect rarely fails
        raise StoreCorruptionError(f"{source}: cannot open for salvage: {exc}") from exc
    try:
        try:
            meta_rows = raw.execute("SELECT key, value FROM meta").fetchall()
            if not any(key == "schema_version" for key, _ in meta_rows):
                raise StoreCorruptionError(
                    f"{source}: meta table has no schema_version; "
                    f"committed prefix unrecoverable"
                )
        except sqlite3.Error as exc:
            raise StoreCorruptionError(
                f"{source}: meta table unreadable; committed prefix "
                f"unrecoverable: {exc}"
            ) from exc

        store = RunStore(target)
        skipped = 0
        try:
            with store.transaction():
                for table in _SALVAGE_TABLES:
                    skipped += _salvage_table(raw, store, table)
                for sql in _TRIM:
                    store._execute(sql)
        finally:
            store.close()
        return skipped
    finally:
        raw.close()


def _salvage_table(raw: sqlite3.Connection, store: RunStore, table: str) -> int:
    """Copy one table's readable rows; returns how many were lost."""
    try:
        cursor = raw.execute(f"SELECT * FROM {table}")
        width = len(cursor.description)
    except sqlite3.Error:
        # The whole table is unreadable; its rows are all lost.  meta
        # readability was asserted up front, so this only drops
        # dependent data the verify pass will judge.
        try:
            return int(raw.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0])
        except sqlite3.Error:
            return 0
    placeholders = ", ".join("?" * width)
    sql = f"INSERT OR REPLACE INTO {table} VALUES ({placeholders})"
    skipped = 0
    while True:
        try:
            row = cursor.fetchone()
        except sqlite3.Error:
            # A malformed page poisons the cursor; the rest of this
            # table's scan is lost (resuming the same cursor would spin
            # on the same error).  The verify pass judges the damage.
            return skipped + 1
        if row is None:
            return skipped
        store._execute(sql, tuple(row))

