"""Store recovery tooling: ``repro store verify`` and ``repro store repair``.

``verify`` is the post-crash (and pre-flight) health probe: it opens the
store through the normal typed boundary — the eager ``quick_check``
integrity probe, schema-version check, persisted-config re-validation —
then cross-checks the crash-consistency invariants the atomic epoch
commit guarantees:

* the pipeline watermark never runs ahead of the dataset watermark;
* the pipeline watermark's ``run_id`` exists in the run history;
* every quarantine row belongs to a recorded run;
* every recorded epoch's measurement blob is present and decodes;
* (deep mode) the persisted corpus re-validates through the dataset
  integrity checks.

``repair`` salvages what the commit discipline preserved.  It is
deliberately conservative: drop a torn WAL (losing only the
never-committed tail), or — when the main file itself is damaged —
copy every readable committed row into a rebuilt store, trim the
watermarks back to the newest *consistent* run, and atomically swap it
into place only if the result verifies.  When the committed prefix
cannot be recovered (schema/meta unreadable, corpus fails integrity),
it **refuses** with a typed error rather than half-heal.
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
    "blobs",
    "history_runs",
    "history_spans",
    "history_metrics",
    "history_funnel",
)

#: Sidecar suffixes of a SQLite database in WAL mode.
_SIDECARS = ("-wal", "-shm")


@dataclass
class VerifyReport:
    """What ``repro store verify`` found in a healthy store."""

    path: Path
    schema_version: int
    config_fingerprint: Optional[str]
    watermarks: Dict[str, Dict[str, Any]]
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
        for stage in sorted(self.watermarks):
            mark = self.watermarks[stage]
            lines.append(
                f"watermark[{stage}]: epoch {mark['epoch']}"
                + (f" run #{mark['run_id']}" if mark.get("run_id") else "")
            )
        if not self.watermarks:
            lines.append("watermarks:       none (empty store)")
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

        watermarks: Dict[str, Dict[str, Any]] = {}
        for stage in ("dataset", "pipeline"):
            mark = store.watermark(stage)
            if mark is not None:
                watermarks[stage] = mark

        runs = store.runs()
        run_ids = {run["run_id"] for run in runs}

        problems: List[str] = []
        dataset_mark = watermarks.get("dataset")
        pipeline_mark = watermarks.get("pipeline")
        if pipeline_mark is not None:
            if dataset_mark is None:
                problems.append(
                    "pipeline watermark present but dataset watermark missing"
                )
            elif pipeline_mark["epoch"] > dataset_mark["epoch"]:
                problems.append(
                    f"pipeline watermark (epoch {pipeline_mark['epoch']}) runs "
                    f"ahead of dataset watermark (epoch {dataset_mark['epoch']})"
                )
            if pipeline_mark.get("run_id") not in run_ids:
                problems.append(
                    f"pipeline watermark references run "
                    f"#{pipeline_mark.get('run_id')} absent from run history"
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

        for run in runs:
            if store.load_blob("measurement", f"epoch_{run['epoch']}") is None:
                problems.append(
                    f"run #{run['run_id']} (epoch {run['epoch']}) has no "
                    f"measurement blob"
                )

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
            watermarks=watermarks,
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
    _trim_to_consistent(rebuilt, report)

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
    """Copy every readable row of ``source`` into a fresh store.

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


def _trim_to_consistent(path: Path, report: RepairReport) -> None:
    """Roll the rebuilt store's bookkeeping back to its newest
    consistent run (the committed prefix the atomic epoch commits
    guarantee), dropping orphaned quarantine rows and dangling
    watermarks instead of letting verify refuse the whole salvage."""
    store = RunStore(path)
    try:
        with store.transaction():
            store._execute(
                "DELETE FROM quarantine WHERE run_id NOT IN "
                "(SELECT run_id FROM runs)"
            )
            # History detail rows whose owning summary row was lost are
            # unreferenceable; drop them so the salvage stays coherent.
            for detail in ("history_spans", "history_metrics", "history_funnel"):
                store._execute(
                    f"DELETE FROM {detail} WHERE history_id NOT IN "
                    f"(SELECT history_id FROM history_runs)"
                )
            mark = store.watermark("pipeline")
            if mark is not None:
                runs = store.runs()
                run_ids = {run["run_id"] for run in runs}
                if mark.get("run_id") not in run_ids:
                    if runs:
                        last = runs[-1]
                        store._execute(
                            "UPDATE watermarks SET epoch=?, run_id=? "
                            "WHERE stage='pipeline'",
                            (last["epoch"], last["run_id"]),
                        )
                        report.actions.append(
                            f"rolled pipeline watermark back to run "
                            f"#{last['run_id']} (epoch {last['epoch']})"
                        )
                    else:
                        store._execute(
                            "DELETE FROM watermarks WHERE stage='pipeline'"
                        )
                        report.actions.append(
                            "dropped pipeline watermark (no runs survive)"
                        )
    finally:
        store.close()
