"""repro.store — the persistent incremental world (DESIGN.md §12).

An append-only, queryable SQLite store for the full funnel — the forum
corpus, crawl outcomes, image digests, quarantine ledgers, memoised
vision work — plus the watermark-based delta engine that makes
``repro run --store PATH --epoch N`` process only records newer than
the stored watermark while staying bit-identical to a cold run.

Public surface:

* :class:`RunStore` — the typed SQLite store (schema, batched writers,
  canonical indexed readers);
* :func:`run_incremental` / :class:`PersistSession` /
  :class:`IncrementalResult` — the delta-run engine;
* :class:`StoreError` / :class:`StoreCorruptionError` /
  :class:`StoreConfigError` — the typed failure taxonomy every store
  boundary raises (never bare ``sqlite3``/``json`` exceptions);
* :func:`verify_store` / :func:`repair_store` — the crash-recovery
  tooling behind ``repro store verify|repair`` (DESIGN.md §13).
"""

from .errors import StoreConfigError, StoreCorruptionError, StoreError
from .incremental import IncrementalResult, PersistSession, run_incremental
from .recover import (
    EXIT_CONFIG,
    EXIT_CORRUPT,
    EXIT_OK,
    RepairReport,
    VerifyReport,
    repair_store,
    verify_store,
)
from .sqlite import RunStore, config_fingerprint

__all__ = [
    "EXIT_CONFIG",
    "EXIT_CORRUPT",
    "EXIT_OK",
    "IncrementalResult",
    "PersistSession",
    "RepairReport",
    "RunStore",
    "StoreConfigError",
    "StoreCorruptionError",
    "StoreError",
    "VerifyReport",
    "config_fingerprint",
    "repair_store",
    "run_incremental",
    "verify_store",
]
