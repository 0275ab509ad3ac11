"""Typed error taxonomy for the persistent store.

Pipeline code never sees a bare ``sqlite3.Error`` or ``json`` decode
exception from store internals: every failure mode crossing the store
boundary is wrapped in one of these classes, so callers can distinguish
"the file is damaged" from "the file disagrees with the run you asked
for" without string matching.

This module deliberately imports nothing from :mod:`repro`, so any
module can depend on it without cycles.
"""

from __future__ import annotations

__all__ = ["StoreError", "StoreCorruptionError", "StoreConfigError"]


class StoreError(Exception):
    """Base class for every persistent-store failure."""


class StoreCorruptionError(StoreError):
    """The on-disk artifact is damaged or not a store at all.

    Raised for truncated/garbage SQLite files, missing schema tables and records that fail model validation on
    load.  A store that raises this has loaded *nothing* into the run —
    corruption is detected before any record crosses into a pipeline.
    """


class StoreConfigError(StoreError):
    """The store is intact but incompatible with the requested run.

    Raised when the persisted world configuration does not match the
    one being run (different seed/scale/profiles), when a persisted
    profile name no longer validates, or when a run asks for an epoch
    behind the stored watermark (the store is append-only).
    """
