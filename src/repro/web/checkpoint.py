"""Checkpointed, resumable crawls.

A multi-day crawl of the kind the paper ran (§4.2) must survive being
killed: :class:`CrawlCheckpoint` is a JSON snapshot of crawl progress
that :meth:`repro.web.crawler.Crawler.crawl` writes as it goes and
consults on resume.

The snapshot records *outcomes*, not content: for every settled link —
keyed by a SHA-1 digest of the URL plus its occurrence index, so
duplicate links in the sequence stay distinct — it stores the final
:class:`~repro.web.internet.FetchStatus` and the attempt number that
settled it, alongside the running :class:`~repro.web.crawler.CrawlStats`,
the virtual clock, the retry-budget spend, circuit-breaker states, and
any attempt logs.  On resume the crawler skips the retry loop for
completed links and re-materializes their resources deterministically
(the real-world analogue: the files are already on disk), so a resumed
crawl is **byte-identical** to an uninterrupted one — transient faults
are a pure function of ``(url, attempt)``, never of crawl order.

Resume is idempotent: crawling an already-complete checkpoint again
replays the recorded outcomes without re-counting anything.

Durability contract (DESIGN.md §13): saves go through
:func:`repro.atomicio.atomic_write_text` — temp file + ``os.replace`` —
so a crash mid-save leaves the previous complete snapshot, never a torn
file.  A file that *is* torn some other way (truncation, bit rot,
partial copy) fails :meth:`CrawlCheckpoint.load` with a typed
:class:`CheckpointError`, never a half-loaded checkpoint.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

from ..atomicio import atomic_write_text
from ..store.errors import StoreCorruptionError

__all__ = ["CheckpointError", "CrawlCheckpoint", "link_key"]

_VERSION = 1


class CheckpointError(StoreCorruptionError, ValueError):
    """A checkpoint file is damaged or of an unsupported version.

    Subclasses :class:`~repro.store.errors.StoreCorruptionError` (it is
    a corrupt on-disk artifact — the same taxonomy every store boundary
    raises) and ``ValueError`` for backward compatibility with callers
    that guarded the old version check.
    """


def link_key(url: str, occurrence: int) -> str:
    """Stable digest identifying one link *occurrence* in a crawl sequence.

    >>> link_key("https://a.com/x", 0) != link_key("https://a.com/x", 1)
    True
    """
    digest = hashlib.sha1()
    digest.update(url.encode("utf-8"))
    digest.update(b"\x1f")
    digest.update(str(int(occurrence)).encode("ascii"))
    return digest.hexdigest()


@dataclass
class CrawlCheckpoint:
    """Mutable crawl progress, optionally persisted to a JSON file.

    Construct empty (``CrawlCheckpoint()``) for an in-memory checkpoint,
    or via :meth:`load` to read/initialize one backed by a file.
    """

    path: Optional[Path] = None
    #: link key → {"status": str, "attempt": int, "log": optional dict}.
    completed: Dict[str, dict] = field(default_factory=dict)
    #: Serialized :class:`~repro.web.crawler.CrawlStats` (or ``None``).
    stats: Optional[dict] = None
    #: Serialized :class:`~repro.web.retry.BreakerBoard` state.
    breakers: Optional[dict] = None
    #: Max per-domain virtual clock at last save, seconds (summary; the
    #: authoritative per-domain values live in :attr:`domain_clocks`).
    clock: float = 0.0
    #: Retries spent against the crawl's retry budget.
    budget_spent: int = 0
    #: Per-domain virtual clocks, seconds.  Domain-scoped, so checkpoints
    #: written by the per-domain parallel crawls of earlier versions
    #: still resume.  Older checkpoints without the field fall back to
    #: :attr:`clock` for every domain.
    domain_clocks: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: Union[str, Path]) -> "CrawlCheckpoint":
        """Read a checkpoint from ``path``; a fresh one if it is missing.

        Raises :class:`CheckpointError` for anything that is not a
        complete well-formed snapshot — garbage or truncated JSON, an
        unsupported version, malformed fields.  A damaged checkpoint
        never half-loads into a crawl.
        """
        path = Path(path)
        if not path.exists():
            return cls(path=path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckpointError(
                f"{path}: checkpoint is not valid JSON (torn write or "
                f"corruption): {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise CheckpointError(
                f"{path}: checkpoint is not a JSON object"
            )
        version = data.get("version")
        if version != _VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version!r} in {path}"
            )
        try:
            return cls(
                path=path,
                completed=dict(data.get("completed", {})),
                stats=data.get("stats"),
                breakers=data.get("breakers"),
                clock=float(data.get("clock", 0.0)),
                budget_spent=int(data.get("budget_spent", 0)),
                domain_clocks={
                    str(d): float(t)
                    for d, t in data.get("domain_clocks", {}).items()
                },
            )
        except (TypeError, ValueError, AttributeError) as exc:
            raise CheckpointError(
                f"{path}: checkpoint fields are malformed: {exc}"
            ) from exc

    def save(self, path: Optional[Union[str, Path]] = None) -> Optional[Path]:
        """Atomically write the snapshot; no-op for in-memory checkpoints.

        ``durable=False``: periodic mid-crawl saves happen every few
        links, so the contract here is atomicity (either the old or the
        new complete snapshot) rather than per-save fsync cost.
        """
        target = Path(path) if path is not None else self.path
        if target is None:
            return None
        payload = {
            "version": _VERSION,
            "completed": self.completed,
            "stats": self.stats,
            "breakers": self.breakers,
            "clock": self.clock,
            "budget_spent": self.budget_spent,
            "domain_clocks": self.domain_clocks,
        }
        return atomic_write_text(
            target, json.dumps(payload, sort_keys=True), durable=False
        )

    # ------------------------------------------------------------------
    def base_clock(self) -> float:
        """Starting clock for domains absent from :attr:`domain_clocks`.

        New-format checkpoints record every touched domain, so unseen
        domains start fresh at 0.0.  A legacy checkpoint (progress but
        no per-domain clocks) falls back to its scalar :attr:`clock` —
        the best available approximation of its old global-clock
        semantics.
        """
        if not self.domain_clocks and self.completed:
            return self.clock
        return 0.0

    # ------------------------------------------------------------------
    def outcome(self, key: str) -> Optional[dict]:
        return self.completed.get(key)

    def mark(
        self, key: str, status: str, attempt: int, log: Optional[dict] = None
    ) -> None:
        """Record one settled link occurrence."""
        entry: dict = {"status": status, "attempt": int(attempt)}
        if log is not None:
            entry["log"] = log
        self.completed[key] = entry

    @property
    def n_completed(self) -> int:
        return len(self.completed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = str(self.path) if self.path is not None else "<memory>"
        return f"CrawlCheckpoint({where}, n_completed={self.n_completed})"
