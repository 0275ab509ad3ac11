"""Wayback Machine analogue: historical crawl records for URLs (§4.5).

The paper queries the Internet Archive to decide whether a matched URL
was online *before* the corresponding image was posted on the forum
("Seen Before" in Table 5).  The archive is incomplete — a URL crawled
after a forum post may still have existed earlier — and the seen-before
measurement inherits that lower-bound caveat, which we reproduce by
archiving each URL only with a configurable coverage probability and a
crawl lag.
"""

from __future__ import annotations

from datetime import datetime, timedelta
from typing import Dict, List, Optional, Union

import numpy as np

from .url import Url

__all__ = ["WaybackArchive"]


class WaybackArchive:
    """Crawl-date store with coverage gaps.

    ``coverage`` is the probability that a published URL gets archived at
    all; ``max_lag_days`` bounds the delay between publication and the
    first snapshot.
    """

    def __init__(self, seed: int = 0, coverage: float = 0.7, max_lag_days: int = 400):
        if not 0.0 <= coverage <= 1.0:
            raise ValueError("coverage must be within [0, 1]")
        if max_lag_days < 0:
            raise ValueError("max_lag_days must be non-negative")
        self._rng = np.random.default_rng(seed)
        self.coverage = coverage
        self.max_lag_days = max_lag_days
        self._records: Dict[str, List[datetime]] = {}

    # ------------------------------------------------------------------
    def record(self, url: Union[Url, str], crawl_date: datetime) -> None:
        """Store an explicit snapshot (always succeeds)."""
        self._records.setdefault(str(url), []).append(crawl_date)

    def observe_publication(
        self, url: Union[Url, str], published_at: datetime
    ) -> Optional[datetime]:
        """Maybe archive a freshly published URL.

        Returns the snapshot date if the archive picked the URL up, else
        ``None``.  The lag distribution is right-skewed: most snapshots
        happen within weeks, a tail takes months.
        """
        if self._rng.random() >= self.coverage:
            return None
        lag_days = float(self._rng.exponential(self.max_lag_days / 8.0))
        lag_days = min(lag_days, float(self.max_lag_days))
        snapshot = published_at + timedelta(days=lag_days)
        self.record(url, snapshot)
        return snapshot

    # ------------------------------------------------------------------
    def snapshots(self, url: Union[Url, str]) -> List[datetime]:
        """All snapshot dates for a URL, sorted ascending."""
        return sorted(self._records.get(str(url), []))

    def earliest_snapshot(self, url: Union[Url, str]) -> Optional[datetime]:
        """First crawl date, or ``None`` when unarchived."""
        dates = self._records.get(str(url))
        return min(dates) if dates else None

    def seen_before(self, url: Union[Url, str], reference: datetime) -> bool:
        """True when the URL has a snapshot strictly before ``reference``.

        This is the Table 5 "Seen Before" predicate: absence of an early
        snapshot does *not* prove the content was not online earlier.
        """
        earliest = self.earliest_snapshot(url)
        return earliest is not None and earliest < reference
