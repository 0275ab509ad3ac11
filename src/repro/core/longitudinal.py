"""Longitudinal views of the eWhoring ecosystem (§1, §3).

The study spans more than ten years of forum activity ("the first post
in the dataset was made on November 2008 and the last on March 2019").
This module produces the time-series views that longitudinal claims rest
on: monthly thread/post volumes per forum, community growth (new actors
per month), and activity-lifetime statistics — plus a convenience
year-over-year change table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Dict, List, Optional, Sequence, Tuple

from ..forum.dataset import ForumDataset
from ..forum.models import Thread
from ..forum.query import ewhoring_threads

__all__ = [
    "ActivityTimeline",
    "MonthlySeries",
    "activity_timeline",
    "new_actor_series",
]


def _month_key(when: datetime) -> str:
    return when.strftime("%Y-%m")


@dataclass
class MonthlySeries:
    """A named month → count series with convenience aggregations."""

    name: str
    counts: Dict[str, int] = field(default_factory=dict)

    def add(self, when: datetime, amount: int = 1) -> None:
        key = _month_key(when)
        self.counts[key] = self.counts.get(key, 0) + amount

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def months(self) -> List[str]:
        return sorted(self.counts)

    def yearly(self) -> Dict[str, int]:
        """Aggregate to calendar years."""
        years: Dict[str, int] = {}
        for month, count in self.counts.items():
            year = month[:4]
            years[year] = years.get(year, 0) + count
        return years

    def peak_month(self) -> Optional[Tuple[str, int]]:
        if not self.counts:
            return None
        month = max(self.counts, key=lambda k: (self.counts[k], k))
        return month, self.counts[month]

    def cumulative(self) -> List[Tuple[str, int]]:
        """Running totals in chronological order."""
        running = 0
        out = []
        for month in self.months():
            running += self.counts[month]
            out.append((month, running))
        return out


@dataclass
class ActivityTimeline:
    """Monthly eWhoring activity, overall and per forum."""

    threads: MonthlySeries
    posts: MonthlySeries
    per_forum_posts: Dict[str, MonthlySeries]
    first_post: Optional[datetime]
    last_post: Optional[datetime]

    @property
    def span_years(self) -> float:
        if self.first_post is None or self.last_post is None:
            return 0.0
        return (self.last_post - self.first_post).days / 365.25

    def growth_ratio(self) -> float:
        """Posts in the last third of the span over the first third.

        Greater than 1 means the community grew over time — the paper's
        implicit longitudinal claim (eWhoring activity developed "since
        at least 2008" and kept growing on Hackforums).
        """
        months = self.posts.months()
        if len(months) < 6:
            return 1.0
        third = len(months) // 3
        early = sum(self.posts.counts[m] for m in months[:third])
        late = sum(self.posts.counts[m] for m in months[-third:])
        return late / early if early else float("inf")


def activity_timeline(
    dataset: ForumDataset,
    selection: Optional[Sequence[Thread]] = None,
) -> ActivityTimeline:
    """Build the monthly activity timeline over the eWhoring selection."""
    threads = list(selection) if selection is not None else ewhoring_threads(dataset)
    thread_series = MonthlySeries("threads")
    post_series = MonthlySeries("posts")
    per_forum: Dict[str, MonthlySeries] = {}
    first: Optional[datetime] = None
    last: Optional[datetime] = None

    for thread in threads:
        thread_series.add(thread.created_at)
        forum_name = dataset.forum(thread.forum_id).name
        forum_series = per_forum.setdefault(forum_name, MonthlySeries(forum_name))
        for post in dataset.posts_in_thread(thread.thread_id):
            post_series.add(post.created_at)
            forum_series.add(post.created_at)
            if first is None or post.created_at < first:
                first = post.created_at
            if last is None or post.created_at > last:
                last = post.created_at

    return ActivityTimeline(
        threads=thread_series,
        posts=post_series,
        per_forum_posts=per_forum,
        first_post=first,
        last_post=last,
    )


def new_actor_series(
    dataset: ForumDataset,
    selection: Optional[Sequence[Thread]] = None,
) -> MonthlySeries:
    """New eWhoring actors per month (month of their first eWhoring post).

    The gateway-into-offending story (§1): how fast the community
    recruits.
    """
    threads = list(selection) if selection is not None else ewhoring_threads(dataset)
    first_seen: Dict[int, datetime] = {}
    for thread in threads:
        for post in dataset.posts_in_thread(thread.thread_id):
            current = first_seen.get(post.author_id)
            if current is None or post.created_at < current:
                first_seen[post.author_id] = post.created_at
    series = MonthlySeries("new_actors")
    for when in first_seen.values():
        series.add(when)
    return series
