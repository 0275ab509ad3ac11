"""Query helpers over :class:`~repro.forum.dataset.ForumDataset`.

These implement the dataset-selection steps of §3: keyword search over
thread headings (lowercased substring match, exactly as the paper does for
``'ewhor'`` / ``'e-whor'``), board-based selection (the dedicated eWhoring
board contributes all of its threads), and per-forum summary statistics
used by Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from .dataset import ForumDataset
from .models import Thread

__all__ = [
    "EWHORING_HEADING_KEYWORDS",
    "ForumSummary",
    "ewhoring_threads",
    "forum_summaries",
]

#: The two keywords the paper searches for in thread headings (§3).
EWHORING_HEADING_KEYWORDS: tuple[str, ...] = ("ewhor", "e-whor")


def ewhoring_threads(dataset: ForumDataset, forum_id: Optional[int] = None) -> List[Thread]:
    """Select the eWhoring-related threads of the dataset (§3).

    A thread qualifies if its heading contains ``'ewhor'`` or ``'e-whor'``,
    or if it lives on a board flagged as the dedicated eWhoring board.
    Threads are returned once each, in dataset insertion order.
    """
    ewhoring_board_ids: Set[int] = {
        board.board_id for board in dataset.boards() if board.is_ewhoring_board
    }
    selected: List[Thread] = []
    for thread in dataset.threads(forum_id):
        if thread.board_id in ewhoring_board_ids:
            selected.append(thread)
            continue
        heading = thread.heading_lower()
        if any(keyword in heading for keyword in EWHORING_HEADING_KEYWORDS):
            selected.append(thread)
    return selected


@dataclass(frozen=True, slots=True)
class ForumSummary:
    """Per-forum counts for the Table 1 reproduction."""

    forum_id: int
    forum_name: str
    n_threads: int
    n_posts: int
    n_actors: int
    first_post: Optional[str]

    @property
    def row(self) -> tuple:
        """Render as a Table 1 row (name, threads, posts, first, actors)."""
        return (self.forum_name, self.n_threads, self.n_posts, self.first_post, self.n_actors)


def forum_summaries(
    dataset: ForumDataset,
    threads: Optional[Iterable[Thread]] = None,
) -> List[ForumSummary]:
    """Summarise eWhoring activity per forum, sorted by thread count.

    ``threads`` defaults to :func:`ewhoring_threads`; pass an explicit
    selection to summarise a different slice.  Actor counts are distinct
    posters within the selected threads, as in Table 1.
    """
    selected = list(threads) if threads is not None else ewhoring_threads(dataset)
    per_forum_threads: Dict[int, int] = {}
    per_forum_posts: Dict[int, int] = {}
    per_forum_actors: Dict[int, Set[int]] = {}
    per_forum_first: Dict[int, str] = {}

    for thread in selected:
        forum_id = thread.forum_id
        per_forum_threads[forum_id] = per_forum_threads.get(forum_id, 0) + 1
        posts = dataset.posts_in_thread(thread.thread_id)
        per_forum_posts[forum_id] = per_forum_posts.get(forum_id, 0) + len(posts)
        actors = per_forum_actors.setdefault(forum_id, set())
        for post in posts:
            actors.add(post.author_id)
            stamp = post.created_at.strftime("%m/%y")
            current = per_forum_first.get(forum_id)
            if current is None or post.created_at.strftime("%Y-%m") < _month_key(current):
                per_forum_first[forum_id] = stamp

    summaries = [
        ForumSummary(
            forum_id=forum_id,
            forum_name=dataset.forum(forum_id).name,
            n_threads=per_forum_threads[forum_id],
            n_posts=per_forum_posts.get(forum_id, 0),
            n_actors=len(per_forum_actors.get(forum_id, set())),
            first_post=per_forum_first.get(forum_id),
        )
        for forum_id in per_forum_threads
    ]
    summaries.sort(key=lambda s: s.n_threads, reverse=True)
    return summaries


def _month_key(stamp: str) -> str:
    """Convert an ``MM/YY`` stamp back to a sortable ``YYYY-MM`` key."""
    month, year = stamp.split("/")
    century = "20" if int(year) < 70 else "19"
    return f"{century}{year}-{month}"
