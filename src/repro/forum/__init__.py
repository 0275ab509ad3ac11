"""Underground-forum substrate: data model and queries.

This package is the CrimeBB analogue — see DESIGN.md §2 for the
substitution rationale.
"""

from .dataset import DatasetError, ForumDataset
from .models import Actor, Board, Forum, Post, Thread
from .query import (
    EWHORING_HEADING_KEYWORDS,
    ForumSummary,
    ewhoring_threads,
    forum_summaries,
)

__all__ = [
    "Actor",
    "Board",
    "DatasetError",
    "EWHORING_HEADING_KEYWORDS",
    "Forum",
    "ForumDataset",
    "ForumSummary",
    "Post",
    "Thread",
    "ewhoring_threads",
    "forum_summaries",
]
