"""Core data model for underground-forum datasets (CrimeBB analogue).

The model follows the structure described in §3 of the paper: a *forum*
contains *boards*; users (*actors*) initiate *threads* on a board by writing
an initial *post* under a *heading*; other actors reply with further posts,
optionally quoting earlier posts.  All records are plain frozen dataclasses
so they can be hashed, stored and serialised without surprises.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Optional

__all__ = ["Actor", "Board", "Forum", "Post", "Thread"]


@dataclass(frozen=True, slots=True)
class Forum:
    """One underground forum (e.g. the Hackforums analogue)."""

    forum_id: int
    name: str
    #: Whether the forum hosts a board dedicated to eWhoring (§3: only the
    #: Hackforums analogue does).
    has_ewhoring_board: bool = False
    #: Whether the forum's terms of service ban eWhoring conversations
    #: (§3: the BlackHatWorld analogue does, and moderators remove packs).
    bans_ewhoring: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("forum name must be non-empty")


@dataclass(frozen=True, slots=True)
class Board:
    """A topical section of a forum.

    ``category`` groups boards into the coarse interest categories used for
    the §6.3 interest analysis (e.g. ``"Gaming"``, ``"Hacking"``,
    ``"Market"``, ``"Common"``); ``None`` for forums where the category
    taxonomy does not apply.
    """

    board_id: int
    forum_id: int
    name: str
    category: Optional[str] = None
    #: Marks the dedicated eWhoring board (§3) — all of its threads are
    #: eWhoring-related regardless of heading keywords.
    is_ewhoring_board: bool = False
    #: Marks the Currency Exchange board used for the §5 monetisation
    #: analysis.
    is_currency_exchange: bool = False
    #: Marks the "Bragging Rights" board mined for proof-of-earnings (§5.1).
    is_bragging_board: bool = False


@dataclass(frozen=True, slots=True)
class Actor:
    """A forum member.

    The paper uses 'actor' for members discussing or engaging in eWhoring;
    here every member is an ``Actor`` record and eWhoring involvement is a
    property of their posts.
    """

    actor_id: int
    forum_id: int
    username: str
    registered_at: datetime

    def __post_init__(self) -> None:
        if not self.username:
            raise ValueError("username must be non-empty")


@dataclass(frozen=True, slots=True)
class Thread:
    """A conversation: a heading plus an ordered sequence of posts."""

    thread_id: int
    board_id: int
    forum_id: int
    author_id: int
    heading: str
    created_at: datetime

    def heading_lower(self) -> str:
        """The heading casefolded, as compared throughout the methodology."""
        return self.heading.lower()


@dataclass(frozen=True, slots=True)
class Post:
    """One message in a thread.

    ``quoted_post_id`` records an explicit quote of an earlier post; the
    §6.1 interaction rules use it to attribute replies.  ``position`` is the
    zero-based index of the post within its thread (0 = the initial post).
    """

    post_id: int
    thread_id: int
    author_id: int
    created_at: datetime
    content: str
    position: int
    quoted_post_id: Optional[int] = None

    @property
    def is_initial(self) -> bool:
        """True when this post opened its thread."""
        return self.position == 0
