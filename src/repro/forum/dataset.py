"""In-memory forum dataset container with indexed access.

:class:`ForumDataset` is the substrate every pipeline stage reads from.  It
holds the full record tables (forums, boards, actors, threads, posts) and
maintains the secondary indices the measurement code needs: posts by
thread, threads by board, per-actor activity, and post id lookup for quote
resolution.
"""

from __future__ import annotations

from bisect import insort
from collections import defaultdict
from dataclasses import replace
from datetime import datetime
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from .models import Actor, Board, Forum, Post, Thread

__all__ = ["DatasetError", "ForumDataset"]


class DatasetError(ValueError):
    """Raised on integrity violations (duplicate ids, dangling references)."""


class ForumDataset:
    """A queryable snapshot of one or more underground forums.

    Records must be added parents-first (forum before its boards, thread
    before its posts); referential integrity is checked eagerly so that a
    malformed generator fails at construction time, not during measurement.

    Tables and indices iterate in insertion order.  The world build adds
    records in id order (posts grouped by thread, in position order) —
    the order :meth:`~repro.store.RunStore.read_dataset` reads a store
    back in — and the drift mutations keep every index in that order.
    So a built dataset and its stored copy are equal in every table and
    index order, and the pipeline's inputs depend on the record set
    alone (pinned by ``tests/test_store_incremental.py``).
    """

    def __init__(self) -> None:
        self._forums: Dict[int, Forum] = {}
        self._boards: Dict[int, Board] = {}
        self._actors: Dict[int, Actor] = {}
        self._threads: Dict[int, Thread] = {}
        self._posts: Dict[int, Post] = {}
        self._posts_by_thread: Dict[int, List[int]] = defaultdict(list)
        self._threads_by_board: Dict[int, List[int]] = defaultdict(list)
        self._threads_by_forum: Dict[int, List[int]] = defaultdict(list)
        self._posts_by_actor: Dict[int, List[int]] = defaultdict(list)
        self._boards_by_forum: Dict[int, List[int]] = defaultdict(list)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_forum(self, forum: Forum) -> None:
        """Register a forum record."""
        if forum.forum_id in self._forums:
            raise DatasetError(f"duplicate forum id {forum.forum_id}")
        self._forums[forum.forum_id] = forum

    def add_board(self, board: Board) -> None:
        """Register a board; its forum must already exist."""
        if board.board_id in self._boards:
            raise DatasetError(f"duplicate board id {board.board_id}")
        if board.forum_id not in self._forums:
            raise DatasetError(f"board {board.board_id} references unknown forum {board.forum_id}")
        self._boards[board.board_id] = board
        self._boards_by_forum[board.forum_id].append(board.board_id)

    def add_actor(self, actor: Actor) -> None:
        """Register an actor; their home forum must already exist."""
        if actor.actor_id in self._actors:
            raise DatasetError(f"duplicate actor id {actor.actor_id}")
        if actor.forum_id not in self._forums:
            raise DatasetError(f"actor {actor.actor_id} references unknown forum {actor.forum_id}")
        self._actors[actor.actor_id] = actor

    def add_thread(self, thread: Thread) -> None:
        """Register a thread; board, forum and author must already exist."""
        if thread.thread_id in self._threads:
            raise DatasetError(f"duplicate thread id {thread.thread_id}")
        board = self._boards.get(thread.board_id)
        if board is None:
            raise DatasetError(f"thread {thread.thread_id} references unknown board {thread.board_id}")
        if board.forum_id != thread.forum_id:
            raise DatasetError(
                f"thread {thread.thread_id} claims forum {thread.forum_id} "
                f"but its board belongs to forum {board.forum_id}"
            )
        if thread.author_id not in self._actors:
            raise DatasetError(f"thread {thread.thread_id} references unknown actor {thread.author_id}")
        self._threads[thread.thread_id] = thread
        self._threads_by_board[thread.board_id].append(thread.thread_id)
        self._threads_by_forum[thread.forum_id].append(thread.thread_id)

    def add_post(self, post: Post) -> None:
        """Register a post; its thread and author must already exist."""
        if post.post_id in self._posts:
            raise DatasetError(f"duplicate post id {post.post_id}")
        if post.thread_id not in self._threads:
            raise DatasetError(f"post {post.post_id} references unknown thread {post.thread_id}")
        if post.author_id not in self._actors:
            raise DatasetError(f"post {post.post_id} references unknown actor {post.author_id}")
        expected_position = len(self._posts_by_thread[post.thread_id])
        if post.position != expected_position:
            raise DatasetError(
                f"post {post.post_id} has position {post.position}, "
                f"expected {expected_position} for thread {post.thread_id}"
            )
        self._posts[post.post_id] = post
        self._posts_by_thread[post.thread_id].append(post.post_id)
        self._posts_by_actor[post.author_id].append(post.post_id)

    @classmethod
    def from_sorted_records(
        cls,
        forums: Sequence[Forum],
        boards: Sequence[Board],
        actors: Sequence[Actor],
        threads: Sequence[Thread],
        posts: Sequence[Post],
    ) -> "ForumDataset":
        """Deserialisation fast path: bulk-fill from pre-sorted records.

        ``add_*`` pays a per-record method call plus eager parent probes —
        right for generators, wasteful for a store read of tens of
        thousands of rows whose ordering the caller already guarantees
        (posts grouped by thread in position order).  This builds the
        tables and indices directly, then restores the same guarantees
        another way: duplicate ids via table-vs-input length checks,
        position contiguity inline, dangling references via
        :meth:`validate`.  Any violation raises :class:`DatasetError`
        exactly as the incremental path would.
        """
        dataset = cls()
        dataset._forums = {f.forum_id: f for f in forums}
        dataset._boards = {b.board_id: b for b in boards}
        dataset._actors = {a.actor_id: a for a in actors}
        dataset._threads = {t.thread_id: t for t in threads}
        if (
            len(dataset._forums) != len(forums)
            or len(dataset._boards) != len(boards)
            or len(dataset._actors) != len(actors)
            or len(dataset._threads) != len(threads)
        ):
            raise DatasetError("duplicate record ids in bulk load")
        for board in dataset._boards.values():
            dataset._boards_by_forum[board.forum_id].append(board.board_id)
        for thread in dataset._threads.values():
            dataset._threads_by_board[thread.board_id].append(thread.thread_id)
            dataset._threads_by_forum[thread.forum_id].append(thread.thread_id)
        table = dataset._posts
        by_thread = dataset._posts_by_thread
        by_actor = dataset._posts_by_actor
        for post in posts:
            positions = by_thread[post.thread_id]
            if post.position != len(positions):
                raise DatasetError(
                    f"post {post.post_id} has position {post.position}, "
                    f"expected {len(positions)} for thread {post.thread_id}"
                )
            table[post.post_id] = post
            positions.append(post.post_id)
            by_actor[post.author_id].append(post.post_id)
        if len(table) != len(posts):
            raise DatasetError("duplicate post ids in bulk load")
        dataset.validate()
        return dataset

    # -- drift mutations -----------------------------------------------
    # Records are frozen; these swap a record for an edited copy while
    # keeping every secondary index consistent.  Used by ``repro.drift``
    # to model actors editing posts and migrating threads.

    def rewrite_post(self, post_id: int, content: str) -> Post:
        """Replace a post's content in place; returns the new record."""
        post = self._posts[post_id]
        updated = replace(post, content=content)
        self._posts[post_id] = updated
        return updated

    def retitle_thread(self, thread_id: int, heading: str) -> Thread:
        """Replace a thread's heading in place; returns the new record."""
        thread = self._threads[thread_id]
        updated = replace(thread, heading=heading)
        self._threads[thread_id] = updated
        return updated

    def move_thread(self, thread_id: int, board_id: int) -> Thread:
        """Re-home a thread onto another (existing) board.

        The thread's ``forum_id`` follows the destination board, and the
        by-board / by-forum indices are updated, the thread taking its
        id-order place there; posts stay attached.
        """
        thread = self._threads[thread_id]
        board = self._boards.get(board_id)
        if board is None:
            raise DatasetError(f"move target board {board_id} does not exist")
        if board_id == thread.board_id:
            return thread
        updated = replace(thread, board_id=board_id, forum_id=board.forum_id)
        self._threads_by_board[thread.board_id].remove(thread_id)
        insort(self._threads_by_board[board_id], thread_id)
        if board.forum_id != thread.forum_id:
            self._threads_by_forum[thread.forum_id].remove(thread_id)
            insort(self._threads_by_forum[board.forum_id], thread_id)
        self._threads[thread_id] = updated
        return updated

    def extend(self, records: Iterable[object]) -> None:
        """Add a heterogeneous iterable of records, dispatching by type."""
        adders = {
            Forum: self.add_forum,
            Board: self.add_board,
            Actor: self.add_actor,
            Thread: self.add_thread,
            Post: self.add_post,
        }
        for record in records:
            adder = adders.get(type(record))
            if adder is None:
                raise DatasetError(f"unsupported record type {type(record).__name__}")
            adder(record)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def forum(self, forum_id: int) -> Forum:
        """Return the forum with ``forum_id`` (KeyError if absent)."""
        return self._forums[forum_id]

    def board(self, board_id: int) -> Board:
        """Return the board with ``board_id`` (KeyError if absent)."""
        return self._boards[board_id]

    def actor(self, actor_id: int) -> Actor:
        """Return the actor with ``actor_id`` (KeyError if absent)."""
        return self._actors[actor_id]

    def thread(self, thread_id: int) -> Thread:
        """Return the thread with ``thread_id`` (KeyError if absent)."""
        return self._threads[thread_id]

    def post(self, post_id: int) -> Post:
        """Return the post with ``post_id`` (KeyError if absent)."""
        return self._posts[post_id]

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def forums(self) -> Iterator[Forum]:
        """Iterate over all forums in insertion order."""
        return iter(self._forums.values())

    def boards(self, forum_id: Optional[int] = None) -> Iterator[Board]:
        """Iterate over boards, optionally restricted to one forum."""
        if forum_id is None:
            return iter(self._boards.values())
        return (self._boards[b] for b in self._boards_by_forum.get(forum_id, []))

    def actors(self) -> Iterator[Actor]:
        """Iterate over all actors."""
        return iter(self._actors.values())

    def threads(self, forum_id: Optional[int] = None) -> Iterator[Thread]:
        """Iterate over threads, optionally restricted to one forum."""
        if forum_id is None:
            return iter(self._threads.values())
        return (self._threads[t] for t in self._threads_by_forum.get(forum_id, []))

    def posts(self) -> Iterator[Post]:
        """Iterate over all posts."""
        return iter(self._posts.values())

    def posts_in_thread(self, thread_id: int) -> List[Post]:
        """Return the posts of a thread ordered by position."""
        return [self._posts[p] for p in self._posts_by_thread.get(thread_id, [])]

    def initial_post(self, thread_id: int) -> Optional[Post]:
        """Return the opening post of a thread, or ``None`` if empty."""
        ids = self._posts_by_thread.get(thread_id)
        if not ids:
            return None
        return self._posts[ids[0]]

    def replies(self, thread_id: int) -> List[Post]:
        """Return the non-initial posts of a thread in order."""
        return self.posts_in_thread(thread_id)[1:]

    def threads_in_board(self, board_id: int) -> List[Thread]:
        """Return the threads of a board in insertion order."""
        return [self._threads[t] for t in self._threads_by_board.get(board_id, [])]

    def posts_by_actor(self, actor_id: int) -> List[Post]:
        """Return all posts an actor wrote, in insertion order."""
        return [self._posts[p] for p in self._posts_by_actor.get(actor_id, [])]

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def n_forums(self) -> int:
        return len(self._forums)

    @property
    def n_boards(self) -> int:
        return len(self._boards)

    @property
    def n_actors(self) -> int:
        return len(self._actors)

    @property
    def n_threads(self) -> int:
        return len(self._threads)

    @property
    def n_posts(self) -> int:
        return len(self._posts)

    def reply_count(self, thread_id: int) -> int:
        """Number of replies (posts excluding the opener) in a thread."""
        return max(0, len(self._posts_by_thread.get(thread_id, [])) - 1)

    def span(self) -> Optional[tuple[datetime, datetime]]:
        """Return (first post date, last post date) or ``None`` when empty."""
        if not self._posts:
            return None
        dates = [p.created_at for p in self._posts.values()]
        return min(dates), max(dates)

    def validate(self) -> None:
        """Re-check referential integrity over the whole dataset.

        ``add_*`` validates incrementally; a bulk load
        (:meth:`from_sorted_records`) relies on this sweep, so it makes
        every reference check ``add_*`` makes.
        """
        for board in self._boards.values():
            if board.forum_id not in self._forums:
                raise DatasetError(f"board {board.board_id} dangling forum")
        for actor in self._actors.values():
            if actor.forum_id not in self._forums:
                raise DatasetError(f"actor {actor.actor_id} dangling forum")
        for thread in self._threads.values():
            board = self._boards.get(thread.board_id)
            if board is None:
                raise DatasetError(f"thread {thread.thread_id} dangling board")
            if board.forum_id != thread.forum_id:
                raise DatasetError(
                    f"thread {thread.thread_id} claims forum {thread.forum_id} "
                    f"but its board belongs to forum {board.forum_id}"
                )
            if thread.author_id not in self._actors:
                raise DatasetError(f"thread {thread.thread_id} dangling author")
        for post in self._posts.values():
            if post.thread_id not in self._threads:
                raise DatasetError(f"post {post.post_id} dangling thread")
            if post.author_id not in self._actors:
                raise DatasetError(f"post {post.post_id} dangling author")
            if post.quoted_post_id is not None and post.quoted_post_id not in self._posts:
                raise DatasetError(f"post {post.post_id} quotes unknown post {post.quoted_post_id}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ForumDataset(forums={self.n_forums}, boards={self.n_boards}, "
            f"actors={self.n_actors}, threads={self.n_threads}, posts={self.n_posts})"
        )
