"""Tests for the forum data model and dataset container."""

from datetime import datetime

import pytest

from repro.forum import (
    Actor,
    Board,
    DatasetError,
    Forum,
    ForumDataset,
    Post,
    Thread,
)

T0 = datetime(2015, 1, 1)


def make_minimal() -> ForumDataset:
    ds = ForumDataset()
    ds.add_forum(Forum(1, "TestForum"))
    ds.add_board(Board(10, 1, "General", category="Common"))
    ds.add_actor(Actor(100, 1, "alice", T0))
    ds.add_actor(Actor(101, 1, "bob", T0))
    ds.add_thread(Thread(1000, 10, 1, 100, "Hello world", T0))
    ds.add_post(Post(5000, 1000, 100, T0, "first", 0))
    ds.add_post(Post(5001, 1000, 101, T0, "reply", 1, quoted_post_id=5000))
    return ds


class TestModels:
    def test_forum_requires_name(self):
        with pytest.raises(ValueError):
            Forum(1, "")

    def test_actor_requires_username(self):
        with pytest.raises(ValueError):
            Actor(1, 1, "", T0)

    def test_heading_lower(self):
        thread = Thread(1, 1, 1, 1, "EWHORING Pack", T0)
        assert thread.heading_lower() == "ewhoring pack"

    def test_initial_post_flag(self):
        assert Post(1, 1, 1, T0, "x", 0).is_initial
        assert not Post(2, 1, 1, T0, "x", 3).is_initial


class TestIntegrity:
    def test_duplicate_forum_rejected(self):
        ds = make_minimal()
        with pytest.raises(DatasetError):
            ds.add_forum(Forum(1, "Again"))

    def test_board_requires_forum(self):
        ds = ForumDataset()
        with pytest.raises(DatasetError):
            ds.add_board(Board(1, 99, "Orphan"))

    def test_thread_requires_board(self):
        ds = make_minimal()
        with pytest.raises(DatasetError):
            ds.add_thread(Thread(2000, 999, 1, 100, "x", T0))

    def test_thread_forum_board_consistency(self):
        ds = make_minimal()
        ds.add_forum(Forum(2, "Other"))
        with pytest.raises(DatasetError):
            # Board 10 belongs to forum 1, not forum 2.
            ds.add_thread(Thread(2000, 10, 2, 100, "x", T0))

    def test_thread_requires_author(self):
        ds = make_minimal()
        with pytest.raises(DatasetError):
            ds.add_thread(Thread(2000, 10, 1, 999, "x", T0))

    def test_post_requires_thread(self):
        ds = make_minimal()
        with pytest.raises(DatasetError):
            ds.add_post(Post(6000, 9999, 100, T0, "x", 0))

    def test_post_position_must_be_sequential(self):
        ds = make_minimal()
        with pytest.raises(DatasetError):
            ds.add_post(Post(6000, 1000, 100, T0, "x", 5))

    def test_extend_dispatch(self):
        ds = ForumDataset()
        ds.extend([
            Forum(1, "F"),
            Board(2, 1, "B"),
            Actor(3, 1, "a", T0),
            Thread(4, 2, 1, 3, "h", T0),
            Post(5, 4, 3, T0, "c", 0),
        ])
        assert ds.n_posts == 1

    def test_extend_rejects_unknown(self):
        ds = ForumDataset()
        with pytest.raises(DatasetError):
            ds.extend(["not a record"])

    def test_validate_passes_on_consistent(self):
        make_minimal().validate()

    @pytest.mark.parametrize("defect", ["actor_forum", "thread_forum"])
    def test_bulk_load_checks_what_add_checks(self, defect):
        forums = [Forum(1, "F"), Forum(2, "G")]
        boards = [Board(10, 1, "B")]
        actors = [Actor(100, 3 if defect == "actor_forum" else 1, "a", T0)]
        # Board 10 belongs to forum 1; a thread under it claiming forum 2
        # is what add_thread refuses.
        threads = [Thread(1000, 10, 2 if defect == "thread_forum" else 1, 100, "h", T0)]
        posts = [Post(5000, 1000, 100, T0, "c", 0)]
        with pytest.raises(DatasetError):
            ForumDataset.from_sorted_records(forums, boards, actors, threads, posts)


class TestQueries:
    def test_counts(self):
        ds = make_minimal()
        assert (ds.n_forums, ds.n_boards, ds.n_actors, ds.n_threads, ds.n_posts) == (
            1, 1, 2, 1, 2,
        )

    def test_posts_in_thread_ordered(self):
        ds = make_minimal()
        posts = ds.posts_in_thread(1000)
        assert [p.position for p in posts] == [0, 1]

    def test_initial_post(self):
        ds = make_minimal()
        assert ds.initial_post(1000).post_id == 5000

    def test_initial_post_missing_thread(self):
        ds = make_minimal()
        assert ds.initial_post(424242) is None

    def test_replies_exclude_opener(self):
        ds = make_minimal()
        assert [p.post_id for p in ds.replies(1000)] == [5001]

    def test_reply_count(self):
        ds = make_minimal()
        assert ds.reply_count(1000) == 1
        assert ds.reply_count(9999) == 0

    def test_posts_by_actor(self):
        ds = make_minimal()
        assert [p.post_id for p in ds.posts_by_actor(101)] == [5001]

    def test_span(self):
        ds = make_minimal()
        first, last = ds.span()
        assert first == last == T0

    def test_span_empty(self):
        assert ForumDataset().span() is None

    def test_threads_by_forum(self):
        ds = make_minimal()
        assert [t.thread_id for t in ds.threads(1)] == [1000]
        assert list(ds.threads(999)) == []
