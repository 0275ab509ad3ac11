"""Tests for forum-dataset persistence in the SQLite run store.

``repro build --out`` writes a dataset with ``RunStore.bind_config`` and
``append_dataset``; these cases read it back with ``read_dataset``.
"""

from datetime import datetime

import pytest

from repro.forum import Actor, Board, Forum, ForumDataset, Post, Thread
from repro.store import RunStore

T0 = datetime(2014, 6, 15, 12, 30)


@pytest.fixture()
def sample_dataset() -> ForumDataset:
    ds = ForumDataset()
    ds.add_forum(Forum(1, "F", has_ewhoring_board=True))
    ds.add_board(Board(2, 1, "eWhoring", category="Market", is_ewhoring_board=True))
    ds.add_actor(Actor(3, 1, "carol", T0))
    ds.add_thread(Thread(4, 2, 1, 3, "pack thread", T0))
    ds.add_post(Post(5, 4, 3, T0, "content with ünïcode", 0))
    ds.add_post(Post(6, 4, 3, T0, "quoting", 1, quoted_post_id=5))
    return ds


class TestRoundTrip:
    def test_counts_preserved(self, sample_dataset, tmp_path):
        with RunStore(tmp_path / "ds.sqlite") as store:
            n = store.append_dataset(sample_dataset)
            assert n == 6
            loaded = store.read_dataset()
        assert loaded.n_forums == 1
        assert loaded.n_posts == 2

    def test_record_fields_preserved(self, sample_dataset, tmp_path):
        with RunStore(tmp_path / "ds.sqlite") as store:
            store.append_dataset(sample_dataset)
            loaded = store.read_dataset()
        assert loaded.forum(1).has_ewhoring_board
        assert loaded.board(2).is_ewhoring_board
        assert loaded.actor(3).username == "carol"
        assert loaded.thread(4).heading == "pack thread"
        post = loaded.post(5)
        assert post.content == "content with ünïcode"
        assert post.created_at == T0
        assert loaded.post(6).quoted_post_id == 5


class TestWorldRoundTrip:
    def test_generated_world_round_trips(self, world, tmp_path):
        path = tmp_path / "world.sqlite"
        with RunStore(path) as store:
            store.bind_config(world.config)
            store.append_dataset(world.dataset)
        with RunStore(path) as store:
            loaded = store.read_dataset()
        assert loaded.n_threads == world.dataset.n_threads
        assert loaded.n_posts == world.dataset.n_posts
        assert loaded.n_actors == world.dataset.n_actors
