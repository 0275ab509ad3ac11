"""Property-based round-trip test for the run store's corpus tables.

Hypothesis generates arbitrary small-but-valid datasets (including
unicode content, odd usernames, deep quote chains) and asserts the
``RunStore.append_dataset``/``read_dataset`` round trip is lossless.
"""

from datetime import datetime, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from repro.forum import (
    Actor,
    Board,
    Forum,
    ForumDataset,
    Post,
    Thread,
)
from repro.store import RunStore

BASE = datetime(2012, 1, 1)

name_st = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"),
                           whitelist_characters=" _-"),
    min_size=1, max_size=24,
).filter(str.strip)

content_st = st.text(max_size=120)

dates_st = st.integers(min_value=0, max_value=3000).map(
    lambda d: BASE + timedelta(days=d)
)


@st.composite
def dataset_st(draw):
    ds = ForumDataset()
    n_forums = draw(st.integers(1, 2))
    actor_ids = []
    thread_ids = []
    next_id = 1
    for _ in range(n_forums):
        forum_id = next_id
        next_id += 1
        ds.add_forum(Forum(forum_id, draw(name_st),
                           has_ewhoring_board=draw(st.booleans())))
        board_id = next_id
        next_id += 1
        ds.add_board(Board(board_id, forum_id, draw(name_st),
                           category=draw(st.one_of(st.none(), name_st))))
        for _ in range(draw(st.integers(1, 3))):
            actor_id = next_id
            next_id += 1
            ds.add_actor(Actor(actor_id, forum_id, draw(name_st), draw(dates_st)))
            actor_ids.append(actor_id)
        for _ in range(draw(st.integers(0, 3))):
            thread_id = next_id
            next_id += 1
            author = draw(st.sampled_from(actor_ids))
            ds.add_thread(Thread(thread_id, board_id, forum_id, author,
                                 draw(content_st) or "h", draw(dates_st)))
            thread_ids.append(thread_id)
            previous_post = None
            for position in range(draw(st.integers(1, 4))):
                post_id = next_id
                next_id += 1
                quote = previous_post if draw(st.booleans()) else None
                ds.add_post(Post(post_id, thread_id,
                                 draw(st.sampled_from(actor_ids)),
                                 draw(dates_st), draw(content_st), position,
                                 quoted_post_id=quote))
                previous_post = post_id
    return ds


class TestRoundTripProperty:
    @given(dataset_st())
    @settings(max_examples=25, deadline=None)
    def test_lossless(self, tmp_path_factory, ds):
        path = tmp_path_factory.mktemp("store") / "ds.sqlite"
        with RunStore(path) as store:
            store.append_dataset(ds)
            loaded = store.read_dataset()
        assert loaded.n_forums == ds.n_forums
        assert loaded.n_boards == ds.n_boards
        assert loaded.n_actors == ds.n_actors
        assert loaded.n_threads == ds.n_threads
        assert loaded.n_posts == ds.n_posts
        assert list(loaded.forums()) == list(ds.forums())
        assert list(loaded.boards()) == list(ds.boards())
        for thread in ds.threads():
            other = loaded.thread(thread.thread_id)
            assert other == thread
            original_posts = ds.posts_in_thread(thread.thread_id)
            loaded_posts = loaded.posts_in_thread(thread.thread_id)
            assert original_posts == loaded_posts
        for actor in ds.actors():
            assert loaded.actor(actor.actor_id) == actor
