"""Tests for the §3 dataset-selection queries."""

from datetime import datetime

import pytest

from repro.forum import (
    Actor,
    Board,
    Forum,
    ForumDataset,
    Post,
    Thread,
    ewhoring_threads,
    forum_summaries,
)

T0 = datetime(2012, 3, 1)
T1 = datetime(2013, 8, 1)


@pytest.fixture()
def dataset() -> ForumDataset:
    ds = ForumDataset()
    ds.add_forum(Forum(1, "HF", has_ewhoring_board=True))
    ds.add_board(Board(10, 1, "eWhoring", is_ewhoring_board=True))
    ds.add_board(Board(11, 1, "Gaming", category="Gaming"))
    ds.add_actor(Actor(100, 1, "a", T0))
    # Board-selected thread (no keyword needed).
    ds.add_thread(Thread(1000, 10, 1, 100, "Fresh pack inside", T0))
    ds.add_post(Post(1, 1000, 100, T0, "x", 0))
    # Keyword-selected thread on a non-dedicated board.
    ds.add_thread(Thread(1001, 11, 1, 100, "Is EWHORING allowed here?", T1))
    ds.add_post(Post(2, 1001, 100, T1, "x", 0))
    # Hyphenated variant.
    ds.add_thread(Thread(1002, 11, 1, 100, "e-whoring tips", T1))
    ds.add_post(Post(3, 1002, 100, T1, "x", 0))
    # Unrelated thread.
    ds.add_thread(Thread(1003, 11, 1, 100, "Favourite games of 2013", T1))
    ds.add_post(Post(4, 1003, 100, T1, "x", 0))
    return ds


class TestKeywordSearch:
    def test_case_insensitive(self, dataset):
        # 1001's heading says "EWHORING"; 1003's says neither keyword.
        hits = {t.thread_id for t in ewhoring_threads(dataset) if t.board_id == 11}
        assert hits == {1001, 1002}

    def test_forum_filter(self, dataset):
        assert ewhoring_threads(dataset, forum_id=99) == []


class TestEwhoringSelection:
    def test_board_and_keyword_union(self, dataset):
        selected = {t.thread_id for t in ewhoring_threads(dataset)}
        assert selected == {1000, 1001, 1002}

    def test_unrelated_excluded(self, dataset):
        selected = {t.thread_id for t in ewhoring_threads(dataset)}
        assert 1003 not in selected

    def test_no_duplicates_for_board_thread_with_keyword(self, dataset):
        # A dedicated-board thread whose heading also matches must appear once.
        dataset.add_thread(Thread(1004, 10, 1, 100, "ewhoring pack", T1))
        dataset.add_post(Post(5, 1004, 100, T1, "x", 0))
        ids = [t.thread_id for t in ewhoring_threads(dataset)]
        assert ids.count(1004) == 1


class TestForumSummaries:
    def test_summary_counts(self, dataset):
        summaries = forum_summaries(dataset)
        assert len(summaries) == 1
        summary = summaries[0]
        assert summary.forum_name == "HF"
        assert summary.n_threads == 3
        assert summary.n_posts == 3
        assert summary.n_actors == 1

    def test_first_post_stamp(self, dataset):
        summary = forum_summaries(dataset)[0]
        assert summary.first_post == "03/12"

    def test_sorted_by_thread_count(self, world):
        summaries = forum_summaries(world.dataset)
        counts = [s.n_threads for s in summaries]
        assert counts == sorted(counts, reverse=True)

    def test_hackforums_dominates(self, world):
        summaries = forum_summaries(world.dataset)
        assert summaries[0].forum_name == "Hackforums"
        # Table 1 shape: Hackforums carries the overwhelming majority.
        total = sum(s.n_threads for s in summaries)
        assert summaries[0].n_threads / total > 0.85

    def test_bhw_present_but_small(self, world):
        names = {s.forum_name: s for s in forum_summaries(world.dataset)}
        assert "BlackHatWorld" in names
        assert names["BlackHatWorld"].n_threads < names["OGUsers"].n_threads
