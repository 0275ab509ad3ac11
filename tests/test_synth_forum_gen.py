"""Tests for the forum generator's structural guarantees."""

from datetime import datetime

import numpy as np
import pytest

from repro.forum import ewhoring_threads
from repro.synth.forum_gen import DATASET_END, DATASET_START, IdAllocator
from repro.web import extract_urls


class TestIdAllocator:
    def test_monotonic(self):
        ids = IdAllocator(start=5)
        assert ids.next() == 5
        assert ids.next() == 6

    def test_take(self):
        ids = IdAllocator()
        assert ids.take(3) == [1, 2, 3]
        assert ids.next() == 4


class TestGeneratedStructure:
    def test_thread_types_cover_all_threads(self, world):
        for thread in world.dataset.threads():
            assert thread.thread_id in world.forums.thread_types

    def test_tops_have_pack_ground_truth(self, world):
        top_ids = [t for t, v in world.forums.thread_types.items() if v == "top"]
        sharer_ids = world.forums.pack_sharer_ids
        for thread_id in top_ids[:50]:
            thread = world.dataset.thread(thread_id)
            assert thread.author_id in sharer_ids

    def test_top_link_gating(self, world):
        """Most TOP openers carry no URLs (§4.2: 18.7% have links)."""
        top_ids = [t for t, v in world.forums.thread_types.items() if v == "top"]
        with_links = 0
        for thread_id in top_ids:
            opener = world.dataset.initial_post(thread_id)
            if opener is not None and extract_urls(opener.content):
                with_links += 1
        fraction = with_links / len(top_ids)
        assert 0.05 < fraction < 0.40

    def test_ce_threads_on_ce_board(self, world):
        ce_boards = {
            b.board_id for b in world.dataset.boards() if b.is_currency_exchange
        }
        for thread_id in world.forums.ce_thread_ids:
            assert world.dataset.thread(thread_id).board_id in ce_boards

    def test_ce_headings_mostly_parseable(self, world):
        from repro.finance import parse_exchange_heading

        parsed = 0
        for thread_id in world.forums.ce_thread_ids:
            heading = world.dataset.thread(thread_id).heading
            if parse_exchange_heading(heading).parsed:
                parsed += 1
        assert parsed / max(len(world.forums.ce_thread_ids), 1) > 0.5

    def test_bhw_selection_has_no_true_tops(self, world):
        bhw = next(f for f in world.dataset.forums() if f.name == "BlackHatWorld")
        for thread in world.dataset.threads(bhw.forum_id):
            assert world.forums.thread_types[thread.thread_id] != "top"

    def test_non_hf_ewhoring_threads_carry_keyword(self, world):
        """Non-dedicated-board eWhoring threads must be findable by the §3
        heading search, otherwise the generator built unmeasurable data."""
        hf = next(f for f in world.dataset.forums() if f.has_ewhoring_board)
        ewhoring_types = {"top", "request", "tutorial", "earnings",
                          "discussion", "account_trade"}
        missing = 0
        total = 0
        for thread in world.dataset.threads():
            if thread.forum_id == hf.forum_id:
                continue
            if world.forums.thread_types[thread.thread_id] not in ewhoring_types:
                continue
            total += 1
            heading = thread.heading_lower()
            if "ewhor" not in heading and "e-whor" not in heading:
                missing += 1
        assert total > 0
        assert missing / total < 0.2  # a few earnings headings legitimately lack it

    def test_posts_ordered_within_threads(self, world):
        checked = 0
        for thread in world.dataset.threads():
            posts = world.dataset.posts_in_thread(thread.thread_id)
            dates = [p.created_at for p in posts[1:]]  # replies only
            assert dates == sorted(dates)
            checked += 1
            if checked > 300:
                break

    def test_quotes_reference_earlier_posts(self, world):
        for thread in list(world.dataset.threads())[:300]:
            posts = world.dataset.posts_in_thread(thread.thread_id)
            seen = set()
            for post in posts:
                if post.quoted_post_id is not None:
                    assert post.quoted_post_id in seen
                seen.add(post.post_id)

    def test_actor_windows_respected(self, world):
        """All of an actor's eWhoring posts fall in a bounded window."""
        selection = {t.thread_id for t in ewhoring_threads(world.dataset)}
        spans = []
        for actor_id, gen_actor in list(world.forums.actors.items())[:500]:
            dates = [
                p.created_at
                for p in world.dataset.posts_by_actor(actor_id)
                if p.thread_id in selection
            ]
            if len(dates) >= 2:
                spans.append((max(dates) - min(dates)).days)
        assert spans, "no multi-post actors found"
        # Most actors are involved for far less than the full 10 years.
        assert np.median(spans) < 1500

    def test_reply_counts_heavy_tailed(self, world):
        counts = sorted(
            world.dataset.reply_count(t.thread_id)
            for t in ewhoring_threads(world.dataset)
        )
        assert counts[-1] > 5 * max(np.median(counts), 1)

    def test_posts_per_actor_concentrated(self, world, report):
        # Real forums have a small core of prolific posters: the Gini
        # coefficient of posts per actor over the selection is high.
        per_actor = {}
        for thread in report.selection:
            for post in world.dataset.posts_in_thread(thread.thread_id):
                per_actor[post.author_id] = per_actor.get(post.author_id, 0) + 1
        counts = np.sort(np.array(list(per_actor.values()), dtype=np.float64))
        n = counts.size
        gini = 2.0 * np.sum(np.arange(1, n + 1) * counts) / (n * counts.sum()) - (n + 1.0) / n
        assert gini > 0.4

    def test_earner_proofs_recorded(self, world):
        assert world.forums.earner_ids
        assert world.forums.proof_truth
