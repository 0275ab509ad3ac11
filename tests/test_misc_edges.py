"""Edge-case tests across modules that the main suites exercise lightly."""

from datetime import datetime

import numpy as np
import pytest

from repro.core import HybridTopClassifier, NsfvClassifier
from repro.core.report_text import render_earnings
from repro.core.earnings import EarningsResult
from repro.forum import Actor, Board, Forum, ForumDataset, Post, Thread
from repro.media import ImageKind, SyntheticImage, sample_latent
from repro.text import Lexicon
from repro.web import OriginSite, SimulatedInternet, Url

T0 = datetime(2015, 1, 1)


class TestUrlDomain:
    def test_registrable_property(self):
        assert Url("www.example.co", "/x").domain == "example.co"
        assert Url("a.b.c.example.com").domain == "example.com"


class TestLexiconEdges:
    def test_overlapping_phrase_counts(self):
        lex = Lexicon("x", ("aa bb",))
        assert lex.count_matches("aa bb aa bb") == 2

    def test_substring_lexicon_counts(self):
        lex = Lexicon("x", ("whor",), match_substrings=True)
        assert lex.count_matches("ewhoring whoring") == 2

    def test_empty_text(self):
        lex = Lexicon("x", ("pack",))
        assert not lex.matches("")
        assert lex.count_matches("") == 0


class TestInternetEdges:
    def test_origin_sites_iteration(self, rng):
        net = SimulatedInternet(seed=9)
        net.register_origin_site(OriginSite("a.example", "Blogs", "blog", "UK"))
        net.register_origin_site(OriginSite("b.example", "News", "blog", "UK"))
        assert {s.domain for s in net.origin_sites()} == {"a.example", "b.example"}

    def test_reregistering_same_site_ok(self):
        net = SimulatedInternet()
        site = OriginSite("a.example", "Blogs", "blog", "UK")
        net.register_origin_site(site)
        net.register_origin_site(site)  # idempotent
        assert list(net.origin_sites()) == [site]


class TestClassifierEdges:
    def build(self):
        ds = ForumDataset()
        ds.add_forum(Forum(1, "F"))
        ds.add_board(Board(2, 1, "B"))
        ds.add_actor(Actor(3, 1, "a", T0))
        threads = []
        for i, (heading, label) in enumerate(
            [("selling fresh pack pics", True), ("question about stuff?", False)] * 6
        ):
            thread = Thread(100 + i, 2, 1, 3, heading, T0)
            ds.add_thread(thread)
            ds.add_post(Post(1000 + i, 100 + i, 3, T0, "body text here", 0))
            threads.append((thread, label))
        return ds, threads

    def test_extract_tops_empty_corpus(self):
        ds, threads = self.build()
        classifier = HybridTopClassifier()
        classifier.fit(ds, [t for t, _ in threads], [l for _, l in threads])
        tops, stats = classifier.extract_tops(ds, [])
        assert tops == []
        assert stats.n_hybrid == 0

    def test_evaluate_on_training_data(self):
        ds, threads = self.build()
        classifier = HybridTopClassifier()
        classifier.fit(ds, [t for t, _ in threads], [l for _, l in threads])
        evaluation = classifier.evaluate(
            ds, [t for t, _ in threads], [l for _, l in threads]
        )
        assert evaluation.f1 == 1.0  # trivially separable training set


class TestPipelineCustomisation:
    def test_custom_nsfv_thresholds_flow_through(self, world):
        """A stricter NSFV classifier changes the stage-4 split."""
        from repro import pipeline_for_world

        truth = world.forums
        strict = NsfvClassifier(sfv_threshold=0.001, low_band_threshold=0.001,
                                nsfv_threshold=0.001)
        pipeline = pipeline_for_world(world)
        pipeline.nsfv = strict
        report = pipeline.run(
            top_oracle=lambda tid: truth.thread_types.get(tid) == "top",
            proof_oracle=truth.proof_truth.get,
            annotate_n=300,
        )
        # With everything above 0.001 NSFV, nearly every preview is NSFV.
        assert report.n_nsfv_previews >= 0.9 * len(report.preview_verdicts)


class TestRenderEdges:
    def test_render_earnings_empty(self):
        empty = EarningsResult(
            n_threads_matched=0, n_posts_with_links=0, n_unique_urls=0,
            n_downloaded=0, n_abuse_matched=0, n_indecent_filtered=0,
            n_analyzable=0, records=[], n_non_proofs=0,
        )
        text = render_earnings(empty)
        assert "0 actors" in text
