"""Checkpointed-resume tests: a resumed crawl is byte-identical.

The core property (ISSUE acceptance): for *every* fault profile, killing
a crawl at an arbitrary point and resuming from the checkpoint yields a
:class:`CrawlResult` whose digest and stats exactly match an
uninterrupted crawl.
"""

from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.media import ImageKind, Pack, SyntheticImage, sample_latent
from repro.web import (
    CrawlCheckpoint,
    Crawler,
    FaultInjector,
    FetchStatus,
    HostingService,
    LinkRecord,
    RetryPolicy,
    ServiceKind,
    SimulatedInternet,
    Url,
    fault_profile,
    link_key,
)

T0 = datetime(2014, 5, 1)
PROFILES = ["none", "flaky", "hostile", "rate_limited"]


def _make_image(rng, image_id):
    return SyntheticImage(
        image_id, sample_latent(rng, ImageKind.MODEL_NUDE, model_id=1)
    )


def build_net_and_links():
    """A mixed-fate internet: alive previews, packs, dead links, walls,
    unknown hosts, and duplicate link occurrences."""
    rng = np.random.default_rng(99)
    net = SimulatedInternet(seed=6)
    alive = HostingService("ok", "ok.com", ServiceKind.IMAGE_SHARING, 1.0, 0.0, 0.0)
    dead = HostingService("dead", "dead.com", ServiceKind.IMAGE_SHARING, 1.0, 1.0, 0.0)
    walled = HostingService(
        "wall", "wall.com", ServiceKind.CLOUD_STORAGE, 1.0, 0.0, 0.0,
        requires_registration=True,
    )
    links = []
    for i in range(14):
        url = net.host_on_service(alive, _make_image(rng, 100 + i), T0, False)
        links.append(LinkRecord(url=url, link_kind="preview"))
    for p in range(3):
        images = [_make_image(rng, 500 + 10 * p + j) for j in range(4)]
        pack = Pack(pack_id=p + 1, model_id=1, images=images)
        url = net.host_on_service(alive, pack, T0, False)
        links.append(LinkRecord(url=url, link_kind="pack"))
        if p == 0:  # duplicate pack link (same URL twice)
            links.append(LinkRecord(url=url, link_kind="pack"))
    for i in range(4):
        url = net.host_on_service(dead, _make_image(rng, 700 + i), T0, False)
        links.append(LinkRecord(url=url))
    url = net.host_on_service(
        walled, Pack(pack_id=9, model_id=1, images=[_make_image(rng, 800)]), T0, True
    )
    links.append(LinkRecord(url=url, link_kind="pack"))
    links.append(LinkRecord(url=Url("nowhere.example", "/gone")))
    # duplicate preview occurrence
    links.append(links[0])
    return net, links


@pytest.fixture(scope="module")
def arena():
    net, links = build_net_and_links()
    return net, links


def crawler_for(net):
    return Crawler(
        net,
        retry_policy=RetryPolicy(max_attempts=4),
        breaker_threshold=4,
        breaker_cooldown=5.0,
    )


def set_profile(net, profile):
    if profile == "none":
        net.set_fault_injector(None)
    else:
        net.set_fault_injector(FaultInjector(fault_profile(profile), seed=21))


class TestResumeEquivalence:
    @pytest.mark.parametrize("profile", PROFILES)
    @given(split=st.integers(min_value=0, max_value=25))
    @settings(max_examples=12, deadline=None)
    def test_kill_and_resume_matches_uninterrupted(self, arena, profile, split):
        """Property: resume after an interruption at any point is exact."""
        net, links = arena
        split = min(split, len(links))
        set_profile(net, profile)
        try:
            baseline = crawler_for(net).crawl(links)

            ckpt = CrawlCheckpoint()
            crawler_for(net).crawl(links[:split], checkpoint=ckpt)  # "killed" here
            resumed = crawler_for(net).crawl(links, checkpoint=ckpt)

            assert resumed.digest() == baseline.digest()
            assert resumed.stats == baseline.stats
            assert len(resumed.attempt_logs) == len(baseline.attempt_logs)
        finally:
            net.set_fault_injector(None)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_file_backed_resume(self, arena, tmp_path, profile):
        net, links = arena
        set_profile(net, profile)
        try:
            baseline = crawler_for(net).crawl(links)
            path = tmp_path / f"crawl-{profile}.json"

            crawler_for(net).crawl(links[:9], checkpoint=str(path), checkpoint_every=2)
            assert path.exists()
            resumed = crawler_for(net).crawl(links, checkpoint=str(path))
            assert resumed.digest() == baseline.digest()
            assert resumed.stats == baseline.stats
        finally:
            net.set_fault_injector(None)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_resume_from_non_prefix_checkpoint(self, arena, profile):
        """Settled links need not be a prefix of the link order: the
        per-domain parallel crawls of earlier versions checkpointed whole
        domains out of order, and those checkpoints must still resume."""
        net, links = arena
        set_profile(net, profile)
        try:
            baseline = crawler_for(net).crawl(links)
            ckpt = CrawlCheckpoint()
            crawler_for(net).crawl(
                [link for link in links if link.url.host != "dead.com"],
                checkpoint=ckpt,
            )
            resumed = crawler_for(net).crawl(links, checkpoint=ckpt)
            assert resumed.digest() == baseline.digest()
            assert resumed.stats == baseline.stats
            assert resumed.attempt_logs == baseline.attempt_logs
        finally:
            net.set_fault_injector(None)

    def test_resume_is_idempotent(self, arena):
        """Crawling a completed checkpoint again changes nothing."""
        net, links = arena
        set_profile(net, "flaky")
        try:
            ckpt = CrawlCheckpoint()
            first = crawler_for(net).crawl(links, checkpoint=ckpt)
            second = crawler_for(net).crawl(links, checkpoint=ckpt)
            third = crawler_for(net).crawl(links, checkpoint=ckpt)
            assert first.digest() == second.digest() == third.digest()
            assert first.stats == second.stats == third.stats
            assert ckpt.n_completed == len(links)
        finally:
            net.set_fault_injector(None)

    def test_duplicate_occurrences_counted_separately(self, arena):
        net, links = arena
        set_profile(net, "none")
        ckpt = CrawlCheckpoint()
        result = crawler_for(net).crawl(links, checkpoint=ckpt)
        assert result.stats.n_links == len(links)
        # the duplicated URLs appear under two distinct occurrence keys
        url0 = str(links[0].url)
        assert ckpt.outcome(link_key(url0, 0)) is not None
        assert ckpt.outcome(link_key(url0, 1)) is not None


class TestCheckpointMechanics:
    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "ck.json"
        ckpt = CrawlCheckpoint(path=path)
        ckpt.mark(link_key("https://a.com/x", 0), "ok", 2, log={"url": "https://a.com/x"})
        ckpt.stats = {"n_links": 1}
        ckpt.clock = 3.5
        ckpt.budget_spent = 2
        ckpt.save()

        loaded = CrawlCheckpoint.load(path)
        assert loaded.n_completed == 1
        assert loaded.outcome(link_key("https://a.com/x", 0))["attempt"] == 2
        assert loaded.clock == 3.5
        assert loaded.budget_spent == 2
        assert loaded.stats == {"n_links": 1}

    def test_load_missing_file_starts_fresh(self, tmp_path):
        ckpt = CrawlCheckpoint.load(tmp_path / "absent.json")
        assert ckpt.n_completed == 0
        assert ckpt.stats is None

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 999}', encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported checkpoint version"):
            CrawlCheckpoint.load(path)

    def test_in_memory_save_is_noop(self):
        assert CrawlCheckpoint().save() is None

    def test_link_key_distinguishes_occurrences(self):
        assert link_key("https://a.com/x", 0) != link_key("https://a.com/x", 1)
        assert link_key("https://a.com/x", 0) == link_key("https://a.com/x", 0)


class TestGracefulInterruption:
    """SIGINT/SIGTERM mid-crawl: checkpoint, close clean, resume exact.

    The chaos monkey delivers a *real* signal to our own process at the
    ``crawl.checkpoint.saved`` kill site; :func:`graceful_signals` turns
    it into a typed :class:`SignalInterrupt`, the crawler's
    ``BaseException`` boundary flushes the checkpoint on the way out,
    and the resumed crawl must be byte-identical to an uninterrupted
    one (DESIGN.md §13).
    """

    def _interrupt_crawl(self, net, links, path, action):
        from repro.chaos import (
            ChaosMonkey,
            SignalInterrupt,
            graceful_signals,
            install,
            uninstall,
        )

        set_profile(net, "flaky")
        try:
            baseline = crawler_for(net).crawl(links)
            install(ChaosMonkey("crawl.checkpoint.saved", action=action, hit=2))
            with pytest.raises(SignalInterrupt) as excinfo:
                with graceful_signals():
                    crawler_for(net).crawl(
                        links, checkpoint=str(path), checkpoint_every=2
                    )
            uninstall()

            # The mid-flight state was checkpointed and is resumable.
            assert path.exists()
            partial = CrawlCheckpoint.load(path)
            assert 0 < partial.n_completed < len(links)

            resumed = crawler_for(net).crawl(links, checkpoint=str(path))
            assert resumed.digest() == baseline.digest()
            assert resumed.stats == baseline.stats
            return excinfo.value
        finally:
            uninstall()
            net.set_fault_injector(None)

    def test_sigint_checkpoints_and_resumes_exactly(self, arena, tmp_path):
        net, links = arena
        exc = self._interrupt_crawl(net, links, tmp_path / "int.json", "sigint")
        assert exc.exit_code == 130  # 128 + SIGINT

    def test_sigterm_checkpoints_and_resumes_exactly(self, arena, tmp_path):
        net, links = arena
        exc = self._interrupt_crawl(net, links, tmp_path / "term.json", "sigterm")
        assert exc.exit_code == 143  # 128 + SIGTERM

    def test_graceful_signals_restores_handlers(self):
        import signal as _signal

        from repro.chaos import graceful_signals

        before = _signal.getsignal(_signal.SIGINT)
        with graceful_signals():
            assert _signal.getsignal(_signal.SIGINT) is not before
        assert _signal.getsignal(_signal.SIGINT) is before

    def test_signal_interrupt_is_not_an_exception_subclass(self):
        from repro.chaos import SignalInterrupt

        # BaseException, so lenient stage boundaries can't absorb it —
        # an interrupted run stops, it doesn't half-continue.
        assert not issubclass(SignalInterrupt, Exception)
