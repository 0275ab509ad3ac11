"""Tests for retry/backoff policy, circuit breakers, and the crawler wiring."""

from datetime import datetime

import pytest
from hypothesis import given, settings, strategies as st

from repro.media import ImageKind, SyntheticImage, sample_latent
from repro.web import (
    BreakerBoard,
    BreakerState,
    CircuitBreaker,
    Crawler,
    FaultInjector,
    FetchStatus,
    HostingService,
    LinkRecord,
    RetryPolicy,
    ScriptedFaultInjector,
    ServiceKind,
    SimulatedInternet,
    fault_profile,
)
from repro.web.crawler import CrawlStats

T0 = datetime(2014, 5, 1)


def make_image(rng, image_id=1):
    return SyntheticImage(
        image_id, sample_latent(rng, ImageKind.MODEL_NUDE, model_id=1)
    )


def reliable_net(rng, n_links=30, domain="svc.com"):
    """An internet hosting n always-alive images, plus their link records."""
    net = SimulatedInternet(seed=4)
    service = HostingService(
        "svc", domain, ServiceKind.IMAGE_SHARING, 1.0, 0.0, 0.0
    )
    links = []
    for i in range(n_links):
        url = net.host_on_service(service, make_image(rng, image_id=100 + i), T0, False)
        links.append(LinkRecord(url=url))
    return net, links


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(retry_budget=-1)

    @given(
        attempt=st.integers(min_value=0, max_value=12),
        u=st.floats(min_value=0.0, max_value=0.9999999),
    )
    @settings(max_examples=120, deadline=None)
    def test_full_jitter_bounds(self, attempt, u):
        """Satellite: backoff delay always within [0, min(cap, base*2^n))."""
        policy = RetryPolicy(base_delay=0.5, max_delay=30.0)
        delay = policy.backoff_delay(attempt, u)
        cap = min(30.0, 0.5 * (2.0 ** attempt))
        assert 0.0 <= delay <= cap
        if u > 0:
            assert delay == pytest.approx(u * cap)

    def test_cap_growth_and_ceiling(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=8.0)
        caps = [policy.backoff_delay(a, 0.999999) for a in range(8)]
        assert caps == sorted(caps)
        assert caps[-1] <= 8.0

    def test_u_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff_delay(0, 1.0)


class TestCircuitBreaker:
    def test_state_transition_cycle(self):
        """Satellite: closed → open → half-open → closed / re-open."""
        breaker = CircuitBreaker(failure_threshold=3, cooldown=10.0)
        assert breaker.state is BreakerState.CLOSED

        for t in range(3):
            assert breaker.allow(float(t))
            breaker.record_failure(float(t))
        assert breaker.state is BreakerState.OPEN
        assert breaker.n_opens == 1

        assert not breaker.allow(5.0)           # cooldown not elapsed
        assert breaker.allow(12.0)              # probe allowed
        assert breaker.state is BreakerState.HALF_OPEN

        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.consecutive_failures == 0

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=10.0)
        breaker.record_failure(0.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.allow(10.0)
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_failure(10.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.opened_at == 10.0
        assert breaker.n_opens == 2

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        breaker.record_success()
        breaker.record_failure(0.0)
        assert breaker.state is BreakerState.CLOSED

    def test_serialization_round_trip(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=5.0)
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        restored = CircuitBreaker.from_dict(breaker.to_dict())
        assert restored == breaker

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=-1.0)


class TestBreakerBoard:
    def test_per_domain_isolation(self):
        board = BreakerBoard(failure_threshold=1)
        board.breaker("a.com").record_failure(0.0)
        assert board.breaker("a.com").state is BreakerState.OPEN
        assert board.breaker("b.com").state is BreakerState.CLOSED
        assert board.n_open == 1
        assert board.total_opens == 1

    def test_snapshot_restore_round_trip(self):
        board = BreakerBoard(failure_threshold=2, cooldown=30.0)
        board.breaker("a.com").record_failure(1.0)
        board.breaker("b.com").record_failure(1.0)
        board.breaker("b.com").record_failure(2.0)
        restored = BreakerBoard.restore(board.snapshot())
        assert len(restored) == 2
        assert restored.breaker("b.com").state is BreakerState.OPEN
        assert restored.breaker("a.com").consecutive_failures == 1
        assert restored.failure_threshold == 2


class TestCrawlerRetries:
    def test_recovers_at_least_90pct_under_flaky(self, rng):
        """Acceptance: retries+breaker recover ≥90% of a zero-fault crawl."""
        net, links = reliable_net(rng, n_links=60)
        baseline = Crawler(net).crawl(links)
        net.set_fault_injector(FaultInjector(fault_profile("flaky"), seed=13))
        faulty = Crawler(net).crawl(links)
        assert faulty.stats.n_ok >= 0.9 * baseline.stats.n_ok
        assert faulty.stats.n_transient_faults > 0  # the profile did fire

    def test_scripted_recovery_after_retries(self, rng):
        net, links = reliable_net(rng, n_links=5)
        net.set_fault_injector(ScriptedFaultInjector({"svc.com": 2}))
        result = Crawler(net).crawl(links)
        assert result.stats.n_ok == 5
        assert result.stats.n_retries == 10  # 2 retries per link
        assert len(result.attempt_logs) == 5
        for log in result.attempt_logs:
            assert [a.attempt for a in log.attempts] == [0, 1, 2]
            assert log.final_status is FetchStatus.OK
            assert not log.gave_up

    def test_giveup_after_exhausted_attempts(self, rng):
        net, links = reliable_net(rng, n_links=3)
        net.set_fault_injector(
            ScriptedFaultInjector({"svc.com": 10**9}, status=FetchStatus.SERVER_ERROR)
        )
        policy = RetryPolicy(max_attempts=3)
        # Threshold high enough that the breaker never interferes here.
        result = Crawler(net, retry_policy=policy, breaker_threshold=100).crawl(links)
        assert result.stats.n_ok == 0
        assert result.stats.n_giveups == 3
        assert result.stats.count(FetchStatus.SERVER_ERROR) == 3
        assert all(log.gave_up for log in result.attempt_logs)

    def test_retry_budget_zero_disables_retries(self, rng):
        net, links = reliable_net(rng, n_links=5)
        net.set_fault_injector(ScriptedFaultInjector({"svc.com": 1}))
        policy = RetryPolicy(retry_budget=0)
        result = Crawler(net, retry_policy=policy, breaker_threshold=100).crawl(links)
        assert result.stats.n_retries == 0
        assert result.stats.n_ok == 0
        assert result.stats.n_giveups == 5

    def test_breaker_opens_and_skips_links(self, rng):
        net, links = reliable_net(rng, n_links=20)
        net.set_fault_injector(ScriptedFaultInjector({"svc.com": 10**9}))
        result = Crawler(
            net,
            retry_policy=RetryPolicy(max_attempts=2),
            breaker_threshold=3,
            breaker_cooldown=10**9,  # never recovers within this crawl
        ).crawl(links)
        assert result.stats.n_breaker_skips > 0
        assert result.stats.count(FetchStatus.SKIPPED_BREAKER_OPEN) == (
            result.stats.n_breaker_skips
        )
        skipped = [log for log in result.attempt_logs if log.breaker_skipped]
        assert len(skipped) == result.stats.n_breaker_skips

    def test_breaker_recovers_after_cooldown(self, rng):
        net, links = reliable_net(rng, n_links=40)
        # Fail every attempt for the first 8 links' URLs only.
        failures = {str(link.url): 10**9 for link in links[:8]}
        net.set_fault_injector(ScriptedFaultInjector(failures))
        result = Crawler(
            net,
            retry_policy=RetryPolicy(max_attempts=2, attempt_cost=1.0),
            breaker_threshold=3,
            breaker_cooldown=5.0,
        ).crawl(links)
        # The breaker opened on the early dead URLs but the clock advanced
        # past the cooldown, so later links succeeded.
        assert result.stats.n_ok > 0
        assert result.stats.n_ok >= len(links) - 8 - result.stats.n_breaker_skips

    def test_retry_after_honored_in_clock(self, rng):
        net, links = reliable_net(rng, n_links=1)
        net.set_fault_injector(
            ScriptedFaultInjector(
                {"svc.com": 1}, status=FetchStatus.RATE_LIMITED, retry_after=42.0
            )
        )
        result = Crawler(net).crawl(links)
        (log,) = result.attempt_logs
        assert log.attempts[0].status is FetchStatus.RATE_LIMITED
        assert log.attempts[0].delay == 42.0

    def test_default_crawl_unchanged_without_faults(self, rng):
        """No injector → no retries, no logs, same counters as before."""
        net, links = reliable_net(rng, n_links=10)
        result = Crawler(net).crawl(links)
        assert result.stats.n_retries == 0
        assert result.stats.n_giveups == 0
        assert result.stats.n_breaker_skips == 0
        assert result.stats.n_transient_faults == 0
        assert result.attempt_logs == []
        assert result.stats.n_ok == 10


class TestCrawlStats:
    def test_serialization_round_trip(self):
        stats = CrawlStats(
            n_links=4,
            by_status={FetchStatus.OK: 3, FetchStatus.RATE_LIMITED: 1},
            by_domain={"x.com": 4},
            n_retries=7,
            n_giveups=1,
            n_breaker_skips=2,
            n_transient_faults=9,
        )
        assert CrawlStats.from_dict(stats.to_dict()) == stats
