"""Sharded parallel crawl: bit-identity with the serial crawler.

Covers the PR's tentpole invariants:

* ``crawl_sharded`` output (digest, stats, attempt logs, breaker summary,
  quarantine ledger) equals the serial crawl for any worker count, under
  every fault and payload profile;
* sharded-then-merged ``CrawlStats`` / ``BreakerBoard`` / quarantine
  equal their serial counterparts for *random domain partitions*
  (merging tested directly, independent of the executor);
* checkpoints are wire-compatible both ways — a serial checkpoint
  resumes under workers N and vice versa, byte-identical to an
  uninterrupted serial run;
* pipeline deterministic views match for ``workers ∈ {1, 2, 4}`` across
  seeds and fault/payload profiles;
* ``ReorderBuffer`` / ``partition_lanes`` unit behaviour and the
  executor's guard rails.
"""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.quarantine import Quarantine
from repro.web import (
    Crawler,
    PayloadFaultInjector,
    ReorderBuffer,
    RetryPolicy,
    crawl_sharded,
    partition_lanes,
    payload_profile,
    registrable_domain,
)

from .test_web_checkpoint import (
    PROFILES,
    build_net_and_links,
    crawler_for,
    set_profile,
)


@pytest.fixture(scope="module")
def arena():
    net, links = build_net_and_links()
    return net, links


def set_payload(net, profile):
    if profile == "none":
        net.set_payload_injector(None)
    else:
        net.set_payload_injector(
            PayloadFaultInjector(payload_profile(profile), seed=33)
        )


def quarantine_view(quarantine):
    return [record.to_dict() for record in quarantine.records]


def crawl_serial(net, links):
    quarantine = Quarantine()
    result = crawler_for(net).crawl(links, quarantine=quarantine)
    return result, quarantine


def crawl_parallel(net, links, workers, **kwargs):
    quarantine = Quarantine()
    result = crawl_sharded(
        crawler_for(net), links, workers=workers, quarantine=quarantine, **kwargs
    )
    return result, quarantine


class TestShardedEqualsSerial:
    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_all_profiles_all_worker_counts(self, arena, profile, workers):
        net, links = arena
        set_profile(net, profile)
        set_payload(net, "hostile")
        try:
            serial, q_serial = crawl_serial(net, links)
            parallel, q_parallel = crawl_parallel(net, links, workers)
            assert parallel.digest() == serial.digest()
            assert parallel.stats == serial.stats
            assert parallel.breaker_summary == serial.breaker_summary
            assert len(parallel.attempt_logs) == len(serial.attempt_logs)
            assert [log.to_dict() for log in parallel.attempt_logs] == [
                log.to_dict() for log in serial.attempt_logs
            ]
            assert quarantine_view(q_parallel) == quarantine_view(q_serial)
        finally:
            set_profile(net, "none")
            set_payload(net, "none")

    @given(
        order_seed=st.integers(0, 2**32 - 1),
        workers=st.integers(1, 6),
        n_links=st.integers(0, 25),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_link_subsets_and_orders(self, arena, order_seed, workers, n_links):
        """Property: identity holds for arbitrary link subsequences."""
        import numpy as np

        net, links = arena
        rng = np.random.default_rng(order_seed)
        subset = [links[int(i)] for i in rng.integers(0, len(links), size=n_links)]
        set_profile(net, "hostile")
        try:
            serial, q_serial = crawl_serial(net, subset)
            parallel, q_parallel = crawl_parallel(net, subset, workers)
            assert parallel.digest() == serial.digest()
            assert parallel.stats == serial.stats
            assert parallel.breaker_summary == serial.breaker_summary
            assert quarantine_view(q_parallel) == quarantine_view(q_serial)
        finally:
            set_profile(net, "none")


class TestMergeProperties:
    """Merging per-domain shards directly (no executor) equals serial."""

    @given(partition_seed=st.integers(0, 2**32 - 1), n_groups=st.integers(1, 5))
    @settings(max_examples=12, deadline=None)
    def test_random_domain_partition_merge(self, arena, partition_seed, n_groups):
        import numpy as np

        net, links = arena
        set_profile(net, "hostile")
        set_payload(net, "hostile")
        try:
            serial, q_serial = crawl_serial(net, links)

            # Randomly partition *domains* into groups; crawl each group
            # with a fresh crawler (its own stats/breakers/clock) in
            # original relative link order, then merge.
            rng = np.random.default_rng(partition_seed)
            domains = sorted({registrable_domain(link.url.domain) for link in links})
            assignment = {d: int(rng.integers(0, n_groups)) for d in domains}
            merged_stats = None
            merged_breakers = None
            quarantines = []
            for group in range(n_groups):
                group_links = [
                    (index, link)
                    for index, link in enumerate(links)
                    if assignment[registrable_domain(link.url.domain)] == group
                ]
                if not group_links:
                    continue
                quarantine = Quarantine()
                crawler = crawler_for(net)
                state = crawler.restore_state(None)
                for _ in crawler.resolve_links(
                    group_links, state, quarantine=quarantine
                ):
                    pass
                quarantines.append(quarantine)
                merged_stats = (
                    state.stats
                    if merged_stats is None
                    else merged_stats.merge(state.stats)
                )
                merged_breakers = (
                    state.breakers
                    if merged_breakers is None
                    else merged_breakers.merge(state.breakers)
                )

            assert merged_stats == serial.stats
            assert merged_breakers is not None
            assert merged_breakers.as_dict() == serial.breaker_summary
            # Quarantine: per-group ledgers concatenate to the serial
            # ledger up to ordering (groups interleave domains).
            merged_records = sorted(
                (r.ref, r.error_type, r.message)
                for q in quarantines
                for r in q.records
            )
            serial_records = sorted(
                (r.ref, r.error_type, r.message) for r in q_serial.records
            )
            assert merged_records == serial_records
        finally:
            set_profile(net, "none")
            set_payload(net, "none")


class TestCheckpointWireCompat:
    @pytest.mark.parametrize("profile", ["none", "hostile"])
    @pytest.mark.parametrize(
        "first_workers,second_workers", [(4, None), (None, 4), (1, 4), (4, 1)]
    )
    def test_cross_mode_resume(
        self, arena, tmp_path, profile, first_workers, second_workers
    ):
        """Interrupt under one mode, resume under the other: byte-identical
        result to an uninterrupted serial crawl."""
        net, links = arena
        set_profile(net, profile)
        try:
            baseline, q_base = crawl_serial(net, links)

            path = tmp_path / f"ckpt-{profile}-{first_workers}-{second_workers}.json"
            split = len(links) // 2
            quarantine = Quarantine()
            crawler_for(net).crawl(
                links[:split],
                checkpoint=str(path),
                checkpoint_every=3,
                quarantine=quarantine,
                workers=first_workers,
            )
            resumed = crawler_for(net).crawl(
                links,
                checkpoint=str(path),
                quarantine=quarantine,
                workers=second_workers,
            )
            assert resumed.digest() == baseline.digest()
            assert resumed.stats == baseline.stats
            assert resumed.breaker_summary == baseline.breaker_summary
        finally:
            set_profile(net, "none")

    def test_checkpoint_file_identical_across_worker_counts(self, arena, tmp_path):
        """Completed checkpoint files are byte-identical for any workers."""
        net, links = arena
        set_profile(net, "flaky")
        try:
            blobs = {}
            for workers in (None, 1, 3):
                path = tmp_path / f"full-{workers}.json"
                crawler_for(net).crawl(
                    links, checkpoint=str(path), workers=workers
                )
                blobs[workers] = path.read_bytes()
            assert blobs[None] == blobs[1] == blobs[3]
        finally:
            set_profile(net, "none")


class TestExecutorMechanics:
    def test_partition_lanes_first_appearance_order(self, arena):
        _, links = arena
        lanes = partition_lanes(links)
        seen = []
        indices = []
        for domain, items in lanes:
            assert domain not in seen
            seen.append(domain)
            for index, link in items:
                assert links[index] is link
                assert registrable_domain(link.url.domain) == domain
                indices.append(index)
        assert sorted(indices) == list(range(len(links)))
        # First-appearance order of domains.
        first_seen = []
        for link in links:
            d = registrable_domain(link.url.domain)
            if d not in first_seen:
                first_seen.append(d)
        assert seen == first_seen

    def test_workers_must_be_positive(self, arena):
        net, links = arena
        with pytest.raises(ValueError):
            crawl_sharded(crawler_for(net), links, workers=0)

    def test_global_retry_budget_rejected(self, arena):
        net, links = arena
        crawler = Crawler(
            net,
            retry_policy=RetryPolicy(max_attempts=2, retry_budget=5),
            breaker_threshold=4,
            breaker_cooldown=5.0,
        )
        with pytest.raises(ValueError):
            crawl_sharded(crawler, links, workers=2)

    def test_reorder_buffer_orders_out_of_order_deposits(self):
        buffer = ReorderBuffer(capacity=4)
        results = []
        done = threading.Event()

        def consumer():
            for _ in range(4):
                results.append(buffer.take())
            done.set()

        thread = threading.Thread(target=consumer)
        thread.start()
        for index in (2, 0, 3, 1):
            buffer.deposit(index, f"lane-{index}")
        assert done.wait(timeout=5.0)
        thread.join(timeout=5.0)
        assert results == ["lane-0", "lane-1", "lane-2", "lane-3"]
        buffer.close()

    def test_reorder_buffer_bounded_but_accepts_next_needed(self):
        buffer = ReorderBuffer(capacity=1)
        # Fill the single slot with an out-of-order deposit...
        buffer.deposit(1, "b")
        # ...the next-needed index must still be accepted (no deadlock).
        buffer.deposit(0, "a")
        assert buffer.take() == "a"
        assert buffer.take() == "b"
        buffer.close()

    def test_single_domain_world_matches_serial(self):
        """A one-lane crawl on more workers than lanes equals serial."""
        from datetime import datetime

        import numpy as np

        from repro.media import ImageKind, SyntheticImage, sample_latent
        from repro.web import (
            HostingService, LinkRecord, ServiceKind, SimulatedInternet,
        )

        rng = np.random.default_rng(5)
        net = SimulatedInternet(seed=13)
        host = HostingService(
            "mono", "mono.com", ServiceKind.IMAGE_SHARING, 1.0, 0.0, 0.0
        )
        links = []
        for i in range(16):
            image = SyntheticImage(
                9000 + i, sample_latent(rng, ImageKind.MODEL_NUDE, model_id=1)
            )
            url = net.host_on_service(host, image, datetime(2014, 5, 1), False)
            links.append(LinkRecord(url=url, link_kind="preview"))
        assert len(partition_lanes(links)) == 1

        serial, q_serial = crawl_serial(net, links)
        parallel, q_parallel = crawl_parallel(net, links, workers=4)
        assert parallel.digest() == serial.digest()
        assert parallel.stats == serial.stats
        assert quarantine_view(q_parallel) == quarantine_view(q_serial)

    def test_reorder_buffer_close_unblocks_take(self):
        buffer = ReorderBuffer(capacity=2)
        errors = []

        def consumer():
            try:
                buffer.take()
            except RuntimeError as exc:
                errors.append(exc)

        thread = threading.Thread(target=consumer)
        thread.start()
        buffer.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert len(errors) == 1


class TestPipelineDeterministicViews:
    @pytest.mark.parametrize("seed", [3, 7])
    @pytest.mark.parametrize("profile", ["none", "hostile"])
    def test_views_match_across_worker_counts(self, seed, profile):
        from repro import build_world, run_pipeline
        from repro.obs import RunTelemetry, Tracer
        from repro.synth.world import WorldConfig

        kwargs = dict(seed=seed, scale=0.01)
        if profile == "hostile":
            kwargs.update(fault_profile="hostile", payload_profile="hostile")

        views = {}
        snapshots = {}
        for workers in (None, 1, 2, 4):
            world = build_world(WorldConfig(**kwargs))
            telemetry = RunTelemetry(tracer=Tracer())
            report = run_pipeline(world, workers=workers, telemetry=telemetry)
            views[workers] = {
                "digest": report.crawl.digest(),
                "quarantine": [r.to_dict() for r in report.quarantine.records],
                "funnel": telemetry.funnel(),
                "vision_cache": report.vision_cache_stats.as_dict(),
            }
            if workers is not None:
                snapshots[workers] = telemetry.deterministic_snapshot()
        assert views[None] == views[1] == views[2] == views[4]
        assert snapshots[1] == snapshots[2] == snapshots[4]
