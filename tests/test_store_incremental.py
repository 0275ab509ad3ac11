"""The tentpole invariant: incremental runs are bit-identical to cold.

For any world configuration, running the store-backed pipeline over
epochs ``1..N`` one delta at a time must produce, at epoch ``N``,
exactly what a single cold run over the whole union produces:

* the same crawl digest (:meth:`CrawlResult.digest`),
* the same quarantine ledger, record for record,
* the same measurement view
  (:meth:`~repro.obs.RunTelemetry.measurement_view` — the funnel and
  measured metrics, without the work-accounting registry, whose
  cache/store counts legitimately differ between warm and cold runs).

The matrix deliberately crosses the store path with the failure
machinery of earlier PRs: fault profiles (transport chaos), payload
profiles (corrupt rasters → quarantine), drift profiles (adversarial
evasion).
"""

import pytest

from repro.store import (
    PersistSession,
    RunStore,
    StoreConfigError,
    run_incremental,
)

#: Small-but-inhabited world: every funnel stage sees traffic, including
#: quarantine (hostile payloads) and the underage/hashlist branches.
WORLD_KW = dict(
    seed=3,
    scale=0.006,
    with_other_activity=False,
    underage_rate=0.30,
    hashlist_rate=0.5,
    epoch_total=3,
)


def ledger(result):
    return [r.to_dict() for r in result.report.quarantine.records]


def run_epochs(tmp_path, name, epochs, **overrides):
    cfg = {**WORLD_KW, **overrides}
    path = tmp_path / f"{name}.sqlite"
    result = None
    for epoch in epochs:
        result = run_incremental(path, epoch=epoch, **cfg)
    return result


class TestIncrementalEqualsCold:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"payload_profile": "hostile"},
            {"fault_profile": "flaky"},
            {"drift_profile": "aggressive", "drift_epoch": 1},
            {"fault_profile": "hostile", "payload_profile": "hostile"},
        ],
        ids=["clean", "payload-hostile", "fault-flaky", "drift", "fault+payload"],
    )
    def test_epochs_1_to_3_equal_cold_union(self, tmp_path, overrides):
        cold = run_epochs(tmp_path, "cold", [3], **overrides)
        inc = run_epochs(tmp_path, "inc", [1, 2, 3], **overrides)
        assert inc.crawl_digest == cold.crawl_digest
        assert ledger(inc) == ledger(cold)
        assert inc.measurement == cold.measurement

    def test_delta_appends_are_monotone(self, tmp_path):
        path = tmp_path / "mono.sqlite"
        totals = []
        for epoch in (1, 2, 3):
            result = run_incremental(path, epoch=epoch, **WORLD_KW)
            totals.append(sum(result.row_counts.values()))
            assert result.rows_added > 0
        assert totals == sorted(totals)
        # the epoch-3 store holds exactly the cold union's row count
        cold = run_incremental(tmp_path / "cold.sqlite", epoch=3, **WORLD_KW)
        assert totals[-1] == sum(cold.row_counts.values())

    def test_rerun_at_same_epoch_adds_nothing_and_matches(self, tmp_path):
        path = tmp_path / "rerun.sqlite"
        first = run_incremental(path, epoch=3, **WORLD_KW)
        again = run_incremental(path, epoch=3, **WORLD_KW)
        assert again.rows_added == 0
        assert again.crawl_digest == first.crawl_digest
        assert again.measurement == first.measurement

    def test_warm_memos_are_actually_consulted(self, tmp_path):
        path = tmp_path / "warm.sqlite"
        run_incremental(path, epoch=2, **WORLD_KW)
        result = run_incremental(path, epoch=3, **WORLD_KW)
        hits = [
            metric["value"]
            for metric in result.report.telemetry.deterministic_snapshot()["metrics"]
            if metric["name"] == "vision_cache.hits"
        ]
        assert hits and hits[0] > 0

    def test_work_accounting_stays_out_of_the_measurement_view(self, tmp_path):
        path = tmp_path / "work.sqlite"
        run_incremental(path, epoch=2, **WORLD_KW)
        tele = run_incremental(path, epoch=3, **WORLD_KW).report.telemetry
        measured = [m["name"] for m in tele.measurement_view()["metrics"]]
        assert measured
        assert not [
            name
            for name in measured
            if name.startswith(("vision_cache.", "store.", "internet."))
        ]
        every = [m["name"] for m in tele.deterministic_snapshot()["metrics"]]
        assert "vision_cache.hits" in every
        assert set(measured) < set(every)


class TestStoreRefusals:
    def test_epoch_rewind_refused(self, tmp_path):
        path = tmp_path / "rewind.sqlite"
        run_incremental(path, epoch=2, **WORLD_KW)
        with pytest.raises(StoreConfigError, match="rewind"):
            run_incremental(path, epoch=1, **WORLD_KW)

    def test_foreign_config_refused(self, tmp_path):
        path = tmp_path / "bound.sqlite"
        run_incremental(path, epoch=1, **WORLD_KW)
        other = dict(WORLD_KW, seed=WORLD_KW["seed"] + 1)
        with pytest.raises(StoreConfigError, match="different world"):
            run_incremental(path, epoch=2, **other)

    def test_config_object_and_overrides_are_exclusive(self, tmp_path):
        from repro.synth.world import WorldConfig

        with pytest.raises(TypeError):
            run_incremental(
                tmp_path / "x.sqlite",
                config=WorldConfig(**WORLD_KW),
                seed=9,
            )


class TestDriftThroughStore:
    def test_drift_epoch_zero_is_strict_noop(self, tmp_path):
        """A drift profile armed at epoch 0 must not perturb anything.

        The store path re-validates the persisted profile and replays the
        world through its cursors; epoch 0 (and profile ``none``) must
        come out bit-identical to an undrifted run of the same world.
        """
        plain = run_epochs(tmp_path, "plain", [1, 2, 3])
        armed = run_epochs(
            tmp_path, "armed", [1, 2, 3],
            drift_profile="aggressive", drift_epoch=0,
        )
        assert armed.crawl_digest == plain.crawl_digest
        assert ledger(armed) == ledger(plain)
        assert armed.measurement == plain.measurement

    def test_store_loaded_world_revalidates_drift_profile(self, tmp_path):
        """Bad profile names die in WorldConfig before touching the store."""
        with pytest.raises(ValueError, match="profile"):
            run_incremental(
                tmp_path / "bad.sqlite", epoch=1,
                **dict(WORLD_KW, drift_profile="definitely-not-a-profile"),
            )


class TestPersistSession:
    def test_unchanged_memos_are_not_rewritten(self, tmp_path):
        path = tmp_path / "skip.sqlite"
        run_incremental(path, epoch=3, **WORLD_KW)
        with RunStore(path) as store:
            session = PersistSession.load(store)
            before = store._execute(
                "SELECT COUNT(*) FROM vision_cache"
            ).fetchone()[0]
            session.save(store)  # nothing grew: every write skipped
            after = store._execute(
                "SELECT COUNT(*) FROM vision_cache"
            ).fetchone()[0]
        assert before == after

    def test_grown_memo_is_rewritten(self, tmp_path):
        path = tmp_path / "grow.sqlite"
        run_incremental(path, epoch=3, **WORLD_KW)
        with RunStore(path) as store:
            session = PersistSession.load(store)
            session.cache["brand-new-digest"] = {"hash": 12345}
            session.save(store)
            row = store._execute(
                "SELECT value FROM vision_cache "
                "WHERE digest='brand-new-digest' AND field='hash'"
            ).fetchone()
        assert row is not None and row[0] == "12345"
