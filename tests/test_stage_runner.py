"""Tests for stage-level error boundaries and pipeline graceful degradation."""

import pytest

from repro import run_pipeline
from repro.cli import _stage_boundary_lines
from repro.core.stage_runner import StageFailure, StageOutcome, StageRunner


def boom():
    raise RuntimeError("injected stage failure")


class TestStageRunner:
    def test_ok_path_records_outcome(self):
        runner = StageRunner(strict=True)
        value, ok = runner.run("alpha", lambda: 42)
        assert (value, ok) == (42, True)
        assert runner.outcomes[0].status == "ok"
        assert not runner.degraded

    def test_strict_reraises_but_records(self):
        runner = StageRunner(strict=True)
        with pytest.raises(ZeroDivisionError):
            runner.run("alpha", lambda: 1 // 0)
        assert runner.outcomes[0].status == "failed"
        assert runner.failures[0].error_type == "ZeroDivisionError"

    def test_lenient_converts_to_structured_failure(self):
        runner = StageRunner(strict=False)
        value, ok = runner.run(
            "alpha", boom, context={"n_links": 7, "n_images": 3}
        )
        assert value is None and not ok
        failure = runner.failures[0]
        assert failure.stage == "alpha"
        assert failure.error_type == "RuntimeError"
        assert "injected stage failure" in failure.message
        assert "RuntimeError" in failure.traceback
        assert failure.elapsed >= 0.0
        assert failure.context == {"n_links": 7, "n_images": 3}
        assert "n_links=7" in failure.summary()

    def test_dependents_are_skipped(self):
        runner = StageRunner(strict=False)
        runner.run("alpha", boom)
        value, ok = runner.run("beta", lambda: 1, requires=("alpha",))
        assert value is None and not ok
        outcome = runner.outcomes[1]
        assert outcome.status == "skipped"
        assert outcome.skipped_due_to == "alpha"
        # transitive skip
        runner.run("gamma", lambda: 1, requires=("beta",))
        assert runner.outcomes[2].status == "skipped"
        # independent stage still runs
        value, ok = runner.run("delta", lambda: "fine")
        assert (value, ok) == ("fine", True)
        assert runner.degraded

    def test_hooks_force_failures(self):
        runner = StageRunner(strict=False, hooks={"alpha": boom})
        _, ok = runner.run("alpha", lambda: 1)
        assert not ok
        _, ok = runner.run("beta", lambda: 2)
        assert ok

    def test_summary_lines(self):
        runner = StageRunner(strict=False)
        runner.run("alpha", lambda: 1)
        assert _stage_boundary_lines(runner.outcomes) == ["all 1 stages completed"]
        runner.run("beta", boom)
        runner.run("gamma", lambda: 1, requires=("beta",))
        lines = _stage_boundary_lines(runner.outcomes)
        assert any(line.startswith("FAILED  beta") for line in lines)
        assert any("skipped gamma" in line for line in lines)

    def test_root_cause_tracked_through_skip_chains(self):
        """Regression: a transitively skipped stage must name the stage
        that actually failed, not just its direct dependency."""
        runner = StageRunner(strict=False)
        runner.run("alpha", boom)
        runner.run("beta", lambda: 1, requires=("alpha",))
        runner.run("gamma", lambda: 1, requires=("beta",))
        beta, gamma = runner.outcomes[1], runner.outcomes[2]
        assert (beta.skipped_due_to, beta.root_cause) == ("alpha", "alpha")
        assert (gamma.skipped_due_to, gamma.root_cause) == ("beta", "alpha")
        lines = _stage_boundary_lines(runner.outcomes)
        # direct skip: no redundant root-cause suffix
        assert "skipped beta (requires alpha)" in lines
        # transitive skip: the root cause is surfaced
        assert "skipped gamma (requires beta; root cause alpha)" in lines

    def test_non_exception_errors_reraise_even_in_lenient_mode(self):
        """Lenient mode degrades on stage crashes; it must not swallow
        operator aborts — but it still records them for the post-mortem."""

        def interrupt():
            raise KeyboardInterrupt()

        runner = StageRunner(strict=False, hooks={"alpha": interrupt})
        with pytest.raises(KeyboardInterrupt):
            runner.run("alpha", lambda: 1)
        assert runner.outcomes[0].status == "failed"
        assert runner.failures[0].error_type == "KeyboardInterrupt"
        # the stage is still marked bad, so dependents would skip
        assert runner.unavailable("alpha")

    def test_system_exit_reraises_in_lenient_mode(self):
        runner = StageRunner(strict=False)

        def bail():
            raise SystemExit(3)

        with pytest.raises(SystemExit):
            runner.run("alpha", bail)
        assert runner.failures[0].error_type == "SystemExit"


class TestPipelineReportOutcomes:
    """PipelineReport's degradation accessors over mixed outcomes."""

    def make_report(self):
        from repro.core.pipeline import PipelineReport

        failure = StageFailure(
            stage="abuse_filter",
            error_type="RuntimeError",
            message="boom",
            traceback="...",
            elapsed=0.1,
            context={"n_images": 12},
        )
        outcomes = [
            StageOutcome(stage="top_extraction", status="ok", elapsed=1.0),
            StageOutcome(stage="url_crawl", status="ok", elapsed=2.0),
            StageOutcome(
                stage="abuse_filter", status="failed", elapsed=0.1, failure=failure
            ),
            StageOutcome(
                stage="nsfv", status="skipped",
                skipped_due_to="abuse_filter", root_cause="abuse_filter",
            ),
            StageOutcome(
                stage="provenance", status="skipped",
                skipped_due_to="nsfv", root_cause="abuse_filter",
            ),
        ]
        return PipelineReport(
            selection=[], forum_summaries=[],
            stage_outcomes=outcomes, stage_failures=[failure],
        )

    def test_degraded_with_mixed_outcomes(self):
        assert self.make_report().degraded

    def test_not_degraded_when_all_ok(self):
        from repro.core.pipeline import PipelineReport

        report = PipelineReport(
            selection=[], forum_summaries=[],
            stage_outcomes=[StageOutcome(stage="a", status="ok")],
        )
        assert not report.degraded

    def test_skipped_outcomes_carry_root_cause(self):
        report = self.make_report()
        by_stage = {o.stage: o for o in report.stage_outcomes}
        assert by_stage["provenance"].root_cause == "abuse_filter"
        assert by_stage["provenance"].skipped_due_to == "nsfv"


@pytest.mark.slow
class TestPipelineDegradation:
    """Acceptance: strict=False returns a partial report with a populated
    StageFailure when a stage is forced to raise."""

    def test_forced_abuse_failure_degrades_gracefully(self, world):
        report = run_pipeline(
            world, strict=False, stage_hooks={"abuse_filter": boom}
        )
        assert report.degraded
        # failed section marked unavailable
        assert report.abuse is None
        # dependents skipped, also unavailable
        assert report.preview_verdicts is None
        assert report.provenance is None
        assert report.nsfv_previews == []
        # upstream and independent sections still present
        assert report.crawl is not None
        assert report.tops is not None
        assert report.earnings is not None
        assert report.actor_analyzer is not None
        # the structured failure record is populated
        (failure,) = report.stage_failures
        assert isinstance(failure, StageFailure)
        assert failure.stage == "abuse_filter"
        assert failure.error_type == "RuntimeError"
        assert "injected stage failure" in failure.message
        assert failure.context.get("n_images", 0) > 0
        statuses = {o.stage: o.status for o in report.stage_outcomes}
        assert statuses["abuse_filter"] == "failed"
        assert statuses["nsfv"] == "skipped"
        assert statuses["provenance"] == "skipped"
        assert statuses["earnings"] == "ok"

    def test_strict_mode_propagates(self, world):
        with pytest.raises(RuntimeError, match="injected stage failure"):
            run_pipeline(world, strict=True, stage_hooks={"provenance": boom})

    def test_default_run_records_all_ok(self, report):
        assert not report.degraded
        assert report.stage_failures == []
        assert {o.status for o in report.stage_outcomes} == {"ok"}
        assert [o.stage for o in report.stage_outcomes] == [
            "top_extraction",
            "url_crawl",
            "abuse_filter",
            "nsfv",
            "provenance",
            "earnings",
            "actors",
        ]
