"""Tests for the record-level quarantine ledger."""

import numpy as np
import pytest

from repro.core.quarantine import Quarantine, QuarantineRecord
from repro.media.validate import NonFinitePixelError


def poison():
    return np.full((16, 16, 3), np.nan)


def clean():
    return np.zeros((16, 16, 3))


class TestAdmission:
    def test_admit_builds_structured_record(self):
        ledger = Quarantine()
        record = ledger.admit(
            "url_crawl",
            "https://imgur.com/x",
            NonFinitePixelError("NaN pixels"),
            {"link_kind": "preview"},
        )
        assert isinstance(record, QuarantineRecord)
        assert record.stage == "url_crawl"
        assert record.ref == "https://imgur.com/x"
        assert record.error_type == "NonFinitePixelError"
        assert "NaN" in record.message
        assert record.context == {"link_kind": "preview"}
        assert ledger.records == [record]

    def test_record_summary_and_dict(self):
        record = QuarantineRecord(
            stage="nsfv", ref="abc123", error_type="WrongShapeError",
            message="bad", context={"group": "previews"},
        )
        summary = record.summary()
        assert "nsfv" in summary and "abc123" in summary
        assert "group=previews" in summary
        round_trip = record.to_dict()
        assert round_trip["error_type"] == "WrongShapeError"
        assert round_trip["context"] == {"group": "previews"}


class TestGuard:
    def test_guard_captures_exceptions(self):
        ledger = Quarantine()
        with ledger.guard("provenance", "digest-1"):
            raise RuntimeError("query blew up")
        assert ledger.count("provenance") == 1
        assert ledger.records[0].error_type == "RuntimeError"

    def test_guard_passes_clean_records(self):
        ledger = Quarantine()
        with ledger.guard("provenance", "digest-1"):
            pass
        assert len(ledger) == 0

    def test_guard_never_swallows_operator_aborts(self):
        ledger = Quarantine()
        with pytest.raises(KeyboardInterrupt):
            with ledger.guard("provenance", "digest-1"):
                raise KeyboardInterrupt()
        assert len(ledger) == 0


class TestFilterRasters:
    def test_order_preserving_excision(self):
        ledger = Quarantine()
        items = [("a", clean()), ("b", poison()), ("c", clean())]
        survivors = ledger.filter_rasters(
            "nsfv", items, ref=lambda i: i[0], raster=lambda i: i[1]
        )
        assert [name for name, _ in survivors] == ["a", "c"]
        assert ledger.refs("nsfv") == {"b"}
        assert ledger.records[0].error_type == "NonFinitePixelError"

    def test_raster_access_failure_is_quarantined_too(self):
        def exploding(item):
            if item == "bad":
                raise OSError("disk fell over")
            return clean()

        ledger = Quarantine()
        survivors = ledger.filter_rasters(
            "abuse_filter", ["ok", "bad"], ref=str, raster=exploding
        )
        assert survivors == ["ok"]
        assert ledger.records[0].error_type == "OSError"

    def test_context_callable(self):
        ledger = Quarantine()
        ledger.filter_rasters(
            "provenance",
            ["x"],
            ref=str,
            raster=lambda i: poison(),
            context=lambda i: {"group": "packs"},
        )
        assert ledger.records[0].context == {"group": "packs"}

    def test_digest_with_a_record_never_materialises_its_raster(self):
        ledger = Quarantine()
        survivors = ledger.filter_rasters(  # a raster access would raise
            "nsfv", ["d1"], ref=str, raster=lambda item: 1 / 0, known={"d1": {}}
        )
        assert survivors == ["d1"] and len(ledger) == 0

    def test_unknown_poison_digest_is_validated_and_admitted(self):
        ledger = Quarantine()
        survivors = ledger.filter_rasters(
            "abuse_filter",
            ["d1", "d2"],
            ref=str,
            raster=lambda item: poison(),
            known={"d1": {"hash": 7}},
        )
        assert survivors == ["d1"]
        [record] = ledger.records
        assert (record.stage, record.ref) == ("abuse_filter", "d2")
        assert record.error_type == "NonFinitePixelError"
        assert record.message.endswith("[d2]")


class TestAccounting:
    def ledger(self):
        ledger = Quarantine()
        ledger.admit("url_crawl", "u1", ValueError("a"))
        ledger.admit("url_crawl", "u2", TypeError("b"))
        ledger.admit("nsfv", "d1", ValueError("c"))
        return ledger

    def test_counts(self):
        ledger = self.ledger()
        assert len(ledger) == 3
        assert ledger.n_quarantined == 3
        assert ledger.count() == 3
        assert ledger.count("url_crawl") == 2
        assert ledger.count("missing") == 0

    def test_by_stage_and_error(self):
        ledger = self.ledger()
        assert ledger.by_stage() == {"url_crawl": 2, "nsfv": 1}
        assert ledger.by_error() == {"ValueError": 2, "TypeError": 1}

    def test_refs(self):
        ledger = self.ledger()
        assert ledger.refs() == {"u1", "u2", "d1"}
        assert ledger.refs("nsfv") == {"d1"}

    def test_sample_is_stable_prefix(self):
        ledger = self.ledger()
        assert [r.ref for r in ledger.sample(2)] == ["u1", "u2"]
        assert ledger.sample(0) == []


class TestSummaryLines:
    def test_empty(self):
        assert Quarantine().summary_lines() == ["no quarantined records"]

    def test_populated(self):
        ledger = Quarantine()
        ledger.admit("url_crawl", "u1", ValueError("boom"))
        lines = ledger.summary_lines()
        assert lines[0] == "1 records quarantined"
        assert any("by stage: url_crawl=1" in line for line in lines)
        assert any("by error: ValueError=1" in line for line in lines)
        assert any("e.g. url_crawl: u1" in line for line in lines)
