"""Tests for the domain-classification substrate."""

import pytest

from repro.domains import (
    MASTER_CATEGORIES,
    NO_RESULT,
    DomainClassifier,
    default_classifiers,
    tag_distribution,
)
from repro.domains.taxonomy import MCAFEE_MAPPING, OPENDNS_MAPPING, VIRUSTOTAL_MAPPING


class TestTaxonomy:
    def test_master_weights_positive_and_roughly_normalised(self):
        # Weights are relative (normalised at sampling time) but should
        # stay close to a probability vector for readability.
        weights = [w for _, w in MASTER_CATEGORIES]
        assert all(w > 0 for w in weights)
        assert sum(weights) == pytest.approx(1.0, abs=0.1)

    def test_porn_dominates(self):
        weights = dict(MASTER_CATEGORIES)
        assert weights["Pornography"] == max(weights.values())

    def test_all_mappings_cover_master(self):
        names = {name for name, _ in MASTER_CATEGORIES}
        for mapping in (MCAFEE_MAPPING, VIRUSTOTAL_MAPPING, OPENDNS_MAPPING):
            assert names <= set(mapping)

    def test_mapping_weights_positive(self):
        for mapping in (MCAFEE_MAPPING, VIRUSTOTAL_MAPPING, OPENDNS_MAPPING):
            for choices in mapping.values():
                assert all(weight > 0 for _, weight in choices)
                assert all(tags for tags, _ in choices)


class TestClassifier:
    def test_deterministic_per_domain(self):
        clf = DomainClassifier("X", MCAFEE_MAPPING, no_result_rate=0.1, seed=0)
        a = clf.classify("site.com", "Pornography")
        b = clf.classify("site.com", "Pornography")
        assert a == b

    def test_none_category_gives_no_result(self):
        clf = DomainClassifier("X", MCAFEE_MAPPING, no_result_rate=0.0)
        verdict = clf.classify("site.com", None)
        assert verdict.tags == (NO_RESULT,)
        assert not verdict.classified

    def test_zero_no_result_rate_always_classifies(self):
        clf = DomainClassifier("X", MCAFEE_MAPPING, no_result_rate=0.0, confusion_rate=0.0)
        for i in range(50):
            verdict = clf.classify(f"d{i}.com", "Games")
            assert verdict.tags == ("Games",)

    def test_full_no_result_rate(self):
        clf = DomainClassifier("X", MCAFEE_MAPPING, no_result_rate=1.0)
        assert clf.classify("a.com", "Games").tags == (NO_RESULT,)

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            DomainClassifier("X", {}, no_result_rate=2.0)
        with pytest.raises(ValueError):
            DomainClassifier("X", {}, no_result_rate=0.1, confusion_rate=-1.0)

    def test_porn_maps_to_service_vocabulary(self):
        mcafee, virustotal, opendns = default_classifiers(seed=0)
        # Sample many domains; the dominant tags must come from each
        # service's own porn vocabulary.
        tags_mcafee = set()
        tags_virustotal = set()
        tags_opendns = set()
        for i in range(200):
            tags_mcafee.update(mcafee.classify(f"p{i}.com", "Pornography").tags)
            tags_virustotal.update(virustotal.classify(f"p{i}.com", "Pornography").tags)
            tags_opendns.update(opendns.classify(f"p{i}.com", "Pornography").tags)
        assert "Pornography" in tags_mcafee
        assert "adult content" in tags_virustotal
        assert "Pornography" in tags_opendns

    def test_opendns_higher_no_result(self):
        mcafee, _, opendns = default_classifiers(seed=1)
        domains = [f"x{i}.com" for i in range(800)]
        categories = ["Games"] * len(domains)
        mcafee_nr = sum(
            1 for d, c in zip(domains, categories) if not mcafee.classify(d, c).classified
        )
        opendns_nr = sum(
            1 for d, c in zip(domains, categories) if not opendns.classify(d, c).classified
        )
        # §4.5: OpenDNS leaves ~22% unclassified vs ~6% for the others.
        assert opendns_nr > 2 * mcafee_nr


class TestTagDistribution:
    def test_counts_tags_not_domains(self):
        clf = DomainClassifier("X", VIRUSTOTAL_MAPPING, no_result_rate=0.0, confusion_rate=0.0)
        verdicts = [clf.classify(f"d{i}.com", "Pornography") for i in range(100)]
        rows = tag_distribution(verdicts)
        total_tags = sum(count for _, count, _ in rows)
        assert total_tags >= 100  # multi-tag verdicts inflate the total

    def test_cumulative_percent_monotone(self):
        clf = DomainClassifier("X", MCAFEE_MAPPING, no_result_rate=0.1)
        verdicts = [
            clf.classify(f"d{i}.com", ("Games", "Blogs")[i % 2]) for i in range(50)
        ]
        rows = tag_distribution(verdicts)
        percents = [p for _, _, p in rows]
        assert percents == sorted(percents)
        assert percents[-1] == pytest.approx(100.0)

    def test_empty(self):
        assert tag_distribution([]) == []
