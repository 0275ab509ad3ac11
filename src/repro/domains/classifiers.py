"""Domain-classification service analogues (OpenDNS / McAfee / VirusTotal).

Each service maps a domain to zero or more category tags.  The analogue
observes the domain's *true* category (from the simulated internet's
origin-site registry) through service-specific noise:

* a per-service ``no_result`` rate — §4.5 notes OpenDNS leaves ~22% of
  domains unclassified;
* a tag-choice distribution per true category (see
  :mod:`repro.domains.taxonomy`);
* a small confusion rate where the service picks a tag for a *different*
  category entirely.

Verdicts are deterministic per (service, domain): repeated queries agree,
as a ticketing system's would.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .taxonomy import (
    MASTER_CATEGORIES,
    MCAFEE_MAPPING,
    NO_RESULT,
    OPENDNS_MAPPING,
    VIRUSTOTAL_MAPPING,
)

__all__ = [
    "DomainClassifier",
    "DomainVerdict",
    "default_classifiers",
    "tag_distribution",
]


@dataclass(frozen=True, slots=True)
class DomainVerdict:
    """One service's verdict on one domain."""

    service: str
    domain: str
    tags: Tuple[str, ...]

    @property
    def classified(self) -> bool:
        return self.tags != (NO_RESULT,)


class DomainClassifier:
    """A categorisation service with its own taxonomy and noise profile."""

    def __init__(
        self,
        name: str,
        mapping: Dict[str, List[Tuple[Tuple[str, ...], float]]],
        no_result_rate: float,
        confusion_rate: float = 0.03,
        seed: int = 0,
    ):
        if not 0.0 <= no_result_rate <= 1.0:
            raise ValueError("no_result_rate must be within [0, 1]")
        if not 0.0 <= confusion_rate <= 1.0:
            raise ValueError("confusion_rate must be within [0, 1]")
        self.name = name
        self.mapping = mapping
        self.no_result_rate = no_result_rate
        self.confusion_rate = confusion_rate
        self.seed = seed

    # ------------------------------------------------------------------
    def classify(self, domain: str, true_category: Optional[str]) -> DomainVerdict:
        """Categorise ``domain`` whose ground-truth class is ``true_category``.

        ``true_category=None`` models a domain the world knows nothing
        about (e.g. a hosting-service domain queried out of scope) — the
        service returns ``no_result``.
        """
        rng = self._domain_rng(domain)
        if true_category is None or rng.random() < self.no_result_rate:
            return DomainVerdict(self.name, domain, (NO_RESULT,))
        category = true_category
        if rng.random() < self.confusion_rate:
            category = self._random_category(rng, exclude=true_category)
        choices = self.mapping.get(category)
        if not choices:
            return DomainVerdict(self.name, domain, (NO_RESULT,))
        tags = self._draw(rng, choices)
        return DomainVerdict(self.name, domain, tags)

    # ------------------------------------------------------------------
    def _domain_rng(self, domain: str) -> np.random.Generator:
        digest = hashlib.sha256(f"{self.name}|{self.seed}|{domain.lower()}".encode()).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], "big"))

    @staticmethod
    def _draw(
        rng: np.random.Generator, choices: List[Tuple[Tuple[str, ...], float]]
    ) -> Tuple[str, ...]:
        weights = np.array([w for _, w in choices], dtype=np.float64)
        weights /= weights.sum()
        index = int(rng.choice(len(choices), p=weights))
        return choices[index][0]

    @staticmethod
    def _random_category(rng: np.random.Generator, exclude: str) -> str:
        names = [name for name, _ in MASTER_CATEGORIES if name != exclude]
        return names[int(rng.integers(0, len(names)))]


def default_classifiers(seed: int = 0) -> Tuple[DomainClassifier, ...]:
    """The three §4.5 services with their observed noise profiles.

    ``no_result`` rates follow Table 6: OpenDNS leaves ~22% of domains
    unclassified, McAfee and VirusTotal roughly 6%.
    """
    return (
        DomainClassifier("McAfee", MCAFEE_MAPPING, no_result_rate=0.061, seed=seed),
        DomainClassifier("VirusTotal", VIRUSTOTAL_MAPPING, no_result_rate=0.062, seed=seed),
        DomainClassifier("OpenDNS", OPENDNS_MAPPING, no_result_rate=0.22, seed=seed),
    )


def tag_distribution(verdicts: Sequence[DomainVerdict]) -> List[Tuple[str, int, float]]:
    """Tag histogram with cumulative percentages — the Table 6 row format.

    Percentages refer to the total number of *tags*, not domains, exactly
    as the table caption specifies.
    """
    counts: Dict[str, int] = {}
    for verdict in verdicts:
        for tag in verdict.tags:
            counts[tag] = counts.get(tag, 0) + 1
    total = sum(counts.values())
    rows: List[Tuple[str, int, float]] = []
    cumulative = 0
    for tag, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        cumulative += count
        rows.append((tag, count, 100.0 * cumulative / total if total else 0.0))
    return rows
