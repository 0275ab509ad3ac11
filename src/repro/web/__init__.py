"""Simulated-internet substrate: URLs, hosting services, fetch, archive, crawler.

Fault tolerance lives here too: :mod:`~repro.web.faults` injects
transient fetch failures, :mod:`~repro.web.retry` supplies the retry /
circuit-breaker discipline, and :mod:`~repro.web.payload_faults`
injects *corrupt payloads* (truncated/NaN/decoy rasters) that the
crawler's ingest validation boundary excises into the quarantine
ledger.
"""

from .archive import WaybackArchive
from .crawler import (
    CrawlResult,
    CrawlStats,
    CrawledImage,
    Crawler,
    LinkAttempt,
    LinkAttemptLog,
    LinkRecord,
    content_digest,
)
from .faults import (
    FAULT_PROFILES,
    DomainFaultSpec,
    FaultInjector,
    FaultProfile,
    ScriptedFaultInjector,
    TransientFault,
    fault_profile,
    stable_uniform,
)
from .internet import (
    TRANSIENT_STATUSES,
    FetchResult,
    FetchStatus,
    HostedResource,
    OriginSite,
    SimulatedInternet,
)
from .payload_faults import (
    CORRUPTION_KINDS,
    PAYLOAD_PROFILES,
    CorruptImage,
    PayloadFaultInjector,
    PayloadFaultProfile,
    PayloadFaultSpec,
    corrupt_raster,
    payload_profile,
    stable_noise_seed,
)
from .retry import BreakerBoard, BreakerState, CircuitBreaker, RetryPolicy
from .sites import (
    CLOUD_STORAGE_SERVICES,
    IMAGE_SHARING_SERVICES,
    HostingService,
    ServiceKind,
    service_by_domain,
)
from .url import Url, extract_urls, normalize_url, registrable_domain

__all__ = [
    "BreakerBoard",
    "BreakerState",
    "CLOUD_STORAGE_SERVICES",
    "CORRUPTION_KINDS",
    "CircuitBreaker",
    "CorruptImage",
    "CrawlResult",
    "CrawlStats",
    "CrawledImage",
    "Crawler",
    "DomainFaultSpec",
    "FAULT_PROFILES",
    "FaultInjector",
    "FaultProfile",
    "FetchResult",
    "FetchStatus",
    "HostedResource",
    "HostingService",
    "IMAGE_SHARING_SERVICES",
    "LinkAttempt",
    "LinkAttemptLog",
    "LinkRecord",
    "OriginSite",
    "PAYLOAD_PROFILES",
    "PayloadFaultInjector",
    "PayloadFaultProfile",
    "PayloadFaultSpec",
    "RetryPolicy",
    "ScriptedFaultInjector",
    "ServiceKind",
    "SimulatedInternet",
    "TRANSIENT_STATUSES",
    "TransientFault",
    "Url",
    "WaybackArchive",
    "content_digest",
    "corrupt_raster",
    "extract_urls",
    "fault_profile",
    "normalize_url",
    "payload_profile",
    "registrable_domain",
    "service_by_domain",
    "stable_noise_seed",
    "stable_uniform",
]
