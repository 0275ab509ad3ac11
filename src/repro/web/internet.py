"""The simulated internet: hosting, origin sites, and fetch semantics.

This is the substrate the crawler (§4.2) runs against.  It models what
the paper's crawler actually experienced:

* content hosted on image-sharing / cloud-storage services, where a link
  may be **alive**, **expired** (free-tier lifetime, deleted uploads),
  **removed for ToS violations** (nudity/copyright), behind a
  **registration wall** (Dropbox, Google Drive), or on a **defunct**
  service (oron);
* *origin sites* — porn sites, social networks, blogs, forums — where the
  model images were published first, which the reverse-search index and
  the Wayback archive know about.

Permanent fetch outcomes are sampled once at publish time from the
hosting service's policy, using the internet's seeded RNG, so a world is
fully reproducible.  *Transient* outcomes (timeouts, rate limits, 5xx
errors) are layered on top at fetch time by an optional fault injector
(:mod:`repro.web.faults`), deterministically per ``(url, attempt)``.
"""

from __future__ import annotations

import enum
import string
from dataclasses import dataclass
from datetime import datetime
from typing import Dict, Iterator, List, Optional, Union

import numpy as np

from ..media.image import SyntheticImage
from ..media.pack import Pack
from .sites import HostingService, ServiceKind, service_by_domain
from .url import Url, normalize_url

__all__ = [
    "FetchResult",
    "FetchStatus",
    "HostedResource",
    "MAX_REDIRECT_HOPS",
    "OriginSite",
    "RedirectPage",
    "SimulatedInternet",
    "TRANSIENT_STATUSES",
]

_TOKEN_ALPHABET = string.ascii_lowercase + string.digits

#: Bound on URL-minting attempts before declaring the namespace exhausted.
_MINT_MAX_TRIES = 1024


class FetchStatus(enum.Enum):
    """Outcome of fetching a URL at crawl time.

    Permanent statuses are sampled once at publish time; transient ones
    (``TIMEOUT``, ``RATE_LIMITED``, ``SERVER_ERROR``) are injected per
    fetch attempt and may clear on retry.  ``SKIPPED_BREAKER_OPEN`` is
    never returned by :meth:`SimulatedInternet.fetch`; the crawler records
    it for links it declined to fetch while a domain's circuit breaker
    was open.
    """

    OK = "ok"
    NOT_FOUND = "not_found"            # expired or deleted
    REMOVED_TOS = "removed_tos"        # taken down for ToS violation
    REGISTRATION_REQUIRED = "registration_required"
    DEFUNCT = "defunct"                # the whole service is gone
    UNKNOWN_HOST = "unknown_host"
    REDIRECT_LOOP = "redirect_loop"    # redirector chain exceeded the hop cap
    # Transient, retryable outcomes (injected by repro.web.faults):
    TIMEOUT = "timeout"                # connection/read timed out
    RATE_LIMITED = "rate_limited"      # throttled; Retry-After may be set
    SERVER_ERROR = "server_error"      # 5xx-style transient backend error
    # Crawler-side accounting (never produced by fetch()):
    SKIPPED_BREAKER_OPEN = "skipped_breaker_open"

    @property
    def transient(self) -> bool:
        """True for outcomes a retry may clear."""
        return self in TRANSIENT_STATUSES


#: Statuses a retry may clear.
TRANSIENT_STATUSES = frozenset(
    {FetchStatus.TIMEOUT, FetchStatus.RATE_LIMITED, FetchStatus.SERVER_ERROR}
)


@dataclass(frozen=True, slots=True)
class OriginSite:
    """A site where images originate (provenance ground truth).

    ``category`` is the *true* content category (e.g. ``"Pornography"``,
    ``"Social Networking"``); the domain classifiers observe it noisily.
    ``site_type`` is the §4.3 hosting typology (image sharing site, forum,
    blog, social network, ...); ``region`` the hosting location.
    """

    domain: str
    category: str
    site_type: str
    region: str


@dataclass(frozen=True, slots=True)
class RedirectPage:
    """An interstitial that forwards to another URL (link-shortener hop).

    Adversarial drift launders pack links through chains of these;
    :meth:`SimulatedInternet.fetch` follows them transparently up to
    :data:`MAX_REDIRECT_HOPS`.
    """

    target: Url


#: Redirect chains longer than this resolve to ``REDIRECT_LOOP``.
MAX_REDIRECT_HOPS = 8


@dataclass
class HostedResource:
    """One URL's content plus its sampled fate."""

    url: Url
    resource: Union[SyntheticImage, Pack, RedirectPage]
    uploaded_at: datetime
    status: FetchStatus


@dataclass(frozen=True, slots=True)
class FetchResult:
    """What the crawler gets back for a URL."""

    url: Url
    status: FetchStatus
    resource: Optional[Union[SyntheticImage, Pack]] = None
    #: Server-suggested wait before retrying (rate limits), seconds.
    retry_after: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.status is FetchStatus.OK


class SimulatedInternet:
    """URL → content registry with policy-driven fetch outcomes.

    ``fault_injector`` (see :mod:`repro.web.faults`) optionally layers
    transient failures over the permanent fates at fetch time; leave it
    ``None`` for a perfectly reliable network (the pre-fault behaviour).

    ``payload_injector`` (see :mod:`repro.web.payload_faults`) is the
    matching *content*-level hazard: OK fetches may deliver corrupted
    payloads — truncated rasters, NaN poison, decoys — deterministically
    per URL.  Leave it ``None`` for pristine payloads.
    """

    def __init__(self, seed: int = 0, fault_injector=None, payload_injector=None):
        self._rng = np.random.default_rng(seed)
        self._hosted: Dict[str, HostedResource] = {}
        self._origin_sites: Dict[str, OriginSite] = {}
        # Hosting services minted after world build (domain churn): these
        # exist only on *this* internet, unlike the static Table 3/4
        # registry in repro.web.sites.
        self._dynamic_services: Dict[str, HostingService] = {}
        self._fault_injector = fault_injector
        self._payload_injector = payload_injector
        # Lifetime fetch count (telemetry); per-run consumers (the
        # pipeline's metric mirror) difference ``n_fetch_calls`` around
        # their run.  Fetch is read-only beyond this counter.
        self._n_fetch_calls = 0

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    @property
    def fault_injector(self):
        """The active transient-fault injector, or ``None``."""
        return self._fault_injector

    def set_fault_injector(self, injector) -> None:
        """Install (or with ``None``, remove) a transient-fault injector."""
        self._fault_injector = injector

    @property
    def payload_injector(self):
        """The active corrupt-payload injector, or ``None``."""
        return self._payload_injector

    def set_payload_injector(self, injector) -> None:
        """Install (or with ``None``, remove) a corrupt-payload injector."""
        self._payload_injector = injector

    # ------------------------------------------------------------------
    # Hosting on services
    # ------------------------------------------------------------------
    def mint_url(self, domain: str, prefix: str = "") -> Url:
        """Allocate a fresh URL under ``domain``.

        Raises :class:`RuntimeError` if no unused token can be found in a
        bounded number of draws (namespace exhaustion), rather than
        spinning forever.
        """
        for _ in range(_MINT_MAX_TRIES):
            token = "".join(
                _TOKEN_ALPHABET[i] for i in self._rng.integers(0, len(_TOKEN_ALPHABET), size=8)
            )
            url = Url(host=domain, path=f"/{prefix}{token}")
            if str(url) not in self._hosted:
                return url
        raise RuntimeError(
            f"URL namespace exhausted for domain {domain!r}: "
            f"no unused token after {_MINT_MAX_TRIES} attempts"
        )

    def host_on_service(
        self,
        service: HostingService,
        resource: Union[SyntheticImage, Pack],
        uploaded_at: datetime,
        contains_nudity: bool,
    ) -> Url:
        """Publish content on a hosting service; its fate is sampled now.

        The fate order mirrors reality: a defunct service loses
        everything; otherwise ToS enforcement may remove flagged content;
        otherwise free-tier link rot may expire it; registration walls
        apply to whatever survives.
        """
        url = self.mint_url(service.domain)
        if service.defunct:
            status = FetchStatus.DEFUNCT
        elif contains_nudity and self._rng.random() < service.tos_takedown_rate:
            status = FetchStatus.REMOVED_TOS
        elif self._rng.random() < service.dead_link_rate:
            status = FetchStatus.NOT_FOUND
        elif service.requires_registration and isinstance(resource, Pack):
            status = FetchStatus.REGISTRATION_REQUIRED
        else:
            status = FetchStatus.OK
        self._hosted[str(url)] = HostedResource(
            url=url, resource=resource, uploaded_at=uploaded_at, status=status
        )
        return url

    # ------------------------------------------------------------------
    # Origin sites
    # ------------------------------------------------------------------
    def register_origin_site(self, site: OriginSite) -> None:
        """Register a provenance site (idempotent per domain)."""
        existing = self._origin_sites.get(site.domain)
        if existing is not None and existing != site:
            raise ValueError(f"conflicting registration for origin domain {site.domain}")
        self._origin_sites[site.domain] = site

    def origin_sites(self) -> Iterator[OriginSite]:
        """Iterate over all registered origin sites."""
        return iter(self._origin_sites.values())

    # ------------------------------------------------------------------
    # Fetching
    # ------------------------------------------------------------------
    def fetch(self, url: Union[Url, str], attempt: int = 0) -> FetchResult:
        """Fetch a URL at crawl time and return its content or failure.

        ``attempt`` is the zero-based retry index; transient faults are a
        deterministic function of ``(url, attempt)``, so re-fetching at a
        higher attempt may clear a timeout/rate-limit/5xx while the same
        ``(url, attempt)`` pair always reproduces the same outcome.

        :class:`RedirectPage` hops are followed transparently (each hop
        is a full fetch, faults included, at the same ``attempt`` index —
        so a resumed crawl replaying ``(url, attempt)`` re-walks the
        chain identically).  Chains longer than :data:`MAX_REDIRECT_HOPS`
        return ``REDIRECT_LOOP``.
        """
        key = str(url)
        parsed = url if isinstance(url, Url) else normalize_url(key)
        result = self._fetch_once(key, parsed, attempt)
        hops = 0
        while result.ok and isinstance(result.resource, RedirectPage):
            hops += 1
            if hops > MAX_REDIRECT_HOPS:
                return FetchResult(url=result.url, status=FetchStatus.REDIRECT_LOOP)
            target = result.resource.target
            result = self._fetch_once(str(target), target, attempt)
        return result

    def _fetch_once(
        self, key: str, parsed: Optional[Url], attempt: int
    ) -> FetchResult:
        """One fetch without redirect following (see :meth:`fetch`)."""
        self._n_fetch_calls += 1
        # Transient faults fire before the registry lookup: a timeout
        # reveals nothing about whether the link is alive.
        if self._fault_injector is not None and parsed is not None:
            fault = self._fault_injector.sample(parsed.host, key, attempt)
            if fault is not None:
                return FetchResult(
                    url=parsed, status=fault.status, retry_after=fault.retry_after
                )
        hosted = self._hosted.get(key)
        if hosted is None:
            return FetchResult(
                url=parsed if parsed is not None else Url("unknown.invalid", "/"),
                status=FetchStatus.UNKNOWN_HOST,
            )
        if hosted.status is FetchStatus.OK:
            resource = hosted.resource
            if self._payload_injector is not None and not isinstance(
                resource, RedirectPage
            ):
                # Corruption is a pure function of (seed, url) — NOT of
                # the attempt index — so checkpoint replay re-fetching at
                # a recorded attempt sees the identical (corrupt) payload.
                resource = self._payload_injector.corrupt_resource(
                    key, hosted.url.host, resource
                )
            return FetchResult(url=hosted.url, status=FetchStatus.OK, resource=resource)
        return FetchResult(url=hosted.url, status=hosted.status)

    def hosted(self, url: Union[Url, str]) -> Optional[HostedResource]:
        """Direct registry access (world construction and tests only)."""
        return self._hosted.get(str(url))

    def host_exact(
        self,
        url: Url,
        resource: Union[SyntheticImage, Pack, RedirectPage],
        uploaded_at: datetime,
        status: FetchStatus = FetchStatus.OK,
    ) -> Url:
        """Publish content at a caller-chosen URL (drift engine).

        Unlike :meth:`host_on_service` this draws nothing from the
        internet's RNG and samples no fate — the caller owns both, which
        is what lets the drift engine stay a pure function of its own
        hash stream.  Raises if the URL is already taken.
        """
        key = str(url)
        if key in self._hosted:
            raise ValueError(f"URL already hosted: {key}")
        self._hosted[key] = HostedResource(
            url=url, resource=resource, uploaded_at=uploaded_at, status=status
        )
        return url

    def urls_on(self, domain: str) -> List[str]:
        """All hosted URL strings under ``domain``, sorted (drift engine)."""
        return sorted(
            key for key, hosted in self._hosted.items() if hosted.url.host == domain
        )

    # ------------------------------------------------------------------
    # Dynamic hosting services (domain churn)
    # ------------------------------------------------------------------
    def register_service(self, service: HostingService) -> None:
        """Register a churned-in hosting service on this internet."""
        existing = self._dynamic_services.get(service.domain)
        if existing is not None and existing != service:
            raise ValueError(
                f"conflicting registration for service domain {service.domain}"
            )
        self._dynamic_services[service.domain] = service

    def service_for(self, domain: str) -> Optional[HostingService]:
        """Hosting service for ``domain``: dynamic registry, then static."""
        service = self._dynamic_services.get(domain.lower())
        if service is not None:
            return service
        return service_by_domain(domain)

    @property
    def n_fetch_calls(self) -> int:
        """Lifetime :meth:`fetch` invocations (retries included)."""
        return self._n_fetch_calls

    def region_of(self, domain: str) -> Optional[str]:
        """Hosting region of an origin domain (for §4.3 IWF statistics)."""
        site = self._origin_sites.get(domain)
        if site is not None:
            return site.region
        return None

    def site_type_of(self, domain: str) -> Optional[str]:
        """Site typology of a domain (origin sites and hosting services)."""
        site = self._origin_sites.get(domain)
        if site is not None:
            return site.site_type
        service = self.service_for(domain)
        if service is not None:
            return (
                "image sharing site"
                if service.kind is ServiceKind.IMAGE_SHARING
                else "cloud storage"
            )
        return None
