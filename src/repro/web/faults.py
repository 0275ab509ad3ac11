"""Transient-fault model for the simulated internet.

The paper's crawler (§4.2) ran against a hostile real internet: requests
time out, services rate-limit, backends throw 5xx errors — *transiently*.
The original :class:`~repro.web.internet.SimulatedInternet` samples each
URL's **permanent** fate once at publish time (dead link, ToS takedown,
registration wall, defunct service); this module layers the missing
*transient* failures on top, at **fetch** time.

Two design rules keep fault injection reproducible:

1. **Faults are a pure function of ``(seed, url, attempt)``.**  Instead
   of drawing from a shared RNG stream (which would make outcomes depend
   on crawl *order*), each fetch derives an independent uniform variate
   from a SHA-256 hash of the injector seed, the URL, and the attempt
   index.  Two crawls that fetch the same URL at the same attempt number
   see the same outcome no matter what happened in between — which is
   exactly what makes every crawl of one world byte-identical, so a
   re-run of an interrupted run reproduces the uninterrupted one.
2. **Transient faults hide permanent fates.**  A timeout reveals nothing
   about whether the link is dead; the injector therefore fires *before*
   the registry lookup, and a retried fetch (higher ``attempt``) may then
   observe the underlying permanent status.

Deterministic :class:`ScriptedFaultInjector` profiles exist for tests and
benchmarks that need exact failure schedules rather than rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from .._rng import path_digest
from .internet import FetchStatus

__all__ = [
    "DomainFaultSpec",
    "FAULT_PROFILES",
    "FaultInjector",
    "FaultProfile",
    "ScriptedFaultInjector",
    "TransientFault",
    "fault_profile",
    "stable_uniform",
]

_TWO_64 = float(2**64)


def stable_uniform(seed: int, *parts: str) -> float:
    """A uniform variate in ``[0, 1)`` derived purely from ``(seed, parts)``.

    Order-independent across calls: the value depends only on the inputs,
    never on how many variates were drawn before.

    >>> stable_uniform(7, "https://a.com/x", "0") == stable_uniform(7, "https://a.com/x", "0")
    True
    >>> 0.0 <= stable_uniform(7, "anything") < 1.0
    True
    """
    return int.from_bytes(path_digest(seed, *parts)[:8], "big") / _TWO_64


@dataclass(frozen=True, slots=True)
class TransientFault:
    """One injected transient failure."""

    status: FetchStatus
    #: Server-suggested wait before retrying (rate limits only), seconds.
    retry_after: Optional[float] = None


@dataclass(frozen=True, slots=True)
class DomainFaultSpec:
    """Per-attempt transient-failure rates for one domain.

    Rates are *per fetch attempt* and independent across attempts, so a
    URL behind a spec with total rate ``p`` succeeds within ``k`` retries
    with probability ``1 - p**(k+1)``.
    """

    timeout_rate: float = 0.0
    rate_limit_rate: float = 0.0
    server_error_rate: float = 0.0
    #: ``Retry-After`` value attached to rate-limit responses, seconds.
    retry_after: float = 2.0

    def __post_init__(self) -> None:
        for rate in (self.timeout_rate, self.rate_limit_rate, self.server_error_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("fault rates must be within [0, 1]")
        if self.total_rate > 1.0:
            raise ValueError("fault rates must sum to at most 1")
        if self.retry_after < 0:
            raise ValueError("retry_after must be non-negative")

    @property
    def total_rate(self) -> float:
        return self.timeout_rate + self.rate_limit_rate + self.server_error_rate


@dataclass(frozen=True)
class FaultProfile:
    """A named fault model: a default spec plus per-domain overrides."""

    name: str
    default: DomainFaultSpec
    overrides: Mapping[str, DomainFaultSpec] = field(default_factory=dict)

    def spec_for(self, host: str) -> DomainFaultSpec:
        """The spec governing ``host`` (exact host match, then default)."""
        return self.overrides.get(host, self.default)


#: Built-in fault profiles.  ``none`` injects nothing (useful as an
#: explicit baseline); ``flaky`` models an ordinarily unreliable internet;
#: ``hostile`` a heavily degraded one; ``rate_limited`` aggressive
#: throttling with honest ``Retry-After`` headers.
FAULT_PROFILES: Dict[str, FaultProfile] = {
    "none": FaultProfile("none", DomainFaultSpec()),
    "flaky": FaultProfile(
        "flaky",
        DomainFaultSpec(timeout_rate=0.06, rate_limit_rate=0.04, server_error_rate=0.05),
    ),
    "hostile": FaultProfile(
        "hostile",
        DomainFaultSpec(
            timeout_rate=0.12, rate_limit_rate=0.10, server_error_rate=0.13,
            retry_after=4.0,
        ),
    ),
    "rate_limited": FaultProfile(
        "rate_limited",
        DomainFaultSpec(rate_limit_rate=0.25, retry_after=4.0),
    ),
}


def fault_profile(name: str) -> FaultProfile:
    """Look up a built-in profile by name.

    >>> fault_profile("flaky").name
    'flaky'
    """
    try:
        return FAULT_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(FAULT_PROFILES))
        raise ValueError(f"unknown fault profile {name!r} (known: {known})") from None


class FaultInjector:
    """Rate-based transient-fault injection, deterministic per (url, attempt)."""

    def __init__(self, profile: FaultProfile, seed: int = 0):
        self.profile = profile
        self.seed = int(seed)
        #: Total faults injected, for operator summaries.
        self.n_injected = 0
        self.by_status: Dict[FetchStatus, int] = {}

    def sample(self, host: str, url: str, attempt: int) -> Optional[TransientFault]:
        """Decide the fate of fetch ``attempt`` for ``url`` on ``host``."""
        spec = self.profile.spec_for(host)
        if spec.total_rate == 0.0:
            return None
        u = stable_uniform(self.seed, url, str(attempt))
        if u < spec.timeout_rate:
            fault = TransientFault(FetchStatus.TIMEOUT)
        elif u < spec.timeout_rate + spec.rate_limit_rate:
            fault = TransientFault(FetchStatus.RATE_LIMITED, retry_after=spec.retry_after)
        elif u < spec.total_rate:
            fault = TransientFault(FetchStatus.SERVER_ERROR)
        else:
            return None
        self.n_injected += 1
        self.by_status[fault.status] = self.by_status.get(fault.status, 0) + 1
        return fault

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultInjector(profile={self.profile.name!r}, seed={self.seed})"


class ScriptedFaultInjector:
    """Deterministic schedules for tests: fail the first N attempts.

    ``failures`` maps a full URL string *or* a bare host to the number of
    leading attempts that must fail (URL entries take precedence).  Use
    a large count (e.g. ``10**9``) for a permanently failing target.
    """

    def __init__(
        self,
        failures: Mapping[str, int],
        status: FetchStatus = FetchStatus.TIMEOUT,
        retry_after: Optional[float] = None,
    ):
        if not status.transient:
            raise ValueError(f"scripted status must be transient, got {status}")
        self.failures = dict(failures)
        self.status = status
        self.retry_after = retry_after
        self.n_injected = 0
        self.by_status: Dict[FetchStatus, int] = {}

    def sample(self, host: str, url: str, attempt: int) -> Optional[TransientFault]:
        n_fail = self.failures.get(url)
        if n_fail is None:
            n_fail = self.failures.get(host, 0)
        if attempt >= n_fail:
            return None
        self.n_injected += 1
        self.by_status[self.status] = self.by_status.get(self.status, 0) + 1
        return TransientFault(self.status, retry_after=self.retry_after)
