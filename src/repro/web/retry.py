"""Retry policy engine: backoff with jitter, budgets, circuit breakers.

The crawler treats transient fetch outcomes (timeout, rate limit, 5xx —
see :mod:`repro.web.faults`) as retryable.  This module supplies the
three pieces of the retry discipline:

* :class:`RetryPolicy` — capped exponential backoff with **full jitter**
  (delay ~ ``U(0, min(max_delay, base * 2**attempt))``), a global retry
  *budget* across a crawl, and ``Retry-After`` honouring for rate limits;
* :class:`CircuitBreaker` — the classic closed → open → half-open state
  machine, per domain: after ``failure_threshold`` consecutive transient
  failures the breaker opens and the crawler stops hammering the domain;
  after ``cooldown`` (simulated) seconds a half-open probe is allowed,
  and its outcome closes or re-opens the circuit;
* :class:`BreakerBoard` — the per-domain registry.

There is no wall clock here: the crawler advances a *virtual clock* by
the backoff delays it would have slept, which keeps every timing decision
deterministic and the same on every run.  For the same reason the
jitter variate is supplied by the caller (derived from a stable
per-``(url, attempt)`` hash) instead of a shared RNG stream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = [
    "BreakerBoard",
    "BreakerState",
    "CircuitBreaker",
    "RetryPolicy",
]


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How hard the crawler tries before giving a link up."""

    #: Total fetch attempts per link (1 initial + ``max_attempts - 1`` retries).
    max_attempts: int = 4
    #: First backoff cap, seconds.
    base_delay: float = 0.5
    #: Backoff cap ceiling, seconds.
    max_delay: float = 30.0
    #: Total retries allowed across one crawl; ``None`` means unlimited.
    retry_budget: Optional[int] = None
    #: Use the server's ``Retry-After`` as the delay when provided.
    honor_retry_after: bool = True
    #: Virtual-clock cost charged per fetch attempt, seconds.  This is
    #: what lets open breakers cool down while the crawl moves on.
    attempt_cost: float = 0.05

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0 or self.attempt_cost < 0:
            raise ValueError("delays must be non-negative")
        if self.retry_budget is not None and self.retry_budget < 0:
            raise ValueError("retry_budget must be >= 0 when set")

    def backoff_delay(self, attempt: int, u: float) -> float:
        """Full-jitter backoff for the given zero-based ``attempt``.

        ``u`` is a uniform variate in ``[0, 1)`` supplied by the caller;
        the delay is ``u * min(max_delay, base_delay * 2**attempt)``, so
        it always lies in ``[0, min(max_delay, base_delay * 2**attempt))``.
        """
        if not 0.0 <= u < 1.0:
            raise ValueError("u must be in [0, 1)")
        cap = min(self.max_delay, self.base_delay * (2.0 ** attempt))
        return u * cap


class BreakerState(enum.Enum):
    """Circuit-breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass
class CircuitBreaker:
    """Per-domain circuit breaker over a virtual clock.

    Only *transient* failures trip the breaker: a permanent outcome
    (404, ToS takedown, …) proves the host answered and resets the
    consecutive-failure count.
    """

    failure_threshold: int = 5
    cooldown: float = 60.0
    state: BreakerState = BreakerState.CLOSED
    consecutive_failures: int = 0
    opened_at: Optional[float] = None
    #: Times this breaker tripped open (including re-opens), for stats.
    n_opens: int = 0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")

    def allow(self, now: float) -> bool:
        """May a fetch proceed at virtual time ``now``?

        An ``OPEN`` breaker transitions to ``HALF_OPEN`` (and allows one
        probe) once ``cooldown`` seconds have elapsed since it opened.
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if self.opened_at is not None and now - self.opened_at >= self.cooldown:
                self.state = BreakerState.HALF_OPEN
                return True
            return False
        return True  # HALF_OPEN: probes allowed

    def record_success(self) -> None:
        """A fetch got a definitive answer: close the circuit."""
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at = None

    def record_failure(self, now: float) -> None:
        """A transient failure at virtual time ``now``."""
        if self.state is BreakerState.HALF_OPEN:
            self._open(now)
            return
        self.consecutive_failures += 1
        if self.state is BreakerState.CLOSED and (
            self.consecutive_failures >= self.failure_threshold
        ):
            self._open(now)

    def _open(self, now: float) -> None:
        self.state = BreakerState.OPEN
        self.opened_at = now
        self.consecutive_failures = 0
        self.n_opens += 1


class BreakerBoard:
    """The per-domain circuit-breaker registry for one crawl."""

    def __init__(self, failure_threshold: int = 5, cooldown: float = 60.0):
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, domain: str) -> CircuitBreaker:
        """The breaker for ``domain``, created closed on first use."""
        breaker = self._breakers.get(domain)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self.failure_threshold, cooldown=self.cooldown
            )
            self._breakers[domain] = breaker
        return breaker

    @property
    def n_open(self) -> int:
        """Breakers currently open."""
        return sum(1 for b in self._breakers.values() if b.state is BreakerState.OPEN)

    @property
    def total_opens(self) -> int:
        """Trip events across all domains (including re-opens)."""
        return sum(b.n_opens for b in self._breakers.values())

    def as_dict(self) -> dict:
        """Aggregate summary at crawl end (``CrawlResult.breaker_summary``)."""
        return {
            "n_domains": len(self._breakers),
            "n_open": self.n_open,
            "total_opens": self.total_opens,
        }
