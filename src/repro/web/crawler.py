"""The custom crawler of §4.2: fetch links, download images, unpack packs.

The crawler takes link records (URL plus the forum metadata the paper
annotates: post, author, date), fetches each against the simulated
internet, downloads image content, decompresses pack archives into
per-pack folders, and keeps the bookkeeping the measurements need —
per-status link counts, per-service tallies, and exact-content digests
for the deduplication step ("After removing duplicates … there were
53 948 unique files").

Fault tolerance (the operational layer the paper's crawler needed
against the real internet) is built in:

* transient fetch outcomes (timeout / rate limit / 5xx, injected by
  :mod:`repro.web.faults`) are retried under a :class:`~repro.web.retry.
  RetryPolicy` — capped exponential backoff with full jitter, an optional
  global retry budget, and ``Retry-After`` honouring;
* each domain sits behind a :class:`~repro.web.retry.CircuitBreaker`;
  links to a domain whose breaker is open are recorded as
  ``SKIPPED_BREAKER_OPEN`` instead of being fetched;
* progress can be checkpointed to a :class:`~repro.web.checkpoint.
  CrawlCheckpoint`, and a resumed crawl is byte-identical to an
  uninterrupted one (fault draws and jitter are pure functions of
  ``(url, attempt)``, and breaker/clock/budget state rides along in the
  checkpoint).

The virtual clock is **domain-scoped**: each domain advances its own
clock by the attempt costs and backoff delays of *its* links, and
breaker cooldowns are measured against it.  Because retry state,
breakers and clocks are all per-domain, the resolution of a link
depends only on its domain's state and ``(url, attempt)``.  So a
checkpoint whose settled links are not a prefix of the link order —
as written by the per-domain parallel crawls of earlier versions —
still resumes to the uninterrupted result.

With no fault injector installed every fetch settles on its first
attempt and the crawler behaves exactly like the pre-fault version.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from datetime import datetime
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..chaos.sites import kill_point
from ..media.image import SyntheticImage
from ..media.pack import Pack
from ..media.validate import UnexpectedResourceError, validate_raster
from ..obs.trace import NULL_TRACER
from .checkpoint import CrawlCheckpoint, link_key
from .faults import stable_uniform
from .internet import FetchStatus, SimulatedInternet
from .retry import BreakerBoard, BreakerState, RetryPolicy
from .url import Url

if TYPE_CHECKING:  # import cycle: repro.core.quarantine ← repro.web
    from ..core.quarantine import Quarantine, QuarantineRecord
    from ..vision.cache import Featurizer

__all__ = [
    "CrawlResult",
    "CrawlStats",
    "CrawledImage",
    "Crawler",
    "LinkAttempt",
    "LinkAttemptLog",
    "LinkRecord",
    "content_digest",
]


def content_digest(image: SyntheticImage) -> str:
    """Exact-content digest of an image's pixels (for file deduplication;
    see :func:`~repro.media.image.raster_digest`), memoised on the image."""
    return image.content_digest


@dataclass(frozen=True, slots=True)
class LinkRecord:
    """A URL extracted from a forum post, with its provenance metadata."""

    url: Url
    thread_id: Optional[int] = None
    post_id: Optional[int] = None
    author_id: Optional[int] = None
    posted_at: Optional[datetime] = None
    #: ``"preview"`` (image-sharing link) or ``"pack"`` (cloud-storage link).
    link_kind: str = "preview"


@dataclass(frozen=True, slots=True)
class CrawledImage:
    """One downloaded image plus where it came from."""

    image: SyntheticImage
    digest: str
    link: LinkRecord
    #: Pack id when the image was extracted from a pack archive.
    pack_id: Optional[int] = None


@dataclass(frozen=True, slots=True)
class LinkAttempt:
    """One fetch attempt within a link's retry loop."""

    attempt: int
    status: FetchStatus
    #: Backoff slept after this attempt, seconds (0.0 if none followed).
    delay: float = 0.0


@dataclass
class LinkAttemptLog:
    """The attempt history of one link that needed the retry machinery.

    Logs are kept only for links whose resolution involved at least one
    transient event (a retry, a giveup, or a breaker skip), so fault-free
    crawls carry no per-link log overhead.
    """

    url: str
    attempts: List[LinkAttempt]
    final_status: FetchStatus
    gave_up: bool = False
    breaker_skipped: bool = False

    def to_dict(self) -> dict:
        return {
            "url": self.url,
            "attempts": [
                {"attempt": a.attempt, "status": a.status.value, "delay": a.delay}
                for a in self.attempts
            ],
            "final_status": self.final_status.value,
            "gave_up": self.gave_up,
            "breaker_skipped": self.breaker_skipped,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LinkAttemptLog":
        return cls(
            url=data["url"],
            attempts=[
                LinkAttempt(
                    attempt=int(a["attempt"]),
                    status=FetchStatus(a["status"]),
                    delay=float(a["delay"]),
                )
                for a in data["attempts"]
            ],
            final_status=FetchStatus(data["final_status"]),
            gave_up=bool(data.get("gave_up", False)),
            breaker_skipped=bool(data.get("breaker_skipped", False)),
        )


@dataclass
class CrawlStats:
    """Link-level outcome counters.

    ``by_status``/``by_domain`` count each link once, under its *final*
    status; the retry-layer counters account for the transient events on
    the way there.
    """

    n_links: int = 0
    by_status: Dict[FetchStatus, int] = field(default_factory=dict)
    by_domain: Dict[str, int] = field(default_factory=dict)
    #: Retries performed (each is one extra fetch attempt).
    n_retries: int = 0
    #: Links abandoned with a transient status after exhausting retries.
    n_giveups: int = 0
    #: Links never fetched because their domain's breaker was open.
    n_breaker_skips: int = 0
    #: Transient fetch outcomes observed (before retry resolution).
    n_transient_faults: int = 0

    def record(self, domain: str, status: FetchStatus) -> None:
        self.n_links += 1
        self.by_status[status] = self.by_status.get(status, 0) + 1
        self.by_domain[domain] = self.by_domain.get(domain, 0) + 1

    def count(self, status: FetchStatus) -> int:
        return self.by_status.get(status, 0)

    @property
    def n_ok(self) -> int:
        return self.count(FetchStatus.OK)

    # -- checkpoint serialization --------------------------------------
    def to_dict(self) -> dict:
        return {
            "n_links": self.n_links,
            "by_status": {s.value: c for s, c in self.by_status.items()},
            "by_domain": dict(self.by_domain),
            "n_retries": self.n_retries,
            "n_giveups": self.n_giveups,
            "n_breaker_skips": self.n_breaker_skips,
            "n_transient_faults": self.n_transient_faults,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CrawlStats":
        return cls(
            n_links=int(data["n_links"]),
            by_status={FetchStatus(s): int(c) for s, c in data["by_status"].items()},
            by_domain={d: int(c) for d, c in data["by_domain"].items()},
            n_retries=int(data.get("n_retries", 0)),
            n_giveups=int(data.get("n_giveups", 0)),
            n_breaker_skips=int(data.get("n_breaker_skips", 0)),
            n_transient_faults=int(data.get("n_transient_faults", 0)),
        )


@dataclass
class CrawlState:
    """Mutable state of one crawl.

    Everything a link's resolution can read or write lives here: the
    outcome counters, the per-domain circuit breakers, the per-domain
    virtual clocks, and the running retry-budget spend.  It is restored
    from a checkpoint by :meth:`Crawler.restore_state` and written back
    by :meth:`Crawler.sync_checkpoint`.
    """

    stats: CrawlStats = field(default_factory=CrawlStats)
    breakers: BreakerBoard = field(default_factory=BreakerBoard)
    #: Per-domain virtual clocks, seconds (created at ``base_clock``).
    clocks: Dict[str, float] = field(default_factory=dict)
    budget_spent: int = 0
    #: Starting clock for domains without an entry in :attr:`clocks`
    #: (non-zero only when resuming a legacy global-clock checkpoint).
    base_clock: float = 0.0

    def clock_for(self, domain: str) -> float:
        return self.clocks.get(domain, self.base_clock)


@dataclass
class CrawlResult:
    """Everything a crawl produced."""

    preview_images: List[CrawledImage]
    pack_images: List[CrawledImage]
    packs: List[Pack]
    stats: CrawlStats
    #: Attempt histories for links that needed the retry machinery.
    attempt_logs: List[LinkAttemptLog] = field(default_factory=list)
    #: Records excised at the ingest boundary (corrupt payloads,
    #: unexpected resources) during *this* crawl.
    quarantined: List["QuarantineRecord"] = field(default_factory=list)
    #: Aggregate circuit-breaker summary at crawl end (see
    #: :meth:`~repro.web.retry.BreakerBoard.as_dict`); telemetry only,
    #: deliberately excluded from :meth:`digest`.
    breaker_summary: Optional[dict] = None

    @property
    def n_quarantined(self) -> int:
        return len(self.quarantined)

    @property
    def all_images(self) -> List[CrawledImage]:
        return self.preview_images + self.pack_images

    def unique_digests(self) -> Dict[str, CrawledImage]:
        """First-seen image per exact-content digest (the dedup step)."""
        unique: Dict[str, CrawledImage] = {}
        for crawled in self.all_images:
            unique.setdefault(crawled.digest, crawled)
        return unique

    @property
    def n_unique_files(self) -> int:
        return len(self.unique_digests())

    def duplicate_histogram(self) -> Dict[str, int]:
        """Occurrences per digest, for duplication analysis (§4.2)."""
        histogram: Dict[str, int] = {}
        for crawled in self.all_images:
            histogram[crawled.digest] = histogram.get(crawled.digest, 0) + 1
        return histogram

    def digest(self) -> str:
        """Order-sensitive digest of everything measurable in the result.

        Covers the content digests (in crawl order), pack ids, and the
        full stats — the equality contract a resumed crawl must meet.
        """
        h = hashlib.sha1()
        for crawled in self.preview_images:
            h.update(crawled.digest.encode("ascii"))
        h.update(b"|")
        for crawled in self.pack_images:
            h.update(crawled.digest.encode("ascii"))
        h.update(b"|")
        for pack in self.packs:
            h.update(str(pack.pack_id).encode("ascii"))
            h.update(b",")
        h.update(b"|")
        h.update(repr(sorted((s.value, c) for s, c in self.stats.by_status.items())).encode())
        h.update(repr(sorted(self.stats.by_domain.items())).encode())
        h.update(
            repr(
                (
                    self.stats.n_links,
                    self.stats.n_retries,
                    self.stats.n_giveups,
                    self.stats.n_breaker_skips,
                    self.stats.n_transient_faults,
                )
            ).encode()
        )
        h.update(b"|")
        for record in self.quarantined:
            h.update(record.ref.encode("utf-8"))
            h.update(b":")
            h.update(record.error_type.encode("ascii"))
            h.update(b",")
        return h.hexdigest()


class Crawler:
    """Fetch link records against the simulated internet and download.

    ``retry_policy`` governs the transient-failure discipline (defaults
    apply even without faults — they are simply never exercised then);
    ``breaker_threshold``/``breaker_cooldown`` configure the per-domain
    circuit breakers.

    Every downloaded raster passes :func:`~repro.media.validate.
    validate_raster` at the ingest boundary; payloads failing the
    contract are excised into the quarantine ledger instead of entering
    the measurement.

    ``features`` is the run's :class:`~repro.vision.cache.Featurizer`.
    With it, every clean image is featurised at ingest — its hash and
    NSFW score computed once per digest — and its pixels are then
    dropped (§4.3 hash-then-delete), so a crawl holds no rasters.  A
    digest's feature record is the run's one fact that it was validated
    clean, which every later validation boundary trusts.
    """

    def __init__(
        self,
        internet: SimulatedInternet,
        retry_policy: Optional[RetryPolicy] = None,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 60.0,
        jitter_seed: int = 0,
        features: Optional["Featurizer"] = None,
    ):
        self._internet = internet
        self._policy = retry_policy if retry_policy is not None else RetryPolicy()
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown = breaker_cooldown
        self._jitter_seed = jitter_seed
        self._features = features

    # ------------------------------------------------------------------
    def crawl(
        self,
        links: Sequence[LinkRecord],
        checkpoint: Optional[Union[str, "CrawlCheckpoint"]] = None,
        checkpoint_every: int = 16,
        quarantine: Optional["Quarantine"] = None,
        stage: str = "url_crawl",
        tracer=None,
    ) -> CrawlResult:
        """Crawl all links; OK images are downloaded, OK packs unpacked.

        Links behind registration walls are *not* downloaded (the paper
        declines to crawl Dropbox/Drive, §4.2); their status is recorded.

        ``checkpoint`` may be a path (loaded if present, written as the
        crawl progresses) or a :class:`CrawlCheckpoint` instance.  Link
        occurrences already settled in the checkpoint are not re-fetched:
        their outcome is replayed and, for OK links, their content is
        re-materialized deterministically.  The result of a resumed crawl
        is byte-identical (see :meth:`CrawlResult.digest`) to an
        uninterrupted one — including the quarantine ledger, because
        payload corruption is a pure function of the URL.

        ``quarantine`` is the ledger poison records are excised into
        (admitted under ``stage``); when ``None`` a private ledger is
        created so a bad payload can never abort the crawl loop.  The
        records admitted by *this* crawl surface as
        :attr:`CrawlResult.quarantined` either way.

        ``tracer`` (a :class:`~repro.obs.trace.Tracer`-shaped recorder,
        default no-op) receives one ``crawl.fetch`` span per fetched
        link — attributed with domain, link kind, final status and
        attempt count, carrying the retry/backoff/breaker events of its
        resolution — plus ``crawl.replay`` events for links settled from
        the checkpoint.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        if quarantine is None:
            from ..core.quarantine import Quarantine

            quarantine = Quarantine()
        quarantine_start = len(quarantine.records)

        if checkpoint is None:
            ckpt: Optional[CrawlCheckpoint] = None
        elif isinstance(checkpoint, CrawlCheckpoint):
            ckpt = checkpoint
        else:
            ckpt = CrawlCheckpoint.load(checkpoint)

        state = self.restore_state(ckpt)

        preview_images: List[CrawledImage] = []
        pack_images: List[CrawledImage] = []
        packs: List[Pack] = []
        attempt_logs: List[LinkAttemptLog] = []
        # Occurrence index per URL, for the checkpoint keys.
        occurrences: Dict[str, int] = {}
        seen_pack_ids: Dict[int, None] = {}
        since_save = 0

        try:
            for link in links:
                url_str = str(link.url)
                host = link.url.host
                occurrence = occurrences.get(url_str, 0)
                occurrences[url_str] = occurrence + 1
                key = link_key(url_str, occurrence) if ckpt is not None else ""

                entry = ckpt.outcome(key) if ckpt is not None else None
                if entry is not None:
                    tracer.event("crawl.replay", domain=host, status=entry["status"])
                    log = self._replay(
                        link, entry, preview_images, pack_images, packs,
                        seen_pack_ids, quarantine, stage,
                    )
                    if log is not None:
                        attempt_logs.append(log)
                    continue

                with tracer.span(
                    "crawl.fetch", domain=host, kind=link.link_kind
                ) as span:
                    clock = state.clock_for(host)
                    (final_status, final_attempt, log, resource,
                     clock, state.budget_spent) = self._fetch_with_retry(
                        link, state.stats, state.breakers, clock,
                        state.budget_spent, tracer,
                    )
                    state.clocks[host] = clock
                    state.stats.record(host, final_status)
                    span.set(status=final_status.value, attempts=final_attempt + 1)
                    if final_status is FetchStatus.OK:
                        self._collect(
                            link, resource, preview_images, pack_images,
                            packs, seen_pack_ids, quarantine, stage,
                        )
                if log is not None:
                    attempt_logs.append(log)
                if ckpt is None:
                    continue
                ckpt.mark(
                    key,
                    final_status.value,
                    final_attempt,
                    log=log.to_dict() if log is not None else None,
                )
                since_save += 1
                # The expensive stats/breaker serialization happens only
                # at save points, not on every link.
                if since_save >= max(1, checkpoint_every):
                    self.sync_checkpoint(ckpt, state)
                    ckpt.save()
                    since_save = 0
                    kill_point("crawl.checkpoint.saved")
        except BaseException:
            # A stop request (SignalInterrupt / KeyboardInterrupt) or
            # stage failure mid-crawl must still leave a resumable
            # snapshot: every settled link is synced and atomically
            # saved before the exception unwinds (DESIGN.md §13).
            if ckpt is not None:
                self.sync_checkpoint(ckpt, state)
                ckpt.save()
            raise

        if ckpt is not None:
            self.sync_checkpoint(ckpt, state)
            ckpt.save()

        return CrawlResult(
            preview_images=preview_images,
            pack_images=pack_images,
            packs=packs,
            stats=state.stats,
            attempt_logs=attempt_logs,
            quarantined=list(quarantine.records[quarantine_start:]),
            breaker_summary=state.breakers.as_dict(),
        )

    # ------------------------------------------------------------------
    def restore_state(self, ckpt: Optional[CrawlCheckpoint]) -> CrawlState:
        """Rebuild mutable crawl state from a checkpoint (or start fresh)."""
        if ckpt is not None and ckpt.stats is not None:
            stats = CrawlStats.from_dict(ckpt.stats)
        else:
            stats = CrawlStats()
        if ckpt is not None and ckpt.breakers is not None:
            breakers = BreakerBoard.restore(ckpt.breakers)
        else:
            breakers = BreakerBoard(
                failure_threshold=self._breaker_threshold,
                cooldown=self._breaker_cooldown,
            )
        if ckpt is None:
            return CrawlState(stats=stats, breakers=breakers)
        return CrawlState(
            stats=stats,
            breakers=breakers,
            clocks=dict(ckpt.domain_clocks),
            budget_spent=ckpt.budget_spent,
            base_clock=ckpt.base_clock(),
        )

    @staticmethod
    def sync_checkpoint(ckpt: CrawlCheckpoint, state: CrawlState) -> None:
        """Snapshot crawl state into the checkpoint's serialized fields."""
        ckpt.stats = state.stats.to_dict()
        ckpt.breakers = state.breakers.snapshot()
        ckpt.domain_clocks = dict(state.clocks)
        ckpt.clock = max(state.clocks.values(), default=state.base_clock)
        ckpt.budget_spent = state.budget_spent

    # ------------------------------------------------------------------
    def _fetch_with_retry(
        self,
        link: LinkRecord,
        stats: CrawlStats,
        breakers: BreakerBoard,
        clock: float,
        budget_spent: int,
        tracer=None,
    ) -> Tuple[FetchStatus, int, Optional[LinkAttemptLog], object, float, int]:
        """Resolve one link through breaker + retry policy.

        Returns ``(final_status, final_attempt, log_or_None, resource,
        clock, budget_spent)``.  ``final_attempt`` is the attempt index
        whose fetch produced ``final_status`` — re-fetching at that index
        reproduces the outcome exactly (this is what checkpoint replay
        relies on).

        The retry engine narrates itself to ``tracer``: one
        ``retry.attempt`` event per transient outcome, ``retry.backoff``
        per sleep, ``retry.giveup`` on exhaustion, and
        ``breaker.open``/``breaker.skip`` on circuit transitions.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        policy = self._policy
        url_str = str(link.url)
        host = link.url.host
        breaker = breakers.breaker(host)

        if not breaker.allow(clock):
            # Time still passes while we move past a tripped domain —
            # without this the breaker could never cool down mid-crawl.
            clock += policy.attempt_cost
            stats.n_breaker_skips += 1
            tracer.event("breaker.skip", domain=host)
            log = LinkAttemptLog(
                url=url_str,
                attempts=[],
                final_status=FetchStatus.SKIPPED_BREAKER_OPEN,
                breaker_skipped=True,
            )
            return FetchStatus.SKIPPED_BREAKER_OPEN, 0, log, None, clock, budget_spent

        attempts: List[LinkAttempt] = []
        attempt = 0
        while True:
            clock += policy.attempt_cost
            result = self._internet.fetch(link.url, attempt=attempt)
            status = result.status
            if not status.transient:
                breaker.record_success()
                log = None
                if attempts:  # at least one retry happened
                    attempts.append(LinkAttempt(attempt=attempt, status=status))
                    log = LinkAttemptLog(
                        url=url_str, attempts=attempts, final_status=status
                    )
                return status, attempt, log, result.resource, clock, budget_spent

            stats.n_transient_faults += 1
            tracer.event(
                "retry.attempt", domain=host, attempt=attempt, status=status.value
            )
            state_before = breaker.state
            breaker.record_failure(clock)
            if (
                breaker.state is BreakerState.OPEN
                and state_before is not BreakerState.OPEN
            ):
                tracer.event("breaker.open", domain=host, n_opens=breaker.n_opens)
            budget_ok = (
                policy.retry_budget is None or budget_spent < policy.retry_budget
            )
            can_retry = (
                attempt + 1 < policy.max_attempts
                and budget_ok
                and breaker.allow(clock)
            )
            if not can_retry:
                attempts.append(LinkAttempt(attempt=attempt, status=status))
                stats.n_giveups += 1
                tracer.event(
                    "retry.giveup", domain=host, attempts=attempt + 1,
                    status=status.value, budget_exhausted=not budget_ok,
                )
                log = LinkAttemptLog(
                    url=url_str, attempts=attempts, final_status=status, gave_up=True
                )
                return status, attempt, log, None, clock, budget_spent

            if (
                policy.honor_retry_after
                and status is FetchStatus.RATE_LIMITED
                and result.retry_after is not None
            ):
                delay = result.retry_after
            else:
                u = stable_uniform(self._jitter_seed, url_str, str(attempt), "jitter")
                delay = policy.backoff_delay(attempt, u)
            attempts.append(LinkAttempt(attempt=attempt, status=status, delay=delay))
            tracer.event("retry.backoff", domain=host, attempt=attempt, delay=delay)
            clock += delay
            budget_spent += 1
            stats.n_retries += 1
            attempt += 1

    # ------------------------------------------------------------------
    def _replay(
        self,
        link: LinkRecord,
        entry: dict,
        preview_images: List[CrawledImage],
        pack_images: List[CrawledImage],
        packs: List[Pack],
        seen_pack_ids: Dict[int, None],
        quarantine: "Quarantine",
        stage: str,
    ) -> Optional[LinkAttemptLog]:
        """Re-materialize a checkpointed link outcome without re-crawling.

        Stats are *not* re-recorded (the checkpointed stats already count
        this occurrence); OK resources are fetched back at the recorded
        settling attempt, which is deterministic.  Quarantine records
        *are* re-derived — payload corruption is keyed on the URL alone,
        so the replayed ledger matches the uninterrupted one exactly.
        Returns the re-hydrated attempt log, when one was recorded.
        """
        log_data = entry.get("log")
        log = (
            LinkAttemptLog.from_dict(log_data) if log_data is not None else None
        )
        if FetchStatus(entry["status"]) is not FetchStatus.OK:
            return log
        result = self._internet.fetch(link.url, attempt=int(entry["attempt"]))
        if not result.ok:  # pragma: no cover - world/checkpoint mismatch
            raise RuntimeError(
                f"checkpoint marked {link.url} OK but re-fetch returned "
                f"{result.status.value}; checkpoint does not match this world"
            )
        self._collect(link, result.resource, preview_images, pack_images,
                      packs, seen_pack_ids, quarantine, stage)
        return log

    # ------------------------------------------------------------------
    def _ingest(
        self,
        link: LinkRecord,
        image: SyntheticImage,
        quarantine: "Quarantine",
        stage: str,
        pack_id: Optional[int] = None,
        member_index: Optional[int] = None,
    ) -> Optional[CrawledImage]:
        """Validate, digest and featurise one downloaded image — the
        record boundary.

        Returns the :class:`CrawledImage` for clean payloads, whose
        pixels are dropped once their features are recorded; corrupt
        ones (including payloads whose pixel access itself blows up) are
        admitted to the ledger and ``None`` is returned.  Nothing an
        individual payload does can escape this boundary as an
        exception, so one poisoned record can never abort the crawl.
        """
        url_str = str(link.url)
        context: Dict[str, object] = {"link_kind": link.link_kind}
        if pack_id is not None:
            context["pack_id"] = pack_id
        if member_index is not None:
            context["member_index"] = member_index
        features = self._features
        try:
            # A repeat download of content whose digest already has a
            # feature record (so was validated clean) renders nothing:
            # validation is a pure function of the bytes, shape and dtype
            # the digest covers, and a plain image's digest is known by
            # its latent once any image of that latent was digested.
            digest = features.cache.digest_of(image) if features is not None else None
            if digest is None or digest not in features.cache:
                validate_raster(image.pixels, context=url_str)
                digest = (
                    features.cache.remember(image)
                    if features is not None
                    else image.content_digest
                )
            crawled = CrawledImage(
                image=image,
                digest=digest,
                link=link,
                pack_id=pack_id,
            )
            if features is not None:
                features.features(digest, image)
                image.drop_pixels()
            return crawled
        except Exception as exc:
            quarantine.admit(stage, url_str, exc, context)
            return None

    def _collect(
        self,
        link: LinkRecord,
        resource,
        preview_images: List[CrawledImage],
        pack_images: List[CrawledImage],
        packs: List[Pack],
        seen_pack_ids: Dict[int, None],
        quarantine: "Quarantine",
        stage: str,
    ) -> None:
        """Download one OK resource into the result accumulators.

        Every record passes through the :meth:`_ingest` boundary; pack
        archives are collected member-by-member, and a pack whose members
        were partially excised enters the result with only its clean
        members.  An unexpected resource type is itself a quarantined
        per-record outcome (:class:`UnexpectedResourceError`), not a
        crawl-aborting crash.
        """
        if isinstance(resource, SyntheticImage):
            crawled = self._ingest(link, resource, quarantine, stage)
            if crawled is not None:
                preview_images.append(crawled)
        elif isinstance(resource, Pack):
            members: List[SyntheticImage] = []
            for index, image in enumerate(resource.images):
                crawled = self._ingest(
                    link, image, quarantine, stage,
                    pack_id=resource.pack_id, member_index=index,
                )
                if crawled is None:
                    continue
                members.append(image)
                pack_images.append(crawled)
            if members and resource.pack_id not in seen_pack_ids:
                seen_pack_ids[resource.pack_id] = None
                if len(members) == len(resource.images):
                    packs.append(resource)
                else:
                    packs.append(replace(resource, images=members))
        else:
            quarantine.admit(
                stage,
                str(link.url),
                UnexpectedResourceError(
                    f"unexpected resource type {type(resource).__name__}"
                ),
                {"link_kind": link.link_kind},
            )
