"""Sharded parallel crawl executor with a deterministic merge.

The serial :meth:`repro.web.crawler.Crawler.crawl` loop resolves links
one at a time even though every piece of mutable crawl state — circuit
breakers, Retry-After handling, the virtual clock — is domain-scoped.
This module exploits that: links are partitioned into **per-domain
lanes** (first-appearance domain order), each lane runs the shared
resolution engine :meth:`~repro.web.crawler.Crawler.resolve_links`
against its own :class:`~repro.web.crawler.ShardState` on a
:class:`~concurrent.futures.ThreadPoolExecutor`, and the lane outcomes
are reassembled **in canonical link order** so that the merged
:class:`~repro.web.crawler.CrawlResult` is *bit-identical* to the serial
one — same :meth:`~repro.web.crawler.CrawlResult.digest`, same attempt
logs, same quarantine ledger, same stats — for any worker count.

Why the merge is exact (the invariants the property tests of
``tests/test_parallel_crawl.py`` pin down):

* a URL belongs to exactly one domain, so per-URL occurrence counting
  inside a lane equals the serial crawl's global count — checkpoint
  keys agree;
* transient faults, payload corruption and backoff jitter are pure
  functions of ``(seed, url, attempt)``, never of crawl order;
* breakers and virtual clocks are per-domain, so a lane's retry
  decisions match the serial loop's for the same links;
* stats merge by addition, and every consumer of the by-status /
  by-domain maps sorts before use, so accumulation order is
  unobservable;
* packs are deduplicated lane-locally and re-deduplicated globally in
  index order, which picks exactly the first-seen copy the serial loop
  keeps.

Checkpoints are **wire-compatible both ways**: a serial checkpoint
resumes under any worker count and vice versa, because the wire format
is domain-scoped (``domain_clocks``) and JSON is written with sorted
keys.  Mid-crawl saves are consistent — each lane's pending entries are
flushed together with a state snapshot captured under the same lane
lock, so a checkpoint never records an entry whose stats it has not
counted.

Streaming: completed lanes are deposited into a **bounded reorder
buffer** and handed to ``on_lane`` in lane order, so the vision stages
can start hashing a finished lane's images while later lanes are still
crawling.  The buffer always accepts the next-needed lane even when
full (lanes start in FIFO order on the executor, so the next-needed
lane is always already running — this is what makes the bound
deadlock-free).

Parallel mode refuses a global ``retry_budget``: the budget is spent in
link order serially and is not decomposable across lanes.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..chaos.sites import kill_point
from ..obs.trace import NULL_TRACER
from .checkpoint import CrawlCheckpoint
from .crawler import (
    CrawlResult,
    CrawlStats,
    Crawler,
    LinkOutcome,
    LinkRecord,
    ShardState,
)
from .retry import BreakerBoard, CircuitBreaker

__all__ = ["Lane", "ReorderBuffer", "crawl_sharded", "partition_lanes"]


@dataclass
class Lane:
    """One per-domain shard of a crawl: its links and its mutable state."""

    index: int
    domain: str
    #: ``(global_index, link)`` pairs, in canonical (serial) order.
    items: List[Tuple[int, LinkRecord]]
    state: ShardState
    #: Guards ``state``/``outcomes``/``pending`` as one atomic unit: the
    #: lane runner advances the resolution generator (which mutates
    #: ``state``) and records the outcome under this lock, so a saver
    #: holding it always sees state consistent with the recorded entries.
    lock: threading.Lock = field(default_factory=threading.Lock)
    outcomes: List[LinkOutcome] = field(default_factory=list)
    #: Newly settled ``(key, entry)`` checkpoint pairs not yet flushed.
    pending: List[Tuple[str, dict]] = field(default_factory=list)

    @property
    def n_links(self) -> int:
        return len(self.items)


@dataclass
class _LaneCapture:
    """A consistent snapshot of one lane's state at a save point."""

    stats: CrawlStats
    breakers: Dict[str, dict]
    clocks: Dict[str, float]
    budget_spent: int


class ReorderBuffer:
    """Bounded hand-off restoring lane order for the streaming consumer.

    Producers (lane threads) :meth:`deposit` their payload under their
    lane index; the single consumer :meth:`take`\\ s payloads strictly in
    lane order.  A deposit blocks while the buffer holds ``capacity``
    undelivered payloads — **unless** it is the next lane the consumer
    needs, which is always accepted (otherwise a full buffer of
    out-of-order lanes would deadlock against the consumer waiting for
    the missing one).  :meth:`close` aborts the exchange, waking every
    blocked producer; late deposits are then dropped.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._slots: Dict[int, Any] = {}
        self._next = 0
        self._closed = False
        self._cond = threading.Condition()
        #: Most payloads ever held undelivered (queue-depth high-water).
        self.peak_depth = 0

    def deposit(self, index: int, payload: Any) -> None:
        with self._cond:
            while (
                not self._closed
                and index != self._next
                and len(self._slots) >= self.capacity
            ):
                self._cond.wait()
            if self._closed:
                return
            self._slots[index] = payload
            self.peak_depth = max(self.peak_depth, len(self._slots))
            self._cond.notify_all()

    def take(self) -> Any:
        with self._cond:
            while self._next not in self._slots:
                if self._closed:
                    raise RuntimeError("reorder buffer closed while waiting")
                self._cond.wait()
            payload = self._slots.pop(self._next)
            self._next += 1
            self._cond.notify_all()
            return payload

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()


def partition_lanes(links: Sequence[LinkRecord]) -> List[Tuple[str, List[Tuple[int, LinkRecord]]]]:
    """Group links by domain, in first-appearance order, keeping indices."""
    lanes: Dict[str, List[Tuple[int, LinkRecord]]] = {}
    for index, link in enumerate(links):
        lanes.setdefault(link.url.host, []).append((index, link))
    return list(lanes.items())


def _lane_breakers(base: BreakerBoard, domain: str) -> BreakerBoard:
    """A fresh board for one lane, seeded from the base (restored) board.

    The seed is a *copy* of the base breaker, so the base board stays
    frozen while lanes run (mid-crawl savers snapshot it concurrently);
    the merge takes the lane's copy over the base original.
    """
    board = BreakerBoard(
        failure_threshold=base.failure_threshold, cooldown=base.cooldown
    )
    for existing_domain, breaker in base:
        if existing_domain == domain:
            board._breakers[domain] = CircuitBreaker.from_dict(breaker.to_dict())
    return board


def _capture_lane(lane: Lane) -> _LaneCapture:
    """Deep-copy a lane's state; caller must hold ``lane.lock``."""
    return _LaneCapture(
        stats=CrawlStats.from_dict(lane.state.stats.to_dict()),
        breakers=dict(lane.state.breakers.snapshot()["breakers"]),
        clocks=dict(lane.state.clocks),
        budget_spent=lane.state.budget_spent,
    )


def _compose_checkpoint(
    ckpt: CrawlCheckpoint,
    base_state: ShardState,
    base_breakers_snapshot: dict,
    captures: Sequence[_LaneCapture],
) -> None:
    """Write ``base ⊕ Σ captures`` into the checkpoint's state fields."""
    stats = base_state.stats
    for capture in captures:
        stats = stats.merge(capture.stats)
    ckpt.stats = stats.to_dict()

    breakers = dict(base_breakers_snapshot.get("breakers", {}))
    for capture in captures:
        breakers.update(capture.breakers)
    ckpt.breakers = {
        "failure_threshold": base_breakers_snapshot["failure_threshold"],
        "cooldown": base_breakers_snapshot["cooldown"],
        "breakers": breakers,
    }

    clocks = dict(base_state.clocks)
    for capture in captures:
        clocks.update(capture.clocks)
    ckpt.domain_clocks = clocks
    ckpt.clock = max(clocks.values(), default=base_state.base_clock)
    ckpt.budget_spent = base_state.budget_spent + sum(
        capture.budget_spent for capture in captures
    )


def crawl_sharded(
    crawler: Crawler,
    links: Sequence[LinkRecord],
    *,
    workers: int,
    checkpoint: Optional[Union[str, CrawlCheckpoint]] = None,
    checkpoint_every: int = 16,
    quarantine=None,
    stage: str = "url_crawl",
    tracer=None,
    on_lane: Optional[Callable[[int, str, List[LinkOutcome]], None]] = None,
    metrics=None,
) -> CrawlResult:
    """Crawl ``links`` on per-domain lanes; bit-identical to serial.

    ``on_lane(lane_index, domain, outcomes)`` — when given — is invoked
    on the dispatching thread for every lane, **in lane order**, as soon
    as that lane (and all lanes before it) finish: the streaming hook
    the pipeline uses to overlap vision hashing with the crawl.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`, optional)
    receives the parallel-mode instrumentation: a ``crawl.lanes`` gauge,
    a ``crawl.lane_seconds`` histogram, and the
    ``crawl.stream_queue_depth_peak`` gauge (a runtime metric, excluded
    from deterministic views).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if crawler._policy.retry_budget is not None:
        raise ValueError(
            "a global retry_budget is spent in serial link order and cannot "
            "be decomposed across lanes; use workers=None (serial) or a "
            "policy without retry_budget"
        )
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

    base_state = crawler.restore_state(ckpt)
    base_breakers_snapshot = base_state.breakers.snapshot()
    # Frozen view of already-settled entries: lanes read it, never write.
    completed = dict(ckpt.completed) if ckpt is not None else None

    lane_specs = partition_lanes(links)
    lanes: List[Lane] = []
    for lane_index, (domain, items) in enumerate(lane_specs):
        clocks: Dict[str, float] = {}
        if domain in base_state.clocks:
            clocks[domain] = base_state.clocks[domain]
        lanes.append(
            Lane(
                index=lane_index,
                domain=domain,
                items=items,
                state=ShardState(
                    stats=CrawlStats(),
                    breakers=_lane_breakers(base_state.breakers, domain),
                    clocks=clocks,
                    budget_spent=0,
                    base_clock=base_state.base_clock,
                ),
            )
        )

    if metrics is not None:
        # Note: no "workers" gauge — it would differ between worker
        # counts and break the cross-worker deterministic-view identity.
        # Lane count is a pure function of the link sequence, so it is
        # safe to include.
        metrics.gauge("crawl.lanes").set(len(lanes))

    # -- checkpoint committer ------------------------------------------
    save_lock = threading.Lock()
    count_lock = threading.Lock()
    pending_count = 0

    def flush_and_save() -> None:
        """Flush every lane's pending entries and save one consistent
        checkpoint.  Lock order: ``save_lock`` → each ``lane.lock`` in
        turn (never nested across lanes); lane runners take only their
        own lock, so the order is acyclic."""
        assert ckpt is not None
        captures: List[_LaneCapture] = []
        for lane in lanes:
            with lane.lock:
                for key, entry in lane.pending:
                    ckpt.completed[key] = entry
                lane.pending.clear()
                captures.append(_capture_lane(lane))
        _compose_checkpoint(ckpt, base_state, base_breakers_snapshot, captures)
        ckpt.save()

    def maybe_save() -> None:
        nonlocal pending_count
        if ckpt is None:
            return
        with count_lock:
            pending_count += 1
            due = pending_count >= max(1, checkpoint_every)
            if due:
                pending_count = 0
        if due and save_lock.acquire(blocking=False):
            try:
                flush_and_save()
            finally:
                save_lock.release()
            kill_point("crawl.checkpoint.saved")

    # -- lane runner ----------------------------------------------------
    parent_span = tracer.current
    _DONE = object()

    def run_lane(lane: Lane) -> float:
        """Resolve one lane's links; returns the lane wall time."""
        from ..core.quarantine import Quarantine

        lane_ledger = Quarantine(tracer=tracer)
        t0 = time.perf_counter()
        with tracer.adopt(parent_span):
            with tracer.span(
                "crawl.lane",
                lane=lane.index,
                domain=lane.domain,
                n_links=lane.n_links,
            ) as span:
                resolved = crawler.resolve_links(
                    lane.items,
                    lane.state,
                    completed=completed,
                    quarantine=lane_ledger,
                    stage=stage,
                    tracer=tracer,
                )
                n_new_entries = 0
                while True:
                    # Advance the generator (which mutates lane.state)
                    # and record the outcome under one lock hold, so
                    # checkpoint savers always see entries and state
                    # move together.
                    with lane.lock:
                        outcome = next(resolved, _DONE)
                        if outcome is _DONE:
                            break
                        lane.outcomes.append(outcome)
                        if outcome.entry is not None:
                            lane.pending.append((outcome.key, outcome.entry))
                            n_new_entries = 1
                    if n_new_entries:
                        n_new_entries = 0
                        maybe_save()
                span.set(
                    n_outcomes=len(lane.outcomes),
                    n_quarantined=len(lane_ledger.records),
                )
        return time.perf_counter() - t0

    # -- dispatch + in-order streaming consumption ----------------------
    buffer = ReorderBuffer(capacity=max(2, workers))

    def lane_task(lane: Lane) -> None:
        try:
            wall = run_lane(lane)
            buffer.deposit(lane.index, (lane, wall, None))
        except BaseException as exc:  # surfaced by the consumer
            buffer.deposit(lane.index, (lane, 0.0, exc))

    if lanes:
        try:
            with ThreadPoolExecutor(
                max_workers=min(workers, len(lanes)),
                thread_name_prefix="crawl-lane",
            ) as pool:
                futures = [pool.submit(lane_task, lane) for lane in lanes]
                try:
                    for _ in range(len(lanes)):
                        lane, wall, error = buffer.take()
                        if error is not None:
                            raise error
                        if metrics is not None:
                            metrics.histogram("crawl.lane_seconds").observe(wall)
                        if on_lane is not None:
                            on_lane(lane.index, lane.domain, lane.outcomes)
                finally:
                    # Close *before* the pool's shutdown barrier: blocked
                    # depositors wake (their late deposits are dropped) and
                    # unstarted lanes are cancelled, so an error in the
                    # consumer can never deadlock the shutdown.
                    buffer.close()
                    for future in futures:
                        future.cancel()
        except BaseException:
            # Stop requests and lane failures still leave a resumable
            # checkpoint: all worker threads are parked by now (the
            # pool's with-block waited), so flushing every lane's
            # pending entries is race-free (DESIGN.md §13).
            if ckpt is not None:
                try:
                    flush_and_save()
                except Exception:  # pragma: no cover - best effort
                    pass
            raise

    if metrics is not None:
        metrics.gauge("crawl.stream_queue_depth_peak").set(buffer.peak_depth)

    # -- canonical merge ------------------------------------------------
    all_outcomes = sorted(
        (outcome for lane in lanes for outcome in lane.outcomes),
        key=lambda o: o.index,
    )
    preview_images = []
    pack_images = []
    packs = []
    attempt_logs = []
    seen_pack_ids: Dict[int, None] = {}
    for outcome in all_outcomes:
        preview_images.extend(outcome.preview_images)
        pack_images.extend(outcome.pack_images)
        for pack in outcome.packs:
            # Lane-local dedup kept each lane's first copy; re-deduplicate
            # globally in index order — exactly the serial first-seen pick.
            if pack.pack_id not in seen_pack_ids:
                seen_pack_ids[pack.pack_id] = None
                packs.append(pack)
        if outcome.log is not None:
            attempt_logs.append(outcome.log)
        # Transfer ledger records in canonical order without re-firing
        # their quarantine.admit events (the lane ledgers fired them).
        quarantine.records.extend(outcome.quarantined)

    merged_stats = base_state.stats
    merged_board = base_state.breakers
    merged_state = ShardState(
        stats=merged_stats,
        breakers=merged_board,
        clocks=dict(base_state.clocks),
        budget_spent=base_state.budget_spent,
        base_clock=base_state.base_clock,
    )
    for lane in lanes:
        merged_state.stats = merged_state.stats.merge(lane.state.stats)
        merged_state.breakers = merged_state.breakers.merge(lane.state.breakers)
        merged_state.clocks.update(lane.state.clocks)
        merged_state.budget_spent += lane.state.budget_spent

    if ckpt is not None:
        for lane in lanes:
            for key, entry in lane.pending:
                ckpt.completed[key] = entry
            lane.pending.clear()
        Crawler.sync_checkpoint(ckpt, merged_state)
        ckpt.save()

    return CrawlResult(
        preview_images=preview_images,
        pack_images=pack_images,
        packs=packs,
        stats=merged_state.stats,
        attempt_logs=attempt_logs,
        quarantined=list(quarantine.records[quarantine_start:]),
        breaker_summary=merged_state.breakers.as_dict(),
    )
