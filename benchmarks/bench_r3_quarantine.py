"""R3 — robustness study: payload corruption, validation overhead, quarantine.

Two questions, one gate each:

1. **What does the ingest validation boundary cost on a clean crawl?**
   The §4.2 crawl is run with a timing wrapper on the crawler's
   ``validate_raster`` (the one call validation adds), with pixels and
   memoised digests dropped between rounds so each round pays the full
   render+ingest cost.  The overhead of a round is the time spent in
   validation over the rest of that crawl's time, so load from other
   processes scales both sides alike instead of swamping a difference
   of two whole crawls.  Acceptance: the median overhead over
   ``REPEATS`` rounds is **< 5%**.
2. **Does the quarantine ledger account for every injected corruption?**
   The crawl is re-run under the ``dirty`` and ``hostile`` payload
   profiles; the ledger's record count must equal the injector's event
   count exactly, for every profile (the chaos-suite invariant, measured
   here at benchmark scale).

Writes ``benchmarks/results/BENCH_quarantine.json`` (CI artifact) and
prints the human-readable table.
"""

from __future__ import annotations

import statistics
import time

import pytest

import repro.web.crawler as crawler_module
from repro.core.quarantine import Quarantine
from repro.web import Crawler, PayloadFaultInjector, payload_profile

from _common import (
    BENCH_SCALE,
    BENCH_SEED,
    print_table,
    scale_note,
    write_result_json,
)


PROFILES = ("dirty", "hostile")
PAYLOAD_SEED = 29
REPEATS = 5
OVERHEAD_TARGET = 0.05


def _drop_pixels(result) -> None:
    """Release every raster the crawl rendered and forget each image's
    memoised content digest, so the next timed round pays the full
    render + ingest cost again."""
    for crawled in result.all_images:
        crawled.image.drop_pixels()
        crawled.image._digest = None


def _time_crawls(internet, links) -> list:
    """``(crawl seconds, validate seconds)`` of ``REPEATS`` clean, fully
    rendering crawls, with the time spent in the crawler's
    ``validate_raster`` measured by a wrapper around it."""
    spent = [0.0]
    validate = crawler_module.validate_raster

    def timed_validate(*args, **kwargs):
        start = time.perf_counter()
        try:
            return validate(*args, **kwargs)
        finally:
            spent[0] += time.perf_counter() - start

    crawler = Crawler(internet)
    # Warm-up (also primes any lazy imports).
    _drop_pixels(crawler.crawl(links))
    rounds = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(crawler_module, "validate_raster", timed_validate)
        for _ in range(REPEATS):
            spent[0] = 0.0
            start = time.perf_counter()
            result = crawler.crawl(links)
            rounds.append((time.perf_counter() - start, spent[0]))
            _drop_pixels(result)
    return rounds


def test_r3_quarantine(bench_world, bench_report, benchmark):
    internet = bench_world.internet
    links = bench_report.links.all_links
    assert internet.payload_injector is None  # clean benchmark world

    # ---- gate 1: clean-path validation overhead ----------------------
    rounds = _time_crawls(internet, links)
    overheads = [t_val / (t_crawl - t_val) for t_crawl, t_val in rounds]
    overhead = statistics.median(overheads)
    benchmark.pedantic(
        lambda: _drop_pixels(Crawler(internet).crawl(links)),
        rounds=1,
        iterations=1,
    )

    # ---- gate 2: ledger completeness under corruption ----------------
    profile_stats = {}
    try:
        for name in PROFILES:
            injector = PayloadFaultInjector(payload_profile(name), seed=PAYLOAD_SEED)
            internet.set_payload_injector(injector)
            ledger = Quarantine()
            result = Crawler(internet).crawl(links, quarantine=ledger)
            _drop_pixels(result)
            profile_stats[name] = {
                "injected": injector.n_injected,
                "quarantined": len(ledger),
                "by_kind": dict(sorted(injector.by_kind.items())),
                "by_error": dict(sorted(ledger.by_error().items())),
                "clean_images": len(result.all_images),
            }
    finally:
        internet.set_payload_injector(None)

    payload = {
        "config": {
            "seed": BENCH_SEED,
            "scale": BENCH_SCALE,
            "payload_seed": PAYLOAD_SEED,
            "n_links": len(links),
            "repeats": REPEATS,
        },
        "clean_crawl_seconds": [round(t, 4) for t, _ in rounds],
        "validate_seconds": [round(t, 4) for _, t in rounds],
        "round_overheads": [round(o, 4) for o in overheads],
        "validation_overhead": round(overhead, 4),
        "overhead_target": OVERHEAD_TARGET,
        "profiles": profile_stats,
        "ledger_complete": all(
            s["injected"] == s["quarantined"] for s in profile_stats.values()
        ),
    }
    write_result_json("BENCH_quarantine", payload)

    lines = [
        "R3 — payload corruption, ingest validation, quarantine " + scale_note(),
        f"links crawled        : {len(links)}",
        "clean crawl          : "
        + " / ".join(f"{t:.3f}s" for t, _ in rounds),
        "  of which validation: " + " / ".join(f"{t:.3f}s" for _, t in rounds),
        f"validation overhead  : {overhead:+.2%} median of {REPEATS} "
        f"(rounds {', '.join(f'{o:+.2%}' for o in overheads)}; "
        f"target < {OVERHEAD_TARGET:.0%})",
        "",
        f"{'profile':<10}{'injected':>10}{'quarantined':>13}{'clean imgs':>12}",
    ]
    for name, stats in profile_stats.items():
        lines.append(
            f"{name:<10}{stats['injected']:>10}{stats['quarantined']:>13}"
            f"{stats['clean_images']:>12}"
        )
    lines += [
        "",
        "invariant: every corruption event the injector served is exactly",
        "one quarantine record — nothing lost, nothing double-counted.",
    ]
    print_table("BENCH_quarantine", "\n".join(lines))

    # Acceptance gates.
    assert overhead < OVERHEAD_TARGET, (
        f"ingest validation costs {overhead:.1%} on the clean path "
        f"(target < {OVERHEAD_TARGET:.0%})"
    )
    for name, stats in profile_stats.items():
        assert stats["injected"] == stats["quarantined"], (
            f"profile {name}: {stats['injected']} corruptions injected but "
            f"{stats['quarantined']} quarantined"
        )
        assert stats["injected"] > 0, f"profile {name} never fired"
    # More corruption can only shrink the surviving image set.
    assert (
        profile_stats["hostile"]["clean_images"]
        <= profile_stats["dirty"]["clean_images"]
    )
