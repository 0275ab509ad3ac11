"""Plain-text renderers for pipeline results.

Shared by the CLI and the examples: every function takes measurement
results and returns the corresponding table as a string, in the layout
of the paper's tables.
"""

from __future__ import annotations

from typing import List

from ..finance.parser import CANONICAL_CURRENCIES
from ..obs.export import render_funnel
from .earnings import CurrencyExchangeTable, EarningsResult
from .pipeline import PipelineReport

__all__ = [
    "render_digest",
    "render_table1",
    "render_table5",
    "render_table7",
    "render_table8",
    "render_earnings",
    "render_telemetry",
]


def render_table1(report: PipelineReport) -> str:
    """Table 1: per-forum eWhoring threads/posts/TOPs/actors."""
    lines = [
        f"{'Forum':<16}{'#Threads':>10}{'#Posts':>10}{'First':>8}{'#TOPs':>8}{'#Actors':>9}"
    ]
    for summary in report.forum_summaries:
        lines.append(
            f"{summary.forum_name:<16}{summary.n_threads:>10}{summary.n_posts:>10}"
            f"{summary.first_post or '-':>8}"
            f"{report.tops_per_forum.get(summary.forum_name, 0):>8}"
            f"{summary.n_actors:>9}"
        )
    lines.append(
        f"{'TOTAL':<16}{sum(s.n_threads for s in report.forum_summaries):>10}"
        f"{sum(s.n_posts for s in report.forum_summaries):>10}{'':>8}"
        f"{sum(report.tops_per_forum.values()):>8}"
        f"{sum(s.n_actors for s in report.forum_summaries):>9}"
    )
    return "\n".join(lines)


def render_table5(report: PipelineReport) -> str:
    """Table 5: reverse-image-search outcomes."""
    lines = [f"{'group':<10}{'Total':>7}{'Matches':>9}{'SeenBefore':>12}{'Ratio':>7}{'Max':>6}"]
    for group in ("packs", "previews"):
        summary = report.provenance.summary(group)
        lines.append(
            f"{group:<10}{summary.total:>7}"
            f"{summary.matches:>5} ({summary.match_rate:.0%})"
            f"{summary.seen_before:>7} ({summary.seen_before_rate:.0%})"
            f"{summary.mean_matches_per_matched:>7.1f}{summary.max_matches:>6}"
        )
    return "\n".join(lines)


def render_table7(table: CurrencyExchangeTable) -> str:
    """Table 7: CE threads offered/wanted per currency."""
    lines = [f"{'Currency':<10}{'Offered':>9}{'Wanted':>9}"]
    for currency in CANONICAL_CURRENCIES:
        lines.append(
            f"{currency:<10}{table.offered.get(currency, 0):>9}"
            f"{table.wanted.get(currency, 0):>9}"
        )
    lines.append(f"({table.n_threads} threads by {table.n_actors} actors)")
    return "\n".join(lines)


def render_table8(report: PipelineReport) -> str:
    """Table 8: actor cohorts."""
    lines = [
        f"{'#Posts':>9}{'#Actors':>9}{'Avg':>9}{'%ewhor':>8}{'Before':>8}{'After':>8}"
    ]
    for row in report.cohorts:
        lines.append(
            f">= {row.threshold:<6}{row.n_actors:>9}{row.mean_posts:>9.1f}"
            f"{row.mean_pct_ewhoring:>8.1f}{row.mean_days_before:>8.1f}"
            f"{row.mean_days_after:>8.1f}"
        )
    return "\n".join(lines)


def render_earnings(earnings: EarningsResult) -> str:
    """The §5.2 headline block."""
    totals = earnings.per_actor_totals()
    lines = [
        f"proofs: {earnings.n_proofs} by {len(totals)} actors "
        f"(+{earnings.n_non_proofs} non-proofs)",
        f"total ${earnings.total_usd:,.0f}; mean ${earnings.mean_per_actor_usd:,.2f}/actor; "
        f"top ${max(totals.values(), default=0):,.0f}",
        f"mean transaction ${earnings.mean_transaction_usd():.2f} over "
        f"{earnings.n_with_transaction_detail} itemised proofs",
    ]
    histogram = earnings.platform_histogram()
    if histogram:
        mix = ", ".join(
            f"{platform.value} {count}"
            for platform, count in sorted(histogram.items(), key=lambda kv: -kv[1])
        )
        lines.append(f"platforms: {mix}")
    return "\n".join(lines)


def render_telemetry(report: PipelineReport) -> str:
    """The run's telemetry block: the funnel table, then the work counts.

    Reads ``tele.funnel()`` and the two metric registries only, the one
    home of every count a run records (DESIGN.md §9).  The funnel table
    is :func:`repro.obs.export.render_funnel`, shared with ``repro
    trace``.  The crawl's retry and breaker counts print once, in the
    CLI's crawl-resilience summary; no count here repeats the funnel.
    """
    tele = report.telemetry
    if tele is None:
        return "telemetry: not recorded"
    lines: List[str] = render_funnel(tele.funnel()).splitlines()
    lines.append(tele.summary_line())
    work = tele.work
    if work.value("vision_cache.hits") is not None:
        lines.append(
            f"vision cache: {work.value('vision_cache.hits')} hits, "
            f"{work.value('vision_cache.misses')} misses, "
            f"{work.value('vision_cache.entries')} entries"
        )
    return "\n".join(lines)


def render_digest(report: PipelineReport) -> str:
    """A one-screen digest of the whole measurement."""
    evaluation = report.top_evaluation
    stats = report.extraction_stats
    sections = [
        "== selection (§3) ==",
        render_table1(report),
        "",
        "== TOP classifier (§4.1) ==",
        f"P={evaluation.precision:.2%} R={evaluation.recall:.2%} F1={evaluation.f1:.2f}; "
        f"union {stats.n_hybrid} (ML {stats.n_ml}, heuristics {stats.n_heuristic}, "
        f"both {stats.n_both})",
        "",
        "== crawl (§4.2) ==",
        f"links {len(report.links.preview_links)} previews, "
        f"{len(report.links.pack_links)} packs; "
        f"downloads {len(report.crawl.preview_images)} previews, "
        f"{len(report.crawl.packs)} packs / {len(report.crawl.pack_images)} images",
        "",
        "== abuse filter (§4.3) ==",
        f"matched {report.abuse.n_matched_images}; actioned URLs "
        f"{report.abuse.n_actioned_urls}; exposed actors "
        f"{len(report.abuse.exposed_actor_ids)}",
        "",
        "== NSFV (§4.4) ==",
        "NSFV share of downloaded previews: "
        + (f"{report.n_nsfv_previews / len(report.preview_verdicts):.1%}"
           if report.preview_verdicts else "n/a"),
        "",
        "== provenance (§4.5) ==",
        render_table5(report),
        f"zero-match packs {len(report.provenance.zero_match_pack_ids)}; "
        f"domains {len(report.provenance.matched_domains)}",
        "",
        "== profits (§5) ==",
        render_earnings(report.earnings),
        "",
        "== currency exchange (Table 7) ==",
        render_table7(report.currency_exchange),
        "",
        "== actors (§6, Table 8) ==",
        render_table8(report),
        "",
        f"key actors: {report.key_actors.n_key_actors}",
    ]
    if report.quarantine is not None and len(report.quarantine):
        sections.extend(["", "== quarantine (record-level faults) =="])
        sections.extend(report.quarantine.summary_lines())
    if report.telemetry is not None:
        sections.extend(["", "== telemetry (DESIGN.md §9) =="])
        sections.append(render_telemetry(report))
    return "\n".join(sections)
