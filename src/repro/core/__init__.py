"""The paper's contribution: the eWhoring measurement pipeline (§4–§6)."""

from .abuse_filter import AbuseFilter, AbuseFilterResult
from .actors import (
    ActorAnalyzer,
    ActorMetrics,
    CohortRow,
    InterestEvolution,
    KeyActorGroups,
    KeyActorSelection,
    cohort_table,
    interest_evolution,
    select_key_actors,
)
from .earnings import (
    CurrencyExchangeTable,
    EarningsAnalyzer,
    EarningsResult,
    ProofRecord,
    currency_exchange_table,
)
from .features import ThreadFeatureExtractor, ThreadStats, thread_document, thread_stats
from .heuristics import HeuristicTopClassifier
from .interventions import (
    BlacklistIntervention,
    BlacklistOutcome,
    CurrencyRegulationOutcome,
    PaymentTakedownOutcome,
    payment_account_takedown,
    regulate_gift_card_exchange,
)
from .longitudinal import (
    ActivityTimeline,
    MonthlySeries,
    activity_timeline,
    new_actor_series,
)
from .report_text import (
    render_digest,
    render_earnings,
    render_table1,
    render_table5,
    render_table7,
    render_table8,
)
from .saturation import (
    PackSaturation,
    SaturationReport,
    analyze_saturation,
    reuse_distribution,
)
from .keywords import (
    EARNINGS_HEADING_TERMS,
    EARNINGS_KEYWORDS,
    EWHORING_KEYWORDS,
    PACK_KEYWORDS,
    REQUEST_KEYWORDS,
    STRONG_PACK_KEYWORDS,
    TABLE2_LEXICONS,
    TRADE_KEYWORDS,
    TUTORIAL_KEYWORDS,
)
from .nsfv import NsfvClassifier, NsfvVerdict
from .pipeline import EwhoringPipeline, PipelineReport
from .quarantine import Quarantine, QuarantineRecord
from .provenance import (
    PackSampling,
    ProvenanceAnalyzer,
    ProvenanceResult,
    QueryOutcome,
    ReverseSearchSummary,
)
from .stage_runner import StageFailure, StageOutcome, StageRunner
from .top_classifier import ExtractionStats, HybridTopClassifier, TopEvaluation
from .url_extraction import LinkExtraction, WhitelistBuilder, extract_links

__all__ = [
    "AbuseFilter",
    "AbuseFilterResult",
    "BlacklistIntervention",
    "BlacklistOutcome",
    "CurrencyRegulationOutcome",
    "PaymentTakedownOutcome",
    "payment_account_takedown",
    "regulate_gift_card_exchange",
    "ActorAnalyzer",
    "ActorMetrics",
    "CohortRow",
    "CurrencyExchangeTable",
    "EARNINGS_HEADING_TERMS",
    "EARNINGS_KEYWORDS",
    "EWHORING_KEYWORDS",
    "EarningsAnalyzer",
    "EarningsResult",
    "EwhoringPipeline",
    "ExtractionStats",
    "HeuristicTopClassifier",
    "HybridTopClassifier",
    "InterestEvolution",
    "KeyActorGroups",
    "KeyActorSelection",
    "LinkExtraction",
    "NsfvClassifier",
    "NsfvVerdict",
    "PACK_KEYWORDS",
    "PackSampling",
    "PipelineReport",
    "ProofRecord",
    "ProvenanceAnalyzer",
    "ProvenanceResult",
    "Quarantine",
    "QuarantineRecord",
    "QueryOutcome",
    "REQUEST_KEYWORDS",
    "ReverseSearchSummary",
    "STRONG_PACK_KEYWORDS",
    "StageFailure",
    "StageOutcome",
    "StageRunner",
    "TABLE2_LEXICONS",
    "TRADE_KEYWORDS",
    "TUTORIAL_KEYWORDS",
    "ThreadFeatureExtractor",
    "ThreadStats",
    "TopEvaluation",
    "WhitelistBuilder",
    "cohort_table",
    "currency_exchange_table",
    "extract_links",
    "interest_evolution",
    "select_key_actors",
    "ActivityTimeline",
    "MonthlySeries",
    "PackSaturation",
    "SaturationReport",
    "activity_timeline",
    "analyze_saturation",
    "new_actor_series",
    "render_digest",
    "render_earnings",
    "render_table1",
    "render_table5",
    "render_table7",
    "render_table8",
    "reuse_distribution",
    "thread_document",
    "thread_stats",
]
