"""Outside-in layer trace for the end-to-end benchmark.

The traced repetition replaces the public layer callables of ``repro``
with wrappers that open one span each on a benchmark-owned
:class:`repro.obs.Tracer`.  Nothing inside the program is changed and
no tracer is passed into it: the spans sit at the boundaries a caller
can see, and in-program spans are a separate, later concern.

The tracer keeps one span stack per thread, so a wrapper that fires on
a crawl lane of the ``threads2`` workload opens a root span on that
lane instead of a child of whatever the main thread has open; self
times therefore never go negative.

Only the worker process that runs the traced repetition calls
:meth:`LayerTrace.install`; it exits right after, so the replaced
attributes are never restored.
"""

from __future__ import annotations

import functools
import importlib
import resource
from typing import Any, Callable, Dict, List, Optional

#: ``(module, attribute path, span name)`` for every wrapped callable.
#: A function imported by name into several modules is wrapped in each
#: of them, under one span name.
WRAPPED = (
    ("repro.synth.world", "generate_supply_side", "synth.supply"),
    ("repro.synth.forum_gen", "ForumWorldGenerator.generate", "synth.forums"),
    ("repro", "build_world", "synth.build_world"),
    ("repro.store.incremental", "build_world", "synth.build_world"),
    ("repro.media.render", "render_latent", "media.render"),
    ("repro.synth.world", "robust_hash", "vision.robust_hash"),
    ("repro.core.provenance", "robust_hash", "vision.robust_hash"),
    ("repro.core.earnings", "robust_hash", "vision.robust_hash"),
    ("repro.core.abuse_filter", "hash_batch", "vision.hash_batch"),
    ("repro.web.crawler", "Crawler.crawl", "web.crawl"),
    ("repro.web.internet", "SimulatedInternet.fetch", "web.fetch"),
    ("repro.web.crawler", "validate_raster", "media.validate"),
    ("repro.core.abuse_filter", "validate_raster", "media.validate"),
    ("repro.core.quarantine", "validate_raster", "media.validate"),
    ("repro.core.top_classifier", "HybridTopClassifier.fit", "core.top_extraction"),
    ("repro.core.top_classifier", "HybridTopClassifier.extract_tops", "core.top_extraction"),
    ("repro.core.abuse_filter", "AbuseFilter.sweep", "core.abuse_filter"),
    ("repro.core.nsfv", "NsfvClassifier.classify_batch", "core.nsfv"),
    ("repro.core.provenance", "ProvenanceAnalyzer.analyze", "core.provenance"),
    ("repro.core.earnings", "EarningsAnalyzer.analyze", "core.earnings"),
    ("repro.core.actors", "ActorAnalyzer.metrics", "core.actors"),
    ("repro", "run_pipeline", "core.pipeline"),
    ("repro.store", "run_incremental", "store.incremental"),
    ("repro.store.sqlite", "RunStore.read_dataset", "store.read"),
    ("repro.store.sqlite", "RunStore.append_dataset", "store.append"),
    ("repro.store.incremental", "PersistSession.load", "store.memos"),
    ("repro.store.incremental", "PersistSession.save", "store.memos"),
    ("repro.core.report_text", "render_digest", "core.report"),
)

#: Span names in the order the layer table prints them.
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in WRAPPED))

#: Spans whose wrapper reads the process peak RSS when the call returns.
RSS_SPANS = ("synth.build_world", "core.pipeline")

_ALL = ("cold", "warm_delta", "hostile", "threads2")

#: Which end-to-end metric each layer metric should move, and on which
#: workloads, keyed by metric-name prefix (the longest prefix wins).
#: Written down before measuring, so a change to one layer can be held
#: to the end-to-end effect it predicts.
MOVES: Dict[str, Dict[str, tuple]] = {
    "import.": {"moves": ("wall_s",), "on": _ALL},
    "synth.": {"moves": ("setup_s",), "on": _ALL},
    "synth.build_world.rss_mb": {"moves": ("peak_rss_mb",), "on": _ALL},
    "media.render.": {"moves": ("setup_s", "measure_s", "wall_s", "peak_rss_mb"), "on": ("cold", "hostile", "threads2")},
    "vision.robust_hash.": {"moves": ("setup_s",), "on": ("cold",)},
    "vision.hash_batch.": {"moves": ("measure_s",), "on": ("cold",)},
    "vision.cache.": {"moves": ("measure_s",), "on": ("warm_delta",)},
    "web.": {"moves": ("measure_s",), "on": ("hostile", "threads2")},
    "media.validate.": {"moves": ("measure_s",), "on": ("hostile",)},
    "core.quarantine.": {"moves": ("measure_s",), "on": ("hostile",)},
    "core.top_extraction.": {"moves": ("measure_s",), "on": _ALL},
    "core.abuse_filter.": {"moves": ("measure_s",), "on": ("cold",)},
    "core.nsfv.": {"moves": ("measure_s",), "on": ("cold",)},
    "core.provenance.": {"moves": ("measure_s",), "on": ("cold",)},
    "core.earnings.": {"moves": ("measure_s",), "on": ("cold",)},
    "core.actors.": {"moves": ("measure_s",), "on": ("cold",)},
    "core.pipeline.": {"moves": ("measure_s",), "on": _ALL},
    "core.pipeline.rss_mb": {"moves": ("peak_rss_mb",), "on": _ALL},
    "store.": {"moves": ("measure_s",), "on": ("warm_delta",)},
    "core.report.": {"moves": ("wall_s",), "on": _ALL},
    "trace_overhead": {"moves": ("wall_s",), "on": _ALL},
}


def moves_for(metric: str) -> Optional[Dict[str, tuple]]:
    """The :data:`MOVES` entry governing ``metric`` (longest prefix)."""
    matches = [prefix for prefix in MOVES if metric.startswith(prefix)]
    return MOVES[max(matches, key=len)] if matches else None


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class LayerTrace:
    """One traced repetition's tracer, wrappers and side counters."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        #: Distinct latents handed to ``render_latent``.
        self.latents: set = set()
        #: Links passed to ``Crawler.crawl``, summed over calls.
        self.crawl_links = 0

    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, span_name: str) -> Callable:
        tracer = self.tracer
        record_rss = span_name in RSS_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span_name == "media.render":
                self.latents.add(args[0] if args else kwargs["latent"])
            elif span_name == "web.crawl":
                links = args[1] if len(args) > 1 else kwargs["links"]
                self.crawl_links += len(links)
            with tracer.span(span_name) as span:
                result = fn(*args, **kwargs)
                if record_rss:
                    span.set(rss_mb=_peak_rss_mb())
                return result

        return wrapper

    def install(self) -> None:
        """Replace every :data:`WRAPPED` attribute with its traced wrapper."""
        for module_name, path, span_name in WRAPPED:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self._wrap(raw.__func__, span_name))
            else:
                wrapped = self._wrap(raw, span_name)
            setattr(owner, attr, wrapped)

    # ------------------------------------------------------------------
    def span_records(self, import_s: float) -> List[dict]:
        """Finished spans as dicts, led by a synthetic ``import`` span.

        ``import repro`` runs before the tracer can exist; it is charged
        as a root span ending at the tracer's epoch.
        """
        records = [s.as_dict() for s in self.tracer.spans()]
        next_id = max((r["id"] for r in records), default=0) + 1
        records.insert(0, {
            "type": "span", "id": next_id, "parent": None, "name": "import",
            "t_start": -import_s, "t_end": 0.0, "duration": import_s,
            "status": "ok", "attrs": {}, "events": [],
        })
        return records

    def metrics(self, records: List[dict], report) -> Dict[str, float]:
        """The per-layer metrics of one traced repetition."""
        from repro.obs import aggregate_spans

        rows = {row["name"]: row for row in aggregate_spans(records)}
        out: Dict[str, float] = {"import.self_s": rows["import"]["self_seconds"]}
        for name in SPAN_NAMES:
            row = rows.get(name)
            out[f"{name}.calls"] = row["count"] if row else 0
            out[f"{name}.total_s"] = row["total_seconds"] if row else 0.0
            out[f"{name}.self_s"] = row["self_seconds"] if row else 0.0
        for name in RSS_SPANS:
            peaks = [r["attrs"]["rss_mb"] for r in records
                     if r["name"] == name and "rss_mb" in r["attrs"]]
            out[f"{name}.rss_mb"] = max(peaks, default=0.0)
        renders = out["media.render.calls"]
        out["media.render.distinct"] = len(self.latents)
        out["media.render.rerender_ratio"] = (
            renders / len(self.latents) if self.latents else 0.0
        )
        out["web.crawl.links"] = self.crawl_links
        out["web.fetch.per_link"] = (
            out["web.fetch.calls"] / self.crawl_links if self.crawl_links else 0.0
        )
        stats = report.vision_cache_stats
        lookups = stats.hits + stats.misses if stats is not None else 0
        out["vision.cache.hit_ratio"] = stats.hits / lookups if lookups else 0.0
        out["core.quarantine.records"] = report.n_quarantined
        return out
