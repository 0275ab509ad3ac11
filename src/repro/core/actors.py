"""§6: analysis of eWhoring actors — social network, cohorts, key actors.

Implements the full §6 toolkit:

* per-actor activity metrics (eWhoring posts, total posts, days active
  before/after eWhoring) — Table 8 and Figure 4;
* the interaction graph (quote → quoted author, otherwise reply →
  thread initiator) with eigenvector centrality via power iteration;
* popularity indices over initiated threads (H-index, i-10/i-50/i-100);
* rank-based key-actor selection across the five §6.3 categories, their
  intersections (Table 9) and per-group characteristics (Table 10);
* interest evolution across the before / during / after phases
  (Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np
from scipy import sparse

from ..forum.dataset import ForumDataset
from ..forum.models import Thread
from ..forum.query import ewhoring_threads

__all__ = [
    "ActorMetrics",
    "ActorAnalyzer",
    "CohortRow",
    "InterestEvolution",
    "KeyActorGroups",
    "KeyActorSelection",
    "cohort_table",
    "interest_evolution",
    "select_key_actors",
]

#: The five §6.3 key-actor categories.
KEY_ACTOR_CATEGORIES = ("popular", "influence", "earnings", "ce", "packs")


@dataclass
class ActorMetrics:
    """Per-actor measurements used across §6."""

    actor_id: int
    n_ewhoring_posts: int = 0
    n_total_posts: int = 0
    first_ewhoring: Optional[datetime] = None
    last_ewhoring: Optional[datetime] = None
    first_post: Optional[datetime] = None
    last_post: Optional[datetime] = None
    h_index: int = 0
    i10: int = 0
    i50: int = 0
    i100: int = 0
    eigenvector: float = 0.0
    n_packs_shared: int = 0
    n_ce_threads: int = 0
    earnings_usd: float = 0.0

    @property
    def pct_ewhoring(self) -> float:
        """Percentage of the actor's posts that are eWhoring-related."""
        if self.n_total_posts == 0:
            return 0.0
        return 100.0 * self.n_ewhoring_posts / self.n_total_posts

    @property
    def days_before(self) -> float:
        """Days posting on the forum before the first eWhoring post."""
        if self.first_post is None or self.first_ewhoring is None:
            return 0.0
        return max((self.first_ewhoring - self.first_post).total_seconds() / 86_400.0, 0.0)

    @property
    def days_after(self) -> float:
        """Days posting on the forum after the last eWhoring post."""
        if self.last_post is None or self.last_ewhoring is None:
            return 0.0
        return max((self.last_post - self.last_ewhoring).total_seconds() / 86_400.0, 0.0)


class ActorAnalyzer:
    """Computes §6.1 metrics and the interaction network."""

    def __init__(
        self,
        dataset: ForumDataset,
        selection: Optional[Sequence[Thread]] = None,
    ):
        self._dataset = dataset
        self._selection = (
            list(selection) if selection is not None else ewhoring_threads(dataset)
        )
        self._metrics: Optional[Dict[int, ActorMetrics]] = None
        self._edges: Optional[Dict[Tuple[int, int], float]] = None

    @property
    def selection(self) -> List[Thread]:
        return list(self._selection)

    # ------------------------------------------------------------------
    def metrics(self) -> Dict[int, ActorMetrics]:
        """Per-actor metrics for everyone active in the selection."""
        if self._metrics is None:
            self._compute()
        assert self._metrics is not None
        return self._metrics

    def edges(self) -> Dict[Tuple[int, int], float]:
        """Weighted interaction edges (responder → responded-to)."""
        if self._edges is None:
            self._compute()
        assert self._edges is not None
        return self._edges

    # ------------------------------------------------------------------
    def _compute(self) -> None:
        dataset = self._dataset
        metrics: Dict[int, ActorMetrics] = {}
        edges: Dict[Tuple[int, int], float] = {}
        thread_replies: Dict[int, List[int]] = {}

        def metric(actor_id: int) -> ActorMetrics:
            record = metrics.get(actor_id)
            if record is None:
                record = ActorMetrics(actor_id=actor_id)
                metrics[actor_id] = record
            return record

        for thread in self._selection:
            posts = dataset.posts_in_thread(thread.thread_id)
            if not posts:
                continue
            thread_replies.setdefault(thread.author_id, []).append(len(posts) - 1)
            post_by_id = {post.post_id: post for post in posts}
            for post in posts:
                record = metric(post.author_id)
                record.n_ewhoring_posts += 1
                if record.first_ewhoring is None or post.created_at < record.first_ewhoring:
                    record.first_ewhoring = post.created_at
                if record.last_ewhoring is None or post.created_at > record.last_ewhoring:
                    record.last_ewhoring = post.created_at
                if post.is_initial:
                    continue
                # §6.1 response rules: explicit quote wins, otherwise the
                # reply responds to the thread initiator.
                if post.quoted_post_id is not None and post.quoted_post_id in post_by_id:
                    target = post_by_id[post.quoted_post_id].author_id
                else:
                    target = thread.author_id
                if target != post.author_id:
                    key = (post.author_id, target)
                    edges[key] = edges.get(key, 0.0) + 1.0

        # Popularity indices from initiated-thread reply counts.
        for actor_id, reply_counts in thread_replies.items():
            record = metric(actor_id)
            counts = sorted(reply_counts, reverse=True)
            h = 0
            for rank, count in enumerate(counts, start=1):
                if count >= rank:
                    h = rank
                else:
                    break
            record.h_index = h
            record.i10 = sum(1 for c in counts if c >= 10)
            record.i50 = sum(1 for c in counts if c >= 50)
            record.i100 = sum(1 for c in counts if c >= 100)

        # Whole-forum activity spans and totals.
        for actor_id, record in metrics.items():
            posts = dataset.posts_by_actor(actor_id)
            record.n_total_posts = len(posts)
            if posts:
                dates = [p.created_at for p in posts]
                record.first_post = min(dates)
                record.last_post = max(dates)

        # Eigenvector centrality on the symmetrised interaction graph.
        centrality = _eigenvector_centrality(edges)
        for actor_id, value in centrality.items():
            metric(actor_id).eigenvector = value

        self._metrics = metrics
        self._edges = edges

    # ------------------------------------------------------------------
    def attach_packs(self, packs_per_actor: Mapping[int, int]) -> None:
        """Record pack-sharing counts (from the classified TOPs)."""
        metrics = self.metrics()
        for actor_id, count in packs_per_actor.items():
            if actor_id in metrics:
                metrics[actor_id].n_packs_shared = count

    def attach_earnings(self, totals: Mapping[int, float]) -> None:
        """Record per-actor reported earnings (from §5)."""
        metrics = self.metrics()
        for actor_id, total in totals.items():
            if actor_id in metrics:
                metrics[actor_id].earnings_usd = total

    def attach_currency_exchange(self) -> None:
        """Count CE-board threads per actor, after their first eWhoring post."""
        metrics = self.metrics()
        ce_boards = {
            b.board_id for b in self._dataset.boards() if b.is_currency_exchange
        }
        for board_id in ce_boards:
            for thread in self._dataset.threads_in_board(board_id):
                record = metrics.get(thread.author_id)
                if record is None or record.first_ewhoring is None:
                    continue
                if thread.created_at > record.first_ewhoring:
                    record.n_ce_threads += 1


def _eigenvector_centrality(
    edges: Mapping[Tuple[int, int], float],
    iterations: int = 100,
    tolerance: float = 1e-10,
) -> Dict[int, float]:
    """Power iteration on the symmetrised weighted adjacency matrix.

    The adjacency is sparse (CSR, duplicate entries summed), so memory
    grows with the edge count rather than the square of the actor count.
    """
    if not edges:
        return {}
    nodes = sorted({a for a, _ in edges} | {b for _, b in edges})
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    heads = np.array([index[a] for a, _ in edges], dtype=np.int64)
    tails = np.array([index[b] for _, b in edges], dtype=np.int64)
    weights = np.fromiter(edges.values(), dtype=np.float64, count=len(edges))
    adjacency = sparse.csr_matrix(
        (np.concatenate([weights, weights]),
         (np.concatenate([heads, tails]), np.concatenate([tails, heads]))),
        shape=(n, n),
    )
    vector = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(iterations):
        nxt = adjacency @ vector
        norm = np.linalg.norm(nxt)
        if norm == 0.0:
            break
        nxt /= norm
        if np.linalg.norm(nxt - vector) < tolerance:
            vector = nxt
            break
        vector = nxt
    return {node: float(vector[index[node]]) for node in nodes}


# ----------------------------------------------------------------------
# Table 8: activity cohorts
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CohortRow:
    """One ``#Posts >= threshold`` row of Table 8."""

    threshold: int
    n_actors: int
    mean_posts: float
    mean_pct_ewhoring: float
    mean_days_before: float
    mean_days_after: float


def cohort_table(
    metrics: Mapping[int, ActorMetrics],
    thresholds: Sequence[int] = (1, 10, 50, 100, 200, 500, 1000),
) -> List[CohortRow]:
    """Aggregate actors into the cumulative activity bands of Table 8."""
    records = list(metrics.values())
    rows: List[CohortRow] = []
    for threshold in thresholds:
        cohort = [r for r in records if r.n_ewhoring_posts >= threshold]
        if not cohort:
            rows.append(CohortRow(threshold, 0, 0.0, 0.0, 0.0, 0.0))
            continue
        rows.append(
            CohortRow(
                threshold=threshold,
                n_actors=len(cohort),
                mean_posts=float(np.mean([r.n_ewhoring_posts for r in cohort])),
                mean_pct_ewhoring=float(np.mean([r.pct_ewhoring for r in cohort])),
                mean_days_before=float(np.mean([r.days_before for r in cohort])),
                mean_days_after=float(np.mean([r.days_after for r in cohort])),
            )
        )
    return rows


# ----------------------------------------------------------------------
# §6.3: key actors
# ----------------------------------------------------------------------

@dataclass
class KeyActorGroups:
    """Actor-id sets per key-actor category."""

    popular: Set[int]
    influence: Set[int]
    earnings: Set[int]
    ce: Set[int]
    packs: Set[int]

    def as_dict(self) -> Dict[str, Set[int]]:
        return {
            "popular": self.popular,
            "influence": self.influence,
            "earnings": self.earnings,
            "ce": self.ce,
            "packs": self.packs,
        }

    def all_key_actors(self) -> Set[int]:
        result: Set[int] = set()
        for group in self.as_dict().values():
            result |= group
        return result


@dataclass
class KeyActorSelection:
    """Groups plus the Table 9 intersection structure."""

    groups: KeyActorGroups
    metrics: Dict[int, ActorMetrics]

    @property
    def n_key_actors(self) -> int:
        return len(self.groups.all_key_actors())

    def intersection_matrix(self) -> Dict[Tuple[str, str], int]:
        """Pairwise intersections; the diagonal counts actors unique to
        that category (Table 9's convention)."""
        named = self.groups.as_dict()
        matrix: Dict[Tuple[str, str], int] = {}
        for i, name_a in enumerate(KEY_ACTOR_CATEGORIES):
            for name_b in KEY_ACTOR_CATEGORIES[i:]:
                if name_a == name_b:
                    others: Set[int] = set()
                    for name_c, group in named.items():
                        if name_c != name_a:
                            others |= group
                    matrix[(name_a, name_a)] = len(named[name_a] - others)
                else:
                    matrix[(name_a, name_b)] = len(named[name_a] & named[name_b])
        return matrix

    def membership_counts(self) -> Dict[int, int]:
        """How many groups each key actor belongs to."""
        counts: Dict[int, int] = {}
        for group in self.groups.as_dict().values():
            for actor_id in group:
                counts[actor_id] = counts.get(actor_id, 0) + 1
        return counts

    def group_characteristics(self) -> Dict[str, Dict[str, float]]:
        """Mean metrics per group plus the ALL row — Table 10."""
        result: Dict[str, Dict[str, float]] = {}
        named = self.groups.as_dict()
        for name, group in list(named.items()) + [("ALL", self.groups.all_key_actors())]:
            members = [self.metrics[a] for a in group if a in self.metrics]
            if not members:
                result[name] = {}
                continue
            result[name] = {
                "n_posts": float(np.mean([m.n_total_posts for m in members])),
                "pct_ewhoring": float(np.mean([m.pct_ewhoring for m in members])),
                "days_before": float(np.mean([m.days_before for m in members])),
                "amount": float(np.mean([m.earnings_usd for m in members])),
                "h_index": float(np.mean([m.h_index for m in members])),
                "i10": float(np.mean([m.i10 for m in members])),
                "i100": float(np.mean([m.i100 for m in members])),
                "packs": float(np.mean([m.n_packs_shared for m in members])),
                "ce_threads": float(np.mean([m.n_ce_threads for m in members])),
            }
        return result


def select_key_actors(
    metrics: Mapping[int, ActorMetrics],
    top_n: int = 50,
    packs_min_shared: int = 6,
) -> KeyActorSelection:
    """Rank-based key-actor selection (§6.3).

    ``top_n`` actors per category (50 in the paper); the pack group takes
    everyone who shared at least ``packs_min_shared`` packs (63 actors at
    full scale).  Ties break on actor id for determinism.
    """
    records = list(metrics.values())

    def top_by(key, pool=None) -> Set[int]:
        candidates = pool if pool is not None else records
        ranked = sorted(candidates, key=lambda m: (-key(m), m.actor_id))
        return {m.actor_id for m in ranked[:top_n] if key(m) > 0}

    packs_group = {
        m.actor_id for m in records if m.n_packs_shared >= packs_min_shared
    }
    if not packs_group:  # tiny worlds: fall back to rank selection
        packs_group = top_by(lambda m: m.n_packs_shared)

    ce_scores: Dict[int, float] = {}
    for m in records:
        if m.n_ce_threads > 0:
            total_threads = m.n_ce_threads + max(m.n_ewhoring_posts, 1)
            pct = m.n_ce_threads / total_threads
            ce_scores[m.actor_id] = pct * total_threads

    ce_ranked = sorted(ce_scores.items(), key=lambda kv: (-kv[1], kv[0]))
    groups = KeyActorGroups(
        popular=top_by(lambda m: m.h_index),
        influence=top_by(lambda m: m.eigenvector),
        earnings=top_by(lambda m: m.earnings_usd),
        ce={actor_id for actor_id, _ in ce_ranked[:top_n]},
        packs=packs_group,
    )
    return KeyActorSelection(groups=groups, metrics=dict(metrics))


# ----------------------------------------------------------------------
# Figure 5: interest evolution
# ----------------------------------------------------------------------

@dataclass
class InterestEvolution:
    """Posts per category per phase, with percentage views (Figure 5)."""

    counts: Dict[str, Dict[str, int]]  # phase -> category -> posts

    def percentages(self) -> Dict[str, Dict[str, float]]:
        result: Dict[str, Dict[str, float]] = {}
        for phase, categories in self.counts.items():
            total = sum(categories.values())
            result[phase] = {
                category: (100.0 * count / total if total else 0.0)
                for category, count in categories.items()
            }
        return result


def interest_evolution(
    dataset: ForumDataset,
    metrics: Mapping[int, ActorMetrics],
    actor_ids: Iterable[int],
    exclude_board_names: Sequence[str] = (),
) -> InterestEvolution:
    """Categorised activity of ``actor_ids`` before/during/after eWhoring.

    Counts posts on categorised boards, excluding the eWhoring board
    itself (the defining activity, not an 'interest') and any board named
    in ``exclude_board_names`` (the paper removes 'The Lounge').
    """
    excluded_names = {name.lower() for name in exclude_board_names}
    board_category: Dict[int, Optional[str]] = {}
    for board in dataset.boards():
        if board.is_ewhoring_board or board.name.lower() in excluded_names:
            board_category[board.board_id] = None
        else:
            board_category[board.board_id] = board.category

    counts: Dict[str, Dict[str, int]] = {
        "before": {}, "during": {}, "after": {}
    }
    for actor_id in actor_ids:
        record = metrics.get(actor_id)
        if record is None or record.first_ewhoring is None or record.last_ewhoring is None:
            continue
        for post in dataset.posts_by_actor(actor_id):
            thread = dataset.thread(post.thread_id)
            category = board_category.get(thread.board_id)
            if category is None:
                continue
            if post.created_at < record.first_ewhoring:
                phase = "before"
            elif post.created_at > record.last_ewhoring:
                phase = "after"
            else:
                phase = "during"
            bucket = counts[phase]
            bucket[category] = bucket.get(category, 0) + 1
    return InterestEvolution(counts=counts)
