"""Actor behaviour profiles for the synthetic forum world.

The generator draws each actor's behaviour from distributions calibrated
to the paper's published aggregates:

* the eWhoring post-count survival curve follows Table 8 exactly
  (73k actors ≥1 post, 13k ≥10, 2.1k ≥50, …, 13 ≥1000) via inverse-CDF
  sampling through the published anchor points;
* days active before/after eWhoring and the eWhoring share of activity
  track the Table 8 columns per activity band;
* interest mixes over Hackforums categories shift from gaming/hacking
  toward market boards across the before → during → after phases, the
  Figure 5 trajectory.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

__all__ = [
    "ActorProfile",
    "Archetype",
    "INTEREST_CATEGORIES",
    "POST_COUNT_ANCHORS",
    "sample_ewhoring_post_count",
    "sample_profile",
]

#: Survival anchors (posts, P(X >= posts)) from Table 8 at full scale.
POST_COUNT_ANCHORS: Tuple[Tuple[float, float], ...] = (
    (1.0, 1.0),
    (10.0, 13014 / 72982),
    (50.0, 2146 / 72982),
    (100.0, 815 / 72982),
    (200.0, 263 / 72982),
    (500.0, 46 / 72982),
    (1000.0, 13 / 72982),
    (2800.0, 1 / 72982),
)


def sample_ewhoring_post_count(rng: np.random.Generator) -> int:
    """Draw an actor's eWhoring post count from the Table 8 curve.

    Inverse-CDF sampling with log-log interpolation between anchors, so
    the generated population reproduces the published band sizes in
    expectation at any scale.
    """
    u = float(rng.random())
    anchors = POST_COUNT_ANCHORS
    if u >= anchors[0][1]:
        return 1
    if u <= anchors[-1][1]:
        return int(anchors[-1][0])
    for (x0, s0), (x1, s1) in zip(anchors, anchors[1:]):
        if s1 <= u <= s0:
            # Log-log linear interpolation of the survival function.
            t = (math.log(u) - math.log(s0)) / (math.log(s1) - math.log(s0))
            log_x = math.log(x0) + t * (math.log(x1) - math.log(x0))
            return max(1, int(round(math.exp(log_x))))
    return 1  # pragma: no cover - anchors span (0, 1]


class Archetype(enum.Enum):
    """Activity band an actor falls into (Table 8 rows)."""

    LURKER = "lurker"      # < 10 eWhoring posts
    CASUAL = "casual"      # 10 – 49
    ACTIVE = "active"      # 50 – 199
    HEAVY = "heavy"        # 200 – 999
    ELITE = "elite"        # >= 1000

    @staticmethod
    def for_post_count(posts: int) -> "Archetype":
        if posts >= 1000:
            return Archetype.ELITE
        if posts >= 200:
            return Archetype.HEAVY
        if posts >= 50:
            return Archetype.ACTIVE
        if posts >= 10:
            return Archetype.CASUAL
        return Archetype.LURKER


#: Hackforums interest categories used for the Figure 5 analysis.
INTEREST_CATEGORIES: Tuple[str, ...] = (
    "Gaming",
    "Hacking",
    "Market",
    "Coding",
    "Common",
    "Tech",
)

#: Phase → mean interest mix over INTEREST_CATEGORIES (Figure 5 shape:
#: gaming/hacking attract members first; market boards take over once
#: they monetise; Common rises slightly after).
_PHASE_INTEREST_MEANS: Dict[str, Tuple[float, ...]] = {
    "before": (0.28, 0.25, 0.13, 0.10, 0.12, 0.12),
    "during": (0.18, 0.17, 0.34, 0.07, 0.15, 0.09),
    "after": (0.14, 0.14, 0.38, 0.06, 0.19, 0.09),
}

#: Mean days of forum activity before the first eWhoring post, per
#: archetype (Table 8: roughly 130–165, except elite actors at 400+).
_DAYS_BEFORE_MEAN: Dict[Archetype, float] = {
    Archetype.LURKER: 168.0,
    Archetype.CASUAL: 138.0,
    Archetype.ACTIVE: 128.0,
    Archetype.HEAVY: 150.0,
    Archetype.ELITE: 415.0,
}

#: Mean days of forum activity after the last eWhoring post.
_DAYS_AFTER_MEAN: Dict[Archetype, float] = {
    Archetype.LURKER: 500.0,
    Archetype.CASUAL: 330.0,
    Archetype.ACTIVE: 185.0,
    Archetype.HEAVY: 150.0,
    Archetype.ELITE: 135.0,
}

#: Mean percentage of the actor's posts that are eWhoring-related
#: (Table 8 column '%ewhor.': rises with involvement).
_EWHORING_SHARE_MEAN: Dict[Archetype, float] = {
    Archetype.LURKER: 0.22,
    Archetype.CASUAL: 0.24,
    Archetype.ACTIVE: 0.28,
    Archetype.HEAVY: 0.35,
    Archetype.ELITE: 0.38,
}

#: Probability of behaviours per archetype:
#: (shares packs, posts proof-of-earnings, uses Currency Exchange).
_BEHAVIOUR_RATES: Dict[Archetype, Tuple[float, float, float]] = {
    Archetype.LURKER: (0.012, 0.002, 0.004),
    Archetype.CASUAL: (0.09, 0.018, 0.03),
    Archetype.ACTIVE: (0.28, 0.16, 0.24),
    Archetype.HEAVY: (0.45, 0.30, 0.35),
    Archetype.ELITE: (0.80, 0.55, 0.55),
}


@dataclass(frozen=True)
class ActorProfile:
    """Everything the generator needs to emit one actor's activity."""

    ewhoring_posts: int
    archetype: Archetype
    days_before: float
    days_after: float
    other_posts: int
    #: Interest mix per phase: phase name -> weights over
    #: INTEREST_CATEGORIES (each sums to 1).
    interests: Dict[str, Tuple[float, ...]]
    shares_packs: bool
    n_packs_shared: int
    posts_earnings: bool
    uses_currency_exchange: bool
    n_ce_threads: int


def _dirichlet_around(
    rng: np.random.Generator, means: Tuple[float, ...], concentration: float = 25.0
) -> Tuple[float, ...]:
    alphas = np.maximum(np.asarray(means) * concentration, 0.05)
    return tuple(float(x) for x in rng.dirichlet(alphas))


def _sample_pack_count(rng: np.random.Generator, archetype: Archetype) -> int:
    """Packs shared by a sharer: heavy-tailed — most share 1–3, the top
    sharers dozens (§4.5 observes one actor with 100 shared packs)."""
    base = float(rng.pareto(1.35)) + 1.0
    if archetype is Archetype.ELITE:
        base *= 6.0
    elif archetype is Archetype.HEAVY:
        base *= 2.5
    return int(min(round(base), 110))


def _sample_ce_threads(rng: np.random.Generator, archetype: Archetype) -> int:
    """CE thread count for a CE user (§5.1: 9 066 threads by 686 actors)."""
    mean = {
        Archetype.LURKER: 1.5,
        Archetype.CASUAL: 3.0,
        Archetype.ACTIVE: 9.0,
        Archetype.HEAVY: 22.0,
        Archetype.ELITE: 45.0,
    }[archetype]
    return max(1, int(rng.poisson(mean)))


def sample_profile(rng: np.random.Generator) -> ActorProfile:
    """Draw one actor's full behaviour profile."""
    posts = sample_ewhoring_post_count(rng)
    archetype = Archetype.for_post_count(posts)

    days_before = float(rng.exponential(_DAYS_BEFORE_MEAN[archetype]))
    days_after = float(rng.exponential(_DAYS_AFTER_MEAN[archetype]))

    share_mean = _EWHORING_SHARE_MEAN[archetype]
    share = min(max(float(rng.normal(share_mean, 0.10)), 0.05), 0.95)
    other_posts = int(round(posts * (1.0 - share) / share))

    interests = {
        phase: _dirichlet_around(rng, means)
        for phase, means in _PHASE_INTEREST_MEANS.items()
    }

    p_packs, p_earn, p_ce = _BEHAVIOUR_RATES[archetype]
    shares_packs = bool(rng.random() < p_packs)
    # Sharers monetise and brag more (Table 10: the packs group also
    # reports earnings and uses Currency Exchange).
    if shares_packs:
        p_earn = min(p_earn * 2.0, 0.9)
        p_ce = min(p_ce * 1.5, 0.9)
    posts_earnings = bool(rng.random() < p_earn)
    uses_ce = bool(rng.random() < p_ce)

    return ActorProfile(
        ewhoring_posts=posts,
        archetype=archetype,
        days_before=days_before,
        days_after=days_after,
        other_posts=other_posts,
        interests=interests,
        shares_packs=shares_packs,
        n_packs_shared=_sample_pack_count(rng, archetype) if shares_packs else 0,
        posts_earnings=posts_earnings,
        uses_currency_exchange=uses_ce,
        n_ce_threads=_sample_ce_threads(rng, archetype) if uses_ce else 0,
    )
