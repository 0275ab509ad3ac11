"""Generation of models, origin sites, and image provenance ground truth.

This module builds the *supply side* of the eWhoring ecosystem:

* **origin sites** — the domains images are stolen from, with ground-truth
  categories weighted as §4.5 observed (porn-related sites dominate, with
  social networks, blogs, photo sharing, shops in the tail);
* **models** — depicted persons, each with a pool of circulating images
  (dressed / nude / sexual) first published on a home origin site;
* **propagation copies** — every circulating image is republished on many
  domains over time; the copy set is what the TinEye-analogue indexes and
  the Wayback-analogue archives, producing the Table 5 match structure;
* **underage ground truth** — a small fraction of models are underage;
  a subset of their images is known to the hashlist service (§4.3).

Copy counts per image follow a heavy-tailed distribution calibrated to
the paper's matches-per-image statistics (average ≈ 12–17, long tail).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Dict, List, Tuple

import numpy as np

from ..domains.taxonomy import MASTER_CATEGORIES
from ..media.image import SyntheticImage, sample_latent
from ..web.internet import OriginSite

__all__ = [
    "CirculatingImage",
    "ModelIdentity",
    "OriginCopy",
    "SupplySide",
    "generate_supply_side",
]

#: Hosting regions with sampling weights (shapes the §4.3 IWF geography).
_REGIONS: Tuple[Tuple[str, float], ...] = (
    ("North America", 0.47),
    ("Europe", 0.42),
    ("UK", 0.03),
    ("Other", 0.08),
)

#: Master category → §4.3 site typology.
_SITE_TYPES: Dict[str, str] = {
    "Pornography": "regular website",
    "Provocative Attire": "regular website",
    "Photo Sharing": "image sharing site",
    "Forums": "forum",
    "Blogs": "blog",
    "Social Networking": "social network",
    "Streaming": "video channel",
    "Dating": "regular website",
}

#: Fraction of models who are underage (ground truth for §4.3).
UNDERAGE_MODEL_RATE = 0.012
#: Fraction of an underage model's images known to the hashlist service.
#: Calibrated so that a full-scale crawl matches ≈ 36 images (§4.3) —
#: hashlists know only a sliver of circulating abuse material.
HASHLIST_KNOWLEDGE_RATE = 0.055
#: Fraction of circulating images present in the reverse-search index at
#: all (§4.5: zero-match images come from unindexed sites or are private).
INDEX_COVERAGE = 0.88


@dataclass(frozen=True, slots=True)
class OriginCopy:
    """One republication of a circulating image on some domain."""

    domain: str
    published_at: datetime
    #: Perceptual hash of this copy (origin hash with recompression noise).
    copy_hash: int
    url_path: str


@dataclass
class CirculatingImage:
    """An image in a model's circulating pool, with its copy set."""

    image: SyntheticImage
    home_domain: str
    first_published: datetime
    indexed: bool
    copies: List[OriginCopy] = field(default_factory=list)
    #: True when the hashlist service knows this image (underage only).
    in_hashlist: bool = False

    @property
    def n_copies(self) -> int:
        return len(self.copies)


@dataclass
class ModelIdentity:
    """One depicted person and their circulating image pool."""

    model_id: int
    home_domain: str
    origin_date: datetime
    is_underage: bool
    pool: List[CirculatingImage] = field(default_factory=list)
    #: Popularity multiplier for copy counts (some models are everywhere).
    popularity: float = 1.0

    @property
    def pool_size(self) -> int:
        return len(self.pool)


@dataclass
class SupplySide:
    """Everything the demand side (forums) draws images from."""

    origin_sites: List[OriginSite]
    models: List[ModelIdentity]
    #: image_id → CirculatingImage for provenance lookups in experiments.
    by_image_id: Dict[int, CirculatingImage] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Origin-site generation
# ----------------------------------------------------------------------

_DOMAIN_WORDS = (
    "amber", "angel", "baby", "blue", "candy", "cherry", "crystal", "daily",
    "dark", "dream", "flash", "free", "fresh", "glam", "gold", "hot",
    "insta", "lady", "late", "luna", "meta", "midnight", "neon", "night",
    "petal", "pixel", "prime", "rose", "ruby", "silk", "star", "sugar",
    "sunny", "sweet", "teen", "velvet", "viral", "vivid", "wild", "zen",
)
_DOMAIN_SUFFIXES = ("hub", "tube", "cams", "pics", "snaps", "zone", "spot",
                    "world", "club", "life", "gram", "book", "space", "net")
_TLDS = (".com", ".net", ".org", ".tv", ".xxx", ".me", ".co")


def _mint_domain(rng: np.random.Generator, taken: set) -> str:
    while True:
        word = _DOMAIN_WORDS[int(rng.integers(0, len(_DOMAIN_WORDS)))]
        suffix = _DOMAIN_SUFFIXES[int(rng.integers(0, len(_DOMAIN_SUFFIXES)))]
        tld = _TLDS[int(rng.integers(0, len(_TLDS)))]
        number = int(rng.integers(0, 1000))
        domain = f"{word}{suffix}{number}{tld}"
        if domain not in taken:
            taken.add(domain)
            return domain


def _generate_origin_sites(rng: np.random.Generator, n_sites: int) -> List[OriginSite]:
    categories = [name for name, _ in MASTER_CATEGORIES]
    weights = np.array([w for _, w in MASTER_CATEGORIES], dtype=np.float64)
    weights /= weights.sum()
    regions = [name for name, _ in _REGIONS]
    region_weights = np.array([w for _, w in _REGIONS], dtype=np.float64)
    region_weights /= region_weights.sum()

    taken: set = set()
    sites: List[OriginSite] = []
    for _ in range(n_sites):
        category = categories[int(rng.choice(len(categories), p=weights))]
        region = regions[int(rng.choice(len(regions), p=region_weights))]
        sites.append(
            OriginSite(
                domain=_mint_domain(rng, taken),
                category=category,
                site_type=_SITE_TYPES.get(category, "regular website"),
                region=region,
            )
        )
    return sites


# ----------------------------------------------------------------------
# Copy-count and hash-noise models
# ----------------------------------------------------------------------

def _sample_copy_count(rng: np.random.Generator, popularity: float) -> int:
    """Sites carrying one image: lognormal bulk + a viral Pareto tail.

    Calibrated to Table 5: mean ≈ 13 matches per matched image with a
    long tail (hundreds of matches for the most-recycled material).
    """
    if rng.random() < 0.02:
        count = 40.0 * (1.0 + float(rng.pareto(1.1)))
    else:
        count = float(rng.lognormal(mean=2.2, sigma=1.05))
    return min(max(round(count * popularity), 1), 2500)


# ----------------------------------------------------------------------
# Supply-side generation
# ----------------------------------------------------------------------

def generate_supply_side(
    rng: np.random.Generator,
    n_models: int,
    n_origin_sites: int,
    pool_size_range: Tuple[int, int] = (40, 140),
    world_start: datetime = datetime(2006, 1, 1),
    world_end: datetime = datetime(2019, 3, 31),
    image_id_start: int = 1,
    underage_rate: float = UNDERAGE_MODEL_RATE,
    hashlist_rate: float = HASHLIST_KNOWLEDGE_RATE,
) -> SupplySide:
    """Build the full supply side of the synthetic world.

    ``n_models`` and ``n_origin_sites`` are already scaled by the caller.
    Image ids are allocated from ``image_id_start`` upward; the caller
    owns the id space.
    """
    if n_models < 1 or n_origin_sites < 5:
        raise ValueError("need at least 1 model and 5 origin sites")

    sites = _generate_origin_sites(rng, n_origin_sites)
    porn_sites = [s for s in sites if s.category in ("Pornography", "Provocative Attire")]
    if not porn_sites:
        porn_sites = sites[:1]

    # Domain popularity for propagation targets: Zipf-weighted.
    ranks = np.arange(1, len(sites) + 1, dtype=np.float64)
    zipf_weights = 1.0 / ranks**0.85
    zipf_weights /= zipf_weights.sum()

    total_days = (world_end - world_start).days
    supply = SupplySide(origin_sites=sites, models=[])
    next_image_id = image_id_start

    for model_id in range(1, n_models + 1):
        # Models mostly come from porn-industry sites; ~25% from social
        # media, blogs and other personal sources ("stolen from social
        # networking sites, blogs, photo sharing sites", §1).
        if rng.random() < 0.75:
            home = porn_sites[int(rng.integers(0, len(porn_sites)))]
        else:
            home = sites[int(rng.choice(len(sites), p=zipf_weights))]
        origin_day = int(rng.uniform(0.0, 0.85) * total_days)
        origin_date = world_start + timedelta(days=origin_day)
        is_underage = bool(rng.random() < underage_rate)
        popularity = min(max(float(rng.lognormal(0.0, 0.5)), 0.3), 6.0)
        model = ModelIdentity(
            model_id=model_id,
            home_domain=home.domain,
            origin_date=origin_date,
            is_underage=is_underage,
            popularity=popularity,
        )

        pool_size = int(rng.integers(pool_size_range[0], pool_size_range[1] + 1))
        from ..media.pack import pack_stage_mix

        for kind in pack_stage_mix(pool_size):
            latent = sample_latent(rng, kind, model_id=model_id, is_underage=is_underage)
            image = SyntheticImage(next_image_id, latent)
            next_image_id += 1
            first_published = origin_date + timedelta(days=float(rng.exponential(90.0)))
            first_published = min(first_published, world_end)
            circulating = CirculatingImage(
                image=image,
                home_domain=home.domain,
                first_published=first_published,
                indexed=bool(rng.random() < INDEX_COVERAGE),
                in_hashlist=bool(is_underage and rng.random() < hashlist_rate),
            )
            model.pool.append(circulating)
            supply.by_image_id[image.image_id] = circulating
        supply.models.append(model)

    # Propagation: copy sets are attached lazily per image because hashing
    # requires rendering; the world builder materialises them for the
    # images it publishes (see world.py).
    _attach_copy_plans(rng, supply, sites, zipf_weights, world_end)
    return supply


def _attach_copy_plans(
    rng: np.random.Generator,
    supply: SupplySide,
    sites: List[OriginSite],
    zipf_weights: np.ndarray,
    world_end: datetime,
) -> None:
    """Draw each circulating image's copy domains and publish dates.

    Hashes are filled in by the world builder once the origin raster has
    been hashed; here we only fix the *plan* (domains and dates) so that
    generation order never depends on rendering.
    """
    n_sites = len(sites)
    for model in supply.models:
        for circulating in model.pool:
            n_copies = _sample_copy_count(rng, model.popularity)
            domain_indices = rng.choice(n_sites, size=n_copies, p=zipf_weights)
            span_days = max((world_end - circulating.first_published).days, 1)
            # Re-hosting happens continuously while the image stays in
            # circulation; a uniform spread (rather than a front-loaded
            # one) matches Table 5's seen-before rates, where a large
            # minority of matches were only crawled after the forum post.
            # One block draw gives the same values, and leaves the same
            # stream, as one scalar draw per copy.
            lags = rng.uniform(0.0, span_days, size=n_copies)
            for domain_index, lag in zip(domain_indices, lags):
                published = circulating.first_published + timedelta(
                    days=min(float(lag), span_days)
                )
                circulating.copies.append(
                    OriginCopy(
                        domain=sites[int(domain_index)].domain,
                        published_at=published,
                        copy_hash=0,  # filled by the world builder
                        url_path=f"/img/{circulating.image.image_id}-{int(domain_index)}",
                    )
                )


def fill_copy_hashes(
    rng: np.random.Generator, circulating: CirculatingImage, base_hash: int
) -> None:
    """Assign per-copy hashes: the origin hash with 0–3 recompression bit flips.

    Copies are never downloaded by the pipeline, only matched against, so
    their rasters are not materialised; the flip model reproduces the
    Hamming perturbation that re-hosting (recompression, thumbnailing)
    introduces — see DESIGN.md §2.  One draw gives every copy's flip
    count and three candidate bit positions, of which the first count
    are flipped (a position drawn twice flips back).
    """
    n = len(circulating.copies)
    draws = rng.integers(0, (4, 64, 64, 64), size=(n, 4)).astype(np.uint64)
    bits = np.left_shift(np.uint64(1), draws[:, 1:])
    bits[np.arange(3) >= draws[:, :1]] = 0
    hashes = np.bitwise_xor.reduce(bits, axis=1) ^ np.uint64(base_hash)
    circulating.copies = [
        OriginCopy(
            domain=copy.domain,
            published_at=copy.published_at,
            copy_hash=copy_hash,
            url_path=copy.url_path,
        )
        for copy, copy_hash in zip(circulating.copies, hashes.tolist())
    ]
