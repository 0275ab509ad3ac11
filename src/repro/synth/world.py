"""World builder: one seed → the complete synthetic measurement setting.

:func:`build_world` wires every substrate together in dependency order:

1. supply side — origin sites, models, circulating images (models_gen);
2. forums — datasets, packs, previews, proofs, CE boards (forum_gen);
3. web intelligence — the reverse-search index, Wayback archive and
   abuse hashlist, built by hashing the circulating images that actually
   entered circulation through packs/previews.  Each image it renders is
   featurised there too (hash, NSFW score), once, and its pixels dropped.

The returned :class:`World` carries both the *observable* artefacts the
pipeline is allowed to touch (dataset, internet, services) and the
*ground truth* experiments score against (thread types, proof plans,
provenance, underage flags).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Dict, List, Optional, Set

from .._rng import SeedSequenceTree
from ..forum.dataset import ForumDataset
from ..media.image import ImageKind, SyntheticImage
from ..media.validate import CorruptPayloadError, validate_raster
from ..vision.cache import Featurizer, VisionCache
from ..vision.photodna import (  # robust_hash: benchmarks/e2e/layers.py wraps it
    AbuseSeverity,
    HashListEntry,
    HashListService,
    robust_hash,  # noqa: F401
)
from ..vision.reverse_search import IndexedCopy, ReverseImageIndex
from ..web.archive import WaybackArchive
from ..web.faults import FaultInjector, fault_profile
from ..web.internet import SimulatedInternet
from ..web.payload_faults import PayloadFaultInjector, payload_profile
from ..vision.batch import hash_batch
from .forum_gen import ForumWorldGenerator, GeneratedForums, IdAllocator
from .models_gen import (
    CirculatingImage,
    SupplySide,
    fill_copy_hashes,
    generate_supply_side,
)

__all__ = [
    "WORLD_STREAM_VERSION",
    "World",
    "WorldConfig",
    "build_world",
    "epoch_cutoff",
    "slice_dataset_to_epoch",
]

#: Version of the random stream world synthesis draws.  One config gives
#: another world under another version, so a store records the version
#: its image digests and corpus came from and refuses a build of another.
#: Version 2 block-draws the forum, template, copy-hash and background
#: randomness and centres each later skin blob on uncovered skin.
WORLD_STREAM_VERSION = 2

#: Latest date the TinEye-analogue could have crawled anything.
_CRAWL_HORIZON = datetime(2019, 9, 30)

#: Full-scale supply-side sizes (see DESIGN.md calibration notes).
_FULL_MODELS = 900
_FULL_ORIGIN_SITES = 7000

#: Images the build renders, hashes and scores together (96 KiB each).
_FEATURE_BLOCK = 64


@dataclass(frozen=True)
class WorldConfig:
    """Knobs for world construction.

    ``scale`` multiplies every full-scale population count (Table 1
    thread/actor counts, model counts, origin-site counts).  ``scale=1.0``
    reproduces the paper-sized world; the default keeps unit-test and
    benchmark runtimes reasonable while preserving every distributional
    shape.
    """

    seed: int = 7
    scale: float = 0.05
    with_other_activity: bool = True
    reverse_index_radius: int = 9
    hashlist_radius: int = 10
    archive_coverage: float = 0.35
    #: Ground-truth rate of underage models; override upward in tests and
    #: in the E3 bench so small worlds still contain hashlist matches.
    underage_rate: float = 0.012
    #: Fraction of an underage model's images the hashlist service knows.
    hashlist_rate: float = 0.055
    #: Named transient-fault profile (see :data:`repro.web.faults.
    #: FAULT_PROFILES`) injected into the internet at fetch time, or
    #: ``None`` for a perfectly reliable network.  Fault draws use their
    #: own seed stream, so world *content* is identical across profiles.
    fault_profile: Optional[str] = None
    #: Named corrupt-payload profile (see :data:`repro.web.payload_faults.
    #: PAYLOAD_PROFILES`) applied to OK fetches, or ``None`` for pristine
    #: payloads.  Corruption wraps fetched views only — hosted content is
    #: never mutated — and uses its own seed stream, so world *content*
    #: is identical across profiles.
    payload_profile: Optional[str] = None
    #: Named adversarial-drift profile (see :data:`repro.drift.profiles.
    #: DRIFT_PROFILES`) applied to the freshly built world, or ``None``
    #: (≡ ``"none"``) for the static paper-world.  Drift mutations are a
    #: pure hash function of ``(seed, channel, epoch, entity)`` layered
    #: *after* build, so the pre-drift world is identical across
    #: profiles and ``none``/epoch-0 is a strict no-op.
    drift_profile: Optional[str] = None
    #: How many drift epochs to apply cumulatively (0 = none).
    drift_epoch: int = 0
    #: Observation epoch for incremental runs: ``None`` observes the
    #: whole timeline; ``epoch=e`` of ``epoch_total=N`` truncates the
    #: *observable* dataset at the e/N-th post-date quantile (the
    #: ground-truth oracles stay whole).  ``epoch == epoch_total`` is
    #: by construction identical to ``epoch=None``.  Epochs nest: the
    #: records visible at epoch e are a strict prefix (per thread) of
    #: those visible at e+1, which is what makes watermark-based delta
    #: runs append-only (see :mod:`repro.store`).
    epoch: Optional[int] = None
    #: Number of equal-population observation epochs the timeline is
    #: divided into (only meaningful alongside ``epoch``).
    epoch_total: int = 1

    def __post_init__(self) -> None:
        if self.scale <= 0 or self.scale > 2.0:
            raise ValueError("scale must be in (0, 2]")
        if self.fault_profile is not None:
            fault_profile(self.fault_profile)  # validate the name eagerly
        if self.payload_profile is not None:
            payload_profile(self.payload_profile)  # validate the name eagerly
        if self.drift_epoch < 0:
            raise ValueError("drift_epoch must be >= 0")
        if self.epoch_total < 1:
            raise ValueError("epoch_total must be >= 1")
        if self.epoch is not None and not (1 <= self.epoch <= self.epoch_total):
            raise ValueError("epoch must be in [1, epoch_total]")
        if self.drift_profile is not None:
            from ..drift.profiles import drift_profile

            drift_profile(self.drift_profile)  # validate the name eagerly


@dataclass
class World:
    """The complete synthetic setting handed to the pipeline."""

    config: WorldConfig
    dataset: ForumDataset
    internet: SimulatedInternet
    archive: WaybackArchive
    reverse_index: ReverseImageIndex
    hashlist: HashListService
    supply: SupplySide
    forums: GeneratedForums
    #: domain → ground-truth category (for the domain classifiers).
    domain_categories: Dict[str, str] = field(default_factory=dict)
    #: The build's featuriser: the feature record (DESIGN.md §7) of each
    #: image the build rendered, by content digest.  Every run starts
    #: from copies of them (:meth:`~repro.vision.cache.Featurizer.adopt`),
    #: so its crawl does not render those images again.
    image_features: Featurizer = field(default_factory=Featurizer)
    #: Content-tracking ledger from the drift engine (set when the config
    #: names a drift profile, even at epoch 0 / ``none`` — the ledger is
    #: then pure bookkeeping over an unmutated world).
    drift_ledger: Optional[object] = None

    @property
    def truth(self) -> GeneratedForums:
        """Alias emphasising that ``forums`` carries the ground truth."""
        return self.forums


def build_world(
    config: Optional[WorldConfig] = None,
    known: Optional[VisionCache] = None,
    **overrides,
) -> World:
    """Construct a fully wired synthetic world.

    Accepts either a prebuilt :class:`WorldConfig` or keyword overrides:
    ``build_world(seed=3, scale=0.02)``.

    ``known`` is an optional :class:`~repro.vision.cache.VisionCache`
    (a persistent store's, loaded from earlier epochs), read and never
    written.  An image whose latent it maps to a digest with a recorded
    hash takes that hash and is not rendered at all (rendering is the
    build's largest cost); rendering is a pure function of the latent,
    so the hash is the one the build would compute.  It changes no rng
    draw and no value — bit-identity is unaffected.

    The build makes no reference cycles, so the cyclic garbage collector
    is paused while it runs (DESIGN.md §7), then set back as it was.
    """
    if config is None:
        config = WorldConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a WorldConfig or keyword overrides, not both")
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _build(config, known)
    finally:
        if enabled:
            gc.enable()


def _build(config: WorldConfig, known: Optional[VisionCache]) -> World:
    tree = SeedSequenceTree(config.seed, "world")
    internet = SimulatedInternet(seed=tree.seed("internet"))
    if config.fault_profile is not None:
        internet.set_fault_injector(
            FaultInjector(fault_profile(config.fault_profile), seed=tree.seed("faults"))
        )
    if config.payload_profile is not None:
        internet.set_payload_injector(
            PayloadFaultInjector(
                payload_profile(config.payload_profile),
                seed=tree.seed("payload_faults"),
            )
        )
    archive = WaybackArchive(
        seed=tree.seed("archive"), coverage=config.archive_coverage
    )
    reverse_index = ReverseImageIndex(radius=config.reverse_index_radius)
    hashlist = HashListService(radius=config.hashlist_radius)

    # ------------------------------------------------------------- supply
    n_models = max(4, int(round(_FULL_MODELS * config.scale)))
    n_sites = max(60, int(round(_FULL_ORIGIN_SITES * config.scale)))
    supply = generate_supply_side(
        tree.rng("supply"),
        n_models=n_models,
        n_origin_sites=n_sites,
        underage_rate=config.underage_rate,
        hashlist_rate=config.hashlist_rate,
    )
    for site in supply.origin_sites:
        internet.register_origin_site(site)
    domain_categories = {site.domain: site.category for site in supply.origin_sites}

    # ------------------------------------------------------------- forums
    max_image_id = max(supply.by_image_id, default=0)
    ids = IdAllocator(start=max_image_id + 1)
    # The generator and its record lists are garbage once it returns.
    dataset, forums = ForumWorldGenerator(
        tree.rng("forums"),
        supply=supply,
        internet=internet,
        ids=ids,
        scale=config.scale,
        with_other_activity=config.with_other_activity,
    ).generate()

    # ----------------------------------------------------- web intelligence
    image_features = Featurizer(hashlist=hashlist)
    _build_web_intelligence(
        tree, supply, forums, reverse_index, archive, hashlist,
        image_features, known,
    )

    world = World(
        config=config,
        dataset=dataset,
        internet=internet,
        archive=archive,
        reverse_index=reverse_index,
        hashlist=hashlist,
        supply=supply,
        forums=forums,
        domain_categories=domain_categories,
        image_features=image_features,
    )

    # ------------------------------------------------------------- drift
    # Applied last, over the finished world, so the pre-drift content
    # (and the web intelligence built from it) is identical across
    # profiles; "none"/epoch-0 leaves the world untouched.
    if config.drift_profile is not None:
        from ..drift.engine import apply_drift
        from ..drift.profiles import drift_profile

        world.drift_ledger = apply_drift(
            world,
            drift_profile(config.drift_profile),
            epoch=config.drift_epoch,
            seed=tree.seed("drift"),
        )

    # ------------------------------------------------------------- epoch
    # Observation-epoch truncation comes last of all, over the (possibly
    # drifted) full world, so the generated content and every rng stream
    # are identical across epochs — an epoch only restricts what the
    # pipeline may *observe*, never what exists.
    if config.epoch is not None:
        cutoff = epoch_cutoff(world.dataset, config.epoch, config.epoch_total)
        if cutoff is not None:
            world.dataset = slice_dataset_to_epoch(world.dataset, cutoff)
    return world


# ----------------------------------------------------------------------
# Observation epochs
# ----------------------------------------------------------------------

def epoch_cutoff(
    dataset: ForumDataset, epoch: int, epoch_total: int
) -> Optional[datetime]:
    """Post-date quantile cutoff for observation epoch ``epoch`` of ``epoch_total``.

    Forum activity is heavily tail-weighted (the paper's Figure 4 growth
    curve), so equal *time* slices would make late epochs far larger
    than early ones.  Epochs are therefore equal-*population*: the
    cutoff for epoch ``e`` is the date of the ``ceil(n·e/N)``-th oldest
    post, giving every delta roughly ``1/N`` of the records.  The final
    epoch returns ``None`` — no truncation, by construction identical to
    observing the whole timeline.
    """
    if epoch >= epoch_total:
        return None
    dates = sorted(post.created_at for post in dataset.posts())
    if not dates:
        return None
    index = -(-len(dates) * epoch // epoch_total) - 1  # ceil(n·e/N) - 1
    return dates[max(0, index)]


def slice_dataset_to_epoch(dataset: ForumDataset, cutoff: datetime) -> ForumDataset:
    """The observable prefix of ``dataset`` at ``cutoff``, as a new dataset.

    Inclusion rules (all deterministic, all order-preserving):

    * forums and boards — always (structure predates activity);
    * threads — ``created_at <= cutoff``;
    * posts — the per-thread *prefix* up to the first post dated after
      the cutoff, so positions stay contiguous and the visible set at
      epoch ``e`` is a prefix of the set at ``e+1`` (append-only
      deltas);
    * actors — registered by the cutoff, or the author of any included
      thread/post (authorship integrity beats registration date).
    """
    included_threads = [t for t in dataset.threads() if t.created_at <= cutoff]
    included_ids = {t.thread_id for t in included_threads}
    included_posts = []
    for thread in included_threads:
        for post in dataset.posts_in_thread(thread.thread_id):
            if post.created_at > cutoff:
                break
            included_posts.append(post)

    author_ids = {t.author_id for t in included_threads}
    author_ids.update(p.author_id for p in included_posts)

    sliced = ForumDataset()
    for forum in dataset.forums():
        sliced.add_forum(forum)
    for board in dataset.boards():
        sliced.add_board(board)
    for actor in dataset.actors():
        if actor.registered_at <= cutoff or actor.actor_id in author_ids:
            sliced.add_actor(actor)
    for thread in included_threads:
        sliced.add_thread(thread)
    for post in included_posts:
        sliced.add_post(post)
    return sliced


# ----------------------------------------------------------------------
# Index / archive / hashlist construction
# ----------------------------------------------------------------------

def _circulating_in_use(supply: SupplySide, forums: GeneratedForums) -> List[CirculatingImage]:
    """Circulating images that entered circulation through packs/previews.

    Only these can ever be queried by the pipeline, so only they need
    hashing.  Evasion packs reference *transformed* children of the pool
    images; their originals are included because the hashlist and index
    represent the open web, where the originals live.
    """
    used_ids: Set[int] = set()
    for pack in forums.packs.values():
        for image in pack.images:
            used_ids.add(image.image_id)
    return [
        circulating
        for model in supply.models
        for circulating in model.pool
        if circulating.image.image_id in used_ids or circulating.in_hashlist
    ]


def _build_web_intelligence(
    tree: SeedSequenceTree,
    supply: SupplySide,
    forums: GeneratedForums,
    reverse_index: ReverseImageIndex,
    archive: WaybackArchive,
    hashlist: HashListService,
    features: Featurizer,
    known: Optional[VisionCache],
) -> None:
    rng = tree.rng("webintel")
    in_use = _circulating_in_use(supply, forums)

    # Up to two "verified victims" (§4.3: the IWF actioned URLs for one
    # 17-year-old and one 7–10-year-old victim; other matches were not
    # actionable because age could not be verified).
    verified_model_ids: Set[int] = set()
    victim_ages: Dict[int, int] = {}
    for circulating in in_use:
        if not circulating.in_hashlist:
            continue
        model_id = circulating.image.latent.model_id
        if model_id is None:
            continue
        if len(verified_model_ids) < 2 and model_id not in verified_model_ids:
            verified_model_ids.add(model_id)
            victim_ages[model_id] = 17 if len(verified_model_ids) == 1 else 8

    # Hash every image before the rng loop below, hashlist images first,
    # so the hashlist is complete before any image is NSFW-scored and no
    # abuse image is ever scored.  No rng draw happens here.  A block's
    # entries go in before its images are scored.
    base_hashes: List[Optional[int]] = [
        known.hash_of(c.image.latent) if known is not None else None for c in in_use
    ]
    listed_first = sorted(range(len(in_use)), key=lambda i: not in_use[i].in_hashlist)
    for start in range(0, len(listed_first), _FEATURE_BLOCK):
        block = listed_first[start : start + _FEATURE_BLOCK]
        fresh = [i for i in block if base_hashes[i] is None]
        images = [in_use[i].image for i in fresh]
        hashes = hash_batch([image.pixels for image in images]).tolist()
        for i, image_hash in zip(fresh, hashes):
            base_hashes[i] = image_hash
        for i in block:
            image = in_use[i].image
            if in_use[i].in_hashlist:
                model_id = image.latent.model_id
                actionable = model_id in verified_model_ids
                hashlist.add_entry(
                    HashListEntry(
                        entry_hash=base_hashes[i],
                        severity=_severity_for(image.kind),
                        victim_age=victim_ages.get(model_id) if actionable else None,
                        actionable=actionable,
                    )
                )
        _featurise(images, hashes, features)

    for circulating, base_hash in zip(in_use, base_hashes):
        fill_copy_hashes(rng, circulating, base_hash)
        if not circulating.indexed:
            continue
        # One block draw gives the same values, and leaves the same
        # stream, as one scalar draw per copy.
        crawl_lags = rng.exponential(700.0, size=len(circulating.copies))
        for copy, crawl_lag in zip(circulating.copies, crawl_lags):
            url = f"https://{copy.domain}{copy.url_path}"
            crawl_date = copy.published_at + timedelta(days=float(crawl_lag))
            crawl_date = min(crawl_date, _CRAWL_HORIZON)
            reverse_index.index_hash(
                copy.copy_hash,
                IndexedCopy(
                    url=url,
                    domain=copy.domain,
                    crawl_date=crawl_date,
                    backlink=f"https://{copy.domain}/",
                ),
            )
            archive.observe_publication(url, copy.published_at)


def _featurise(images: List[SyntheticImage], hashes: List[int], features: Featurizer) -> None:
    """Record the features of ``images`` while their pixels are live, then drop them.

    §4.3 hash-then-delete, done once per rendered image: each raster is
    validated and digested (the digest recorded under its latent), and
    its record takes the hash the build computed; ``features`` adds the NSFW scores, as one block, of those
    its hashlist does not match.  An image failing validation gets no
    record, so a crawl validates (and quarantines) it as it would any
    download.
    """
    items = []
    for image, image_hash in zip(images, hashes):
        try:
            validate_raster(image.pixels)
        except CorruptPayloadError:
            continue
        digest = features.cache.remember(image)
        features.cache.setdefault(digest, {"hash": image_hash})
        items.append((digest, image))
    features.features_block(items)
    for image in images:
        image.drop_pixels()


def _severity_for(kind: ImageKind) -> AbuseSeverity:
    """IWF grading by depiction stage (§4.3 category definitions)."""
    if kind is ImageKind.MODEL_SEXUAL:
        return AbuseSeverity.CATEGORY_A
    if kind is ImageKind.MODEL_NUDE:
        return AbuseSeverity.CATEGORY_B
    return AbuseSeverity.CATEGORY_C
