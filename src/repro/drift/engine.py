"""The adversarial drift engine: epoch-based world mutation.

:func:`apply_drift` replays ``epoch`` rounds of ecosystem adaptation
over a freshly built world.  Every decision is a pure hash of
``(seed, channel, epoch, entity)`` via
:func:`~repro.web.faults.stable_uniform` — the same recipe as the
transient-fault and payload-fault injectors — so drift is independent of
iteration order, commutes with crawl retries and checkpointed resume,
and two builds of the same ``(world seed, drift seed,
profile, epoch)`` are bit-identical.

The engine mutates only what real adversaries control: hosted resources
(re-uploads, takedowns of their own links), post text (rewritten links),
thread headings/boards (migration), and the population of hosting
services (churn).  The web intelligence built at epoch 0 — reverse
index, archive, hashlist — is deliberately left stale: that is exactly
the decay being measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple, Union

from .._rng import path_digest
from ..media.image import SyntheticImage
from ..media.pack import Pack
from ..media.transforms import STACKED_EVASION_TRANSFORMS
from ..web.faults import stable_uniform
from ..web.internet import FetchStatus, RedirectPage, SimulatedInternet
from ..web.sites import (
    CLOUD_STORAGE_SERVICES,
    IMAGE_SHARING_SERVICES,
    HostingService,
    ServiceKind,
)
from ..web.url import (
    OBFUSCATION_STYLES,
    Url,
    extract_urls,
    normalize_url,
    obfuscate_url,
)
from .profiles import DriftProfile

__all__ = ["ContentRef", "DriftLedger", "EpochCounters", "apply_drift"]


@dataclass
class ContentRef:
    """One TOP-post link occurrence the engine tracks across epochs.

    ``key`` (the original URL plus the containing post) is the stable
    identity every hash draw is keyed on; ``post_text`` is the exact
    string currently written in the post (a fresh URL after re-upload, a
    redirector entry after laundering, a de-fanged spelling after
    obfuscation); ``target_url`` is where the content itself lives.
    """

    key: str
    post_id: int
    thread_id: int
    kind: str  # "preview" | "pack"
    post_text: str
    target_url: str
    image_ids: Tuple[int, ...]
    obfuscated: bool = False
    redirected: bool = False
    reuploaded: bool = False


@dataclass
class EpochCounters:
    """What one epoch of drift actually did (observability)."""

    epoch: int
    n_reuploads: int = 0
    n_obfuscated: int = 0
    n_redirects: int = 0
    n_redirect_pages: int = 0
    n_domains_killed: int = 0
    n_domains_minted: int = 0
    n_threads_migrated: int = 0
    n_threads_retitled: int = 0

    def as_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "n_reuploads": self.n_reuploads,
            "n_obfuscated": self.n_obfuscated,
            "n_redirects": self.n_redirects,
            "n_redirect_pages": self.n_redirect_pages,
            "n_domains_killed": self.n_domains_killed,
            "n_domains_minted": self.n_domains_minted,
            "n_threads_migrated": self.n_threads_migrated,
            "n_threads_retitled": self.n_threads_retitled,
        }


@dataclass
class DriftLedger:
    """Everything the drift engine did, plus the live ground truth.

    The per-stage decay measurement (:mod:`repro.drift.measure`) scores
    the pipeline against this: which content is still reachable, where
    it moved, and which threads were disguised.
    """

    profile: DriftProfile
    epoch: int
    seed: int
    #: ref key → tracked link occurrence (final state after all epochs).
    refs: Dict[str, ContentRef] = field(default_factory=dict)
    per_epoch: List[EpochCounters] = field(default_factory=list)
    dead_domains: Set[str] = field(default_factory=set)
    minted_domains: List[str] = field(default_factory=list)
    #: true-TOP thread ids that migrated, → mode ("move" | "slang").
    migrated_threads: Dict[int, str] = field(default_factory=dict)

    def totals(self) -> dict:
        """Summed per-epoch counters (deterministic snapshot material)."""
        total = EpochCounters(epoch=self.epoch)
        for counters in self.per_epoch:
            total.n_reuploads += counters.n_reuploads
            total.n_obfuscated += counters.n_obfuscated
            total.n_redirects += counters.n_redirects
            total.n_redirect_pages += counters.n_redirect_pages
            total.n_domains_killed += counters.n_domains_killed
            total.n_domains_minted += counters.n_domains_minted
            total.n_threads_migrated += counters.n_threads_migrated
            total.n_threads_retitled += counters.n_threads_retitled
        return total.as_dict()


# ----------------------------------------------------------------------
# Drifted heading vocabulary (channel 4)
# ----------------------------------------------------------------------
# Deliberately disjoint from core.keywords.STRONG_PACK_KEYWORDS: the
# epoch-0 heuristics and SVM have never seen these tokens, so only a
# retrained classifier (and, for moved threads, author rediscovery) can
# recover them.
_SLANG_HEADINGS: Tuple[str, ...] = (
    "Fresh gallery dump from my girl",
    "New bundle dropped - she delivers",
    "Her latest stash is live",
    "Premium folder access - no saturation",
    "Exclusive goods from a new model",
    "Updated drop - full gallery inside",
    "The vault is open again",
    "Unreleased material - grab it fast",
)


def _slang_heading(seed: int, epoch: int, thread_id: int) -> str:
    u = stable_uniform(seed, "slang", str(epoch), str(thread_id))
    return _SLANG_HEADINGS[int(u * len(_SLANG_HEADINGS)) % len(_SLANG_HEADINGS)]


# ----------------------------------------------------------------------
# Deterministic URL minting (no RNG streams)
# ----------------------------------------------------------------------

def _mint_path(seed: int, *parts: str) -> str:
    return path_digest(seed, *parts).hex()[:10]


def _mint_unique_url(
    internet: SimulatedInternet, domain: str, seed: int, *parts: str
) -> Url:
    for salt in range(64):
        token = _mint_path(seed, *parts, str(salt))
        url = Url(host=domain, path=f"/{token}")
        if internet.hosted(url) is None:
            return url
    raise RuntimeError(f"drift URL namespace exhausted for {domain!r}")


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------

class _DriftState:
    """Engine-local working state carried across epochs of one apply."""

    def __init__(self, world) -> None:
        self.world = world
        self.next_id = _max_used_id(world) + 1
        self.dead_domains: Set[str] = set()
        self.minted: Dict[ServiceKind, List[str]] = {
            ServiceKind.IMAGE_SHARING: [],
            ServiceKind.CLOUD_STORAGE: [],
        }
        self.migrated: Dict[int, str] = {}

    def allocate_id(self) -> int:
        value = self.next_id
        self.next_id += 1
        return value


def _max_used_id(world) -> int:
    highest = max(world.supply.by_image_id, default=0)
    dataset = world.dataset
    for post in dataset.posts():
        highest = max(highest, post.post_id)
    for thread in dataset.threads():
        highest = max(highest, thread.thread_id)
    for actor in dataset.actors():
        highest = max(highest, actor.actor_id)
    for board in dataset.boards():
        highest = max(highest, board.board_id)
    for forum in dataset.forums():
        highest = max(highest, forum.forum_id)
    for pack_id, pack in world.forums.packs.items():
        highest = max(highest, pack_id)
        for image in pack.images:
            highest = max(highest, image.image_id)
    return highest


def _discover_refs(world) -> Dict[str, ContentRef]:
    """Track every hosted link occurrence in true-TOP threads (epoch 0)."""
    refs: Dict[str, ContentRef] = {}
    internet = world.internet
    dataset = world.dataset
    top_ids = sorted(
        tid for tid, kind in world.forums.thread_types.items() if kind == "top"
    )
    for thread_id in top_ids:
        for post in dataset.posts_in_thread(thread_id):
            for url in extract_urls(post.content):
                hosted = internet.hosted(url)
                if hosted is None or isinstance(hosted.resource, RedirectPage):
                    continue
                if isinstance(hosted.resource, Pack):
                    kind = "pack"
                    image_ids = tuple(
                        image.image_id for image in hosted.resource.images
                    )
                else:
                    kind = "preview"
                    image_ids = (hosted.resource.image_id,)
                key = f"{url}#{post.post_id}"
                refs[key] = ContentRef(
                    key=key,
                    post_id=post.post_id,
                    thread_id=thread_id,
                    kind=kind,
                    post_text=str(url),
                    target_url=str(url),
                    image_ids=image_ids,
                )
    return refs


def _alive_domains(state: _DriftState, kind: ServiceKind) -> List[str]:
    """Re-upload targets: live static services plus churned-in hosts."""
    static = (
        IMAGE_SHARING_SERVICES
        if kind is ServiceKind.IMAGE_SHARING
        else CLOUD_STORAGE_SERVICES
    )
    domains = [
        service.domain
        for service in static
        if not service.defunct and not service.requires_registration
    ]
    domains.extend(state.minted[kind])
    return sorted(domain for domain in domains if domain not in state.dead_domains)


def _rewrite_post_text(dataset, ref: ContentRef, new_text: str) -> None:
    post = dataset.post(ref.post_id)
    if ref.post_text not in post.content:  # pragma: no cover - invariant
        raise RuntimeError(
            f"drift lost track of link {ref.key!r} in post {ref.post_id}"
        )
    dataset.rewrite_post(ref.post_id, post.content.replace(ref.post_text, new_text, 1))
    ref.post_text = new_text


def _transform_chain(
    profile: DriftProfile, seed: int, epoch: int, key: str
) -> List[str]:
    pool = STACKED_EVASION_TRANSFORMS
    names: List[str] = []
    for step in range(profile.transform_depth):
        u = stable_uniform(seed, "chain", str(epoch), key, str(step))
        names.append(pool[int(u * len(pool)) % len(pool)])
    return names


def _transformed_copy(
    state: _DriftState, resource: Union[SyntheticImage, Pack], chain: List[str]
) -> Union[SyntheticImage, Pack]:
    def reupload_image(image: SyntheticImage) -> SyntheticImage:
        latent = image.latent
        for name in chain:
            latent = latent.with_transform(name)
        return SyntheticImage(state.allocate_id(), latent)

    if isinstance(resource, Pack):
        members = [reupload_image(image) for image in resource.images]
        return Pack(
            pack_id=state.allocate_id(),
            model_id=resource.model_id,
            images=members,
            compiler_actor_id=resource.compiler_actor_id,
            saturated=resource.saturated,
            evasion=tuple(resource.evasion) + tuple(chain),
        )
    return reupload_image(resource)


# ---- per-epoch channels ----------------------------------------------

def _churn_epoch(
    state: _DriftState,
    profile: DriftProfile,
    seed: int,
    epoch: int,
    counters: EpochCounters,
    ledger: DriftLedger,
) -> None:
    internet = state.world.internet
    known = {
        service.domain
        for service in IMAGE_SHARING_SERVICES + CLOUD_STORAGE_SERVICES
        if not service.defunct
    }
    for kind_domains in state.minted.values():
        known.update(kind_domains)
    for domain in sorted(known - state.dead_domains):
        if stable_uniform(seed, "churn_kill", str(epoch), domain) < profile.domain_death_rate:
            state.dead_domains.add(domain)
            ledger.dead_domains.add(domain)
            counters.n_domains_killed += 1
            for url in internet.urls_on(domain):
                hosted = internet.hosted(url)
                if hosted is not None:
                    hosted.status = FetchStatus.DEFUNCT
    for index in range(profile.new_hosts_per_epoch):
        kind = (
            ServiceKind.IMAGE_SHARING if index % 2 == 0 else ServiceKind.CLOUD_STORAGE
        )
        stem = "imgdrop" if kind is ServiceKind.IMAGE_SHARING else "packvault"
        domain = f"{stem}-e{epoch}-{index}.net"
        internet.register_service(
            HostingService(
                name=f"{stem}-e{epoch}-{index}",
                domain=domain,
                kind=kind,
                weight=50,
                dead_link_rate=0.0,
                tos_takedown_rate=0.0,
            )
        )
        state.minted[kind].append(domain)
        ledger.minted_domains.append(domain)
        counters.n_domains_minted += 1


def _reupload_epoch(
    state: _DriftState,
    profile: DriftProfile,
    seed: int,
    epoch: int,
    refs: Dict[str, ContentRef],
    counters: EpochCounters,
) -> None:
    internet = state.world.internet
    dataset = state.world.dataset
    for key in sorted(refs):
        ref = refs[key]
        if stable_uniform(seed, "reupload", str(epoch), key) >= profile.reupload_rate:
            continue
        hosted = internet.hosted(ref.target_url)
        if hosted is None or isinstance(hosted.resource, RedirectPage):
            continue
        kind = (
            ServiceKind.IMAGE_SHARING
            if ref.kind == "preview"
            else ServiceKind.CLOUD_STORAGE
        )
        domains = _alive_domains(state, kind)
        if not domains:
            continue
        pick = stable_uniform(seed, "reupload_host", str(epoch), key)
        domain = domains[int(pick * len(domains)) % len(domains)]
        chain = _transform_chain(profile, seed, epoch, key)
        copy = _transformed_copy(state, hosted.resource, chain)
        new_url = _mint_unique_url(internet, domain, seed, "reupload", str(epoch), key)
        internet.host_exact(new_url, copy, uploaded_at=hosted.uploaded_at)
        # The operator deletes the old upload once the fresh one is live.
        hosted.status = FetchStatus.NOT_FOUND
        _rewrite_post_text(dataset, ref, str(new_url))
        ref.target_url = str(new_url)
        ref.image_ids = (
            tuple(image.image_id for image in copy.images)
            if isinstance(copy, Pack)
            else (copy.image_id,)
        )
        ref.obfuscated = False
        ref.redirected = False
        ref.reuploaded = True
        counters.n_reuploads += 1


def _redirect_epoch(
    state: _DriftState,
    profile: DriftProfile,
    seed: int,
    epoch: int,
    refs: Dict[str, ContentRef],
    counters: EpochCounters,
    ledger: DriftLedger,
) -> None:
    internet = state.world.internet
    dataset = state.world.dataset
    minted_redirectors: Dict[int, str] = {}
    for key in sorted(refs):
        ref = refs[key]
        if ref.obfuscated or ref.redirected:
            continue
        if stable_uniform(seed, "redirect", str(epoch), key) >= profile.redirect_rate:
            continue
        hosted = internet.hosted(ref.target_url)
        if hosted is None or hosted.status is not FetchStatus.OK:
            continue
        u_hops = stable_uniform(seed, "redirect_hops", str(epoch), key)
        hops = 1 + int(u_hops * profile.max_redirect_hops) % profile.max_redirect_hops
        # One redirector domain per hop depth per epoch keeps the chain
        # population small and the whitelist problem realistic.
        chain_urls: List[Url] = []
        for hop in range(hops):
            domain = minted_redirectors.get(hop)
            if domain is None:
                domain = f"lnk-e{epoch}-h{hop}.net"
                internet.register_service(
                    HostingService(
                        name=f"lnk-e{epoch}-h{hop}",
                        domain=domain,
                        kind=ServiceKind.IMAGE_SHARING,
                        weight=10,
                        dead_link_rate=0.0,
                    )
                )
                minted_redirectors[hop] = domain
                ledger.minted_domains.append(domain)
            chain_urls.append(
                _mint_unique_url(
                    internet, domain, seed, "redirect", str(epoch), key, str(hop)
                )
            )
        target = normalize_url(ref.target_url)
        if target is None:  # pragma: no cover - refs always hold plain URLs
            continue
        for hop in range(hops - 1, -1, -1):
            next_url = target if hop == hops - 1 else chain_urls[hop + 1]
            internet.host_exact(
                chain_urls[hop],
                RedirectPage(target=next_url),
                uploaded_at=hosted.uploaded_at,
            )
            counters.n_redirect_pages += 1
        _rewrite_post_text(dataset, ref, str(chain_urls[0]))
        ref.redirected = True
        counters.n_redirects += 1


def _obfuscate_epoch(
    state: _DriftState,
    profile: DriftProfile,
    seed: int,
    epoch: int,
    refs: Dict[str, ContentRef],
    counters: EpochCounters,
) -> None:
    dataset = state.world.dataset
    for key in sorted(refs):
        ref = refs[key]
        if ref.obfuscated:
            continue
        if stable_uniform(seed, "obfuscate", str(epoch), key) >= profile.obfuscation_rate:
            continue
        parsed = normalize_url(ref.post_text)
        if parsed is None:
            continue
        u_style = stable_uniform(seed, "obf_style", str(epoch), key)
        style = OBFUSCATION_STYLES[int(u_style * len(OBFUSCATION_STYLES)) % len(OBFUSCATION_STYLES)]
        _rewrite_post_text(dataset, ref, obfuscate_url(parsed, style))
        ref.obfuscated = True
        counters.n_obfuscated += 1


def _migrate_epoch(
    state: _DriftState,
    profile: DriftProfile,
    seed: int,
    epoch: int,
    counters: EpochCounters,
    ledger: DriftLedger,
) -> None:
    world = state.world
    dataset = world.dataset
    top_ids = sorted(
        tid for tid, kind in world.forums.thread_types.items() if kind == "top"
    )
    boards = sorted(
        (board for board in dataset.boards() if not board.is_ewhoring_board),
        key=lambda board: board.board_id,
    )
    for thread_id in top_ids:
        if thread_id in state.migrated:
            continue
        if stable_uniform(seed, "migrate", str(epoch), str(thread_id)) >= profile.migration_rate:
            continue
        mode_draw = stable_uniform(seed, "migrate_mode", str(epoch), str(thread_id))
        heading = _slang_heading(seed, epoch, thread_id)
        if mode_draw < 0.5:
            # Vocabulary drift: stays findable by the §4.1 keyword
            # selection but the heading carries none of the pack
            # vocabulary the trained classifier relies on.
            dataset.retitle_thread(thread_id, f"{heading} (ewhoring)")
            state.migrated[thread_id] = "slang"
            counters.n_threads_retitled += 1
        else:
            # Full migration: the thread moves to a non-ewhoring board
            # (preferring another forum) and drops the keyword, leaving
            # the selection step blind until author rediscovery.
            thread = dataset.thread(thread_id)
            candidates = [
                board for board in boards if board.forum_id != thread.forum_id
            ] or boards
            if not candidates:
                continue
            pick = stable_uniform(seed, "migrate_board", str(epoch), str(thread_id))
            target = candidates[int(pick * len(candidates)) % len(candidates)]
            dataset.move_thread(thread_id, target.board_id)
            dataset.retitle_thread(thread_id, heading)
            state.migrated[thread_id] = "move"
            counters.n_threads_migrated += 1
        ledger.migrated_threads[thread_id] = state.migrated[thread_id]


def apply_drift(
    world, profile: DriftProfile, epoch: int, seed: int
) -> DriftLedger:
    """Apply epochs ``1..epoch`` of ``profile`` to a freshly built world.

    Mutates the world in place and returns the :class:`DriftLedger`
    (content tracking + per-epoch counters).  ``epoch=0`` or the
    ``none`` profile build the ledger but change nothing — the world
    stays bit-identical to one that never met the drift engine.
    """
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    seed = int(seed)
    ledger = DriftLedger(profile=profile, epoch=epoch, seed=seed)
    ledger.refs = _discover_refs(world)
    if epoch == 0 or profile.is_trivial:
        return ledger
    state = _DriftState(world)
    for current in range(1, epoch + 1):
        counters = EpochCounters(epoch=current)
        # Order matters within an epoch and is fixed: churn first (so
        # re-uploads can land on freshly minted hosts and avoid dead
        # ones), then re-uploads, then link laundering over whatever
        # URL now sits in the post, then heading drift.
        _churn_epoch(state, profile, seed, current, counters, ledger)
        _reupload_epoch(state, profile, seed, current, ledger.refs, counters)
        _redirect_epoch(state, profile, seed, current, ledger.refs, counters, ledger)
        _obfuscate_epoch(state, profile, seed, current, ledger.refs, counters)
        _migrate_epoch(state, profile, seed, current, counters, ledger)
        ledger.per_epoch.append(counters)
    return ledger
