"""Forum world generation: forums, boards, actors, threads, posts, packs.

The generator plans every forum's eWhoring activity — thread types,
authorship, reply flows, pack/preview/proof hosting — then emits a
consistent :class:`~repro.forum.dataset.ForumDataset`.  All published
marginals of Table 1 (threads, posts, actors, TOPs, first-post dates per
forum) are generation targets, scaled by ``scale``; actor behaviour comes
from :mod:`repro.synth.profiles`, image supply from
:mod:`repro.synth.models_gen`, money from
:mod:`repro.synth.earnings_gen`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..forum.dataset import ForumDataset
from ..forum.models import Actor, Board, Forum, Post, Thread
from ..media.image import ImageKind, SyntheticImage, sample_latent
from ..media.pack import Pack
from ..web.internet import FetchStatus, SimulatedInternet
from ..web.sites import (
    CLOUD_STORAGE_SERVICES,
    IMAGE_SHARING_SERVICES,
    HostingService,
)
from ..web.url import Url
from . import templates as T
from .earnings_gen import EarningsPlanner, ProofPlan
from .models_gen import SupplySide
from .profiles import INTEREST_CATEGORIES, ActorProfile, Archetype, sample_profile

__all__ = ["ForumSpec", "FORUM_SPECS", "ForumWorldGenerator", "GeneratedForums", "IdAllocator"]

#: Dataset time bounds (§3: 11/2008 – 03/2019).
DATASET_START = datetime(2008, 4, 1)
DATASET_END = datetime(2019, 3, 31)
_DATASET_START_US = np.datetime64(DATASET_START, "us")
_MICROSECOND = timedelta(microseconds=1)

#: Fraction of TOPs whose opener contains extractable links (§4.2: 774 of
#: 4 137 = 18.7%); the rest gate the link behind replies or payment.
TOP_LINK_RATE = 0.187

#: Probability a shared pack is an evasion pack (mirrored images ⇒
#: zero-match in reverse search; §4.5 finds 203 / 1 255 such packs).
PACK_EVASION_RATE = 0.14

#: Probability a TOP re-shares an existing pack instead of compiling one.
PACK_RESHARE_RATE = 0.18

#: Fraction of eWhoring headings written in leet-speak / stretched form
#: (the §4.1 noisy-text limitation; the A4 ablation measures the cost).
HEADING_CORRUPTION_RATE = 0.08

#: Posts per thread on the other (non-eWhoring) boards.
_OTHER_THREAD_POSTS = 8


@dataclass(frozen=True, slots=True)
class ForumSpec:
    """Full-scale Table 1 targets for one forum."""

    name: str
    n_threads: int
    n_posts: int
    n_actors: int
    n_tops: int
    first_post: Tuple[int, int]  # (year, month)
    has_ewhoring_board: bool = False
    bans_ewhoring: bool = False
    account_trading: bool = False


#: Table 1, verbatim ("Others (4)" split into four small forums).
FORUM_SPECS: Tuple[ForumSpec, ...] = (
    ForumSpec("Hackforums", 42_292, 596_827, 64_035, 4_027, (2008, 11),
              has_ewhoring_board=True),
    ForumSpec("OGUsers", 1_744, 23_974, 5_586, 76, (2017, 4), account_trading=True),
    ForumSpec("BlackHatWorld", 258, 2_694, 1_420, 0, (2008, 4), bans_ewhoring=True),
    ForumSpec("V3rmillion", 95, 1_348, 697, 6, (2016, 2)),
    ForumSpec("MPGH", 62, 922, 341, 12, (2012, 7)),
    ForumSpec("RaidForums", 48, 405, 318, 10, (2015, 3)),
    ForumSpec("DarkestNet", 6, 160, 150, 2, (2015, 5)),
    ForumSpec("LeakLounge", 6, 170, 160, 2, (2015, 8)),
    ForumSpec("CrackSpot", 5, 150, 140, 1, (2016, 1)),
    ForumSpec("NullBay", 4, 134, 135, 1, (2016, 6)),
)


class IdAllocator:
    """Monotonic id source shared across the world build."""

    def __init__(self, start: int = 1):
        self._counter = itertools.count(start)

    def next(self) -> int:
        return next(self._counter)

    def take(self, n: int) -> List[int]:
        return list(itertools.islice(self._counter, n))


# ----------------------------------------------------------------------
# Plan records (pre-emission representations)
# ----------------------------------------------------------------------

@dataclass
class GenActor:
    """One planned actor.

    ``win_start``/``win_end`` bound the actor's eWhoring involvement: all
    their eWhoring posts fall inside this window, so the Table 8
    before/after spans and the Figure 4 CDFs have the right structure
    (actors join, are active for a while, then move on).
    """

    actor_id: int
    forum_id: int
    username: str
    profile: ActorProfile
    win_start: datetime = DATASET_START
    win_end: datetime = DATASET_END
    #: Post budget within this forum (the global activity curve scaled by
    #: the forum's posts-per-actor ratio from Table 1).
    budget: int = 1
    first_ewhoring: Optional[datetime] = None
    last_ewhoring: Optional[datetime] = None


@dataclass
class ReplyPlan:
    author_id: int
    created_at: datetime
    content: str
    #: Index (position) of the quoted post within the thread, or None.
    quote_position: Optional[int] = None


@dataclass
class ThreadPlan:
    thread_id: int
    forum_id: int
    board_id: int
    thread_type: str
    heading: str
    author_id: int
    created_at: datetime
    opener: str
    replies: List[ReplyPlan] = field(default_factory=list)
    #: Relative pull on repliers; reply counts emerge from attractiveness
    #: times the audience active at the thread's date (heavy-tailed).
    attractiveness: float = 1.0


@dataclass
class GeneratedForums:
    """The forum generator's ground truth (its dataset goes to the
    :class:`~repro.synth.world.World` on its own)."""

    actors: Dict[int, GenActor]
    #: Ground-truth thread types: thread_id -> type string
    #: ("top", "request", "tutorial", "earnings", "discussion",
    #:  "account_trade", "ce", "other").
    thread_types: Dict[int, str]
    packs: Dict[int, Pack]
    #: pack_id -> URLs it was hosted at.
    pack_urls: Dict[int, List[Url]]
    #: preview image id -> (source pack id, url).
    preview_sources: Dict[int, Tuple[int, Url]]
    #: proof ground truth: image id -> ProofPlan.
    proof_truth: Dict[int, ProofPlan]
    #: image ids of earnings-link images that are NOT proofs.
    non_proof_earning_images: Set[int]
    #: thread ids on the Currency Exchange board.
    ce_thread_ids: List[int]
    #: actor ids who shared at least one pack.
    pack_sharer_ids: Set[int]
    #: actor ids who posted proof-of-earnings.
    earner_ids: Set[int]


# ----------------------------------------------------------------------
# Helper samplers
# ----------------------------------------------------------------------

def _service_sampler(
    rng: np.random.Generator, services: Sequence[HostingService]
):
    weights = np.array([s.weight for s in services], dtype=np.float64)
    weights /= weights.sum()

    def sample() -> HostingService:
        return services[int(rng.choice(len(services), p=weights))]

    return sample


def _ramp_date(rng: np.random.Generator, start: datetime, end: datetime) -> datetime:
    """Sample a date with linearly increasing density (forum growth)."""
    span = (end - start).total_seconds()
    u = float(np.sqrt(rng.random()))  # CDF of a linear ramp
    return start + timedelta(seconds=u * span)


def _reply_schedule(
    rng: np.random.Generator, created_at: datetime, n_replies: int
) -> List[datetime]:
    """Reply timestamps: bursty at first, long tail afterwards.

    Replies that would land beyond the dataset's crawl date are dropped
    (not clamped): the scrape simply never saw them, and clamping would
    pile an artificial spike onto the final month.
    """
    if n_replies == 0:
        return []
    gaps = rng.exponential(2.0, size=n_replies)  # days
    gaps[0] = rng.exponential(0.25)
    times = np.cumsum(gaps)
    stamps = [created_at + timedelta(days=float(t)) for t in times]
    return [s for s in stamps if s <= DATASET_END]


# ----------------------------------------------------------------------
# Generator
# ----------------------------------------------------------------------

class ForumWorldGenerator:
    """Plans and emits the whole multi-forum dataset."""

    def __init__(
        self,
        rng: np.random.Generator,
        supply: SupplySide,
        internet: SimulatedInternet,
        ids: IdAllocator,
        scale: float = 0.05,
        with_other_activity: bool = True,
    ):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.rng = rng
        self.supply = supply
        self.internet = internet
        self.ids = ids
        self.scale = scale
        self.with_other_activity = with_other_activity
        self.earnings = EarningsPlanner(rng)

        self._image_service = _service_sampler(rng, IMAGE_SHARING_SERVICES)
        self._cloud_service = _service_sampler(rng, CLOUD_STORAGE_SERVICES)

        # Model popularity for pack compilation: Zipf over models.
        ranks = np.arange(1, len(supply.models) + 1, dtype=np.float64)
        self._model_weights = 1.0 / ranks**0.8
        self._model_weights /= self._model_weights.sum()

        # Outputs.  Records are collected in emission order and loaded
        # into the dataset in one bulk pass at the end.
        self._records: Dict[str, list] = {
            "forums": [], "boards": [], "actors": [], "threads": [], "posts": [],
        }
        self.actors: Dict[int, GenActor] = {}
        self.thread_types: Dict[int, str] = {}
        self.packs: Dict[int, Pack] = {}
        self.pack_urls: Dict[int, List[Url]] = {}
        self.preview_sources: Dict[int, Tuple[int, Url]] = {}
        self.proof_truth: Dict[int, ProofPlan] = {}
        self.non_proof_earning_images: Set[int] = set()
        self.ce_thread_ids: List[int] = []
        self.pack_sharer_ids: Set[int] = set()
        self.earner_ids: Set[int] = set()
        self._pack_counter = itertools.count(1)
        self._reshare_pool: List[Pack] = []

    # ------------------------------------------------------------------
    def generate(self) -> Tuple[ForumDataset, GeneratedForums]:
        """Generate every forum; returns the dataset and its ground truth.

        The truth holds no reference to the dataset, so an epoch slice
        that replaces ``World.dataset`` leaves the full timeline garbage.
        """
        for spec in FORUM_SPECS:
            self._generate_forum(spec)
        dataset = ForumDataset.from_sorted_records(**self._records)
        return dataset, GeneratedForums(
            actors=self.actors,
            thread_types=self.thread_types,
            packs=self.packs,
            pack_urls=self.pack_urls,
            preview_sources=self.preview_sources,
            proof_truth=self.proof_truth,
            non_proof_earning_images=self.non_proof_earning_images,
            ce_thread_ids=self.ce_thread_ids,
            pack_sharer_ids=self.pack_sharer_ids,
            earner_ids=self.earner_ids,
        )

    # ------------------------------------------------------------------
    def _scaled(self, value: int, minimum: int = 0) -> int:
        return max(minimum, int(round(value * self.scale)))

    def _generate_forum(self, spec: ForumSpec) -> None:
        rng = self.rng
        forum_id = self.ids.next()
        forum = Forum(
            forum_id=forum_id,
            name=spec.name,
            has_ewhoring_board=spec.has_ewhoring_board,
            bans_ewhoring=spec.bans_ewhoring,
        )
        self._records["forums"].append(forum)
        boards = self._make_boards(spec, forum_id)

        n_actors = self._scaled(spec.n_actors, minimum=8)
        n_threads = self._scaled(spec.n_threads, minimum=3)
        n_tops = min(self._scaled(spec.n_tops), n_threads)
        if spec.n_tops > 0 and n_tops == 0:
            n_tops = 1

        forum_start = datetime(spec.first_post[0], spec.first_post[1], 1)

        # --- actors -----------------------------------------------------
        gen_actors = self._make_actors(spec, forum_id, n_actors, forum_start)

        # --- eWhoring threads -------------------------------------------
        thread_plans = self._plan_ewhoring_threads(
            spec, forum_id, boards, gen_actors, n_threads, n_tops,
            forum_start,
        )
        self._assign_replies(gen_actors, thread_plans)
        self._set_ewhoring_windows(gen_actors, thread_plans)

        # --- earnings proofs (inserted into earnings threads) ------------
        self._plan_earnings(spec, gen_actors, thread_plans)

        # --- currency exchange / other boards ----------------------------
        ce_plans: List[ThreadPlan] = []
        other_activity: list = []
        if spec.has_ewhoring_board:
            ce_plans = self._plan_currency_exchange(forum_id, boards, gen_actors)
        if self.with_other_activity:
            other_activity = self._plan_other_activity(boards, gen_actors, forum_start)

        # --- emission -----------------------------------------------------
        self._emit_actors(gen_actors, forum_start)
        for plan in itertools.chain(thread_plans, ce_plans):
            self._emit_thread(plan)
        self._emit_other_activity(forum_id, other_activity)

    # ------------------------------------------------------------------
    def _make_boards(self, spec: ForumSpec, forum_id: int) -> Dict[str, Board]:
        boards: Dict[str, Board] = {}

        def add(key: str, name: str, category: Optional[str], **flags) -> None:
            board = Board(
                board_id=self.ids.next(),
                forum_id=forum_id,
                name=name,
                category=category,
                **flags,
            )
            self._records["boards"].append(board)
            boards[key] = board

        for category in INTEREST_CATEGORIES:
            add(category, f"{category} Discussion", category)
        if spec.has_ewhoring_board:
            add("ewhoring", "eWhoring", "Market", is_ewhoring_board=True)
            add("ce", "Currency Exchange", "Market", is_currency_exchange=True)
            add("bragging", "Bragging Rights", "Common", is_bragging_board=True)
        return boards

    #: Mean eWhoring-involvement span in days per archetype.
    _WINDOW_SPAN_MEAN = {
        Archetype.LURKER: 25.0,
        Archetype.CASUAL: 130.0,
        Archetype.ACTIVE: 420.0,
        Archetype.HEAVY: 900.0,
        Archetype.ELITE: 1500.0,
    }

    def _make_actors(
        self, spec: ForumSpec, forum_id: int, n_actors: int, forum_start: datetime
    ) -> List[GenActor]:
        rng = self.rng
        # Per-forum activity factor: Table 1's posts-per-actor ratio over
        # the global curve's mean (~8.6) — small forums host drive-by
        # posters, Hackforums the regulars.
        forum_factor = spec.n_posts / (spec.n_actors * 8.6)
        actors: List[GenActor] = []
        for _ in range(n_actors):
            profile = sample_profile(rng)
            actor_id = self.ids.next()
            username = f"{T.choose(rng, T.GIRL_NAMES).lower()}_{spec.name[:2].lower()}{actor_id}"
            start = _ramp_date(rng, forum_start, DATASET_END)
            span_days = float(
                rng.exponential(self._WINDOW_SPAN_MEAN[profile.archetype])
            ) + 3.0
            end = min(start + timedelta(days=span_days), DATASET_END)
            if end <= start:
                end = min(start + timedelta(days=3), DATASET_END)
                start = end - timedelta(days=3)
            actors.append(
                GenActor(
                    actor_id=actor_id,
                    forum_id=forum_id,
                    username=username,
                    profile=profile,
                    win_start=start,
                    win_end=end,
                    budget=max(1, int(round(profile.ewhoring_posts * forum_factor))),
                )
            )
        return actors

    # ------------------------------------------------------------------
    # eWhoring thread planning
    # ------------------------------------------------------------------
    def _plan_ewhoring_threads(
        self,
        spec: ForumSpec,
        forum_id: int,
        boards: Dict[str, Board],
        gen_actors: List[GenActor],
        n_threads: int,
        n_tops: int,
        forum_start: datetime,
    ) -> List[ThreadPlan]:
        rng = self.rng
        board = boards["ewhoring"] if spec.has_ewhoring_board else boards["Market"]

        sharers = [a for a in gen_actors if a.profile.shares_packs]
        actives = [a for a in gen_actors
                   if a.profile.archetype in (Archetype.ACTIVE, Archetype.HEAVY, Archetype.ELITE)]
        casuals = [a for a in gen_actors
                   if a.profile.archetype in (Archetype.LURKER, Archetype.CASUAL)]
        if not sharers:
            sharers = gen_actors[:1]
        if not actives:
            actives = gen_actors[:1]
        if not casuals:
            casuals = gen_actors

        # Expand sharers by their pack budget, then cycle to cover n_tops.
        top_authors: List[GenActor] = []
        for sharer in sharers:
            top_authors.extend([sharer] * max(sharer.profile.n_packs_shared, 1))
        rng.shuffle(top_authors)  # type: ignore[arg-type]
        if len(top_authors) < n_tops:
            top_authors = list(
                itertools.islice(itertools.cycle(top_authors or gen_actors), n_tops)
            )

        n_rest = n_threads - n_tops
        type_sequence = ["top"] * n_tops
        if spec.account_trading:
            mix = [("account_trade", 0.55), ("request", 0.15),
                   ("discussion", 0.20), ("tutorial", 0.05), ("earnings", 0.05)]
        elif spec.bans_ewhoring:
            mix = [("discussion", 0.55), ("tutorial", 0.20), ("request", 0.25)]
        else:
            mix = [("request", 0.24), ("tutorial", 0.10),
                   ("earnings", 0.08), ("discussion", 0.58)]
        names = [name for name, _ in mix]
        weights = np.array([w for _, w in mix])
        weights /= weights.sum()
        type_sequence.extend(
            names[i] for i in rng.choice(len(names), size=n_rest, p=weights)
        )

        plans: List[ThreadPlan] = []
        top_author_iter = iter(top_authors)
        for thread_type in type_sequence:
            if thread_type == "top":
                author = next(top_author_iter)
                created_at = self._date_in_window(author)
                plan = self._plan_top_thread(spec, forum_id, board, author, created_at)
            else:
                author = self._pick_author(thread_type, actives, casuals, gen_actors)
                created_at = self._date_in_window(author)
                heading, opener = self._render_thread_text(spec, thread_type)
                thread_board = board
                if (
                    thread_type == "earnings"
                    and "bragging" in boards
                    and rng.random() < 0.4
                ):
                    # Part of the earnings bragging happens on the
                    # dedicated Bragging Rights board (§5.1).
                    thread_board = boards["bragging"]
                plan = ThreadPlan(
                    thread_id=self.ids.next(),
                    forum_id=forum_id,
                    board_id=thread_board.board_id,
                    thread_type=thread_type,
                    heading=heading,
                    author_id=author.actor_id,
                    created_at=created_at,
                    opener=opener,
                )
            multiplier = {"top": 4.0, "earnings": 1.8}.get(thread_type, 1.0)
            plan.attractiveness = float(rng.lognormal(0.0, 1.2)) * multiplier
            plans.append(plan)
            self.thread_types[plan.thread_id] = thread_type
        return plans

    def _date_in_window(self, actor: GenActor) -> datetime:
        """A date within the actor's involvement window."""
        span = (actor.win_end - actor.win_start).total_seconds()
        return actor.win_start + timedelta(seconds=float(self.rng.random()) * span)

    def _pick_author(
        self,
        thread_type: str,
        actives: List[GenActor],
        casuals: List[GenActor],
        everyone: List[GenActor],
    ) -> GenActor:
        rng = self.rng
        if thread_type in ("tutorial", "earnings"):
            pool = actives
        elif thread_type == "request":
            pool = casuals
        else:
            pool = everyone
        return pool[int(rng.integers(0, len(pool)))]

    def _render_thread_text(self, spec: ForumSpec, thread_type: str) -> Tuple[str, str]:
        rng = self.rng
        needs_keyword = not spec.has_ewhoring_board
        pools = {
            "request": (T.REQUEST_HEADINGS, T.REQUEST_HARD_HEADINGS, 0.015),
            "tutorial": (T.TUTORIAL_HEADINGS, (), 0.0),
            "earnings": (T.EARNINGS_HEADINGS, (), 0.0),
            "discussion": (T.DISCUSSION_HEADINGS, T.DISCUSSION_HARD_HEADINGS, 0.012),
            "account_trade": (T.ACCOUNT_TRADE_HEADINGS, (), 0.0),
        }
        if spec.bans_ewhoring:
            common, rare, p_rare = T.BHW_HEADINGS, (), 0.0
        else:
            common, rare, p_rare = pools[thread_type]
        heading = T.render_template(rng, T.choose_mixed(rng, common, rare, p_rare))
        if rng.random() < HEADING_CORRUPTION_RATE:
            heading = T.corrupt_heading(rng, heading)
        if needs_keyword and "ewhor" not in heading.lower() and "e-whor" not in heading.lower():
            heading = f"{heading} (ewhoring)"
        opener = T.render_template(rng, T.choose(rng, T.REPLY_BODIES))
        if thread_type == "earnings":
            opener = "Post your proof screenshots below, let's compare earnings."
        return heading, opener

    # ------------------------------------------------------------------
    # TOP threads: packs, previews, hosting
    # ------------------------------------------------------------------
    def _plan_top_thread(
        self,
        spec: ForumSpec,
        forum_id: int,
        board: Board,
        author: GenActor,
        created_at: datetime,
    ) -> ThreadPlan:
        rng = self.rng
        self.pack_sharer_ids.add(author.actor_id)
        pack = self._obtain_pack(author, created_at)
        heading = T.render_template(
            rng, T.choose_mixed(rng, T.TOP_HEADINGS, T.TOP_HARD_HEADINGS, 0.10)
        )
        if rng.random() < HEADING_CORRUPTION_RATE:
            heading = T.corrupt_heading(rng, heading)
        if not spec.has_ewhoring_board and "ewhor" not in heading.lower():
            heading = f"[ewhoring] {heading}"

        # Only a minority of TOPs carry extractable links (§4.2: 18.7%);
        # the rest gate previews and packs behind replies or payment, so
        # nothing is hosted for them.
        with_links = rng.random() < TOP_LINK_RATE
        if with_links:
            preview_urls = self._host_previews(pack, created_at)
            pack_urls = self._host_pack(pack, created_at)
            # Big sharers dump several sets/mirrors per thread (the paper
            # downloads 1 255 packs from 774 link-bearing threads).
            for _ in range(int(rng.poisson(0.6))):
                extra = self._obtain_pack(author, created_at)
                pack_urls.extend(self._host_pack(extra, created_at))
            opener_template = T.choose(rng, T.TOP_OPENERS)
            opener = T.render_template(
                rng,
                opener_template,
                previews=" ".join(str(u) for u in preview_urls),
                packlink=" ".join(str(u) for u in pack_urls),
            )
        else:
            opener_template = T.choose(rng, T.TOP_OPENERS_GATED)
            opener = T.render_template(rng, opener_template, previews="")
        return ThreadPlan(
            thread_id=self.ids.next(),
            forum_id=forum_id,
            board_id=board.board_id,
            thread_type="top",
            heading=heading,
            author_id=author.actor_id,
            created_at=created_at,
            opener=opener,
        )

    def _obtain_pack(self, author: GenActor, when: datetime) -> Pack:
        rng = self.rng
        if self._reshare_pool and rng.random() < PACK_RESHARE_RATE:
            pack = self._reshare_pool[int(rng.integers(0, len(self._reshare_pool)))]
            return pack

        model_index = int(rng.choice(len(self.supply.models), p=self._model_weights))
        model = self.supply.models[model_index]
        n_images = int(min(max(float(rng.lognormal(4.31, 0.6)), 8.0), 400.0))
        pool = model.pool
        if n_images >= len(pool):
            chosen = list(pool)
        else:
            indices = rng.choice(len(pool), size=n_images, replace=False)
            chosen = [pool[int(i)] for i in indices]

        evading = rng.random() < PACK_EVASION_RATE
        if evading:
            images = []
            for circulating in chosen:
                latent = circulating.image.latent.with_transform("mirror")
                images.append(SyntheticImage(self.ids.next(), latent))
            evasion = ("mirror",)
        else:
            images = [c.image for c in chosen]
            evasion = ()

        pack = Pack(
            pack_id=next(self._pack_counter),
            model_id=model.model_id,
            images=images,
            compiler_actor_id=author.actor_id,
            saturated=not evading,
            evasion=evasion,
        )
        self.packs[pack.pack_id] = pack
        self._reshare_pool.append(pack)
        return pack

    def _host_pack(self, pack: Pack, when: datetime) -> List[Url]:
        rng = self.rng
        n_links = 1 + int(rng.poisson(1.1))
        urls: List[Url] = []
        for _ in range(n_links):
            service = self._cloud_service()
            url = self.internet.host_on_service(service, pack, when, contains_nudity=True)
            urls.append(url)
        self.pack_urls.setdefault(pack.pack_id, []).extend(urls)
        return urls

    def _host_previews(self, pack: Pack, when: datetime) -> List[Url]:
        rng = self.rng
        n_previews = 1 + int(rng.poisson(8.4))
        urls: List[Url] = []
        for _ in range(n_previews):
            service = self._image_service()
            roll = rng.random()
            if roll < 0.06:
                # A screenshot of the pack's directory listing (§4.4).
                latent = sample_latent(rng, ImageKind.DIRECTORY_THUMB)
                image = SyntheticImage(self.ids.next(), latent)
            else:
                source = pack.images[int(rng.integers(0, len(pack.images)))]
                transform = self._preview_transform(roll)
                if transform is None:
                    latent = source.latent
                else:
                    latent = source.latent.with_transform(transform)
                image = SyntheticImage(self.ids.next(), latent)
            url = self.internet.host_on_service(service, image, when, contains_nudity=True)
            hosted = self.internet.hosted(url)
            assert hosted is not None
            if hosted.status is FetchStatus.REMOVED_TOS:
                # Image hosts serve an error *image* for removed content,
                # which the crawler downloads (§4.4 observes these).
                banner = SyntheticImage(
                    self.ids.next(), sample_latent(rng, ImageKind.ERROR_BANNER)
                )
                hosted.resource = banner
                hosted.status = FetchStatus.OK
            self.preview_sources[image.image_id] = (pack.pack_id, url)
            urls.append(url)
        return urls

    @staticmethod
    def _preview_transform(roll: float) -> Optional[str]:
        """Transform mix for previews (actors brand/evade; §4.5)."""
        if roll < 0.40:
            return None
        if roll < 0.66:
            return "watermark"
        if roll < 0.84:
            return "shadow"
        return "mirror"

    # ------------------------------------------------------------------
    # Reply assignment and actor windows
    # ------------------------------------------------------------------
    #: Hard cap on replies per thread (forum software paginates; the
    #: biggest sticky threads top out around a thousand replies).
    _MAX_REPLIES = 1000

    def _assign_replies(
        self,
        gen_actors: List[GenActor],
        plans: List[ThreadPlan],
    ) -> None:
        """Distribute each actor's post budget over threads in their window.

        Every actor spends their budget on threads created while they
        were involved, drawn proportionally to thread attractiveness.
        Reply counts per thread therefore emerge as (attractiveness ×
        audience at that date) — heavy-tailed, with popular TOPs largest,
        and each actor's eWhoring activity confined to their window.
        """
        rng = self.rng
        if not plans:
            return
        order = sorted(range(len(plans)), key=lambda i: plans[i].created_at)
        sorted_plans = [plans[i] for i in order]
        dates = np.array([p.created_at.timestamp() for p in sorted_plans])
        attract = np.array([p.attractiveness for p in sorted_plans], dtype=np.float64)
        cumulative = np.cumsum(attract)

        assigned: List[List[int]] = [[] for _ in sorted_plans]
        n_plans = len(sorted_plans)
        for actor in gen_actors:
            i0 = int(np.searchsorted(dates, actor.win_start.timestamp(), side="left"))
            i1 = int(np.searchsorted(dates, actor.win_end.timestamp(), side="right"))
            if i1 <= i0:
                # Nothing created during the window: post in the threads
                # nearest in time instead of not at all.
                i1 = min(n_plans, i0 + 3)
                i0 = max(0, i1 - 3)
            base = cumulative[i0 - 1] if i0 > 0 else 0.0
            total = cumulative[i1 - 1] - base
            if total <= 0.0:
                continue
            draws = rng.random(actor.budget) * total + base
            picks = np.searchsorted(cumulative, draws, side="left")
            for pick in picks:
                assigned[int(pick)].append(actor.actor_id)

        for plan, author_ids in zip(sorted_plans, assigned):
            if len(author_ids) > self._MAX_REPLIES:
                author_ids = author_ids[: self._MAX_REPLIES]
            rng.shuffle(author_ids)  # type: ignore[arg-type]
            stamps = _reply_schedule(rng, plan.created_at, len(author_ids))
            n = len(stamps)
            pool = T.TOP_REPLY_BODIES if plan.thread_type == "top" else T.REPLY_BODIES
            # A quarter of the replies after the first quote an earlier
            # post (positions 0..index), drawn for the thread at once.
            quoting, picks = rng.random((2, n))
            quotes = (picks * np.arange(1, n + 1)).astype(np.int64).tolist()
            plan.replies = [
                ReplyPlan(
                    author_id=author_id,
                    created_at=stamp,
                    content=content,
                    quote_position=quote if index and roll < 0.25 else None,
                )
                for index, (author_id, stamp, content, roll, quote) in enumerate(
                    zip(author_ids, stamps, T.choose_many(rng, pool, n),
                        quoting.tolist(), quotes)
                )
            ]

    def _set_ewhoring_windows(
        self, gen_actors: List[GenActor], plans: List[ThreadPlan]
    ) -> None:
        by_id = {a.actor_id: a for a in gen_actors}
        for plan in plans:
            self._touch_window(by_id.get(plan.author_id), plan.created_at)
            for reply in plan.replies:
                self._touch_window(by_id.get(reply.author_id), reply.created_at)
        # Actors with no eWhoring activity at this scale still need a
        # window for the other-activity planner: give them a token one.
        for actor in gen_actors:
            if actor.first_ewhoring is None:
                midpoint = DATASET_START + (DATASET_END - DATASET_START) / 2
                actor.first_ewhoring = midpoint
                actor.last_ewhoring = midpoint

    @staticmethod
    def _touch_window(actor: Optional[GenActor], when: datetime) -> None:
        if actor is None:
            return
        if actor.first_ewhoring is None or when < actor.first_ewhoring:
            actor.first_ewhoring = when
        if actor.last_ewhoring is None or when > actor.last_ewhoring:
            actor.last_ewhoring = when

    # ------------------------------------------------------------------
    # Earnings
    # ------------------------------------------------------------------
    def _plan_earnings(
        self,
        spec: ForumSpec,
        gen_actors: List[GenActor],
        plans: List[ThreadPlan],
    ) -> None:
        rng = self.rng
        earnings_threads = [p for p in plans if p.thread_type == "earnings"]
        if not earnings_threads:
            return
        earners = [a for a in gen_actors if a.profile.posts_earnings]
        for actor in earners:
            self.earner_ids.add(actor.actor_id)
            window = (actor.first_ewhoring or DATASET_START,
                      actor.last_ewhoring or DATASET_END)
            proofs = self.earnings.plan_actor_proofs(actor.profile, window)
            for proof in proofs:
                url, image_id, is_proof = self._host_earning_image(proof)
                if image_id is not None:
                    if is_proof:
                        self.proof_truth[image_id] = proof
                    else:
                        self.non_proof_earning_images.add(image_id)
                # Post into an earnings thread that already exists at the
                # proof's date, so the posted_at timeline matches the
                # platform era (Figure 3 depends on this coherence).
                candidates = [
                    t for t in earnings_threads if t.created_at <= proof.date
                ]
                if not candidates:
                    candidates = earnings_threads
                thread = candidates[int(rng.integers(0, len(candidates)))]
                body_pool = (
                    T.PROOF_MENTION_BODIES if rng.random() < 0.3 else T.EARNINGS_POST_BODIES
                )
                content = T.render_template(
                    rng,
                    T.choose(rng, body_pool),
                    url=str(url),
                    amount=f"${proof.total_in_currency:,.0f}",
                )
                thread.replies.append(
                    ReplyPlan(
                        author_id=actor.actor_id,
                        created_at=min(max(proof.date, thread.created_at), DATASET_END),
                        content=content,
                    )
                )

    def _host_earning_image(
        self, proof: ProofPlan
    ) -> Tuple[Url, Optional[int], bool]:
        """Host the image behind one earnings link.

        Most links point to genuine proof screenshots; some to chat
        screenshots or banners (the 199 non-proofs of §5.1); a few to
        indecent pack previews that the NSFV filter must catch.
        """
        rng = self.rng
        roll = rng.random()
        if roll < 0.79:
            latent = sample_latent(rng, ImageKind.PROOF_SCREENSHOT)
            is_proof = True
        elif roll < 0.875:
            kind = ImageKind.CHAT_SCREENSHOT if rng.random() < 0.8 else ImageKind.ERROR_BANNER
            latent = sample_latent(rng, kind)
            is_proof = False
        else:
            # An indecent image slipped into an earnings thread.
            model = self.supply.models[int(rng.integers(0, len(self.supply.models)))]
            source = model.pool[int(rng.integers(0, len(model.pool)))]
            latent = source.image.latent
            is_proof = False
        image = SyntheticImage(self.ids.next(), latent)
        service = self._image_service()
        url = self.internet.host_on_service(
            service, image, proof.date, contains_nudity=latent.kind.is_nude
        )
        hosted = self.internet.hosted(url)
        assert hosted is not None
        if hosted.status is not FetchStatus.OK:
            return url, None, False
        return url, image.image_id, is_proof

    # ------------------------------------------------------------------
    # Currency Exchange
    # ------------------------------------------------------------------

    #: Joint (offered, wanted) weights calibrated to Table 7 marginals.
    _CE_JOINT: Tuple[Tuple[str, str, float], ...] = (
        ("PayPal", "BTC", 0.300),
        ("PayPal", "?", 0.055),
        ("PayPal", "AGC", 0.018),
        ("PayPal", "others", 0.020),
        ("PayPal", "PayPal", 0.015),
        ("BTC", "PayPal", 0.230),
        ("BTC", "?", 0.040),
        ("BTC", "others", 0.018),
        ("BTC", "AGC", 0.014),
        ("AGC", "BTC", 0.105),
        ("AGC", "PayPal", 0.050),
        ("AGC", "?", 0.010),
        ("?", "?", 0.062),
        ("?", "BTC", 0.018),
        ("?", "PayPal", 0.012),
        ("others", "PayPal", 0.012),
        ("others", "BTC", 0.014),
        ("others", "?", 0.007),
    )

    _CE_ALIASES: Dict[str, Tuple[str, ...]] = {
        "PayPal": ("PayPal", "pp", "Paypal $%d" , "PP"),
        "BTC": ("BTC", "bitcoin", "Btc", "$%d BTC"),
        "AGC": ("Amazon GC", "AGC", "amazon gift card", "$%d amazon"),
        "others": ("Skrill", "LTC", "WU", "paysafecard", "steam"),
    }

    def _plan_currency_exchange(
        self, forum_id: int, boards: Dict[str, Board], gen_actors: List[GenActor]
    ) -> List[ThreadPlan]:
        rng = self.rng
        board = boards["ce"]
        joint = self._CE_JOINT
        weights = np.array([w for _, _, w in joint], dtype=np.float64)
        weights /= weights.sum()

        plans: List[ThreadPlan] = []
        for author_index, actor in enumerate(gen_actors):
            if not actor.profile.uses_currency_exchange:
                continue
            start = actor.first_ewhoring or DATASET_START
            end = min(
                (actor.last_ewhoring or DATASET_END)
                + timedelta(days=actor.profile.days_after),
                DATASET_END,
            )
            if end <= start:
                end = min(start + timedelta(days=30), DATASET_END)
            for _ in range(actor.profile.n_ce_threads):
                offered, wanted, _ = joint[int(rng.choice(len(joint), p=weights))]
                heading = self._ce_heading(offered, wanted)
                created_at = start + (end - start) * float(rng.random())
                plan = ThreadPlan(
                    thread_id=self.ids.next(),
                    forum_id=forum_id,
                    board_id=board.board_id,
                    thread_type="ce",
                    heading=heading,
                    author_id=actor.actor_id,
                    created_at=created_at,
                    opener=T.choose(rng, T.REPLY_BODIES),
                )
                n_replies = int(rng.poisson(1.2))
                for stamp in _reply_schedule(rng, created_at, n_replies):
                    # Anyone but the author: an index among the others,
                    # stepped over the author's own position.
                    other = int(rng.integers(0, len(gen_actors) - 1))
                    other += other >= author_index
                    plan.replies.append(
                        ReplyPlan(
                            author_id=gen_actors[other].actor_id,
                            created_at=stamp,
                            content=T.choose(rng, T.REPLY_BODIES),
                        )
                    )
                plans.append(plan)
                self.ce_thread_ids.append(plan.thread_id)
                self.thread_types[plan.thread_id] = "ce"
        return plans

    def _ce_heading(self, offered: str, wanted: str) -> str:
        rng = self.rng
        if offered == "?" and wanted == "?":
            return T.choose(rng, T.CE_FALLBACK_HEADINGS)

        def render(bucket: str) -> str:
            if bucket == "?":
                return T.choose(rng, ("rare items", "offers", "anything good"))
            alias = T.choose(rng, self._CE_ALIASES[bucket])
            if "%d" in alias:
                return alias % int(rng.integers(10, 500))
            return alias

        return f"[H] {render(offered)} [W] {render(wanted)}"

    # ------------------------------------------------------------------
    # Other-board activity
    # ------------------------------------------------------------------
    def _plan_other_activity(
        self,
        boards: Dict[str, Board],
        gen_actors: List[GenActor],
        forum_start: datetime,
    ) -> list:
        """Per category ``(board id, [(thread id, heading)], authors, dates,
        bodies)``, posts in date order, for :meth:`_emit_other_activity`
        to emit as records with no plan object per thread or post."""
        rng = self.rng
        # Date every actor's posts on other boards and pick each one's
        # category, in one block draw per actor and phase, then pack each
        # category's posts, in date order, into threads of ~8 posts.
        # Dates are microseconds since DATASET_START, and authors indices
        # into ``gen_actors``, until the packing.
        segments = []  # (actor index, category mix, posts, start, span)
        phase_split = (("before", 0.30), ("during", 0.45), ("after", 0.25))
        floor = DATASET_START - timedelta(days=365)
        for actor_index, actor in enumerate(gen_actors):
            profile = actor.profile
            if profile.other_posts <= 0:
                continue
            first = actor.first_ewhoring or forum_start
            last = actor.last_ewhoring or first
            windows = {
                "before": (first - timedelta(days=max(profile.days_before, 1.0)), first),
                "during": (first, max(last, first + timedelta(days=1))),
                "after": (last, last + timedelta(days=max(profile.days_after, 1.0))),
            }
            for phase, share in phase_split:
                n_phase = int(round(profile.other_posts * share))
                if n_phase == 0:
                    continue
                lo, hi = windows[phase]
                lo = max(lo, floor)
                hi = min(max(hi, lo + timedelta(days=1)), DATASET_END)
                segments.append((
                    actor_index, profile.interests[phase], n_phase,
                    (lo - DATASET_START) // _MICROSECOND, (hi - lo) // _MICROSECOND,
                ))
        if not segments:
            return []
        n_posts = sum(segment[2] for segment in segments)
        category_of = np.empty(n_posts, dtype=np.intp)
        stamp_of = np.empty(n_posts, dtype=np.int64)
        author_of = np.empty(n_posts, dtype=np.intp)
        start = 0
        for actor_index, mix, n_phase, lo, span in segments:
            stop = start + n_phase
            cdf = np.cumsum(mix)
            picks, offsets = rng.random((2, n_phase))
            category_of[start:stop] = np.searchsorted(cdf / cdf[-1], picks, side="right")
            stamp_of[start:stop] = lo + (offsets * span).astype(np.int64)
            author_of[start:stop] = actor_index
            start = stop

        planned = []
        for cat_index, category in enumerate(INTEREST_CATEGORIES):
            (posts,) = np.nonzero(category_of == cat_index)
            if not len(posts):
                continue
            posts = posts[np.argsort(stamp_of[posts], kind="stable")]
            dates = (_DATASET_START_US + stamp_of[posts].astype("timedelta64[us]")).tolist()
            # Each post refers to its actor's own id object, not a copy.
            post_authors = [gen_actors[i].actor_id for i in author_of[posts].tolist()]
            # Every post's body (openers included) in one draw.
            bodies = T.choose_many(rng, T.OTHER_BOARD_BODIES, len(posts))
            headings = [
                (self.ids.next(), T.render_template(rng, T.choose(rng, T.OTHER_BOARD_HEADINGS)))
                for _ in range(0, len(posts), _OTHER_THREAD_POSTS)
            ]
            self.thread_types.update((thread_id, "other") for thread_id, _ in headings)
            planned.append((boards[category].board_id, headings, post_authors, dates, bodies))
        return planned

    def _emit_other_activity(self, forum_id: int, planned: list) -> None:
        """Emit planned other-board threads; post ids are one block after every other thread's."""
        post_ids = iter(self.ids.take(sum(len(p[2]) for p in planned)))
        threads, posts = self._records["threads"], self._records["posts"]
        for board_id, headings, authors, dates, bodies in planned:
            for start, (thread_id, heading) in zip(itertools.count(0, _OTHER_THREAD_POSTS), headings):
                threads.append(Thread(thread_id, board_id, forum_id, authors[start], heading, dates[start]))
                stop = start + _OTHER_THREAD_POSTS
                rows = zip(authors[start:stop], dates[start:stop], bodies[start:stop])
                for position, (author_id, when, body) in enumerate(rows):
                    posts.append(Post(next(post_ids), thread_id, author_id, when, body, position))

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _emit_actors(self, gen_actors: List[GenActor], forum_start: datetime) -> None:
        for actor in gen_actors:
            first = actor.first_ewhoring or forum_start
            registered = first - timedelta(days=actor.profile.days_before + 1.0)
            registered = max(registered, DATASET_START - timedelta(days=730))
            self._records["actors"].append(
                Actor(
                    actor_id=actor.actor_id,
                    forum_id=actor.forum_id,
                    username=actor.username,
                    registered_at=registered,
                )
            )
            self.actors[actor.actor_id] = actor

    def _emit_thread(self, plan: ThreadPlan) -> None:
        self._records["threads"].append(
            Thread(
                thread_id=plan.thread_id,
                board_id=plan.board_id,
                forum_id=plan.forum_id,
                author_id=plan.author_id,
                heading=plan.heading,
                created_at=plan.created_at,
            )
        )
        replies = sorted(plan.replies, key=lambda r: r.created_at)
        post_ids = self.ids.take(len(replies) + 1)
        posts = self._records["posts"]
        posts.append(
            Post(
                post_id=post_ids[0],
                thread_id=plan.thread_id,
                author_id=plan.author_id,
                created_at=plan.created_at,
                content=plan.opener,
                position=0,
            )
        )
        for position, reply in enumerate(replies, start=1):
            quote = reply.quote_position
            posts.append(
                Post(
                    post_id=post_ids[position],
                    thread_id=plan.thread_id,
                    author_id=reply.author_id,
                    created_at=reply.created_at,
                    content=reply.content,
                    position=position,
                    quoted_post_id=(
                        None if quote is None else post_ids[min(quote, position - 1)]
                    ),
                )
            )
