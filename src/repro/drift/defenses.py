"""Adaptive defenses: how the instrument fights back against drift.

Each defense is a toggle in :class:`DefenseConfig`; the harness wires
the enabled ones into the pipeline between epochs:

* **retrain_classifier** — retrain the §4.1 hybrid on the current epoch's
  annotations instead of freezing the epoch-0 model (vocabulary drift);
* **author_watchlist** — rediscover migrated threads through the authors
  the instrument *itself* flagged at epoch 0 (no ground-truth leak);
* **refresh_whitelist** — re-run the §4.2 snowball against the live
  internet so churned-in hosts are discoverable;
* **deobfuscate_links** — normalise de-fanged URL spellings before
  regex extraction;
* **hash_radius_sweep** — recalibrate the perceptual-hash match radius
  on *synthetic* transform pairs (the A5 threshold-sweep machinery),
  widening tolerance just enough to absorb the profile's transform
  stacks without blowing the false-positive budget.

The radius sweep calibrates on latents sampled from its own seed — it
never peeks at hashlist or index contents, so the defense remains
deployable in the real setting the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Set

import numpy as np

from ..forum.query import ewhoring_threads
from ..media.image import ImageKind, sample_latent
from ..media.render import render_latent
from ..media.transforms import STACKED_EVASION_TRANSFORMS
from ..vision.photodna import hamming_distance, robust_hash
from ..core.url_extraction import WhitelistBuilder, extract_links
from .profiles import DriftProfile

__all__ = [
    "DefenseConfig",
    "RadiusCalibration",
    "apply_radius",
    "build_refreshed_link_extractor",
    "build_watchlist_selection",
    "sweep_hash_radius",
    "watchlist_from_report",
]


@dataclass(frozen=True, slots=True)
class DefenseConfig:
    """Which adaptive defenses the harness enables for a run."""

    retrain_classifier: bool = False
    author_watchlist: bool = False
    refresh_whitelist: bool = False
    deobfuscate_links: bool = False
    hash_radius_sweep: bool = False

    @classmethod
    def none(cls) -> "DefenseConfig":
        """The static instrument: measure once, never adapt."""
        return cls()

    @classmethod
    def full(cls) -> "DefenseConfig":
        """Every defense on (the adaptive instrument)."""
        return cls(
            retrain_classifier=True,
            author_watchlist=True,
            refresh_whitelist=True,
            deobfuscate_links=True,
            hash_radius_sweep=True,
        )

    def as_dict(self) -> dict:
        return {
            "retrain_classifier": self.retrain_classifier,
            "author_watchlist": self.author_watchlist,
            "refresh_whitelist": self.refresh_whitelist,
            "deobfuscate_links": self.deobfuscate_links,
            "hash_radius_sweep": self.hash_radius_sweep,
        }


# ----------------------------------------------------------------------
# Hash-radius threshold sweep (A5 machinery, adaptive edition)
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class RadiusCalibration:
    """Outcome of one synthetic threshold sweep."""

    radius: int
    true_positive_rate: float
    false_positive_rate: float
    n_positive_pairs: int
    n_negative_pairs: int

    def as_dict(self) -> dict:
        return {
            "radius": self.radius,
            "true_positive_rate": round(self.true_positive_rate, 6),
            "false_positive_rate": round(self.false_positive_rate, 6),
            "n_positive_pairs": self.n_positive_pairs,
            "n_negative_pairs": self.n_negative_pairs,
        }


def sweep_hash_radius(
    profile: DriftProfile,
    seed: int,
    n_samples: int = 24,
    fpr_budget: float = 0.01,
    max_radius: int = 30,
) -> RadiusCalibration:
    """Pick the widest hash radius whose synthetic FPR fits the budget.

    Positive pairs are ``(base, transform-stacked copy)`` hashes of
    freshly sampled latents, stacked to the profile's ``transform_depth``
    — a stand-in for the re-uploads the adversary produces.  Negative
    pairs are cross-image hashes.  The sweep returns the largest radius
    in ``[0, max_radius]`` whose negative-pair hit rate stays within
    ``fpr_budget`` (radius 0 if even that leaks).
    """
    rng = np.random.default_rng(int(seed))
    base_hashes: List[int] = []
    transformed_hashes: List[int] = []
    pool = STACKED_EVASION_TRANSFORMS
    for _ in range(n_samples):
        latent = sample_latent(rng, ImageKind.MODEL_NUDE)
        base_hashes.append(robust_hash(render_latent(latent)))
        copy = latent
        for _ in range(profile.transform_depth):
            copy = copy.with_transform(pool[int(rng.integers(0, len(pool)))])
        transformed_hashes.append(robust_hash(render_latent(copy)))

    positives = [
        hamming_distance(base, transformed)
        for base, transformed in zip(base_hashes, transformed_hashes)
    ]
    negatives = [
        hamming_distance(base_hashes[i], base_hashes[j])
        for i in range(n_samples)
        for j in range(i + 1, n_samples)
    ]

    best = RadiusCalibration(0, 0.0, 0.0, len(positives), len(negatives))
    for radius in range(0, max_radius + 1):
        fpr = sum(1 for d in negatives if d <= radius) / max(1, len(negatives))
        if fpr > fpr_budget:
            break
        tpr = sum(1 for d in positives if d <= radius) / max(1, len(positives))
        best = RadiusCalibration(radius, tpr, fpr, len(positives), len(negatives))
    return best


def apply_radius(world, calibration: RadiusCalibration) -> None:
    """Retune both perceptual-hash services to the calibrated radius."""
    world.hashlist.set_radius(calibration.radius)
    world.reverse_index.set_radius(calibration.radius)


# ----------------------------------------------------------------------
# Whitelist refresh + link deobfuscation
# ----------------------------------------------------------------------

def build_refreshed_link_extractor(world, deobfuscate: bool = True) -> Callable:
    """Link extractor that re-snowballs against the *live* internet.

    The default extractor inspects candidate domains through the static
    Table 3/4 registry, which cannot see churned-in hosts; this one asks
    the internet itself (:meth:`~repro.web.internet.SimulatedInternet.
    service_for`), re-discovering fresh hosting services exactly the way
    the §4.2 snowball discovered the original whitelist.
    """

    def extractor(dataset, tops):
        builder = WhitelistBuilder(inspect=world.internet.service_for)
        return extract_links(
            dataset, tops, whitelist_builder=builder, deobfuscate=deobfuscate
        )

    return extractor


# ----------------------------------------------------------------------
# Author watchlist (migration recovery)
# ----------------------------------------------------------------------

def watchlist_from_report(report) -> Set[int]:
    """Author ids of the threads the instrument flagged as TOPs.

    Built from a *pipeline report* — the instrument's own output — so
    the watchlist carries no ground-truth leak: it is exactly the "known
    sellers" list a real measurement team would keep.
    """
    return {thread.author_id for thread in (report.tops or ())}


def build_watchlist_selection(watchlist: Set[int]) -> Callable:
    """Selection that augments §3 keyword selection with watched authors.

    Threads started by a watched author are selected even when they no
    longer carry the keyword or live on the eWhoring board — recovering
    migrated threads at the cost of re-classifying some benign ones.
    """
    watched = frozenset(watchlist)

    def selection(dataset) -> List:
        base = ewhoring_threads(dataset)
        seen = {thread.thread_id for thread in base}
        extras = [
            thread
            for thread in dataset.threads()
            if thread.author_id in watched and thread.thread_id not in seen
        ]
        extras.sort(key=lambda thread: thread.thread_id)
        return base + extras

    return selection
