"""Corrupt-payload model for the simulated internet.

PR 1's :mod:`repro.web.faults` models the *transport* failures of the
paper's crawl (§4.2): timeouts, rate limits, 5xx.  This module models
the layer below — fetches that **succeed** but return garbage: truncated
rasters, NaN/Inf pixel blocks, wrong-shape/wrong-dtype payloads,
zero-byte files, decompression bombs and non-image decoys (the HTML
error pages and interstitials image hosts serve instead of content).

The same two design rules as the transport layer apply:

1. **Corruption is a pure function of ``(seed, url)``** (plus the member
   index inside a pack).  No shared RNG stream: whether a payload is
   corrupt — and *how* — never depends on crawl order or retry attempt,
   so every crawl of one world sees the identical corrupt payloads and
   writes a byte-identical quarantine ledger.
2. **Corruption never mutates hosted content.**  The injector wraps the
   hosted image in a :class:`CorruptImage` view that renders its own
   corrupted raster; the clean original (and every other URL serving the
   same content) is untouched.  Restricting any run to its clean records
   therefore reproduces the corruption-free run bit for bit — the
   invariant the chaos suite enforces.

Profiles: ``none`` (explicit baseline), ``dirty`` (an ordinarily messy
host population), ``hostile`` (a heavily poisoned one).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np

from .._rng import path_digest
from ..media.image import SyntheticImage
from ..media.pack import Pack
from .faults import stable_uniform

__all__ = [
    "CORRUPTION_KINDS",
    "CorruptImage",
    "PAYLOAD_PROFILES",
    "PayloadFaultInjector",
    "PayloadFaultProfile",
    "PayloadFaultSpec",
    "corrupt_raster",
    "payload_profile",
    "stable_noise_seed",
]

#: Corruption modes the injector can apply, mirroring what hostile image
#: hosts actually serve (see DESIGN.md §8).
CORRUPTION_KINDS: Tuple[str, ...] = (
    "truncated",        # download cut off after a few rows
    "nan_pixels",       # decoder emitted NaN blocks
    "inf_pixels",       # decoder emitted +/-Inf blocks
    "grayscale_2d",     # wrong shape: 2-D single-plane raster
    "rgba",             # wrong shape: 4-channel raster
    "uint8",            # wrong dtype: byte-valued pixels
    "zero_byte",        # empty file
    "absurd_dims",      # decompression bomb (implausible dimensions)
    "decoy_bytes",      # HTML error page instead of an image
)

#: Edge length used for the decompression-bomb corruption; just beyond
#: :data:`repro.media.validate.MAX_RASTER_DIM` so validation flags it
#: without the injector materialising gigabytes.
_ABSURD_WIDTH = 8192

_DECOY_PAYLOAD = (
    b"<!DOCTYPE html><html><head><title>404</title></head>"
    b"<body><h1>File not found</h1><p>The image you requested has been "
    b"removed or never existed.</p></body></html>"
)


def stable_noise_seed(seed: int, *parts: str) -> int:
    """A 64-bit RNG seed derived purely from ``(seed, parts)``.

    The corruption *content* (which pixels go NaN, where the truncation
    cut lands) must be as order-independent as the corruption *decision*,
    so it is seeded from the same hash family as
    :func:`repro.web.faults.stable_uniform`.
    """
    return int.from_bytes(path_digest(seed, *parts)[8:16], "big")


def corrupt_raster(
    raster: np.ndarray, kind: str, rng: np.random.Generator
) -> Union[np.ndarray, bytes]:
    """Apply one corruption mode to a copy of ``raster``.

    The input is never mutated.  Returns the corrupted payload, which is
    not necessarily an array (``decoy_bytes`` yields raw HTML bytes).
    """
    if kind == "truncated":
        keep = int(rng.integers(1, 7))  # < MIN_RASTER_DIM rows survive
        return raster[:keep].copy()
    if kind == "nan_pixels":
        out = raster.copy()
        flat = out.reshape(-1)
        n_poison = max(1, flat.size // 64)
        idx = rng.choice(flat.size, size=n_poison, replace=False)
        flat[idx] = np.nan
        return out
    if kind == "inf_pixels":
        out = raster.copy()
        flat = out.reshape(-1)
        n_poison = max(1, flat.size // 64)
        idx = rng.choice(flat.size, size=n_poison, replace=False)
        flat[idx] = np.where(rng.random(n_poison) < 0.5, np.inf, -np.inf)
        return out
    if kind == "grayscale_2d":
        return raster.mean(axis=2)
    if kind == "rgba":
        alpha = np.ones(raster.shape[:2] + (1,), dtype=raster.dtype)
        return np.concatenate([raster, alpha], axis=2)
    if kind == "uint8":
        return (np.clip(raster, 0.0, 1.0) * 255.0).astype(np.uint8)
    if kind == "zero_byte":
        return np.empty((0, 0, 3), dtype=np.float64)
    if kind == "absurd_dims":
        return np.zeros((raster.shape[0], _ABSURD_WIDTH, 3), dtype=np.float64)
    if kind == "decoy_bytes":
        return _DECOY_PAYLOAD
    raise ValueError(f"unknown corruption kind {kind!r}")


class CorruptImage(SyntheticImage):
    """A corrupted *view* of a hosted image.

    Behaves like a :class:`~repro.media.image.SyntheticImage` (same id,
    same latent, lazy cached payload) but renders the corrupted payload
    instead of the clean raster.  The hosted original's pixel cache is
    never touched, so other URLs serving the same content stay clean.
    """

    __slots__ = ("corruption", "_noise_seed")

    renders_latent = False

    def __init__(self, base: SyntheticImage, corruption: str, noise_seed: int):
        if corruption not in CORRUPTION_KINDS:
            raise ValueError(f"unknown corruption kind {corruption!r}")
        super().__init__(base.image_id, base.latent)
        self.corruption = corruption
        self._noise_seed = int(noise_seed)

    @property
    def pixels(self):
        """The corrupted payload (array or bytes), rendered lazily."""
        if self._pixels is None:
            from ..media.render import render_latent

            clean = render_latent(self.latent)
            rng = np.random.default_rng(self._noise_seed)
            self._pixels = corrupt_raster(clean, self.corruption, rng)
        return self._pixels

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CorruptImage(id={self.image_id}, corruption={self.corruption!r})"
        )


@dataclass(frozen=True)
class PayloadFaultSpec:
    """Per-payload corruption rates for one domain.

    ``corrupt_rate`` is the probability that a successfully fetched
    payload is corrupt; ``kind_weights`` shapes which corruption mode is
    applied (uniform over :data:`CORRUPTION_KINDS` by default).
    """

    corrupt_rate: float = 0.0
    kind_weights: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.corrupt_rate <= 1.0:
            raise ValueError("corrupt_rate must be within [0, 1]")
        for kind, weight in self.kind_weights.items():
            if kind not in CORRUPTION_KINDS:
                raise ValueError(f"unknown corruption kind {kind!r}")
            if weight < 0:
                raise ValueError("kind weights must be non-negative")

    def normalized_weights(self) -> Tuple[Tuple[str, float], ...]:
        """(kind, cumulative-normalised-weight) pairs in canonical order."""
        weights = {
            kind: float(self.kind_weights.get(kind, 1.0 if not self.kind_weights else 0.0))
            for kind in CORRUPTION_KINDS
        }
        total = sum(weights.values())
        if total <= 0:
            raise ValueError("at least one corruption kind needs weight > 0")
        pairs = []
        cumulative = 0.0
        for kind in CORRUPTION_KINDS:
            cumulative += weights[kind] / total
            pairs.append((kind, cumulative))
        return tuple(pairs)


@dataclass(frozen=True)
class PayloadFaultProfile:
    """A named corruption model: default spec plus per-domain overrides."""

    name: str
    default: PayloadFaultSpec
    overrides: Mapping[str, PayloadFaultSpec] = field(default_factory=dict)

    def spec_for(self, host: str) -> PayloadFaultSpec:
        """The spec governing ``host`` (exact host match, then default)."""
        return self.overrides.get(host, self.default)


#: Built-in payload profiles.  ``none`` corrupts nothing (the explicit
#: baseline the chaos invariant compares against); ``dirty`` models an
#: ordinarily messy host population; ``hostile`` a heavily poisoned one.
PAYLOAD_PROFILES: Dict[str, PayloadFaultProfile] = {
    "none": PayloadFaultProfile("none", PayloadFaultSpec()),
    "dirty": PayloadFaultProfile("dirty", PayloadFaultSpec(corrupt_rate=0.06)),
    "hostile": PayloadFaultProfile(
        "hostile", PayloadFaultSpec(corrupt_rate=0.25)
    ),
}


def payload_profile(name: str) -> PayloadFaultProfile:
    """Look up a built-in payload profile by name.

    >>> payload_profile("dirty").name
    'dirty'
    """
    try:
        return PAYLOAD_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PAYLOAD_PROFILES))
        raise ValueError(
            f"unknown payload profile {name!r} (known: {known})"
        ) from None


class PayloadFaultInjector:
    """Rate-based payload corruption, deterministic per URL.

    Installed on a :class:`~repro.web.internet.SimulatedInternet` via
    :meth:`~repro.web.internet.SimulatedInternet.set_payload_injector`;
    OK fetch results pass through :meth:`corrupt_resource` on the way
    out.  Counters track every corruption *event* (one per corrupted
    image payload served), which the chaos suite reconciles against the
    quarantine ledger.
    """

    def __init__(self, profile: PayloadFaultProfile, seed: int = 0):
        self.profile = profile
        self.seed = int(seed)
        #: Corrupted image payloads served, for operator summaries and
        #: the quarantine-count invariant.
        self.n_injected = 0
        self.by_kind: Dict[str, int] = {}
        # Injection *decisions* are pure functions of (seed, url); these
        # event counters are the injector's only mutable state.

    # ------------------------------------------------------------------
    def decide(self, host: str, url: str, *extra: str) -> Optional[str]:
        """Which corruption (if any) hits this payload — pure function."""
        spec = self.profile.spec_for(host)
        if spec.corrupt_rate == 0.0:
            return None
        u = stable_uniform(self.seed, url, "payload", *extra)
        if u >= spec.corrupt_rate:
            return None
        pick = stable_uniform(self.seed, url, "payload-kind", *extra)
        for kind, cumulative in spec.normalized_weights():
            if pick < cumulative:
                return kind
        return CORRUPTION_KINDS[-1]  # pragma: no cover - fp guard

    # ------------------------------------------------------------------
    def corrupt_resource(
        self, url: str, host: str, resource: Union[SyntheticImage, Pack]
    ) -> Union[SyntheticImage, Pack]:
        """Possibly-corrupted view of a fetched resource.

        Images corrupt whole; pack archives corrupt member-by-member
        (each member keyed on ``(url, index)``), mirroring how a partial
        archive download damages individual files.
        """
        if isinstance(resource, Pack):
            members = []
            changed = False
            for index, image in enumerate(resource.images):
                kind = self.decide(host, url, str(index))
                if kind is None:
                    members.append(image)
                    continue
                members.append(self._wrap(image, kind, url, str(index)))
                changed = True
            if not changed:
                return resource
            return replace(resource, images=members)
        kind = self.decide(host, url)
        if kind is None:
            return resource
        return self._wrap(resource, kind, url)

    def _wrap(
        self, image: SyntheticImage, kind: str, url: str, *extra: str
    ) -> CorruptImage:
        self.n_injected += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        return CorruptImage(
            image, kind, stable_noise_seed(self.seed, url, "payload-noise", *extra)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PayloadFaultInjector(profile={self.profile.name!r}, "
            f"seed={self.seed})"
        )
