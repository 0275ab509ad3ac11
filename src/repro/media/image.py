"""Synthetic image model.

Real images cannot be used in this reproduction (DESIGN.md §2), so images
are small numpy rasters rendered from a latent description
(:class:`ImageLatent`).  The latent controls exactly the properties the
paper's pipeline measures: skin-pixel coverage (the OpenNSFW analogue),
embedded text words (the OCR analogue), and visual identity (the
perceptual-hash / reverse-search analogue).  Every downstream classifier
operates on the rendered pixels, never on the latent, so the pipeline is
an actual image-analysis pipeline rather than a lookup of ground truth.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

__all__ = ["ImageKind", "ImageLatent", "SyntheticImage", "DEFAULT_SIZE", "raster_digest"]

#: Raster edge length used throughout (square images).
DEFAULT_SIZE: int = 64


class ImageKind(enum.Enum):
    """Semantic class of a synthetic image.

    The first three kinds depict models at the stages of a fake encounter
    (§4); the remainder are the non-model images the crawler also
    retrieves (§4.4, §5.1).
    """

    MODEL_DRESSED = "model_dressed"
    MODEL_NUDE = "model_nude"
    MODEL_SEXUAL = "model_sexual"
    PROOF_SCREENSHOT = "proof_screenshot"
    CHAT_SCREENSHOT = "chat_screenshot"
    ERROR_BANNER = "error_banner"
    DIRECTORY_THUMB = "directory_thumb"
    DOCUMENT = "document"
    SOURCE_CODE = "source_code"
    LANDSCAPE = "landscape"
    GAME_SCREENSHOT = "game_screenshot"
    MEME = "meme"
    PERSON_CASUAL = "person_casual"

    @property
    def is_model(self) -> bool:
        """True for images depicting a model (the NSFV-positive classes)."""
        return self in _MODEL_KINDS

    @property
    def is_nude(self) -> bool:
        """True for (partially) nude or sexual depictions."""
        return self in (ImageKind.MODEL_NUDE, ImageKind.MODEL_SEXUAL)

    @property
    def is_screenshot(self) -> bool:
        """True for text-dominated screenshot classes."""
        return self in (
            ImageKind.PROOF_SCREENSHOT,
            ImageKind.CHAT_SCREENSHOT,
            ImageKind.ERROR_BANNER,
            ImageKind.DIRECTORY_THUMB,
            ImageKind.SOURCE_CODE,
            ImageKind.DOCUMENT,
        )


_MODEL_KINDS = frozenset(
    {ImageKind.MODEL_DRESSED, ImageKind.MODEL_NUDE, ImageKind.MODEL_SEXUAL, ImageKind.PERSON_CASUAL}
)

#: Typical skin-pixel coverage per kind: (low, high) fractions of the
#: raster.  Calibrated so the NSFW-score distribution matches §4.4:
#: screenshots ≈ 0, clothed models ambiguous, nude/sexual high.
KIND_SKIN_RANGE: dict = {
    ImageKind.MODEL_DRESSED: (0.10, 0.30),
    ImageKind.MODEL_NUDE: (0.38, 0.60),
    ImageKind.MODEL_SEXUAL: (0.50, 0.75),
    ImageKind.PERSON_CASUAL: (0.06, 0.18),
    ImageKind.PROOF_SCREENSHOT: (0.0, 0.0),
    ImageKind.CHAT_SCREENSHOT: (0.0, 0.01),
    ImageKind.ERROR_BANNER: (0.0, 0.0),
    ImageKind.DIRECTORY_THUMB: (0.0, 0.02),
    ImageKind.DOCUMENT: (0.0, 0.0),
    ImageKind.SOURCE_CODE: (0.0, 0.0),
    ImageKind.LANDSCAPE: (0.0, 0.03),
    ImageKind.GAME_SCREENSHOT: (0.0, 0.02),
    ImageKind.MEME: (0.0, 0.04),
}

#: Typical embedded word counts per kind (low, high inclusive).
KIND_WORD_RANGE: dict = {
    ImageKind.MODEL_DRESSED: (0, 2),
    ImageKind.MODEL_NUDE: (0, 1),
    ImageKind.MODEL_SEXUAL: (0, 1),
    ImageKind.PERSON_CASUAL: (0, 2),
    ImageKind.PROOF_SCREENSHOT: (25, 80),
    ImageKind.CHAT_SCREENSHOT: (20, 60),
    ImageKind.ERROR_BANNER: (8, 20),
    ImageKind.DIRECTORY_THUMB: (12, 40),
    ImageKind.DOCUMENT: (40, 90),
    ImageKind.SOURCE_CODE: (30, 80),
    ImageKind.LANDSCAPE: (0, 0),
    ImageKind.GAME_SCREENSHOT: (2, 12),
    ImageKind.MEME: (3, 10),
}


@dataclass(frozen=True, slots=True)
class ImageLatent:
    """Ground-truth description from which an image raster is rendered.

    ``visual_seed`` determines the image's visual identity: two latents
    with the same seed and parameters render pixel-identical rasters (the
    same photograph); transformed copies share the seed but record their
    transformation chain.
    """

    visual_seed: int
    kind: ImageKind
    skin_fraction: float
    word_count: int
    #: Identity of the depicted model, for model images; None otherwise.
    model_id: Optional[int] = None
    #: Ground truth used by the §4.3 reproduction: the depicted person is
    #: underage.  Never inspected by the pipeline — only by the hashlist
    #: construction and by experiment scoring.
    is_underage: bool = False
    #: Applied transformation chain (names from media.transforms).
    transform_chain: Tuple[str, ...] = ()
    size: int = DEFAULT_SIZE

    def __post_init__(self) -> None:
        if not 0.0 <= self.skin_fraction <= 1.0:
            raise ValueError("skin_fraction must be within [0, 1]")
        if self.word_count < 0:
            raise ValueError("word_count must be non-negative")
        if self.size < 16:
            raise ValueError("raster size must be at least 16")

    def with_transform(self, name: str) -> "ImageLatent":
        """Latent for a transformed copy of this image."""
        return replace(self, transform_chain=self.transform_chain + (name,))


def sample_latent(
    rng: np.random.Generator,
    kind: ImageKind,
    model_id: Optional[int] = None,
    is_underage: bool = False,
    size: int = DEFAULT_SIZE,
) -> ImageLatent:
    """Draw a latent with kind-typical skin coverage and word count."""
    skin_low, skin_high = KIND_SKIN_RANGE[kind]
    word_low, word_high = KIND_WORD_RANGE[kind]
    return ImageLatent(
        visual_seed=int(rng.integers(0, 2**63 - 1)),
        kind=kind,
        skin_fraction=float(rng.uniform(skin_low, skin_high)),
        word_count=int(rng.integers(word_low, word_high + 1)),
        model_id=model_id,
        is_underage=is_underage,
        size=size,
    )


def raster_digest(raster: np.ndarray) -> str:
    """Exact-content digest of a raster (for file deduplication).

    The digest covers shape **and dtype** alongside the raw bytes: two
    rasters whose buffers happen to coincide but whose dtypes differ
    (e.g. the same 12 bytes viewed as ``float32`` vs ``uint8`` rows) are
    different files and must not collide in the dedup step.
    """
    digest = hashlib.sha1()
    digest.update(str(raster.shape).encode("ascii"))
    digest.update(raster.dtype.str.encode("ascii"))
    digest.update(raster.tobytes())
    return digest.hexdigest()


class SyntheticImage:
    """An image: a latent plus a lazily rendered, cached pixel raster.

    Rendering is deferred because the synthetic world creates many more
    images than the pipeline ever downloads; pixels are materialised only
    when a classifier first needs them.

    The pixels are a pure function of the object (rendering is pure, and
    subclasses such as corrupt payload views draw from fixed seeds), so
    the content digest is memoised on the object and survives
    :meth:`drop_pixels`: a repeat download of a dropped image needs no
    re-render to be deduplicated.
    """

    __slots__ = ("image_id", "latent", "_pixels", "_digest")

    def __init__(self, image_id: int, latent: ImageLatent):
        self.image_id = image_id
        self.latent = latent
        self._pixels: Optional[np.ndarray] = None
        self._digest: Optional[str] = None

    @property
    def pixels(self) -> np.ndarray:
        """The rendered H×W×3 float raster in [0, 1] (cached)."""
        if self._pixels is None:
            from .render import render_latent

            self._pixels = render_latent(self.latent)
        return self._pixels

    @property
    def content_digest(self) -> str:
        """:func:`raster_digest` of the pixels, computed once per object."""
        if self._digest is None:
            self._digest = raster_digest(self.pixels)
        return self._digest

    @property
    def known_digest(self) -> Optional[str]:
        """The memoised content digest, or ``None`` before the first one."""
        return self._digest

    @property
    def kind(self) -> ImageKind:
        return self.latent.kind

    def drop_pixels(self) -> None:
        """Release the cached raster (e.g. after hash-and-delete, §4.3)."""
        self._pixels = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SyntheticImage(id={self.image_id}, kind={self.latent.kind.value})"
