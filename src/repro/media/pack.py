"""Packs: curated image sets of one model across encounter stages (§4).

A pack is the tradeable unit of the eWhoring economy: "images from the
same (or visually similar) model at the various steps of a 'fake'
encounter, including dressed, nude and sexual images and videos".  Here a
pack is an ordered collection of :class:`SyntheticImage` plus metadata
about how it was assembled (which origin images it reuses, whether its
compiler applied evasion transforms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from .image import ImageKind, SyntheticImage

__all__ = ["Pack", "pack_stage_mix"]

#: Canonical composition of a pack by encounter stage: roughly half
#: dressed/teasing, the rest nude and sexual, matching the §4 description.
PACK_STAGE_WEIGHTS: Tuple[Tuple[ImageKind, float], ...] = (
    (ImageKind.MODEL_DRESSED, 0.45),
    (ImageKind.MODEL_NUDE, 0.35),
    (ImageKind.MODEL_SEXUAL, 0.20),
)


def pack_stage_mix(n_images: int) -> List[ImageKind]:
    """Deterministic stage sequence for a pack of ``n_images`` images."""
    if n_images < 1:
        raise ValueError("a pack contains at least one image")
    kinds: List[ImageKind] = []
    for kind, weight in PACK_STAGE_WEIGHTS:
        kinds.extend([kind] * int(round(weight * n_images)))
    while len(kinds) < n_images:
        kinds.append(ImageKind.MODEL_DRESSED)
    return kinds[:n_images]


@dataclass
class Pack:
    """A pack of images of one model.

    ``model_id`` identifies the depicted model; ``compiler_actor_id`` the
    forum actor who assembled and shared it.  ``saturated`` marks packs
    recycled from other packs (free packs are "likely saturated", §4.2).
    """

    pack_id: int
    model_id: int
    images: List[SyntheticImage]
    compiler_actor_id: Optional[int] = None
    saturated: bool = False
    #: Evasion transforms the compiler applied to every image ("zero-match
    #: packs" arise from mirrored content, §4.5).
    evasion: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.images:
            raise ValueError("a pack must contain at least one image")

    def __len__(self) -> int:
        return len(self.images)

    def __iter__(self) -> Iterator[SyntheticImage]:
        return iter(self.images)

    @property
    def image_ids(self) -> List[int]:
        return [image.image_id for image in self.images]

    def kinds(self) -> List[ImageKind]:
        """Stage sequence of the pack's images."""
        return [image.kind for image in self.images]
