"""Registry of hosting services on the simulated internet.

Two families matter to the pipeline (§4.2): *image-sharing* sites host
pack previews and proof-of-earnings screenshots; *cloud-storage* services
host the pack archives themselves.  Each service carries the behavioural
policy knobs the paper observed in the wild: link rot, terms-of-service
takedowns of nudity/copyright material, registration walls that stop the
crawler (Dropbox, Google Drive), and service shutdowns (oron).

Popularity weights are calibrated to the link-share distributions of
Tables 3 and 4 so that the synthetic world reproduces their shape.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = [
    "CLOUD_STORAGE_SERVICES",
    "HostingService",
    "IMAGE_SHARING_SERVICES",
    "ServiceKind",
    "service_by_domain",
]


class ServiceKind(enum.Enum):
    """Hosting-service family."""

    IMAGE_SHARING = "image_sharing"
    CLOUD_STORAGE = "cloud_storage"


@dataclass(frozen=True, slots=True)
class HostingService:
    """One hosting platform and its behavioural policy."""

    name: str
    domain: str
    kind: ServiceKind
    #: Relative share of links pointing at this service (Tables 3/4 shape).
    weight: float
    #: Probability that a link is dead by crawl time (expired/deleted).
    dead_link_rate: float = 0.25
    #: Probability that nudity-bearing content is removed for ToS breach.
    tos_takedown_rate: float = 0.0
    #: Crawling requires an account; the crawler refuses (§4.2 limitations).
    requires_registration: bool = False
    #: Service no longer exists; every fetch fails.
    defunct: bool = False

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        for rate in (self.dead_link_rate, self.tos_takedown_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("rates must be within [0, 1]")


# ----------------------------------------------------------------------
# Image-sharing sites (Table 3).  Weights are the paper's link counts.
# Preview hosts forbid nudity in their ToS (§4.2) — non-zero takedowns.
# ----------------------------------------------------------------------
IMAGE_SHARING_SERVICES: Tuple[HostingService, ...] = (
    HostingService("imgur", "imgur.com", ServiceKind.IMAGE_SHARING, 3297, 0.13, 0.30),
    HostingService("Gyazo", "gyazo.com", ServiceKind.IMAGE_SHARING, 1006, 0.14, 0.26),
    HostingService("ImageShack", "imageshack.us", ServiceKind.IMAGE_SHARING, 679, 0.22, 0.22),
    HostingService("prnt", "prnt.sc", ServiceKind.IMAGE_SHARING, 383, 0.12, 0.20),
    HostingService("photobucket", "photobucket.com", ServiceKind.IMAGE_SHARING, 311, 0.28, 0.30),
    HostingService("imagetwist", "imagetwist.com", ServiceKind.IMAGE_SHARING, 105, 0.18, 0.12),
    HostingService("imagezilla", "imagezilla.net", ServiceKind.IMAGE_SHARING, 97, 0.20, 0.12),
    HostingService("minus", "minus.com", ServiceKind.IMAGE_SHARING, 51, 0.60, 0.05, defunct=True),
    HostingService("postimage", "postimage.org", ServiceKind.IMAGE_SHARING, 47, 0.15, 0.15),
    HostingService("imagebam", "imagebam.com", ServiceKind.IMAGE_SHARING, 44, 0.16, 0.15),
    # The long tail the paper aggregates as "Others" (700 links).
    HostingService("picpaste", "picpaste.de", ServiceKind.IMAGE_SHARING, 140, 0.22, 0.10),
    HostingService("tinypic", "tinypic.com", ServiceKind.IMAGE_SHARING, 130, 0.55, 0.10, defunct=True),
    HostingService("imgbox", "imgbox.com", ServiceKind.IMAGE_SHARING, 115, 0.15, 0.12),
    HostingService("lightshot", "lightshot.cc", ServiceKind.IMAGE_SHARING, 100, 0.14, 0.12),
    HostingService("imagevenue", "imagevenue.com", ServiceKind.IMAGE_SHARING, 90, 0.20, 0.10),
    HostingService("pixhost", "pixhost.to", ServiceKind.IMAGE_SHARING, 75, 0.16, 0.10),
    HostingService("imgsafe", "imgsafe.org", ServiceKind.IMAGE_SHARING, 50, 0.22, 0.10),
)

# ----------------------------------------------------------------------
# Cloud-storage services (Table 4).  Pack hosts: copyright ToS, link
# expiry on free tiers, registration walls.
# ----------------------------------------------------------------------
CLOUD_STORAGE_SERVICES: Tuple[HostingService, ...] = (
    HostingService("MediaFire", "mediafire.com", ServiceKind.CLOUD_STORAGE, 892, 0.14, 0.05),
    HostingService("mega", "mega.nz", ServiceKind.CLOUD_STORAGE, 284, 0.12, 0.06),
    HostingService(
        "Dropbox", "dropbox.com", ServiceKind.CLOUD_STORAGE, 130, 0.12, 0.05,
        requires_registration=True,
    ),
    HostingService("oron", "oron.com", ServiceKind.CLOUD_STORAGE, 95, 0.95, 0.0, defunct=True),
    HostingService("depositfiles", "depositfiles.com", ServiceKind.CLOUD_STORAGE, 46, 0.30, 0.05),
    HostingService("filefactory", "filefactory.com", ServiceKind.CLOUD_STORAGE, 37, 0.28, 0.05),
    HostingService(
        "drive.google", "drive.google.com", ServiceKind.CLOUD_STORAGE, 31, 0.12, 0.08,
        requires_registration=True,
    ),
    HostingService("ge.tt", "ge.tt", ServiceKind.CLOUD_STORAGE, 28, 0.35, 0.05),
    HostingService("zippyshare", "zippyshare.com", ServiceKind.CLOUD_STORAGE, 25, 0.25, 0.05),
    HostingService("filedropper", "filedropper.com", ServiceKind.CLOUD_STORAGE, 24, 0.30, 0.05),
    # "Others" (94 links).
    HostingService("sendspace", "sendspace.com", ServiceKind.CLOUD_STORAGE, 40, 0.28, 0.05),
    HostingService("4shared", "4shared.com", ServiceKind.CLOUD_STORAGE, 30, 0.30, 0.06),
    HostingService("uploaded", "uploaded.net", ServiceKind.CLOUD_STORAGE, 24, 0.32, 0.05),
)

_BY_DOMAIN: Dict[str, HostingService] = {
    service.domain: service
    for service in IMAGE_SHARING_SERVICES + CLOUD_STORAGE_SERVICES
}


def service_by_domain(domain: str) -> HostingService | None:
    """Look up a hosting service by its (full) domain, or ``None``."""
    return _BY_DOMAIN.get(domain.lower())
