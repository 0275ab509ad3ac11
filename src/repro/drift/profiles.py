"""Named adversarial-drift profiles (the R4 robustness scenarios).

A :class:`DriftProfile` fixes the per-epoch intensity of the four
evasion channels the measured ecosystem uses against the paper's
instrument:

1. **pack re-upload** — operators re-host their previews/packs under a
   stack of image transforms (mirror, rotate, re-encode, ...), walking
   away from the perceptual hashes the defenses hold;
2. **URL obfuscation + redirectors** — links are de-fanged
   (``hxxps://``, ``imgur[.]com``) or laundered through multi-hop
   redirector chains, defeating regex extraction and the whitelist;
3. **domain churn** — whitelisted hosts die and fresh, snowball-
   discoverable hosts appear;
4. **actor migration** — TOP authors move threads across forums and
   shift their heading vocabulary away from the trained classifier.

All rates are *per epoch, per entity*; every decision in
:mod:`repro.drift.engine` is a pure hash of ``(seed, channel, epoch,
entity)`` (the :func:`repro.web.faults.stable_uniform` recipe), so drift
commutes with retries and is the same on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["DRIFT_PROFILES", "DriftProfile", "drift_profile"]


@dataclass(frozen=True, slots=True)
class DriftProfile:
    """Per-epoch intensity of the four evasion channels."""

    name: str
    # -- channel 1: pack re-upload with stacked transforms -------------
    #: Probability a TOP-referenced resource is re-uploaded this epoch.
    reupload_rate: float = 0.0
    #: How many transforms each re-upload stacks on top of the image.
    transform_depth: int = 1
    # -- channel 2: URL obfuscation + redirector chains ----------------
    #: Probability a posted link is rewritten in a de-fanged spelling.
    obfuscation_rate: float = 0.0
    #: Probability a posted link is laundered through a redirector chain.
    redirect_rate: float = 0.0
    #: Longest chain the launderers build (hops are hash-drawn in
    #: ``[1, max_redirect_hops]``).
    max_redirect_hops: int = 2
    # -- channel 3: domain churn ---------------------------------------
    #: Probability a known hosting domain dies this epoch.
    domain_death_rate: float = 0.0
    #: Fresh hosting services minted per epoch (half image-sharing,
    #: half cloud-storage).
    new_hosts_per_epoch: int = 0
    # -- channel 4: actor migration ------------------------------------
    #: Probability a true-TOP thread migrates (board move + keyword-free
    #: retitle) or shifts to drifted slang, per epoch.
    migration_rate: float = 0.0

    def __post_init__(self) -> None:
        for rate in (
            self.reupload_rate,
            self.obfuscation_rate,
            self.redirect_rate,
            self.domain_death_rate,
            self.migration_rate,
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("drift rates must be within [0, 1]")
        if self.transform_depth < 1:
            raise ValueError("transform_depth must be >= 1")
        if self.max_redirect_hops < 1:
            raise ValueError("max_redirect_hops must be >= 1")
        if self.new_hosts_per_epoch < 0:
            raise ValueError("new_hosts_per_epoch must be >= 0")

    @property
    def is_trivial(self) -> bool:
        """True when no channel ever fires (the ``none`` profile)."""
        return (
            self.reupload_rate == 0.0
            and self.obfuscation_rate == 0.0
            and self.redirect_rate == 0.0
            and self.domain_death_rate == 0.0
            and self.new_hosts_per_epoch == 0
            and self.migration_rate == 0.0
        )


#: Built-in drift profiles.  ``none`` is the static paper-world (strict
#: no-op, bit-identical to not applying drift at all); ``mild`` a lightly
#: adaptive ecosystem; ``aggressive`` organised counter-measurement;
#: ``hostile`` an ecosystem that assumes it is being measured.
DRIFT_PROFILES: Dict[str, DriftProfile] = {
    "none": DriftProfile("none"),
    "mild": DriftProfile(
        "mild",
        reupload_rate=0.20,
        transform_depth=1,
        obfuscation_rate=0.10,
        redirect_rate=0.08,
        max_redirect_hops=1,
        domain_death_rate=0.04,
        new_hosts_per_epoch=2,
        migration_rate=0.10,
    ),
    "aggressive": DriftProfile(
        "aggressive",
        reupload_rate=0.40,
        transform_depth=2,
        obfuscation_rate=0.25,
        redirect_rate=0.18,
        max_redirect_hops=2,
        domain_death_rate=0.10,
        new_hosts_per_epoch=3,
        migration_rate=0.25,
    ),
    "hostile": DriftProfile(
        "hostile",
        reupload_rate=0.60,
        transform_depth=3,
        obfuscation_rate=0.40,
        redirect_rate=0.30,
        max_redirect_hops=4,
        domain_death_rate=0.18,
        new_hosts_per_epoch=4,
        migration_rate=0.40,
    ),
}


def drift_profile(name: str) -> DriftProfile:
    """Look up a built-in drift profile by name.

    >>> drift_profile("hostile").transform_depth
    3
    """
    try:
        return DRIFT_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(DRIFT_PROFILES))
        raise ValueError(f"unknown drift profile {name!r} (known: {known})") from None
