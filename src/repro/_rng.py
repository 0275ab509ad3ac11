"""Seeded random-number plumbing shared by every generator in the package.

All stochastic components in :mod:`repro` draw from a :class:`SeedSequenceTree`
so that a single integer seed reproduces the entire synthetic world, while
independent subsystems (forum generation, image rendering, classifier noise)
consume statistically independent streams.  This mirrors how a measurement
study fixes its data snapshot: the seed *is* the dataset identity.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["SeedSequenceTree", "derive_seed", "path_digest", "rng_from"]


def path_digest(seed: int, *parts: str) -> bytes:
    """SHA-256 of ``str(seed)`` followed by each part after a ``\\x1f``.

    The one hash behind every order-independent draw in the package:
    :func:`derive_seed`, the fault and payload-corruption decisions and
    drift's minted URLs each take their own slice of these 32 bytes.
    """
    digest = hashlib.sha256()
    digest.update(str(int(seed)).encode("ascii"))
    for part in parts:
        digest.update(b"\x1f")
        digest.update(part.encode("utf-8"))
    return digest.digest()


def derive_seed(root_seed: int, *path: str) -> int:
    """Derive a stable child seed from ``root_seed`` and a label path.

    The derivation hashes the path with SHA-256 so that adding new labelled
    streams never perturbs existing ones (unlike ``SeedSequence.spawn``,
    which is order-sensitive).

    >>> derive_seed(7, "forum", "hackforums") == derive_seed(7, "forum", "hackforums")
    True
    >>> derive_seed(7, "forum") != derive_seed(8, "forum")
    True
    """
    return int.from_bytes(path_digest(root_seed, *path)[:8], "big")


def rng_from(root_seed: int, *path: str) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for a labelled stream."""
    return np.random.default_rng(derive_seed(root_seed, *path))


class SeedSequenceTree:
    """A tree of labelled, independent RNG streams rooted at one seed.

    >>> tree = SeedSequenceTree(42)
    >>> a = tree.rng("images")
    >>> b = tree.rng("forums", "hackforums")
    >>> tree.child("forums").rng("hackforums").random() == b.random()
    True
    """

    def __init__(self, root_seed: int, *prefix: str):
        self.root_seed = int(root_seed)
        self.prefix = tuple(prefix)

    def rng(self, *path: str) -> np.random.Generator:
        """Return a fresh generator for the labelled stream ``path``."""
        return rng_from(self.root_seed, *self.prefix, *path)

    def seed(self, *path: str) -> int:
        """Return the derived integer seed for ``path``."""
        return derive_seed(self.root_seed, *self.prefix, *path)

    def child(self, *path: str) -> "SeedSequenceTree":
        """Return a subtree rooted at ``path`` under this tree."""
        return SeedSequenceTree(self.root_seed, *self.prefix, *path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        joined = "/".join(self.prefix) or "<root>"
        return f"SeedSequenceTree(seed={self.root_seed}, prefix={joined})"
