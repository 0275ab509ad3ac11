"""Train/test splitting helpers.

§4.1 annotates 1 000 threads, trains on 800 and tests on 200.  The split
here is seeded and optionally stratified so that small annotation sets
keep both classes on each side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Split", "train_test_split"]


@dataclass(frozen=True)
class Split:
    """Index sets of a train/test partition."""

    train_indices: np.ndarray
    test_indices: np.ndarray


def train_test_split(
    n_samples: int,
    train_fraction: float = 0.8,
    seed: int = 0,
    stratify_labels: Sequence[int] | None = None,
) -> Split:
    """Partition ``range(n_samples)`` into train/test index arrays.

    With ``stratify_labels`` the class balance of the full set is
    preserved on both sides (up to rounding).
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    if n_samples < 2:
        raise ValueError("need at least two samples to split")
    rng = np.random.default_rng(seed)

    if stratify_labels is None:
        order = rng.permutation(n_samples)
        cut = int(round(train_fraction * n_samples))
        cut = min(max(cut, 1), n_samples - 1)
        return Split(np.sort(order[:cut]), np.sort(order[cut:]))

    labels = np.asarray(stratify_labels).ravel()
    if labels.shape[0] != n_samples:
        raise ValueError("stratify_labels length must equal n_samples")
    train_parts = []
    test_parts = []
    for value in np.unique(labels):
        members = np.flatnonzero(labels == value)
        members = rng.permutation(members)
        cut = int(round(train_fraction * members.shape[0]))
        cut = min(max(cut, 1), max(members.shape[0] - 1, 1))
        train_parts.append(members[:cut])
        test_parts.append(members[cut:])
    return Split(
        np.sort(np.concatenate(train_parts)),
        np.sort(np.concatenate(test_parts)),
    )
