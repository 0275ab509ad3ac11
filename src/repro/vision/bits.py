"""Low-level bit kernels shared by the vision stack.

Three primitives every hash-heavy stage leans on:

* :func:`popcount` — per-element set-bit counts over ``uint64`` arrays,
  via :func:`numpy.bitwise_count` (NumPy ≥ 2.0, the pinned minimum);
* :func:`pack_bits_rows` — vectorised MSB-first bit packing, replacing
  the per-bit Python loops the hash functions shipped with;
* :func:`hamming_matrix` — many-vs-many Hamming distances via a single
  broadcast XOR + popcount, the kernel behind batched hashlist matching
  and reverse search.

This module sits below :mod:`repro.vision.photodna` in the import graph
and depends only on NumPy.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = [
    "hamming_matrix",
    "pack_bits_rows",
    "popcount",
]


def popcount(values: Union[int, np.ndarray]) -> np.ndarray:
    """Per-element count of set bits of ``values`` as ``uint64`` words.

    Accepts scalars or arrays of any shape; returns ``int64`` counts of
    the same shape.

    >>> int(popcount(0b1011))
    3
    """
    return np.bitwise_count(np.asarray(values, dtype=np.uint64)).astype(np.int64)


def pack_bits_rows(bits: np.ndarray) -> np.ndarray:
    """Pack each row of a boolean ``(n, k)`` array into one ``uint64``.

    MSB-first: ``bits[:, 0]`` lands in the highest of the ``k`` packed
    bits, matching the scalar ``value = (value << 1) | bit`` loop the
    hash functions historically used.  ``k`` must be ≤ 64.

    >>> int(pack_bits_rows(np.array([[True, False, True]]))[0])
    5
    """
    rows = np.asarray(bits, dtype=bool)
    if rows.ndim != 2:
        raise ValueError("pack_bits_rows expects a 2-D (n, k) bit array")
    k = rows.shape[1]
    if k > 64:
        raise ValueError("cannot pack more than 64 bits per row")
    shifts = np.arange(k - 1, -1, -1, dtype=np.uint64)
    return np.left_shift(rows.astype(np.uint64), shifts).sum(axis=1, dtype=np.uint64)


def hamming_matrix(queries: np.ndarray, corpus: np.ndarray) -> np.ndarray:
    """All-pairs Hamming distances between two ``uint64`` hash vectors.

    Returns an ``(n_queries, n_corpus)`` ``int64`` matrix — one
    broadcast XOR plus one popcount, replacing a Python double loop.
    """
    q = np.asarray(queries, dtype=np.uint64).reshape(-1)
    c = np.asarray(corpus, dtype=np.uint64).reshape(-1)
    return popcount(q[:, None] ^ c[None, :])
