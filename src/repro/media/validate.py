"""Raster validation boundary: the typed corrupt-payload taxonomy.

The paper's crawler pulled ~250k files off hostile image hosts (§4.2);
real downloads include truncated files, decoys and garbage.  PR 1
hardened the *transport* layer (retries, breakers); this module is the
matching *payload* boundary one level down: every raster entering the
measurement is checked **once, at the edge**, and corruption surfaces as
a typed :class:`CorruptPayloadError` instead of a NaN hash or a shape
error deep inside scipy.

Two validation strengths exist:

* :func:`validate_raster` — the **ingest** contract (crawler download
  path): a float H×W×3 raster with finite values and sane dimensions.
  Violations map onto the taxonomy below, one subclass per corruption
  mode, so quarantine records carry a precise error class.
* :func:`ensure_color_raster` — the **kernel** contract (NSFW scorer,
  OCR engine): structurally an H×W×3 array with finite values; size and
  dtype are the caller's business.  Used defensively inside classifiers
  so poison that bypasses ingest still fails loudly and typed.

Both raise subclasses of :class:`ValueError`, so pre-existing callers
that caught ``ValueError`` keep working unchanged.

>>> import numpy as np
>>> validate_raster(np.zeros((16, 16, 3))).shape
(16, 16, 3)
>>> try:
...     validate_raster(np.full((16, 16, 3), np.nan))
... except NonFinitePixelError as exc:
...     print(type(exc).__name__)
NonFinitePixelError
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = [
    "AbsurdDimensionError",
    "CorruptPayloadError",
    "DecoyPayloadError",
    "EmptyPayloadError",
    "MAX_RASTER_DIM",
    "MAX_RASTER_PIXELS",
    "MIN_RASTER_DIM",
    "NonFinitePixelError",
    "TruncatedRasterError",
    "UnexpectedResourceError",
    "ValidationMemo",
    "WrongDtypeError",
    "WrongShapeError",
    "ensure_color_raster",
    "rebuild_error",
    "validate_raster",
]

#: Smallest legal edge for an ingested raster.  :class:`~repro.media.
#: image.ImageLatent` enforces ``size >= 16``, so anything shorter on
#: either axis is a truncated download, not a legitimate image.
MIN_RASTER_DIM = 8

#: Largest legal edge for an ingested raster (decompression-bomb guard).
MAX_RASTER_DIM = 4096

#: Largest legal pixel count for an ingested raster.
MAX_RASTER_PIXELS = 4096 * 4096


class CorruptPayloadError(ValueError):
    """Base of the corrupt-payload taxonomy.

    Subclasses :class:`ValueError` so boundaries that predate the
    taxonomy (``raise ValueError("pixels must be an H×W×3 array")``)
    keep their exception contract.
    """


class DecoyPayloadError(CorruptPayloadError):
    """The payload is not an image raster at all (HTML decoy, raw bytes)."""


class EmptyPayloadError(CorruptPayloadError):
    """Zero-byte payload: an array with no elements."""


class WrongDtypeError(CorruptPayloadError):
    """The raster's dtype breaks the float-pixels contract (e.g. uint8)."""


class WrongShapeError(CorruptPayloadError):
    """Not an H×W×3 raster (2-D grayscale, RGBA, higher rank...)."""


class TruncatedRasterError(CorruptPayloadError):
    """Too few rows/columns survived the download to be a real image."""


class AbsurdDimensionError(CorruptPayloadError):
    """Dimensions beyond any plausible image (decompression bomb)."""


class NonFinitePixelError(CorruptPayloadError):
    """The raster contains NaN or infinite pixel values."""


class UnexpectedResourceError(CorruptPayloadError):
    """A fetched resource is neither an image nor a pack archive."""


def _describe(payload: Any) -> str:
    """Short forensic description of a payload for error messages."""
    if isinstance(payload, np.ndarray):
        return f"ndarray(shape={payload.shape}, dtype={payload.dtype})"
    return f"{type(payload).__name__}"


def validate_raster(payload: Any, context: str = "") -> np.ndarray:
    """Validate one ingested payload against the raster contract.

    Returns the payload unchanged when it is a finite float ``H×W×3``
    raster with ``MIN_RASTER_DIM <= H, W <= MAX_RASTER_DIM``; otherwise
    raises the matching :class:`CorruptPayloadError` subclass.

    ``context`` (e.g. the source URL) is appended to the error message
    so quarantine records stay actionable.
    """
    suffix = f" [{context}]" if context else ""
    if not isinstance(payload, np.ndarray) or payload.ndim == 0:
        raise DecoyPayloadError(
            f"payload is not an image raster: {_describe(payload)}{suffix}"
        )
    if payload.size == 0:
        raise EmptyPayloadError(
            f"zero-byte payload: {_describe(payload)}{suffix}"
        )
    if not np.issubdtype(payload.dtype, np.floating):
        raise WrongDtypeError(
            f"raster dtype violates the float-pixel contract: "
            f"{_describe(payload)}{suffix}"
        )
    if payload.ndim != 3 or payload.shape[2] != 3:
        raise WrongShapeError(
            f"raster is not H×W×3: {_describe(payload)}{suffix}"
        )
    height, width = int(payload.shape[0]), int(payload.shape[1])
    if (
        height > MAX_RASTER_DIM
        or width > MAX_RASTER_DIM
        or height * width > MAX_RASTER_PIXELS
    ):
        raise AbsurdDimensionError(
            f"raster dimensions are implausible: {_describe(payload)}{suffix}"
        )
    if height < MIN_RASTER_DIM or width < MIN_RASTER_DIM:
        raise TruncatedRasterError(
            f"raster truncated below {MIN_RASTER_DIM}px: "
            f"{_describe(payload)}{suffix}"
        )
    if not bool(np.isfinite(payload).all()):
        raise NonFinitePixelError(
            f"raster contains NaN/Inf pixels: {_describe(payload)}{suffix}"
        )
    return payload


def rebuild_error(error_type: str, message: str) -> Exception:
    """Reconstruct a recorded validation failure as a raisable exception.

    Persistent memos (:class:`ValidationMemo`, the crawler's ingest
    memo) record failures as ``(error_type, message)`` strings; replay
    needs an exception object whose class *name* and ``str()`` match the
    original exactly, because that is all the quarantine ledger keeps.
    Known taxonomy classes are reused; unknown names get a synthesised
    ``Exception`` subclass of the same name.
    """
    cls = globals().get(error_type)
    if not (isinstance(cls, type) and issubclass(cls, Exception)):
        cls = type(error_type, (Exception,), {})
    return cls(message)


class ValidationMemo:
    """Digest-keyed memo of :func:`validate_raster` outcomes.

    Validation is a pure function of the raster, and every stage-level
    boundary (abuse filter, NSFV, provenance) validates with ``context =
    digest`` — so per digest the outcome *and the error message* are
    deterministic, and a run can skip both the raster render and the
    re-validation.  Crawler ingest records each digest it validated
    clean, so the stage boundaries of the same run re-render nothing
    either.  Entries are
    ``digest -> None`` (clean) or ``digest -> (error_type, message)``.

    Every access holds the memo's lock.
    """

    def __init__(self) -> None:
        self._outcomes: Dict[str, Optional[Tuple[str, str]]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._outcomes)

    def lookup(self, digest: str) -> Tuple[bool, Optional[Tuple[str, str]]]:
        """``(known, outcome)`` for ``digest``; counts one hit or miss."""
        with self._lock:
            if digest in self._outcomes:
                self.hits += 1
                return True, self._outcomes[digest]
            self.misses += 1
            return False, None

    def record_ok(self, digest: str) -> None:
        with self._lock:
            self._outcomes[digest] = None

    def record_error(self, digest: str, error: BaseException) -> None:
        with self._lock:
            self._outcomes[digest] = (type(error).__name__, str(error))

    def validate(self, digest: str, raster_fn) -> None:
        """Memoised ``validate_raster(raster_fn(), context=digest)``.

        Raises the (possibly rebuilt) validation error exactly as the
        unmemoised boundary would; on a memo hit the raster is never
        materialised.
        """
        known, outcome = self.lookup(digest)
        if known:
            if outcome is not None:
                raise rebuild_error(*outcome)
            return
        try:
            validate_raster(raster_fn(), context=digest)
        except Exception as exc:
            self.record_error(digest, exc)
            raise
        self.record_ok(digest)

    # -- persistence ----------------------------------------------------
    def items(self) -> List[Tuple[str, Optional[Tuple[str, str]]]]:
        """Snapshot as ``(digest, outcome)`` pairs for the store."""
        with self._lock:
            return list(self._outcomes.items())

    def preload(
        self, items: Iterable[Tuple[str, Optional[Tuple[str, str]]]]
    ) -> None:
        """Bulk-install persisted outcomes without counting hits/misses."""
        with self._lock:
            for digest, outcome in items:
                self._outcomes[digest] = (
                    None if outcome is None else (str(outcome[0]), str(outcome[1]))
                )


def ensure_color_raster(payload: Any, context: str = "") -> np.ndarray:
    """Kernel-side defensive check: structurally H×W×3 with finite values.

    Unlike :func:`validate_raster` this accepts any dtype and any size —
    classifier unit tests legitimately feed tiny patches — but still
    refuses decoys, empty arrays, wrong ranks and NaN/Inf poison, with
    the same typed taxonomy.
    """
    suffix = f" [{context}]" if context else ""
    if not isinstance(payload, np.ndarray) or payload.ndim == 0:
        raise DecoyPayloadError(
            f"pixels must be an H×W×3 array, got {_describe(payload)}{suffix}"
        )
    if payload.ndim != 3 or payload.shape[2] != 3:
        raise WrongShapeError(
            f"pixels must be an H×W×3 array, got {_describe(payload)}{suffix}"
        )
    if payload.size == 0:
        raise EmptyPayloadError(f"pixels array is empty{suffix}")
    if np.issubdtype(payload.dtype, np.floating) and not bool(
        np.isfinite(payload).all()
    ):
        raise NonFinitePixelError(
            f"pixels contain NaN/Inf values: {_describe(payload)}{suffix}"
        )
    return payload
