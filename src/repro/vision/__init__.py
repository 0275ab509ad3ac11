"""Image-analysis substrate: NSFW scoring, OCR, robust hashing, reverse search.

Hot-path batching lives in :mod:`repro.vision.batch` (stacked DCT
hashing, vectorised bit packing) on top of the :mod:`repro.vision.bits`
kernels (popcount, Hamming matrices), and
:mod:`repro.vision.cache` provides the :class:`Featurizer` that computes
each distinct image's hash / NSFW / OCR record once, into the
content-addressed :class:`VisionCache` every pipeline stage reads.
"""

from .batch import hash_batch, hash_batch_ints, prepare_thumbnails
from .bits import hamming_matrix, pack_bits_rows, popcount
from .cache import Featurizer, VisionCache, VisionCacheStats
from .nsfw import NsfwScorer, nsfw_score, skin_mask
from .ocr import OcrEngine, WordBox, ocr_word_count
from .photodna import (
    AbuseSeverity,
    HashListEntry,
    HashListService,
    MatchResult,
    ReportLog,
    ReportRecord,
    hamming_distance,
    robust_hash,
)
from .reverse_search import (
    IndexedCopy,
    ReverseImageIndex,
    ReverseMatch,
    ReverseSearchReport,
)

__all__ = [
    "AbuseSeverity",
    "Featurizer",
    "HashListEntry",
    "HashListService",
    "IndexedCopy",
    "MatchResult",
    "NsfwScorer",
    "OcrEngine",
    "ReportLog",
    "ReportRecord",
    "ReverseImageIndex",
    "ReverseMatch",
    "ReverseSearchReport",
    "VisionCache",
    "VisionCacheStats",
    "WordBox",
    "hamming_distance",
    "hamming_matrix",
    "hash_batch",
    "hash_batch_ints",
    "nsfw_score",
    "ocr_word_count",
    "pack_bits_rows",
    "popcount",
    "prepare_thumbnails",
    "robust_hash",
    "skin_mask",
]
