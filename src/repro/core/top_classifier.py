"""The hybrid TOP classifier: Linear-SVM arm ∪ heuristic arm (§4.1).

"If either method classifies a thread as offering packs, this is
included in our pipeline to extract links."  The hybrid therefore takes
the union of both arms' positives; §4.1's results table reports how many
TOPs each arm found and their overlap, which
:meth:`HybridTopClassifier.extraction_stats` reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..forum.dataset import ForumDataset
from ..forum.models import Thread
from ..ml.linear_svm import LinearSVM
from ..ml.metrics import ConfusionMatrix, confusion_matrix
from .features import ThreadFeatureExtractor
from .heuristics import HeuristicTopClassifier

__all__ = ["ExtractionStats", "HybridTopClassifier", "TopEvaluation"]


@dataclass(frozen=True, slots=True)
class TopEvaluation:
    """Held-out evaluation of the hybrid classifier (the §4.1 metrics)."""

    confusion: ConfusionMatrix

    @property
    def precision(self) -> float:
        return self.confusion.precision

    @property
    def recall(self) -> float:
        return self.confusion.recall

    @property
    def f1(self) -> float:
        return self.confusion.f1


@dataclass(frozen=True, slots=True)
class ExtractionStats:
    """Arm-level extraction counts over a full corpus (§4.1 results)."""

    n_hybrid: int
    n_ml: int
    n_heuristic: int
    n_both: int

    @property
    def ml_only(self) -> int:
        return self.n_ml - self.n_both

    @property
    def heuristic_only(self) -> int:
        return self.n_heuristic - self.n_both


class HybridTopClassifier:
    """Linear-SVM + heuristics, combined by union."""

    def __init__(
        self,
        svm: Optional[LinearSVM] = None,
        heuristics: Optional[HeuristicTopClassifier] = None,
        extractor: Optional[ThreadFeatureExtractor] = None,
    ):
        self.svm = svm if svm is not None else LinearSVM(lam=3e-5, epochs=40, seed=0)
        self.heuristics = heuristics if heuristics is not None else HeuristicTopClassifier()
        self.extractor = extractor if extractor is not None else ThreadFeatureExtractor()
        self._fitted = False

    @classmethod
    def with_normalization(cls) -> "HybridTopClassifier":
        """Hybrid whose both arms run the §4.1 forum-text normaliser."""
        return cls(
            heuristics=HeuristicTopClassifier(normalize=True),
            extractor=ThreadFeatureExtractor(normalize=True),
        )

    # ------------------------------------------------------------------
    def fit(
        self,
        dataset: ForumDataset,
        threads: Sequence[Thread],
        labels: Sequence[bool],
    ) -> "HybridTopClassifier":
        """Train the ML arm on annotated threads (the 800-thread set)."""
        if len(threads) != len(labels):
            raise ValueError("threads and labels must align")
        features = self.extractor.fit_transform(dataset, threads)
        self.svm.fit(features, np.asarray(labels, dtype=np.int64))
        self._fitted = True
        return self

    # ------------------------------------------------------------------
    def predict_ml(self, dataset: ForumDataset, threads: Sequence[Thread]) -> np.ndarray:
        """ML-arm verdicts (bool array)."""
        self._require_fitted()
        if not threads:
            return np.zeros(0, dtype=bool)
        features = self.extractor.transform(dataset, threads)
        return self.svm.predict(features).astype(bool)

    def predict_heuristic(
        self, dataset: ForumDataset, threads: Sequence[Thread]
    ) -> np.ndarray:
        """Heuristic-arm verdicts (bool array)."""
        return np.asarray(self.heuristics.predict(dataset, threads), dtype=bool)

    def predict(self, dataset: ForumDataset, threads: Sequence[Thread]) -> np.ndarray:
        """Hybrid verdicts: the union of both arms."""
        return self.predict_ml(dataset, threads) | self.predict_heuristic(dataset, threads)

    # ------------------------------------------------------------------
    def evaluate(
        self,
        dataset: ForumDataset,
        threads: Sequence[Thread],
        labels: Sequence[bool],
    ) -> TopEvaluation:
        """Score the hybrid on a held-out annotated set."""
        predictions = self.predict(dataset, threads)
        return TopEvaluation(confusion=confusion_matrix(np.asarray(labels), predictions))

    def extract_tops(
        self, dataset: ForumDataset, threads: Sequence[Thread]
    ) -> Tuple[List[Thread], ExtractionStats]:
        """Run the hybrid over a corpus; returns TOPs plus arm stats."""
        ml = self.predict_ml(dataset, threads)
        heuristic = self.predict_heuristic(dataset, threads)
        union = ml | heuristic
        tops = [thread for thread, flag in zip(threads, union) if flag]
        stats = ExtractionStats(
            n_hybrid=int(union.sum()),
            n_ml=int(ml.sum()),
            n_heuristic=int(heuristic.sum()),
            n_both=int((ml & heuristic).sum()),
        )
        return tops, stats

    # ------------------------------------------------------------------
    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("classifier must be fitted before prediction")
