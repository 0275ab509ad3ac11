"""Linear support-vector machine trained with Pegasos-style SGD.

The paper (§4.1) uses a Linear-SVM because it "offered the best results in
previous experimentation" on CrimeBB text.  This implementation solves the
L2-regularised hinge-loss objective

    min_w  (lambda/2)·||w||² + (1/n)·Σ max(0, 1 − y_i·(w·x_i + b))

with the Pegasos projected-subgradient schedule (Shalev-Shwartz et al.,
2007).  It is deterministic given a seed and depends only on numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["LinearSVM", "SVMNotFitted"]


class SVMNotFitted(RuntimeError):
    """Raised when predict/decision is called before fit."""


@dataclass
class LinearSVM:
    """Binary linear SVM with {-1, +1} (or {0, 1}) labels.

    Parameters
    ----------
    lam:
        L2 regularisation strength (Pegasos ``lambda``).  Smaller values
        fit the training set harder.
    epochs:
        Number of passes over the training data.
    seed:
        Seed for the sampling order; fixed for reproducibility.
    fit_intercept:
        Whether to learn an (unregularised) bias term.
    """

    lam: float = 1e-4
    epochs: int = 60
    seed: int = 0
    fit_intercept: bool = True
    #: Balance classes by sampling steps from each class with equal
    #: probability — TOP annotation sets are heavily skewed (§4.1: 175
    #: positives in 1 000 threads) and unbalanced hinge SGD collapses to
    #: the majority class.
    balanced: bool = True

    weights: Optional[np.ndarray] = None
    bias: float = 0.0

    # ------------------------------------------------------------------
    def fit(self, features: np.ndarray, labels: np.ndarray) -> "LinearSVM":
        """Train on ``features`` (n×d) and binary ``labels`` (n,).

        The intercept is learned through an augmented constant feature so
        the whole parameter vector shares the Pegasos projection — a raw
        bias update at the early (huge) Pegasos step sizes is unstable.
        """
        features = np.asarray(features, dtype=np.float64)
        signs = self._as_signs(np.asarray(labels))
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if features.shape[0] != signs.shape[0]:
            raise ValueError("features and labels disagree on sample count")
        if features.shape[0] == 0:
            raise ValueError("cannot fit on an empty training set")
        if len(np.unique(signs)) < 2:
            raise ValueError("training labels must contain both classes")

        if self.fit_intercept:
            features = np.hstack([features, np.ones((features.shape[0], 1))])

        n_samples, n_features = features.shape
        rng = np.random.default_rng(self.seed)
        weights = np.zeros(n_features, dtype=np.float64)
        radius = 1.0 / np.sqrt(self.lam)

        positives = np.flatnonzero(signs > 0)
        negatives = np.flatnonzero(signs < 0)
        total_steps = self.epochs * n_samples
        if self.balanced:
            half = total_steps // 2
            order = np.concatenate(
                [
                    rng.choice(positives, size=half),
                    rng.choice(negatives, size=total_steps - half),
                ]
            )
            rng.shuffle(order)
        else:
            order = np.concatenate(
                [rng.permutation(n_samples) for _ in range(self.epochs)]
            )

        for step, index in enumerate(order, start=1):
            eta = 1.0 / (self.lam * step)
            x = features[index]
            y = signs[index]
            margin = y * (weights @ x)
            weights *= 1.0 - eta * self.lam
            if margin < 1.0:
                weights += eta * y * x
            norm = np.linalg.norm(weights)
            if norm > radius:
                weights *= radius / norm

        if self.fit_intercept:
            self.weights = weights[:-1]
            self.bias = float(weights[-1])
        else:
            self.weights = weights
            self.bias = 0.0
        return self

    # ------------------------------------------------------------------
    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Signed distance-like scores ``w·x + b``."""
        if self.weights is None:
            raise SVMNotFitted("call fit() before decision_function()")
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 1:
            features = features[np.newaxis, :]
        if features.shape[1] != self.weights.shape[0]:
            raise ValueError(
                f"feature dimension {features.shape[1]} does not match "
                f"trained dimension {self.weights.shape[0]}"
            )
        return features @ self.weights + self.bias

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted labels in {0, 1}."""
        return (self.decision_function(features) >= 0.0).astype(np.int64)

    # ------------------------------------------------------------------
    @staticmethod
    def _as_signs(labels: np.ndarray) -> np.ndarray:
        """Map {0,1} or {-1,+1} labels onto {-1.0, +1.0}."""
        labels = labels.astype(np.float64).ravel()
        unique = set(np.unique(labels).tolist())
        if unique <= {0.0, 1.0}:
            return np.where(labels > 0.5, 1.0, -1.0)
        if unique <= {-1.0, 1.0}:
            return labels
        raise ValueError(f"labels must be binary, got values {sorted(unique)}")
