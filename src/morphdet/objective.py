"""Classification posterior and the types of the training loss.

A proposal with feature vector f scores class j by the inner product with
that class's prototype p_j. A separately regressed logit b plays the role of
a background class without a background prototype. All scores share one
softmax denominator:

    denom = exp(b) + sum_j exp(f . p_j)

The p_j are the rows of a PrototypeSet's matrix, in ascending class id;
both paths score against that stored matrix as it is. posterior_batch turns
a batch of features and background logits into the posterior for detection.
The training loss and its gradients are computed in
embedder.forward_batch_with_grad: the foreground term is the negative
log-probability of the labelled class, the background term that of the
background slot, and box regression a smooth-L1 penalty on the deltas of
foreground proposals. Each term is averaged over its own group and weighted
by LossWeights; LossBreakdown holds the weighted terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkernel import DimensionMismatch, EmptyInput
from .prototype_store import PrototypeSet


@dataclass(frozen=True)
class LossWeights:
    fg: float = 1.0
    bg: float = 1.0
    bbox: float = 1.0


@dataclass(frozen=True)
class LossBreakdown:
    """Weighted contributions of the three terms; total == fg + bg + bbox."""

    fg: float
    bg: float
    bbox: float
    total: float


def scoring_matrix(prototypes: PrototypeSet, dim: int) -> np.ndarray:
    """The set's (M, dim) prototype matrix, checked to be non-empty and to
    match the feature dimension."""
    if not prototypes.ids:
        raise EmptyInput("no prototypes to score against")
    if prototypes.dim != dim:
        raise DimensionMismatch(f"prototype dim {prototypes.dim} != feature dim {dim}")
    return prototypes.matrix


def posterior_batch(features: np.ndarray, bg_logits: np.ndarray, prototypes: PrototypeSet) -> np.ndarray:
    """Posterior matrix for a batch of proposals.

    Returns Q of shape (n, len(prototypes.ids) + 1); column 0 is the
    background probability and column k + 1 the probability of class
    prototypes.ids[k]. Rows sum to 1. Computed with a max-shifted softmax,
    so logits of any usual magnitude are safe.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise DimensionMismatch(f"expected (n, d) features, got shape {feats.shape}")
    bg = np.asarray(bg_logits, dtype=np.float64).reshape(-1)
    if bg.shape[0] != feats.shape[0]:
        raise DimensionMismatch("one background logit per feature row required")
    mat = scoring_matrix(prototypes, feats.shape[1])
    logits = np.concatenate([bg[:, None], feats @ mat.T], axis=1)
    shift = np.max(logits, axis=1, keepdims=True)
    expd = np.exp(logits - shift)
    return expd / np.sum(expd, axis=1, keepdims=True)
