"""Classification posterior and the types of the training loss.

A proposal with feature vector f scores class j by the inner product with
that class's prototype p_j. A separately regressed logit b plays the role of
a background class without a background prototype. All scores share one
softmax denominator:

    denom = exp(b) + sum_j exp(f . p_j)

posterior_batch turns a batch of features and background logits into that
posterior for detection. The training loss and its gradients are computed in
embedder.forward_batch_with_grad: the foreground term is the negative
log-probability of the labelled class, the background term that of the
background slot, and box regression a smooth-L1 penalty on the deltas of
foreground proposals. Each term is averaged over its own group and weighted
by LossWeights; LossBreakdown holds the weighted terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .numkernel import DimensionMismatch, EmptyInput
from .prototype_store import Prototype


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


def prototype_matrix(prototypes: Sequence[Prototype], dim: int) -> tuple[np.ndarray, list[int]]:
    """(M, dim) matrix of the prototype vectors in the given order, and their ids."""
    if len(prototypes) == 0:
        raise EmptyInput("no prototypes to score against")
    ids = [p.class_id for p in prototypes]
    mat = np.stack([np.asarray(p.vector, dtype=np.float64) for p in prototypes])
    if mat.shape[1] != dim:
        raise DimensionMismatch(f"prototype dim {mat.shape[1]} != feature dim {dim}")
    return mat, ids


def posterior_batch(
    features: np.ndarray, bg_logits: np.ndarray, prototypes: Sequence[Prototype]
) -> tuple[np.ndarray, list[int]]:
    """Posterior matrix for a batch of proposals.

    Returns (Q, ids) where Q has shape (n, len(ids) + 1); column 0 is the
    background probability and column k + 1 the probability of ids[k]. Rows
    sum to 1. Computed with a max-shifted softmax, so logits of any usual
    magnitude are safe.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise DimensionMismatch(f"expected (n, d) features, got shape {feats.shape}")
    bg = np.asarray(bg_logits, dtype=np.float64).reshape(-1)
    if bg.shape[0] != feats.shape[0]:
        raise DimensionMismatch("one background logit per feature row required")
    mat, ids = prototype_matrix(prototypes, feats.shape[1])
    logits = np.concatenate([bg[:, None], feats @ mat.T], axis=1)
    shift = np.max(logits, axis=1, keepdims=True)
    expd = np.exp(logits - shift)
    q = expd / np.sum(expd, axis=1, keepdims=True)
    return q, ids
