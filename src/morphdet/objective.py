"""Classification posterior and the types of the training loss.

A proposal with feature vector f scores class j by the inner product with
that class's prototype p_j. A separately regressed logit b plays the role of
a background class without a background prototype. All scores share one
softmax denominator:

    denom = exp(b) + sum_j exp(f . p_j)

The p_j are the rows of a PrototypeSet's matrix, in ascending class id;
detection and the loss score against that stored matrix as it is.
softmax_terms is the one softmax of the package: posterior_batch returns its
posteriors for detection, and embedder.forward_batch_with_grad takes its
logits, log-denominator and posteriors for the training loss and its
gradients, so detection scores are bit-equal to the posterior that training
differentiates. In the loss the foreground term is the negative
log-probability of the labelled class, the background term that of the
background slot, and box regression a smooth-L1 penalty on the deltas of
foreground proposals. Each term is averaged over its own group and weighted
by the training config's fg_weight, bg_weight and bbox_weight; LossBreakdown
holds the weighted terms.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .numkernel import DimensionMismatch, EmptyInput
from .prototype_store import PrototypeSet


class LossBreakdown(NamedTuple):
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


def softmax_terms(features: np.ndarray, bg_logits: np.ndarray, mat: np.ndarray) -> tuple:
    """The one softmax of training and detection, max-shifted in log space:
    (logits, log_denom, q) with logits (n, M + 1), background in column 0
    and f . p_j in column j + 1, and posteriors q = exp(logits - log_denom);
    the product written into the logits, ufunc reduces and in-place exps keep
    its numpy calls few. Stacked runs' features (L, n, d) and matrices
    (L, M, d) give (L, n, M + 1) logits."""
    logits = np.empty((*features.shape[:-1], mat.shape[-2] + 1))
    logits[..., 0] = bg_logits
    np.matmul(features, mat.mT, out=logits[..., 1:])
    shift = np.maximum.reduce(logits, axis=-1)
    shifted = logits - shift[..., None]
    log_denom = np.log(np.add.reduce(np.exp(shifted, out=shifted), axis=-1))
    log_denom += shift
    q = logits - log_denom[..., None]
    return logits, log_denom, np.exp(q, out=q)


def posterior_batch(features: np.ndarray, bg_logits: np.ndarray, prototypes: PrototypeSet) -> np.ndarray:
    """Posterior matrix for a batch of proposals.

    Returns Q of shape (n, len(prototypes.ids) + 1); column 0 is the
    background probability and column k + 1 the probability of class
    prototypes.ids[k]. Rows sum to 1 up to rounding. Computed by
    softmax_terms, so logits of any usual magnitude are safe.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise DimensionMismatch(f"expected (n, d) features, got shape {feats.shape}")
    bg = np.asarray(bg_logits, dtype=np.float64).reshape(-1)
    if bg.shape[0] != feats.shape[0]:
        raise DimensionMismatch("one background logit per feature row required")
    return softmax_terms(feats, bg, scoring_matrix(prototypes, feats.shape[1]))[2]
