"""Classification posterior and the training loss's reduction.

A proposal with feature vector f scores class j by the inner product with
that class's prototype p_j. A separately regressed logit b plays the role of
a background class without a background prototype. All scores share one
softmax denominator:

    denom = exp(b) + sum_j exp(f . p_j)

The p_j are the rows of a PrototypeSet's matrix, in ascending class id;
detection and the loss score against that stored matrix as it is.
softmax_terms is the one softmax of the package: posterior_batch returns its
posteriors for detection, and embedder.forward_batch_with_grad takes its
logits, log-denominator and posteriors for the training loss's gradients, so
detection scores are bit-equal to the posterior that training differentiates.
That step returns the loss's rows: each row's negative log-probability (of
the labelled class on a foreground row, of the background slot on a
background row) and each foreground row's box residuals. loss_breakdown
reduces them to each group's mean negative log-probability and the mean
smooth-L1 penalty of the residuals, weighted by the training config's
fg_weight, bg_weight and bbox_weight, for one step or a stack of steps, so
the M-step reduces an epoch's steps in one call.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .numkernel import DimensionMismatch, EmptyInput, smooth_l1
from .prototype_store import PrototypeSet


class LossBreakdown(NamedTuple):
    """Weighted contributions of the three terms; total == fg + bg + bbox."""

    fg: float
    bg: float
    bbox: float
    total: float


def loss_breakdown(rows, config) -> LossBreakdown:
    """The weighted terms of one step's (nll, box residuals) rows, or, entry by entry, of each step's in a stack of
    steps' (and runs') rows on leading axes: each sum runs along its own row, pairwise as in a row alone."""
    nll, residuals = rows
    n_fg, n_bg = residuals.shape[-2], nll.shape[-1] - residuals.shape[-2]
    zero = np.zeros(nll.shape[:-1])[()]  # 0.0, or an array of the leading axes' zeros
    fg = config.fg_weight * (np.add.reduce(nll[..., :n_fg], axis=-1) / n_fg) if n_fg else zero
    bg = config.bg_weight * (np.add.reduce(nll[..., n_fg:], axis=-1) / n_bg) if n_bg else zero
    box = config.bbox_weight * (np.add.reduce(np.add.reduce(smooth_l1(residuals)[0], axis=-1), axis=-1) / n_fg) if n_fg else zero
    return LossBreakdown(fg, bg, box, fg + bg + box)


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
