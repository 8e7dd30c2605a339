"""The feature-embedding network and its exact gradients.

Architecture: a trunk of affine + ReLU layers over proposal descriptors,
topped by one linear head block whose d + 5 columns are three heads: a
feature vector (scored against class prototypes), a single background logit,
and four class-agnostic box-regression deltas.

forward_batch embeds a batch for inference. forward_batch_with_grad computes
the training loss of objective.py on a minibatch given as arrays, foreground
rows first (descriptors, the foreground rows' prototype rows and box targets;
per-group means of foreground, background and box terms, each multiplied by
its weight) and backpropagates it through the heads and the ReLU trunk in
closed form, returning the gradient as one flat vector in the parameter
layout. Labels are mapped and checked by the caller: labelled_batch for one
batch, the M-step once for all of its batches. Both functions run the same
forward pass, and the loss takes its posteriors from objective.softmax_terms,
the softmax that detection scores with. Prototypes are constants here.
sgd_step updates a parameter vector and its velocity in place.

A module-level counter records every gradient evaluation; forward_batch never
touches it, which is how zero-gradient guarantees for morphing are asserted
downstream.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .numkernel import DimensionMismatch, EmptyInput, smooth_l1_array, smooth_l1_grad_array
from .objective import LossBreakdown, scoring_matrix, softmax_terms
from .prototype_store import PrototypeSet, UnknownClass
from .textio import tensor_lines

if TYPE_CHECKING:  # em_trainer imports this module
    from .em_trainer import TrainConfig

_grad_evaluations = 0


def grad_evaluation_count() -> int:
    """How many gradient computations have run in this process."""
    return _grad_evaluations


class CheckpointError(ValueError):
    """A checkpoint is malformed, versioned wrong, or shape-incompatible."""


class AffineLayer(NamedTuple):
    weight: np.ndarray  # (n_in, n_out)
    bias: np.ndarray  # (n_out,)


@lru_cache(maxsize=64)
def _layout(sizes: tuple[int, ...]) -> tuple[tuple, int]:
    """((start, stop, shape) per tensor, total length) of the flat vector: the
    trunk layers bottom-up, then the head block, each weight before its bias.
    The head block is a (top, d + 5) weight and a (d + 5,) bias; its columns
    are the feature (d), background (1) and box (4) heads."""
    widths = (*sizes[:-1], sizes[-1] + 5)
    slots, offset = [], 0
    for n_in, n_out in zip(widths, widths[1:]):
        for shape in ((n_in, n_out), (n_out,)):
            start, offset = offset, offset + math.prod(shape)
            slots.append((start, offset, shape))
    return tuple(slots), offset


def _views(flat: np.ndarray, sizes: tuple[int, ...]) -> list[np.ndarray]:
    """One view into `flat` per tensor of the layout, in layout order."""
    return [flat[start:stop].reshape(shape) for start, stop, shape in _layout(sizes)[0]]


def _check_flat(flat: np.ndarray, total: int, what: str) -> None:
    if flat.dtype != np.float64 or flat.shape != (total,):
        raise DimensionMismatch(f"{what}: {flat.dtype} {flat.shape}, expected float64 ({total},)")


def _is_size(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1


class EmbedderParams:
    """Every network tensor in one contiguous float64 vector `flat`.

    `sizes` is (m_in, *hidden_sizes, feature_dim); it fixes the layout, and
    the per-layer arrays are views into `flat`, built once here. The three
    heads, and so their checkpoint tensors, are column views of `heads`.
    """

    __slots__ = ("sizes", "flat", "trunk", "heads", "feature_head", "background_head", "box_head", "_tensors")

    def __init__(self, sizes, flat: np.ndarray | None = None):
        sizes = tuple(sizes)
        if len(sizes) < 2 or not all(_is_size(s) for s in sizes):
            raise ValueError(f"layer sizes (m_in, *hidden, d) must all be integers >= 1, got {sizes}")
        sizes = tuple(map(int, sizes))
        total = _layout(sizes)[1]
        if flat is None:
            flat = np.zeros(total)
        else:
            _check_flat(flat, total, "flat parameters")
        self.sizes = sizes
        self.flat = flat
        arrays = _views(flat, sizes)
        self.trunk = tuple(AffineLayer(*arrays[k : k + 2]) for k in range(0, len(arrays) - 2, 2))
        self.heads = heads = AffineLayer(*arrays[-2:])
        d = sizes[-1]
        self.feature_head, self.background_head, self.box_head = (
            AffineLayer(heads.weight[:, cols], heads.bias[cols]) for cols in (slice(d), slice(d, d + 1), slice(d + 1, None))
        )
        names = [f"trunk.{k}" for k in range(len(self.trunk))] + ["feature_head", "background_head", "box_head"]
        self._tensors = tuple((f"{name}.{field}", arr) for name, b in zip(names, self.blocks()) for field, arr in zip(b._fields, b))

    @property
    def m_in(self) -> int:
        return self.sizes[0]

    @property
    def hidden_sizes(self) -> tuple[int, ...]:
        return self.sizes[1:-1]

    @property
    def feature_dim(self) -> int:
        return self.sizes[-1]

    def blocks(self) -> list[AffineLayer]:
        return [*self.trunk, self.feature_head, self.background_head, self.box_head]

    def named_tensors(self) -> tuple[tuple[str, np.ndarray], ...]:
        """(checkpoint name, view) pairs in layout order."""
        return self._tensors


def validate_params(params: EmbedderParams) -> None:
    """Check every entry is finite; shapes hold by construction."""
    if not np.all(np.isfinite(params.flat)):
        raise ValueError("network parameters contain non-finite entries")


def init_params(m_in: int, hidden_sizes, feature_dim: int, seed: int) -> EmbedderParams:
    """Deterministic initialization: weights uniform in +-1/sqrt(fan_in),
    biases zero. Layers are drawn in a fixed order (trunk bottom-up, then the
    feature, background and box head columns), so a seed pins every tensor."""
    params = EmbedderParams((m_in, *hidden_sizes, feature_dim))
    rng = np.random.default_rng(seed)
    for layer in params.blocks():
        scale = 1.0 / math.sqrt(layer.weight.shape[0])
        layer.weight[:] = rng.uniform(-scale, scale, size=layer.weight.shape)
    return params


def _forward(params: EmbedderParams, descriptors):
    """Trunk pre-activations, trunk activations (input first) and the three
    heads (features, background logits, box deltas) for a descriptor batch,
    as column views of one head-block product."""
    x = np.asarray(descriptors, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.m_in:
        raise DimensionMismatch(f"descriptor batch has shape {x.shape}, expected (n, {params.m_in})")
    pre_acts: list[np.ndarray] = []
    acts: list[np.ndarray] = [x]
    for layer in params.trunk:
        pre_acts.append(acts[-1] @ layer.weight + layer.bias)
        acts.append(np.maximum(pre_acts[-1], 0.0))
    heads = acts[-1] @ params.heads.weight + params.heads.bias
    d = params.feature_dim
    return pre_acts, acts, (heads[:, :d], heads[:, d], heads[:, d + 1 :])


def forward_batch(params: EmbedderParams, descriptors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Embed a stack of descriptors; returns (features, bg_logits, box_deltas).
    Pure; never counts as a gradient evaluation."""
    return _forward(params, descriptors)[2]


def clone_params(params: EmbedderParams) -> EmbedderParams:
    return EmbedderParams(params.sizes, params.flat.copy())


def params_equal(a: EmbedderParams, b: EmbedderParams) -> bool:
    """Exact (bitwise-value) equality of two parameter sets."""
    return a.sizes == b.sizes and np.array_equal(a.flat, b.flat)


def labelled_batch(descriptors, labels, targets, prototypes: PrototypeSet) -> tuple:
    """forward_batch_with_grad's batch arguments from per-row labels (0 for
    background), foreground rows first; refuses a label with no prototype."""
    labels = np.asarray(labels)
    if not labels.shape[0]:
        raise EmptyInput("empty batch")
    pmat = scoring_matrix(prototypes, prototypes.dim)
    fg_rows = np.flatnonzero(labels > 0)
    fg_labels = labels[fg_rows]
    ids = np.asarray(prototypes.ids)
    slots = np.searchsorted(ids, fg_labels)
    unknown = np.take(ids, slots, mode="clip") != fg_labels
    if np.any(unknown):
        raise UnknownClass(f"foreground labels {np.unique(fg_labels[unknown]).tolist()} have no prototype")
    X = np.asarray(descriptors, dtype=np.float64)[np.concatenate([fg_rows, np.flatnonzero(labels == 0)])]
    return X, slots, len(fg_rows), np.asarray(targets, dtype=np.float64)[fg_rows], pmat


def forward_batch_with_grad(
    params: EmbedderParams,
    descriptors: np.ndarray,
    slots: np.ndarray,
    n_fg: int,
    fg_targets: np.ndarray,
    pmat: np.ndarray,
    config: TrainConfig,
    out: np.ndarray | None = None,
) -> tuple[LossBreakdown, np.ndarray]:
    """Composite loss and exact parameter gradients for one minibatch.

    Rows [0, n_fg) of `descriptors` are foreground: row i is of the class in
    row slots[i] of the prototype matrix `pmat`, with box targets
    fg_targets[i]; the other rows are background. The loss is the sum of three
    group means, weighted by config.fg_weight, bg_weight and bbox_weight:
    foreground and background negative log-probability, and smooth-L1 box
    regression over foreground rows. The gradient is one float64 vector in the
    layout of params.flat: `out` when given (its previous contents are
    overwritten), else a new vector. Accumulation order is fixed (batch
    order), so the result is reproducible bit-for-bit.
    """
    if not len(descriptors):
        raise EmptyInput("empty batch")
    n_bg = len(descriptors) - n_fg
    if out is None:
        out = np.empty_like(params.flat)
    else:
        _check_flat(out, params.flat.size, "gradient buffer")
    # Forward pass, keeping pre-activations for the backward sweep.
    pre_acts, acts, (feats, bg, deltas) = _forward(params, descriptors)

    all_logits, log_denom, q = softmax_terms(feats, bg, pmat)  # column 0 = background

    # The head block's gradient; background rows keep zero box columns.
    d_heads = np.zeros((len(descriptors), params.heads.bias.size))
    d = params.feature_dim
    d_feats, d_bg, d_deltas = d_heads[:, :d], d_heads[:, d], d_heads[:, d + 1 :]
    mix = q[:, 1:] @ pmat  # (N, d): sum_m q_m p_m, the log-denominator's f-gradient

    fg_term = bg_term = box_term = 0.0
    if n_fg:
        fg_vals = log_denom[:n_fg] - all_logits[np.arange(n_fg), slots + 1]
        fg_term = config.fg_weight * float(np.sum(fg_vals) / n_fg)
        coef = config.fg_weight / n_fg
        d_feats[:n_fg] = coef * (mix[:n_fg] - pmat[slots])
        d_bg[:n_fg] = coef * q[:n_fg, 0]

        residual = deltas[:n_fg] - fg_targets
        box_vals = np.sum(smooth_l1_array(residual), axis=1)
        box_term = config.bbox_weight * float(np.sum(box_vals) / n_fg)
        d_deltas[:n_fg] = (config.bbox_weight / n_fg) * smooth_l1_grad_array(residual)
    if n_bg:
        bg_vals = log_denom[n_fg:] - bg[n_fg:]
        bg_term = config.bg_weight * float(np.sum(bg_vals) / n_bg)
        coef = config.bg_weight / n_bg
        d_feats[n_fg:] = coef * mix[n_fg:]
        d_bg[n_fg:] = coef * (q[n_fg:, 0] - 1.0)

    breakdown = LossBreakdown(
        fg=fg_term, bg=bg_term, bbox=box_term, total=fg_term + bg_term + box_term
    )

    # Backward through the head block, then the ReLU trunk; each weight and
    # bias gradient is written into its slot of `out` (trunk bottom-up, then
    # the head block, each weight before its bias). np.add.reduce is np.sum's
    # arithmetic without its per-call argument handling.
    views = _views(out, params.sizes)
    np.matmul(acts[-1].T, d_heads, out=views[-2])
    np.add.reduce(d_heads, axis=0, out=views[-1])
    d_h = d_heads @ params.heads.weight.T
    for k in reversed(range(len(params.trunk))):
        d_z = d_h * (pre_acts[k] > 0.0)
        np.matmul(acts[k].T, d_z, out=views[2 * k])
        np.add.reduce(d_z, axis=0, out=views[2 * k + 1])
        if k:  # the input descriptors take no gradient
            d_h = d_z @ params.trunk[k].weight.T

    global _grad_evaluations
    _grad_evaluations += 1
    return breakdown, out


def sgd_step(
    params: EmbedderParams,
    grad: np.ndarray,
    lr: float,
    velocity: np.ndarray,
    momentum: float = 0.0,
) -> None:
    """One momentum-SGD update, in place on params.flat and `velocity`:
    v <- momentum * v + g; p <- p - lr * v. Pass a zero velocity for the first
    step. `grad` is only read.
    """
    lr = float(lr)
    momentum = float(momentum)
    if not lr > 0.0:
        raise ValueError(f"learning rate must be > 0, got {lr}")
    if not 0.0 <= momentum < 1.0:
        raise ValueError(f"momentum must lie in [0, 1), got {momentum}")
    if not params.flat.shape == grad.shape == velocity.shape:
        raise DimensionMismatch(
            f"update vectors differ in shape: {params.flat.shape} vs {grad.shape} vs {velocity.shape}"
        )
    np.multiply(momentum, velocity, out=velocity)
    np.add(velocity, grad, out=velocity)
    np.subtract(params.flat, lr * velocity, out=params.flat)


def params_to_lines(params: EmbedderParams) -> list[str]:
    """Tensor block lines (no header/config) for the detector checkpoint."""
    return [line for name, arr in params.named_tensors() for line in tensor_lines(name, arr)]


def params_from_tensors(tensors: dict[str, np.ndarray], hidden_sizes) -> EmbedderParams:
    """Rebuild parameters of the given hidden widths from named tensors; m_in
    and the feature dimension are the shapes of the bottom weight and the
    feature head, and every tensor's shape is checked against the layout."""
    tensors = dict(tensors)
    bottom = "trunk.0.weight" if hidden_sizes else "feature_head.weight"
    try:
        params = EmbedderParams((tensors[bottom].shape[0], *hidden_sizes, tensors["feature_head.weight"].shape[1]))
    except KeyError as exc:
        raise CheckpointError(f"checkpoint is missing tensor {exc}") from exc
    for name, view in params.named_tensors():
        if name not in tensors:
            raise CheckpointError(f"checkpoint is missing tensor {name!r}")
        arr = tensors.pop(name)
        expected = np.atleast_2d(view).shape
        if arr.shape != expected:
            raise CheckpointError(f"tensor {name!r} has shape {arr.shape}, expected {expected}")
        view[...] = arr.reshape(view.shape)
    if tensors:
        raise CheckpointError(f"checkpoint has unexpected tensors: {sorted(tensors)}")
    try:
        validate_params(params)
    except ValueError as exc:
        raise CheckpointError(str(exc)) from exc
    return params
