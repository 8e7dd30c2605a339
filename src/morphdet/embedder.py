"""The feature-embedding network and its exact gradients.

Architecture: a trunk of affine + ReLU layers over proposal descriptors,
topped by one linear head block whose d + 5 columns are three heads: a
feature vector (scored against class prototypes), a single background logit,
and four class-agnostic box-regression deltas.

forward_batch embeds a batch for inference. forward_batch_with_grad computes
the training loss of objective.py on a minibatch given as arrays, foreground
rows first (descriptors, each row's own logit column, the prototype table
those columns index and the foreground rows' box targets; per-group means of
foreground, background and box terms, each multiplied by its weight) in one
pass over both row groups, and backpropagates it through the heads and the
ReLU trunk in closed form, writing the gradient into the caller's flat vector
in the parameter layout. Labels are mapped to logit columns and checked by
the caller, the M-step once for all of its batches. Both functions run the
same forward pass, and the loss takes its posteriors from
objective.softmax_terms, the softmax that detection scores with. Prototypes
are constants here. sgd_step updates a parameter vector and its velocity in
place. Both training functions also take an (L, P) stack of L runs'
parameters, so runs that share their batches step together.

A module-level counter records every gradient evaluation; forward_batch never
touches it, which is how zero-gradient guarantees for morphing are asserted
downstream.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .numkernel import DimensionMismatch, EmptyInput, smooth_l1
from .objective import LossBreakdown, softmax_terms
from .textio import tensor_line

if TYPE_CHECKING:  # em_trainer imports this module
    from .em_trainer import TrainConfig

_grad_evaluations = 0
_last_grad_views: tuple = (None, (), ())  # the last gradient buffer, its layout and its views


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
    """One view into `flat` per tensor of the layout, in layout order; a stack's
    views have its leading run axis."""
    lead = flat.shape[:-1]
    return [flat[..., start:stop].reshape(*lead, *shape) for start, stop, shape in _layout(sizes)[0]]


def _grad_views(out: np.ndarray, sizes: tuple[int, ...]) -> list[np.ndarray]:
    """_views of a gradient buffer, kept (and the buffer with them) from the last call with
    the same buffer and layout: the M-step writes every step's gradient into one buffer,
    and slicing it anew costs about 4% of a step."""
    global _last_grad_views
    last = _last_grad_views
    if last[0] is not out or last[1] != sizes:
        last = _last_grad_views = (out, sizes, _views(out, sizes))
    return last[2]


def _check_flat(flat: np.ndarray, shape: tuple[int, ...], what: str) -> None:
    if flat.dtype != np.float64 or flat.shape != shape:
        raise DimensionMismatch(f"{what}: {flat.dtype} {flat.shape}, expected float64 {shape}")


def _is_size(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1


class EmbedderParams:
    """Every network tensor in one contiguous float64 vector `flat`.

    `sizes` is (m_in, *hidden_sizes, feature_dim); it fixes the layout, and
    the per-layer arrays are views into `flat`, built once here. The three
    heads, and so their checkpoint tensors, are column views of `heads`.
    `flat` may be an (L, P) stack of runs trained in lockstep; every view then
    has a leading run axis.
    """

    __slots__ = ("sizes", "flat", "trunk", "heads", "feature_head", "background_head", "box_head", "_tensors", "_row_biases")

    def __init__(self, sizes, flat: np.ndarray | None = None):
        sizes = tuple(sizes)
        if len(sizes) < 2 or not all(_is_size(s) for s in sizes):
            raise ValueError(f"layer sizes (m_in, *hidden, d) must all be integers >= 1, got {sizes}")
        sizes = tuple(map(int, sizes))
        total = _layout(sizes)[1]
        if flat is None:
            flat = np.zeros(total)
        else:
            _check_flat(flat, (total,) if flat.ndim < 2 else (len(flat), total), "flat parameters")
        self.sizes = sizes
        self.flat = flat
        arrays = _views(flat, sizes)
        self.trunk = tuple(AffineLayer(*arrays[k : k + 2]) for k in range(0, len(arrays) - 2, 2))
        self.heads = heads = AffineLayer(*arrays[-2:])
        self._row_biases = tuple(layer.bias[..., None, :] for layer in (*self.trunk, heads))  # rows that broadcast over a batch
        d = sizes[-1]
        self.feature_head, self.background_head, self.box_head = (
            AffineLayer(heads.weight[..., cols], heads.bias[..., cols]) for cols in (slice(d), slice(d, d + 1), slice(d + 1, None))
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
    as column views of one head-block product; a stack's have its run axis."""
    x = np.asarray(descriptors, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.m_in:
        raise DimensionMismatch(f"descriptor batch has shape {x.shape}, expected (n, {params.m_in})")
    pre_acts: list[np.ndarray] = []
    acts: list[np.ndarray] = [x]
    for layer, bias in zip(params.trunk, params._row_biases):
        z = acts[-1] @ layer.weight
        z += bias
        pre_acts.append(z)
        acts.append(np.maximum(z, 0.0))
    heads = acts[-1] @ params.heads.weight
    heads += params._row_biases[-1]
    d = params.feature_dim
    return pre_acts, acts, (heads[..., :d], heads[..., d], heads[..., d + 1 :])


def forward_batch(params: EmbedderParams, descriptors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Embed a stack of descriptors; returns (features, bg_logits, box_deltas).
    Pure; never counts as a gradient evaluation."""
    return _forward(params, descriptors)[2]


def clone_params(params: EmbedderParams) -> EmbedderParams:
    return EmbedderParams(params.sizes, params.flat.copy())


def loss_table(pmat: np.ndarray) -> np.ndarray:
    """A zero row on top of `pmat`: row c is the prototype of logit column c, none for the background."""
    return np.concatenate([np.zeros((1, pmat.shape[1])), pmat])


def forward_batch_with_grad(
    params: EmbedderParams,
    descriptors: np.ndarray,
    cols: np.ndarray,
    n_fg: int,
    fg_targets: np.ndarray,
    table: np.ndarray,
    config: TrainConfig,
    out: np.ndarray,
) -> tuple[LossBreakdown, np.ndarray]:
    """Composite loss and exact parameter gradients for one minibatch.

    Rows [0, n_fg) of `descriptors` are foreground, with box targets
    fg_targets[i]; the other rows are background. Row i's own logit column is
    cols[i]: j + 1 for the class in row j of the prototype matrix, 0 for
    background; `table` is loss_table of that matrix. The loss is the sum of
    three group means, weighted by config.fg_weight, bg_weight and
    bbox_weight: foreground and background negative log-probability, and
    smooth-L1 box regression over foreground rows. The gradient is written
    into `out`, a float64 buffer shaped like params.flat, and returned; its
    previous contents are overwritten. Accumulation order is fixed (batch
    order), so the result is reproducible bit-for-bit.

    The loss terms are float64 scalars. An (L, P) stack of runs shares the
    batch against an (L, M + 1, d) stack of tables; each run's gradient row
    and (L,) loss term entries are those of a call on its own row and table.
    """
    if not (n := len(descriptors)):
        raise EmptyInput("empty batch")
    _check_flat(out, params.flat.shape, "gradient buffer")
    # Forward pass, keeping pre-activations for the backward sweep.
    pre_acts, acts, (feats, bg, deltas) = _forward(params, descriptors)
    all_logits, log_denom, q = softmax_terms(feats, bg, table[..., 1:, :])  # column 0 = background

    n_bg = n - n_fg
    runs = params.flat.shape[:-1]  # () for one run's flat, (L,) for a stack; np.zeros(runs)[()] is 0.0 or L zeros
    vals = log_denom - all_logits[..., np.arange(n), cols]  # each row's negative log-probability; each group sums its own
    fg_term = config.fg_weight * (np.add.reduce(vals[..., :n_fg], axis=-1) / n_fg) if n_fg else np.zeros(runs)[()]
    bg_term = config.bg_weight * (np.add.reduce(vals[..., n_fg:], axis=-1) / n_bg) if n_bg else np.zeros(runs)[()]
    box_term = fg_term  # zero without foreground rows, and set below with them

    # The head block's gradient: per row, its group's weight over its group's size
    # times [sum_m q_m p_m - p_own | q_0 - t], t = 1 on background rows only (table
    # row 0 is zeros, and x - 0.0 == x); background rows keep zero box columns.
    d = params.feature_dim
    d_heads = np.zeros((*runs, n, d + 5))
    d_fb, d_deltas = d_heads[..., : d + 1], d_heads[..., d + 1 :]
    np.subtract(q[..., 1:] @ table[..., 1:, :], table.take(cols, -2), out=d_heads[..., :d])
    d_heads[..., d] = q[..., 0]
    d_heads[..., n_fg:, d] -= 1.0
    if n_fg:
        d_fb[..., :n_fg, :] *= config.fg_weight / n_fg
        box_vals, slope = smooth_l1(deltas[..., :n_fg, :] - fg_targets)
        box_term = config.bbox_weight * (np.add.reduce(np.add.reduce(box_vals, axis=-1), axis=-1) / n_fg)
        np.multiply(config.bbox_weight / n_fg, slope, out=d_deltas[..., :n_fg, :])
    if n_bg:
        d_fb[..., n_fg:, :] *= config.bg_weight / n_bg

    # Backward through the head block, then the ReLU trunk; each weight and
    # bias gradient is written into its slot of `out` (trunk bottom-up, then
    # the head block, each weight before its bias). np.add.reduce is np.sum's
    # arithmetic without its per-call argument handling.
    views = _grad_views(out, params.sizes)
    np.matmul(acts[-1].mT, d_heads, out=views[-2])
    np.add.reduce(d_heads, axis=-2, out=views[-1])
    d_h = d_heads @ params.heads.weight.mT
    for k in reversed(range(len(params.trunk))):
        d_h *= pre_acts[k] > 0.0  # through the ReLU: now the pre-activation gradient
        np.matmul(acts[k].mT, d_h, out=views[2 * k])
        np.add.reduce(d_h, axis=-2, out=views[2 * k + 1])
        if k:  # the input descriptors take no gradient
            d_h = d_h @ params.trunk[k].weight.mT

    global _grad_evaluations
    _grad_evaluations += math.prod(runs)
    return LossBreakdown(fg_term, bg_term, box_term, fg_term + bg_term + box_term), out


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
    """Tensor lines (no header/config) for the detector checkpoint."""
    return [tensor_line(name, arr) for name, arr in params.named_tensors()]


def params_from_tensors(tensors: dict[str, np.ndarray], hidden_sizes) -> EmbedderParams:
    """Rebuild parameters of the given hidden widths from named tensors; m_in
    and the feature dimension are the shapes of the bottom weight and the
    feature head, and every tensor's shape is checked against the layout.
    Values are not checked: the tensor codec refused a non-finite one."""
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
    return params
