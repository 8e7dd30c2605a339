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
ReLU trunk in closed form, writing each weight and bias gradient into its
view of the gradient buffer, an EmbedderParams of the parameters' layout that
the caller owns; the module keeps no reference to it. Labels are mapped to
logit columns and checked by the caller, the M-step once for all of its
batches. Both functions run the same forward pass, and the loss takes its
posteriors from objective.softmax_terms, the softmax that detection scores
with. Prototypes are constants here. sgd_step updates a parameter vector and
its velocity in place. Both training functions also take an (L, P) stack of
L runs' parameters, so runs that share their batches step together.

A module-level counter records every gradient evaluation; forward_batch never
touches it, which is how zero-gradient guarantees for morphing are asserted
downstream.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .numkernel import DimensionMismatch, EmptyInput, smooth_l1
from .objective import LossBreakdown, softmax_terms
from .textio import tensor_line

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


def param_layout(sizes: tuple[int, ...]) -> tuple[tuple, int]:
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
        slots, total = param_layout(sizes)
        if flat is None:
            flat = np.zeros(total)
        else:
            _check_flat(flat, (total,) if flat.ndim < 2 else (len(flat), total), "flat parameters")
        self.sizes = sizes
        self.flat = flat
        lead = flat.shape[:-1]  # a stack's views have its leading run axis
        arrays = [flat[..., start:stop].reshape(*lead, *shape) for start, stop, shape in slots]
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
    """Trunk pre-activations, trunk activations (input first) and the head
    block for a descriptor batch (split_heads); a stack's have its run axis."""
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
    return pre_acts, acts, heads


def split_heads(params: EmbedderParams, heads: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The head block's column views: features, background logits and box deltas."""
    d = params.feature_dim
    return heads[..., :d], heads[..., d], heads[..., d + 1 :]


def forward_batch(params: EmbedderParams, descriptors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Embed a stack of descriptors; returns (features, bg_logits, box_deltas).
    Pure; never counts as a gradient evaluation. An odd batch is embedded with
    a zero row appended, then cut: OpenBLAS's AVX2 and AVX-512 kernels give one
    product the same bytes at even row counts only."""
    x = np.asarray(descriptors, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.m_in or len(x) % 2 == 0:  # _forward refuses a bad shape as given
        return split_heads(params, _forward(params, x)[2])
    padded = np.zeros((len(x) + 1, x.shape[1]))
    padded[:-1] = x
    return split_heads(params, _forward(params, padded)[2][..., :-1, :])  # the head block cut once


def clone_params(params: EmbedderParams) -> EmbedderParams:
    return EmbedderParams(params.sizes, params.flat.copy())


def loss_table(pmat: np.ndarray) -> np.ndarray:
    """A zero row on top of `pmat`: row c is the prototype of logit column c, none for the background."""
    return np.concatenate([np.zeros((1, pmat.shape[1])), pmat])


def forward_batch_with_grad(
    params: EmbedderParams,
    descriptors: np.ndarray,
    cols: np.ndarray,
    fg_targets: np.ndarray,
    table: np.ndarray,
    config: TrainConfig,
    out: EmbedderParams,
) -> LossBreakdown:
    """Composite loss and exact parameter gradients for one minibatch.

    The first len(fg_targets) rows of `descriptors` are foreground, row i
    with box targets fg_targets[i]; the other rows are background. Row i's
    own logit column is cols[i]: j + 1 for the class in row j of the
    prototype matrix, 0 for background; `table` is loss_table of that matrix.
    The loss is the sum of three group means, weighted by config.fg_weight,
    bg_weight and bbox_weight: foreground and background negative
    log-probability, and smooth-L1 box regression over foreground rows. The
    loss is returned and the gradient written into `out`, an EmbedderParams of
    params' sizes and flat shape (any other buffer raises DimensionMismatch),
    whose previous contents are overwritten. Accumulation order is fixed
    (batch order), so the result is reproducible bit-for-bit.

    The loss terms are float64 scalars. An (L, P) stack of runs shares the
    batch against an (L, M + 1, d) stack of tables; each run's gradient row
    and (L,) loss term entries are those of a call on its own row and table.
    """
    if not (n := len(descriptors)):
        raise EmptyInput("empty batch")
    want = (params.sizes, params.flat.shape)
    got = (out.sizes, out.flat.shape) if isinstance(out, EmbedderParams) else type(out).__name__
    if got != want:
        raise DimensionMismatch(f"gradient buffer has sizes and flat shape {got}, expected {want}")
    # Forward pass, keeping pre-activations for the backward sweep.
    pre_acts, acts, heads = _forward(params, descriptors)
    feats, bg, deltas = split_heads(params, heads)
    all_logits, log_denom, q = softmax_terms(feats, bg, table[..., 1:, :])  # column 0 = background

    n_fg = len(fg_targets)
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
    # bias gradient is written into its view in `out`. np.add.reduce is
    # np.sum's arithmetic without its per-call argument handling.
    np.matmul(acts[-1].mT, d_heads, out=out.heads.weight)
    np.add.reduce(d_heads, axis=-2, out=out.heads.bias)
    d_h = d_heads @ params.heads.weight.mT
    for k in reversed(range(len(params.trunk))):
        d_h *= pre_acts[k] > 0.0  # through the ReLU: now the pre-activation gradient
        np.matmul(acts[k].mT, d_h, out=out.trunk[k].weight)
        np.add.reduce(d_h, axis=-2, out=out.trunk[k].bias)
        if k:  # the input descriptors take no gradient
            d_h = d_h @ params.trunk[k].weight.mT

    global _grad_evaluations
    _grad_evaluations += math.prod(runs)
    return LossBreakdown(fg_term, bg_term, box_term, fg_term + bg_term + box_term)


def sgd_step(
    params: EmbedderParams,
    grad: np.ndarray,
    lr: float,
    velocity: np.ndarray,
    momentum: float = 0.0,
) -> None:
    """One momentum-SGD update, in place on params.flat and `velocity`:
    v <- momentum * v + g; p <- p - lr * v. Pass a zero velocity for the first
    step. At momentum 0 the update is p <- p - lr * g and `velocity` is left as
    it is: 0 * v + g differs from g only in the sign of a zero, which reaches p
    only where p is -0.0, and no parameter is (init draws weights as -s + 2s*u
    and zero biases, and x - y is -0.0 only for x = -0.0). `grad` is only read.
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
    if momentum:
        np.multiply(momentum, velocity, out=velocity)
        grad = np.add(velocity, grad, out=velocity)
    np.subtract(params.flat, lr * grad, out=params.flat)


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
