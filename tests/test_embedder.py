"""Network forward/backward: finite-difference gradient oracle, SGD algebra,
the flat parameter layout, and the gradient-evaluation counter discipline."""

import re

import numpy as np
import pytest

from helpers import empty_prototypes, grad_buffer, labelled_batch, params_equal
from morphdet.em_trainer import TrainConfig
from morphdet.embedder import (
    _forward,
    EmbedderParams,
    clone_params,
    forward_batch,
    forward_batch_with_grad,
    grad_evaluation_count,
    init_params,
    sgd_step,
)
from morphdet.numkernel import DimensionMismatch, smooth_l1
from morphdet.objective import LossBreakdown, scoring_matrix, softmax_terms
from morphdet.prototype_store import UnknownClass, init_from_semantic
from morphdet.textio import parse_tensor, tensor_line


def make_protos(rng, count, dim):
    return init_from_semantic({k + 1: rng.normal(size=dim) for k in range(count)})


def stack_batch(rows, m_in):
    """(descriptors, labels, targets) arrays from (descriptor, label, target
    or None) rows; background rows get zero targets."""
    return (
        np.array([desc for desc, _, _ in rows]).reshape(len(rows), m_in),
        np.array([label for _, label, _ in rows], dtype=int),
        np.array([np.zeros(4) if t is None else t for _, _, t in rows]).reshape(len(rows), 4),
    )


def make_batch(rng, m_in, labels):
    rows = [
        (rng.normal(size=m_in), label, rng.uniform(-1, 1, size=4) if label > 0 else None)
        for label in labels
    ]
    return stack_batch(rows, m_in)


def test_init_params_deterministic_and_shaped():
    a = init_params(6, (8, 5), 4, seed=3)
    b = init_params(6, (8, 5), 4, seed=3)
    c = init_params(6, (8, 5), 4, seed=4)
    assert params_equal(a, b)
    assert not params_equal(a, c)
    assert a.m_in == 6 and a.hidden_sizes == (8, 5) and a.feature_dim == 4
    assert a.trunk[0].weight.shape == (6, 8)
    assert a.box_head.weight.shape == (5, 4)
    assert np.all(a.trunk[0].bias == 0.0)
    with pytest.raises(ValueError):
        init_params(0, (4,), 3, seed=0)
    with pytest.raises(ValueError):
        init_params(4, (0,), 3, seed=0)


def naive_forward(params, descriptor):
    """One descriptor through the network in plain Python loops:
    (feature, background logit, box deltas)."""

    def affine(layer, h):
        return [
            sum(h[i] * layer.weight[i, j] for i in range(len(h))) + layer.bias[j]
            for j in range(layer.bias.shape[0])
        ]

    h = [float(v) for v in descriptor]
    for layer in params.trunk:
        h = [max(v, 0.0) for v in affine(layer, h)]
    return affine(params.feature_head, h), affine(params.background_head, h)[0], affine(params.box_head, h)


def test_forward_batch_matches_naive_rows():
    rng = np.random.default_rng(0)
    params = init_params(5, (7, 6), 4, seed=1)
    x = rng.normal(size=(6, 5))
    feats, bg, deltas = forward_batch(params, x)
    assert feats.shape == (6, 4) and bg.shape == (6,) and deltas.shape == (6, 4)
    for i in range(6):
        feature, bg_logit, box_deltas = naive_forward(params, x[i])
        assert np.allclose(feats[i], feature, rtol=0.0, atol=1e-12)
        assert bg[i] == pytest.approx(bg_logit, abs=1e-12)
        assert np.allclose(deltas[i], box_deltas, rtol=0.0, atol=1e-12)
    with pytest.raises(DimensionMismatch):
        forward_batch(params, np.zeros(5))
    with pytest.raises(DimensionMismatch):
        forward_batch(params, np.zeros((2, 4)))


def test_inference_paths_never_touch_the_grad_counter():
    rng = np.random.default_rng(1)
    params = init_params(5, (7,), 4, seed=2)
    before = grad_evaluation_count()
    forward_batch(params, rng.normal(size=(1, 5)))
    forward_batch(params, rng.normal(size=(8, 5)))
    assert grad_evaluation_count() == before


def test_forward_batch_with_grad_counts_once_per_call():
    rng = np.random.default_rng(2)
    params = init_params(5, (7,), 4, seed=2)
    protos = make_protos(rng, 3, 4)
    batch = make_batch(rng, 5, [1, 0, 2])
    before = grad_evaluation_count()
    forward_batch_with_grad(params, *labelled_batch(*batch, protos), TrainConfig(), grad_buffer(params))
    forward_batch_with_grad(params, *labelled_batch(*batch, protos), TrainConfig(), grad_buffer(params))
    assert grad_evaluation_count() == before + 2


def max_grad_error(params, batch, protos, weights, h=1e-5):
    """Central finite differences over every parameter coordinate; `batch`
    is a (descriptors, labels, targets) triple."""
    buffer = grad_buffer(params)
    forward_batch_with_grad(params, *labelled_batch(*batch, protos), weights, buffer)
    grad = buffer.flat
    worst = 0.0
    flat = params.flat
    for j in range(flat.size):
        keep = flat[j]
        flat[j] = keep + h
        up = forward_batch_with_grad(params, *labelled_batch(*batch, protos), weights, grad_buffer(params)).total
        flat[j] = keep - h
        down = forward_batch_with_grad(params, *labelled_batch(*batch, protos), weights, grad_buffer(params)).total
        flat[j] = keep
        fd = (up - down) / (2 * h)
        err = abs(grad[j] - fd) / max(abs(grad[j]), abs(fd), 1e-4)
        worst = max(worst, err)
    return worst


def test_gradients_match_finite_differences():
    weights = TrainConfig(fg_weight=1.0, bg_weight=0.7, bbox_weight=1.3)
    compositions = [[1, 0, 2, 0, 3, 0], [1, 2, 3, 1], [0, 0, 0, 0]]
    for seed in range(3):
        rng = np.random.default_rng([100, seed])
        params = init_params(6, (8,), 5, seed=seed)
        protos = make_protos(rng, 3, 5)
        for labels in compositions:
            batch = make_batch(rng, 6, labels)
            assert max_grad_error(params, batch, protos, weights) < 1e-4


def test_grad_rejects_unknown_label_and_empty_batch():
    rng = np.random.default_rng(3)
    params = init_params(5, (6,), 4, seed=0)
    protos = make_protos(rng, 2, 4)
    with pytest.raises(UnknownClass):
        labelled_batch(*make_batch(rng, 5, [9]), protos)
    from morphdet.numkernel import EmptyInput

    with pytest.raises(EmptyInput):
        labelled_batch(*make_batch(rng, 5, []), protos)
    with pytest.raises(EmptyInput):
        labelled_batch(*make_batch(rng, 5, [0]), empty_prototypes(4))
    with pytest.raises(EmptyInput):
        forward_batch_with_grad(
            params, np.zeros((0, 5)), np.zeros(0, dtype=int), np.zeros((0, 4)), protos.matrix, TrainConfig(),
            grad_buffer(params),
        )


def test_sgd_step_matches_hand_unrolled_updates():
    params = init_params(4, (5,), 3, seed=7)
    grads1 = init_params(4, (5,), 3, seed=8)
    grads2 = init_params(4, (5,), 3, seed=9)
    lr, mom = 0.1, 0.9

    p2 = clone_params(params)
    v2 = np.zeros_like(p2.flat)  # zero initial velocity
    sgd_step(p2, grads1.flat, lr, v2, mom)
    sgd_step(p2, grads2.flat, lr, v2, mom)
    v2 = EmbedderParams(params.sizes, v2)

    for p0_l, g1_l, g2_l, p2_l, v2_l in zip(
        params.blocks(), grads1.blocks(), grads2.blocks(), p2.blocks(), v2.blocks()
    ):
        v1_w = g1_l.weight
        v2_w = mom * v1_w + g2_l.weight
        expect_w = p0_l.weight - lr * v1_w - lr * v2_w
        assert np.allclose(p2_l.weight, expect_w, atol=1e-15)
        assert np.allclose(v2_l.weight, v2_w, atol=1e-15)


def test_sgd_step_updates_flat_and_velocity_in_place():
    params = init_params(4, (5,), 3, seed=1)
    grad = init_params(4, (5,), 3, seed=2).flat
    velocity = init_params(4, (5,), 3, seed=3).flat
    p0, v0, g0 = params.flat.copy(), velocity.copy(), grad.copy()
    flat = params.flat
    lr, mom = 0.05, 0.7

    assert sgd_step(params, grad, lr, velocity, mom) is None
    assert params.flat is flat
    expect_v = mom * v0 + g0
    assert np.array_equal(velocity, expect_v)
    assert np.array_equal(params.flat, p0 - lr * expect_v)
    assert np.array_equal(params.trunk[0].weight.ravel(), params.flat[: params.trunk[0].weight.size])
    assert np.array_equal(grad, g0)


def test_sgd_step_at_momentum_zero_is_p_minus_lr_g_bit_for_bit():
    """Signed zeros in the gradient, against the momentum formula p - lr * (0 * v + g),
    whose 0 * v + g is +0.0 where v > 0 and g is -0.0: that sign reaches p only where
    p is -0.0, which no parameter is."""
    params = init_params(4, (5,), 3, seed=1)
    params.flat[:4] = [0.0, 0.0, 0.5, -0.5]
    grad = init_params(4, (5,), 3, seed=2).flat.copy()
    grad[:4] = [0.0, -0.0, -0.0, 0.0]
    velocity = np.linspace(1.0, -1.0, params.flat.size)
    p0, v0 = params.flat.copy(), velocity.copy()
    sgd_step(params, grad, 0.05, velocity)
    assert params.flat.tobytes() == (p0 - 0.05 * grad).tobytes() == (p0 - 0.05 * (0.0 * v0 + grad)).tobytes()
    assert velocity.tobytes() == v0.tobytes()


def test_sgd_step_validation():
    params = init_params(4, (5,), 3, seed=1)
    grads = init_params(4, (5,), 3, seed=2)
    velocity = np.zeros_like(params.flat)
    with pytest.raises(ValueError):
        sgd_step(params, grads.flat, 0.0, velocity)
    with pytest.raises(ValueError):
        sgd_step(params, grads.flat, 0.1, velocity, 1.0)
    bad = init_params(4, (6,), 3, seed=2)
    with pytest.raises(DimensionMismatch):
        sgd_step(params, bad.flat, 0.1, velocity)
    with pytest.raises(DimensionMismatch):
        sgd_step(params, grads.flat, 0.1, bad.flat)


def test_forward_batch_with_grad_writes_into_out():
    rng = np.random.default_rng(6)
    params = init_params(5, (7, 6), 4, seed=3)
    protos = make_protos(rng, 3, 4)
    batch = make_batch(rng, 5, [1, 0, 2, 0, 3])
    fresh = grad_buffer(params)
    loss = forward_batch_with_grad(params, *labelled_batch(*batch, protos), TrainConfig(), fresh)
    out = EmbedderParams(params.sizes, np.full_like(params.flat, np.nan))
    assert forward_batch_with_grad(params, *labelled_batch(*batch, protos), TrainConfig(), out=out) == loss
    assert np.array_equal(out.flat, fresh.flat)
    # A bare vector, a buffer of another layout with the same flat length (2,197 values each) and a
    # stack of another run count are refused, naming the buffer's sizes and flat shape and params'.
    wide = init_params(12, (64,), 16, seed=0)
    assert wide.flat.size == EmbedderParams((46, 32, 16)).flat.size == 2197
    pair = EmbedderParams(params.sizes, np.stack([params.flat, params.flat]))
    for net, bad in (
        (params, np.zeros(params.flat.size + 1)),
        (params, np.zeros(params.flat.size, dtype=np.float32)),
        (params, np.empty_like(params.flat)),
        (wide, EmbedderParams((46, 32, 16))),
        (pair, EmbedderParams(params.sizes, np.zeros((3, params.flat.size)))),
    ):
        batch = labelled_batch(*make_batch(rng, net.m_in, [1, 0]), make_protos(rng, 3, net.feature_dim))
        got = f"{(bad.sizes, bad.flat.shape)}" if isinstance(bad, EmbedderParams) else "ndarray"
        with pytest.raises(DimensionMismatch, match=re.escape(f"{got}, expected {(net.sizes, net.flat.shape)}")):
            forward_batch_with_grad(net, *batch, TrainConfig(), out=bad)


def labelled_reference(params, descriptors, labels, targets, prototypes, weights):
    """The loss and gradient as computed from per-row labels: foreground and
    background rows found by mask, labels mapped to prototype rows per call,
    and each group's terms scattered by index into the column slices of one
    full-batch head-block gradient."""
    labels = np.asarray(labels)
    pmat = scoring_matrix(prototypes, params.feature_dim)
    fg_rows = np.flatnonzero(labels > 0)
    bg_rows = np.flatnonzero(labels == 0)
    n_fg, n_bg = len(fg_rows), len(bg_rows)
    slots = np.searchsorted(np.asarray(prototypes.ids), labels[fg_rows])
    pre_acts, acts, (feats, bg, deltas) = _forward(params, descriptors)
    all_logits, log_denom, q = softmax_terms(feats, bg, pmat)
    d = params.feature_dim
    d_heads = np.zeros((len(labels), d + 5))
    d_feats, d_bg, d_deltas = d_heads[:, :d], d_heads[:, d], d_heads[:, d + 1 :]
    mix = q[:, 1:] @ pmat
    fg_term = bg_term = box_term = 0.0
    if n_fg:
        fg_term = weights.fg_weight * float(np.sum(log_denom[fg_rows] - all_logits[fg_rows, slots + 1]) / n_fg)
        coef = weights.fg_weight / n_fg
        d_feats[fg_rows] = coef * (mix[fg_rows] - pmat[slots])
        d_bg[fg_rows] = coef * q[fg_rows, 0]
        residual = deltas[fg_rows] - np.asarray(targets, dtype=np.float64)[fg_rows]
        box_term = weights.bbox_weight * float(np.sum(np.sum(smooth_l1(residual)[0], axis=1)) / n_fg)
        d_deltas[fg_rows] = (weights.bbox_weight / n_fg) * smooth_l1(residual)[1]
    if n_bg:
        bg_term = weights.bg_weight * float(np.sum(log_denom[bg_rows] - bg[bg_rows]) / n_bg)
        coef = weights.bg_weight / n_bg
        d_feats[bg_rows] = coef * mix[bg_rows]
        d_bg[bg_rows] = coef * (q[bg_rows, 0] - 1.0)
    grads = [acts[-1].T @ d_heads, np.add.reduce(d_heads, axis=0)]
    d_h = d_heads @ params.heads.weight.T
    trunk = []
    for k in reversed(range(len(params.trunk))):
        d_z = d_h * (pre_acts[k] > 0.0)
        trunk[:0] = [acts[k].T @ d_z, np.add.reduce(d_z, axis=0)]
        if k:
            d_h = d_z @ params.trunk[k].weight.T
    loss = LossBreakdown(fg=fg_term, bg=bg_term, bbox=box_term, total=fg_term + bg_term + box_term)
    return loss, np.concatenate([g.ravel() for g in trunk + grads])


@pytest.mark.parametrize(
    "labels",
    [[1, 3, 2, 0, 0, 0, 0, 0], [2, 0], [1, 2, 3, 1], [0, 0, 0], [3], [0], [1, 2, 3, 1, 2, 3, 1, 2] + [0] * 24],
    ids=["mixed", "one_each", "fg_only", "bg_only", "one_fg", "one_bg", "m_step_shape"],
)
def test_planned_batch_equals_the_labelled_form_bit_for_bit(labels):
    """On a foreground-first batch the planned call gives the labelled
    computation's loss and gradient exactly, at every trunk depth."""
    weights = TrainConfig(fg_weight=1.0, bg_weight=0.7, bbox_weight=1.3)
    for seed, hidden in enumerate([(), (9,), (64, 64)]):
        rng = np.random.default_rng([300, seed, len(labels)])
        params = init_params(6, hidden, 5, seed=seed)
        protos = make_protos(rng, 3, 5)
        batch = make_batch(rng, 6, labels)
        want_loss, want_grad = labelled_reference(params, *batch, protos, weights)
        grad = grad_buffer(params)
        loss = forward_batch_with_grad(params, *labelled_batch(*batch, protos), weights, grad)
        assert loss == want_loss
        assert np.array_equal(grad.flat, want_grad)


def test_clone_and_zeros_helpers():
    params = init_params(4, (5,), 3, seed=1)
    dup = clone_params(params)
    assert params_equal(params, dup)
    dup.trunk[0].weight[0, 0] += 1.0
    assert not params_equal(params, dup)
    zeros = EmbedderParams(params.sizes)
    assert all(np.all(l.weight == 0.0) and np.all(l.bias == 0.0) for l in zeros.blocks())


def test_flat_vector_backs_every_named_view():
    params = init_params(6, (8, 5), 4, seed=11)
    names = [name for name, _ in params.named_tensors()]
    assert names == [
        "trunk.0.weight", "trunk.0.bias", "trunk.1.weight", "trunk.1.bias",
        "feature_head.weight", "feature_head.bias",
        "background_head.weight", "background_head.bias",
        "box_head.weight", "box_head.bias",
    ]
    views = [arr for _, arr in params.named_tensors()]
    assert params.flat.size == sum(v.size for v in views)
    # The flat order: the trunk, then the head block's weight row-major, then its bias.
    trunk = [arr.ravel() for layer in params.trunk for arr in layer]
    assert np.array_equal(np.concatenate([*trunk, params.heads.weight.ravel(), params.heads.bias]), params.flat)
    heads = [params.feature_head, params.background_head, params.box_head]
    assert np.array_equal(np.hstack([h.weight for h in heads]), params.heads.weight)
    assert np.array_equal(np.concatenate([h.bias for h in heads]), params.heads.bias)
    assert all(np.shares_memory(v, params.flat) for v in views)
    assert [b.weight.shape for b in params.blocks()] == [(6, 8), (8, 5), (5, 4), (5, 1), (5, 4)]
    params.box_head.bias[2] = 7.5
    assert params.flat[-2] == 7.5


def test_params_reject_bad_sizes_and_non_finite_entries():
    with pytest.raises(ValueError):
        EmbedderParams((4,))
    with pytest.raises(DimensionMismatch):
        EmbedderParams((4, 5, 3), np.zeros(7))
    with pytest.raises(DimensionMismatch):
        EmbedderParams((4, 3), np.zeros(EmbedderParams((4, 3)).flat.size, dtype=np.float32))
    params = init_params(4, (5,), 3, seed=1)
    params.background_head.weight[1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):  # a checkpoint's tensors are refused as they are decoded
        parse_tensor(tensor_line("background_head.weight", params.background_head.weight))


@pytest.mark.parametrize("labels", [[1, 0, 2, 0, 3, 0], [1, 2, 3, 1], [0, 0, 0]], ids=["both", "fg_only", "bg_only"])
def test_a_stacked_step_equals_separate_steps_bit_for_bit(labels):
    """forward_batch_with_grad and sgd_step on an (L, P) stack, each run
    against its own prototype table, give each run's loss terms, gradient
    bytes and updated parameters of calls on its own flat, under uneven loss
    weights and momentum, and count L gradient evaluations per call."""
    rng = np.random.default_rng(11)
    runs = [init_params(5, (7, 6), 4, seed=seed) for seed in (1, 2, 3)]
    tables = [labelled_batch(*make_batch(rng, 5, labels), make_protos(rng, 3, 4))[3] for _ in runs]
    config = TrainConfig(fg_weight=1.0, bg_weight=0.7, bbox_weight=1.3, momentum=0.9)
    stack = EmbedderParams(runs[0].sizes, np.stack([run.flat for run in runs]))
    stack_grad, stack_velocity = grad_buffer(stack), np.zeros_like(stack.flat)
    velocities = [np.zeros_like(run.flat) for run in runs]
    for step in range(3):
        X, cols, fg_targets, _ = labelled_batch(*make_batch(rng, 5, labels), make_protos(rng, 3, 4))
        before = grad_evaluation_count()
        stacked = forward_batch_with_grad(stack, X, cols, fg_targets, np.stack(tables), config, stack_grad)
        assert grad_evaluation_count() - before == len(runs)
        sgd_step(stack, stack_grad.flat, 0.05, stack_velocity, config.momentum)
        for k, (run, table, velocity) in enumerate(zip(runs, tables, velocities)):
            grad = grad_buffer(run)
            alone = forward_batch_with_grad(run, X, cols, fg_targets, table, config, grad)
            assert stacked.total.shape == (len(runs),) and repr([term[k] for term in stacked]) == repr(list(alone))
            assert stack_grad.flat[k].tobytes() == grad.flat.tobytes()
            sgd_step(run, grad.flat, 0.05, velocity, config.momentum)
            assert stack.flat[k].tobytes() == run.flat.tobytes() and stack_velocity[k].tobytes() == velocity.tobytes()
    n_fg = len(fg_targets)
    assert (not stacked.fg.any()) == (n_fg == 0) and (not stacked.bg.any()) == (n_fg == len(labels))
