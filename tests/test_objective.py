"""Posterior and loss contracts: the batched product path against a naive
softmax, naive per-row losses and finite differences."""

import math

import numpy as np
import pytest

from test_embedder import make_protos, max_grad_error, naive_forward, stack_batch
from test_numkernel import naive_smooth_l1

from helpers import empty_prototypes, grad_buffer, labelled_batch, reference_softmax_terms, vector_for
from morphdet.em_trainer import TrainConfig
from morphdet.embedder import forward_batch_with_grad, init_params
from morphdet.numkernel import DimensionMismatch, EmptyInput
from morphdet.objective import posterior_batch, softmax_terms
from morphdet.prototype_store import UnknownClass, add_novel, init_from_semantic


def naive_posterior(feature, bg_logit, protos):
    logits = [bg_logit] + [float(np.dot(feature, vector_for(protos, cid))) for cid in protos.ids]
    expd = [math.exp(x) for x in logits]
    z = sum(expd)
    return [e / z for e in expd]


def test_posterior_batch_matches_naive_softmax():
    rng = np.random.default_rng(0)
    protos = make_protos(rng, 5, 4)
    feats = rng.normal(size=(20, 4)) * 3
    bg = rng.normal(size=20)
    q = posterior_batch(feats, bg, protos)
    assert protos.ids == (1, 2, 3, 4, 5)
    assert q.shape == (20, 6)
    for i in range(20):
        expected = naive_posterior(feats[i], bg[i], protos)
        assert np.allclose(q[i], expected, atol=1e-12)


@pytest.mark.parametrize("classes", [25, 80])
def test_posterior_batch_is_the_loss_log_sum_exp_bit_for_bit(classes):
    """Detection scores with the posterior that training differentiates: each
    row equals, bit for bit, a log-sum-exp written in the loss's operation
    order (shift by the row max, log of the shifted exp sum, exp of logit
    minus log-denominator), with class and background logits near +-700."""
    rng = np.random.default_rng([4, classes])
    protos = make_protos(rng, classes, 8)
    feats = rng.normal(size=(24, 8)) * 3.0
    bg = rng.normal(size=24)
    feats[:6] = 700.0 * protos.matrix[:6]
    bg[6:9], bg[9:12] = 700.0, -700.0
    q = posterior_batch(feats, bg, protos)
    logits = np.concatenate([bg[:, None], feats @ protos.matrix.T], axis=1)
    assert np.max(logits) > 699.0 and np.min(logits) < -699.0
    for i, row in enumerate(logits):
        shift = np.max(row)
        log_denom = shift + np.log(np.sum(np.exp(row - shift)))
        assert np.array_equal(q[i], np.exp(row - log_denom))


@pytest.mark.parametrize("classes", [1, 3, 25, 80])
def test_softmax_terms_is_the_plain_form_bit_for_bit(classes):
    """The softmax that training and detection share gives the plain form's
    logits, log-denominator and posteriors bit for bit, on ordinary batches,
    on logits spread over +-700 and on rows whose background and top class
    logits both sit near +700 or near -700; one prototype is the narrowest
    matrix."""
    rng = np.random.default_rng([9, classes])
    mat = make_protos(rng, classes, 6).matrix
    for n in (1, 8, 32):
        feats, bg = rng.normal(size=(n, 6)) * 3.0, rng.normal(size=n)
        wide = feats * (700.0 / np.max(np.abs(feats @ mat.T)))
        high = 699.0 * mat[rng.integers(classes, size=n)] + rng.normal(size=(n, 6)) * 0.01
        cases = [(feats, bg), (wide, rng.uniform(-700.0, 700.0, size=n)), (high, 699.5 + rng.uniform(size=n)),
                 (-high, -699.5 - rng.uniform(size=n))]
        for f, b in cases:
            got, want = softmax_terms(f, b, mat), reference_softmax_terms(f, b, mat)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert np.max(np.abs(wide @ mat.T)) == pytest.approx(700.0)


def test_posterior_rows_sum_to_one_with_huge_logits():
    rng = np.random.default_rng(1)
    protos = make_protos(rng, 4, 6)
    feats = rng.normal(size=(10, 6)) * 500.0
    bg = rng.normal(size=10) * 500.0
    q = posterior_batch(feats, bg, protos)
    assert np.all(np.isfinite(q))
    assert np.allclose(q.sum(axis=1), 1.0, atol=1e-9)


def test_posterior_single_matches_batch_and_argmax():
    rng = np.random.default_rng(2)
    protos = make_protos(rng, 3, 5)
    feats = rng.normal(size=(4, 5))
    bg = rng.normal(size=4)
    q = posterior_batch(feats, bg, protos)
    for i in range(4):
        single = posterior_batch(feats[i : i + 1], bg[i : i + 1], protos)
        assert np.allclose(single[0], q[i], rtol=0.0, atol=1e-15)

    extremes = np.stack([np.zeros(5), vector_for(protos, 2) * 50.0])
    sure = posterior_batch(extremes, np.array([50.0, -5.0]), protos)
    assert np.argmax(sure, axis=1).tolist() == [0, 1 + protos.ids.index(2)]


def test_posterior_validation():
    rng = np.random.default_rng(3)
    protos = make_protos(rng, 2, 3)
    with pytest.raises(EmptyInput):
        posterior_batch(np.zeros((1, 3)), np.zeros(1), empty_prototypes(3))
    with pytest.raises(DimensionMismatch):
        posterior_batch(np.zeros((1, 4)), np.zeros(1), protos)
    with pytest.raises(DimensionMismatch):
        posterior_batch(np.zeros((2, 3)), np.zeros(1), protos)
    with pytest.raises(DimensionMismatch):
        posterior_batch(np.zeros(3), np.zeros(1), protos)


def loss_setup(seed, labels, m_in=5):
    """A small network, prototypes with scattered ids (base 2 and 7, novel 4)
    and a (descriptors, labels, targets) batch with box targets wide enough to
    reach both smooth-L1 pieces."""
    rng = np.random.default_rng([200, seed])
    params = init_params(m_in, (6,), 4, seed=seed)
    protos = add_novel(init_from_semantic({2: rng.normal(size=4), 7: rng.normal(size=4)}), 4, rng.normal(size=4))
    rows = [
        (rng.normal(size=m_in), label, rng.uniform(-3, 3, size=4) if label > 0 else None)
        for label in labels
    ]
    return params, protos, stack_batch(rows, m_in)


def naive_neg_log_posterior(logits, k):
    """-log of the naive softmax's entry k, written with the max shifted out
    so that huge logits stay finite."""
    top = max(logits)
    return top + math.log(sum(math.exp(x - top) for x in logits)) - logits[k]


def naive_terms(params, protos, batch, weights):
    """(fg, bg, bbox) loss terms computed one proposal at a time."""
    fg_vals, bg_vals, box_vals = [], [], []
    for descriptor, label, target in zip(*batch):
        feature, bg_logit, deltas = naive_forward(params, descriptor)
        logits = [bg_logit] + [float(np.dot(feature, vector_for(protos, cid))) for cid in protos.ids]
        if label > 0:
            fg_vals.append(naive_neg_log_posterior(logits, 1 + protos.ids.index(label)))
            box_vals.append(sum(naive_smooth_l1(d - t) for d, t in zip(deltas, target)))
        else:
            bg_vals.append(naive_neg_log_posterior(logits, 0))

    def term(weight, vals):
        return weight * sum(vals) / len(vals) if vals else 0.0

    return term(weights.fg_weight, fg_vals), term(weights.bg_weight, bg_vals), term(weights.bbox_weight, box_vals)


def test_fg_loss_is_negative_log_probability():
    weights = TrainConfig(fg_weight=1.5, bg_weight=0.0, bbox_weight=0.0)
    for seed in range(4):
        params, protos, batch = loss_setup(seed, [2, 0, 4, 7, 0, 4, 2, 0])
        breakdown = forward_batch_with_grad(params, *labelled_batch(*batch, protos), weights, grad_buffer(params))
        fg, _, _ = naive_terms(params, protos, batch, weights)
        assert breakdown.fg == pytest.approx(fg, rel=1e-12, abs=1e-12)


def test_bg_loss_is_negative_log_background_probability():
    weights = TrainConfig(fg_weight=0.0, bg_weight=0.7, bbox_weight=0.0)
    for seed in range(4):
        params, protos, batch = loss_setup(seed, [0, 7, 0, 0, 2])
        breakdown = forward_batch_with_grad(params, *labelled_batch(*batch, protos), weights, grad_buffer(params))
        _, bg, _ = naive_terms(params, protos, batch, weights)
        assert breakdown.bg == pytest.approx(bg, rel=1e-12, abs=1e-12)
        assert breakdown.fg == 0.0 and breakdown.bbox == 0.0


def test_bbox_loss_matches_scalar_smooth_l1():
    weights = TrainConfig(fg_weight=0.0, bg_weight=0.0, bbox_weight=2.0)
    params, protos, batch = loss_setup(9, [2, 4, 7, 2, 0, 4, 7, 7])
    residuals = np.concatenate(
        [np.asarray(naive_forward(params, desc)[2]) - target for desc, label, target in zip(*batch) if label > 0]
    )
    assert np.any(np.abs(residuals) < 1.0) and np.any(np.abs(residuals) > 1.0)
    breakdown = forward_batch_with_grad(params, *labelled_batch(*batch, protos), weights, grad_buffer(params))
    _, _, bbox = naive_terms(params, protos, batch, weights)
    assert breakdown.bbox == pytest.approx(bbox, rel=1e-12, abs=1e-12)


def test_batch_loss_matches_per_group_means():
    weights = TrainConfig(fg_weight=1.5, bg_weight=0.5, bbox_weight=2.0)
    params, protos, batch = loss_setup(10, [4, 0, 2, 0, 0, 7, 0])
    breakdown = forward_batch_with_grad(params, *labelled_batch(*batch, protos), weights, grad_buffer(params))
    fg, bg, bbox = naive_terms(params, protos, batch, weights)
    assert breakdown.fg == pytest.approx(fg, rel=1e-12, abs=1e-12)
    assert breakdown.bg == pytest.approx(bg, rel=1e-12, abs=1e-12)
    assert breakdown.bbox == pytest.approx(bbox, rel=1e-12, abs=1e-12)
    assert breakdown.total == breakdown.fg + breakdown.bg + breakdown.bbox


def test_batch_loss_missing_groups_contribute_zero():
    fg_params, fg_protos, fg_batch = loss_setup(11, [2, 7])
    fg_only = forward_batch_with_grad(
        fg_params, *labelled_batch(*fg_batch, fg_protos), TrainConfig(), grad_buffer(fg_params)
    )
    assert fg_only.bg == 0.0
    assert fg_only.total == fg_only.fg + fg_only.bbox
    bg_params, bg_protos, bg_batch = loss_setup(12, [0, 0])
    bg_only = forward_batch_with_grad(
        bg_params, *labelled_batch(*bg_batch, bg_protos), TrainConfig(), grad_buffer(bg_params)
    )
    assert bg_only.fg == 0.0 and bg_only.bbox == 0.0
    assert bg_only.total == bg_only.bg
    with pytest.raises(EmptyInput):
        labelled_batch(*stack_batch([], 5), bg_protos)


def test_fg_loss_rejects_unknown_label():
    # Ids 2, 4 and 7 are registered; 3 lies between them and 8 beyond them.
    for label in (3, 8):
        params, protos, batch = loss_setup(13, [2, 0, label])
        with pytest.raises(UnknownClass):
            labelled_batch(*batch, protos)


def test_fg_loss_gradients_match_finite_differences():
    params, protos, batch = loss_setup(14, [2, 0, 4, 7, 0])
    assert max_grad_error(params, batch, protos, TrainConfig(fg_weight=1.0, bg_weight=0.0, bbox_weight=0.0)) < 1e-4


def test_bg_loss_gradients_match_finite_differences():
    params, protos, batch = loss_setup(15, [0, 2, 0, 0, 7])
    assert max_grad_error(params, batch, protos, TrainConfig(fg_weight=0.0, bg_weight=1.0, bbox_weight=0.0)) < 1e-4


def test_loss_stays_finite_at_huge_logits():
    params, protos, batch = loss_setup(16, [2, 0, 4, 0, 7, 0])
    params.feature_head.weight[:] *= 800.0
    params.background_head.weight[:] *= 800.0
    logits = [
        [bg_logit] + [float(np.dot(feature, vector_for(protos, cid))) for cid in protos.ids]
        for feature, bg_logit, _ in (naive_forward(params, desc) for desc in batch[0])
    ]
    assert min(map(min, logits)) < -300.0 and 300.0 < max(map(max, logits)) < 1000.0
    weights = TrainConfig()
    grad = grad_buffer(params)
    breakdown = forward_batch_with_grad(params, *labelled_batch(*batch, protos), weights, grad)
    assert np.all(np.isfinite(grad.flat))
    fg, bg, bbox = naive_terms(params, protos, batch, weights)
    assert breakdown.fg == pytest.approx(fg, rel=1e-9)
    assert breakdown.bg == pytest.approx(bg, rel=1e-9)
    assert breakdown.bbox == pytest.approx(bbox, rel=1e-12)
