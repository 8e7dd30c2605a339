"""Boxes, NMS against a brute-force oracle, morphing, and detection flow."""

from types import SimpleNamespace

import numpy as np
import pytest

from conftest import identity_detector
from helpers import empty_prototypes, encode_one, params_equal
from morphdet.em_trainer import DetectorState, TrainConfig
from morphdet.embedder import clone_params, forward_batch, grad_evaluation_count, init_params
from morphdet.morph_inference import (
    Box,
    DetectConfig,
    Detection,
    InvalidBox,
    decode_box,
    detect,
    iou,
    morph,
    nms,
    read_exemplars_csv,
    write_exemplars_csv,
)
from morphdet.numkernel import DimensionMismatch, EmptyInput, l2_normalize
from morphdet.objective import posterior_batch
from morphdet.prototype_store import ClassCollision, PrototypeSet


def random_box(rng, lo=0.0, hi=1.0):
    x1, x2 = sorted(rng.uniform(lo, hi, size=2))
    y1, y2 = sorted(rng.uniform(lo, hi, size=2))
    return Box(x1, y1, x2 + 0.01, y2 + 0.01)


def test_box_validation_and_properties():
    box = Box(0.1, 0.2, 0.5, 0.6)
    assert box.width == pytest.approx(0.4)
    assert box.height == pytest.approx(0.4)
    assert box.center_x == pytest.approx(0.3)
    assert box.center_y == pytest.approx(0.4)
    assert box.area == pytest.approx(0.16)
    assert box.as_tuple() == (0.1, 0.2, 0.5, 0.6)
    with pytest.raises(InvalidBox):
        Box(0.5, 0.0, 0.5, 1.0)
    with pytest.raises(InvalidBox):
        Box(0.6, 0.0, 0.5, 1.0)
    with pytest.raises(InvalidBox):
        Box(0.0, 0.0, np.nan, 1.0)


def test_iou_analytic_cases():
    a = Box(0.0, 0.0, 1.0, 1.0)
    assert iou(a, a) == 1.0
    assert iou(a, Box(2.0, 2.0, 3.0, 3.0)) == 0.0
    assert iou(a, Box(1.0, 0.0, 2.0, 1.0)) == 0.0  # touching edges
    half = Box(0.5, 0.0, 1.5, 1.0)
    assert iou(a, half) == pytest.approx(0.5 / 1.5, abs=1e-12)
    quarter = Box(0.5, 0.5, 1.5, 1.5)
    assert iou(a, quarter) == pytest.approx(0.25 / 1.75, abs=1e-12)


def test_iou_symmetry_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a, b = random_box(rng), random_box(rng)
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0


def decode_one(anchor, deltas):
    """decode_box on a single (Box, deltas) pair, back as a Box."""
    return Box(*decode_box(np.array([anchor.as_tuple()]), np.asarray(deltas)[None, :])[0])


def scalar_decode(anchor, d):
    """Per-box reference decode, written in Box's operation order."""
    cx = anchor.center_x + d[0] * anchor.width
    cy = anchor.center_y + d[1] * anchor.height
    w = anchor.width * np.exp(d[2])
    h = anchor.height * np.exp(d[3])
    return Box(cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h)


def test_box_codec_round_trips():
    rng = np.random.default_rng(1)
    for _ in range(300):
        anchor, target = random_box(rng), random_box(rng)
        deltas = encode_one(anchor, target)
        back = decode_one(anchor, deltas)
        assert np.max(np.abs(np.array(back.as_tuple()) - np.array(target.as_tuple()))) < 1e-9
        redone = encode_one(anchor, decode_one(anchor, deltas))
        assert np.max(np.abs(redone - deltas)) < 1e-9


def test_box_codec_identity_and_validation():
    anchor = Box(0.2, 0.2, 0.6, 0.7)
    assert np.allclose(encode_one(anchor, anchor), np.zeros(4), atol=1e-15)
    assert decode_one(anchor, np.zeros(4)).as_tuple() == pytest.approx(anchor.as_tuple())
    with pytest.raises(DimensionMismatch):
        decode_one(anchor, np.zeros(3))
    with pytest.raises(InvalidBox):
        decode_one(anchor, np.array([np.inf, 0.0, 0.0, 0.0]))


def test_decode_box_rows_equal_the_scalar_reference():
    rng = np.random.default_rng(11)
    anchors = np.array([random_box(rng).as_tuple() for _ in range(500)])
    deltas = np.concatenate([rng.uniform(-2, 2, size=(500, 2)), rng.uniform(-3, 3, size=(500, 2))], axis=1)
    decoded = decode_box(anchors, deltas)
    reference = np.array([scalar_decode(Box(*a), d).as_tuple() for a, d in zip(anchors, deltas)])
    assert np.array_equal(decoded, reference)


def brute_force_nms(detections, thr):
    """Independent reimplementation: visit by the same deterministic order,
    suppress same-class candidates by pairwise IoU."""
    order = sorted(detections, key=lambda d: (-d.score, d.class_id, d.box.as_tuple()))
    kept = []
    for det in order:
        if all(k.class_id != det.class_id or iou(k.box, det.box) <= thr for k in kept):
            kept.append(det)
    return kept


def test_nms_matches_brute_force_oracle():
    rng = np.random.default_rng(2)
    for trial in range(200):
        n = int(rng.integers(0, 12))
        dets = [
            Detection(
                class_id=int(rng.integers(1, 4)),
                score=float(rng.integers(0, 5)) / 4.0,  # coarse scores force ties
                box=random_box(rng),
            )
            for _ in range(n)
        ]
        thr = float(rng.uniform(0.2, 0.8))
        assert nms(dets, thr) == brute_force_nms(dets, thr)


def test_nms_order_invariance_and_validation():
    rng = np.random.default_rng(3)
    dets = [
        Detection(int(rng.integers(1, 3)), float(rng.integers(0, 3)) / 2.0, random_box(rng))
        for _ in range(10)
    ]
    shuffled = [dets[i] for i in rng.permutation(len(dets))]
    assert nms(dets, 0.5) == nms(shuffled, 0.5)
    with pytest.raises(ValueError):
        nms(dets, 0.0)
    with pytest.raises(ValueError):
        nms(dets, 1.0)


def test_morph_is_forward_only_and_keeps_params(tiny_state, tiny_exemplars):
    reference = clone_params(tiny_state.params)
    before = grad_evaluation_count()
    morphed = morph(tiny_state, tiny_exemplars)
    assert grad_evaluation_count() == before
    assert morphed.params is tiny_state.params
    assert params_equal(morphed.params, reference)
    assert sorted(morphed.prototypes.novel) == sorted(tiny_exemplars)
    assert sorted(morphed.prototypes.base) == sorted(tiny_state.prototypes.base)


def test_morph_single_exemplar_equals_normalized_feature(tiny_state, tiny_exemplars):
    cid = sorted(tiny_exemplars)[0]
    desc = tiny_exemplars[cid][0]
    morphed = morph(tiny_state, {cid: [desc]})
    expected = l2_normalize(forward_batch(tiny_state.params, desc[None, :])[0][0])
    assert np.max(np.abs(morphed.prototypes.vector_for(cid) - expected)) < 1e-12


def test_morph_empty_mapping_and_errors(tiny_state, tiny_exemplars):
    assert morph(tiny_state, {}) is tiny_state
    with pytest.raises(EmptyInput):
        morph(tiny_state, {99: []})
    taken = sorted(tiny_state.prototypes.base)[0]
    with pytest.raises(ClassCollision):
        morph(tiny_state, {taken: [tiny_exemplars[sorted(tiny_exemplars)[0]][0]]})


def test_morph_preserves_base_posterior_ratios(tiny_state, tiny_exemplars):
    rng = np.random.default_rng(4)
    descs = rng.normal(size=(20, tiny_state.params.m_in))
    feats, bg, _ = forward_batch(tiny_state.params, descs)
    base_ids = sorted(tiny_state.prototypes.base)

    q_before = posterior_batch(feats, bg, tiny_state.prototypes)
    morphed = morph(tiny_state, tiny_exemplars)
    q_after = posterior_batch(feats, bg, morphed.prototypes)
    col_before = {cid: k + 1 for k, cid in enumerate(tiny_state.prototypes.ids)}
    col_after = {cid: k + 1 for k, cid in enumerate(morphed.prototypes.ids)}

    a, b = base_ids[0], base_ids[1]
    r_before = q_before[:, col_before[a]] / q_before[:, col_before[b]]
    r_after = q_after[:, col_after[a]] / q_after[:, col_after[b]]
    assert np.max(np.abs(r_before - r_after) / r_before) < 1e-12


def test_detect_finds_planted_objects():
    axes = [(1, [1.0, 0.0, 0.0]), (2, [0.0, 1.0, 0.0]), (3, [0.0, 0.0, 1.0])]
    state = identity_detector(axes, scale=8.0)
    objects = {
        1: Box(0.1, 0.1, 0.3, 0.3),
        2: Box(0.5, 0.5, 0.8, 0.8),
        3: Box(0.1, 0.6, 0.25, 0.9),
    }
    proposals = []
    for cid, box in objects.items():
        axis = np.zeros(3)
        axis[cid - 1] = 1.0
        proposals.append((axis, box))
        nudged = Box(box.x1 + 0.01, box.y1, box.x2 + 0.01, box.y2)
        proposals.append((axis, nudged))  # near-duplicate for NMS to prune

    detections = detect(state, proposals, DetectConfig())
    assert len(detections) == 3
    matched = {det.class_id: det for det in detections}
    assert sorted(matched) == [1, 2, 3]
    for cid, det in matched.items():
        assert iou(det.box, objects[cid]) >= 0.5
        assert det.score > 0.9


def test_detect_edge_cases(tiny_state):
    assert detect(tiny_state, []) == []
    rng = np.random.default_rng(5)
    proposals = [(rng.normal(size=tiny_state.params.m_in), random_box(rng)) for _ in range(6)]
    first = detect(tiny_state, proposals)
    second = detect(tiny_state, proposals)
    assert first == second
    feats, bg, _ = forward_batch(tiny_state.params, np.stack([d for d, _ in proposals]))
    above_all = 0.99
    assert posterior_batch(feats, bg, tiny_state.prototypes)[:, 1:].max() < above_all
    assert detect(tiny_state, proposals, DetectConfig(score_threshold=above_all)) == []
    for outside in (1.1, float("nan"), -0.1):
        with pytest.raises(ValueError, match="score_threshold"):
            DetectConfig(score_threshold=outside)
    # A DetectorState refuses an empty prototype set, so detect's own refusal
    # is reached with a bare state.
    bare = SimpleNamespace(params=tiny_state.params, prototypes=empty_prototypes(tiny_state.prototypes.dim))
    with pytest.raises(EmptyInput):
        detect(bare, proposals)


def random_detector(n_classes, seed, m_in=12, dim=8):
    """An untrained network with a sharpened feature head, a damped box head
    and n_classes random unit prototypes, so a few classes pass per proposal;
    the 24 anchors cluster around 4 boxes, so NMS has work to do."""
    rng = np.random.default_rng(seed)
    config = TrainConfig(hidden_sizes=(16,))
    params = init_params(m_in, config.hidden_sizes, dim, seed)
    params.feature_head.weight[:] *= 6.0
    params.box_head.weight[:] *= 0.05
    rows = rng.normal(size=(n_classes, dim))
    protos = PrototypeSet(ids=tuple(range(1, n_classes + 1)), matrix=rows / np.linalg.norm(rows, axis=1, keepdims=True))
    centers = [random_box(rng, 0.2, 0.8) for _ in range(4)]
    proposals = [
        (2.0 * rng.normal(size=m_in), Box(*(np.array(centers[j % 4].as_tuple()) + rng.uniform(-0.02, 0.02))))
        for j in range(24)
    ]
    return DetectorState(params=params, prototypes=protos, config=config), proposals


def per_pair_detect(state, proposals, score_threshold, nms_iou=0.5):
    """Reference detect: a scalar decode per proposal, then one candidate per
    passing (proposal, class) pair, then NMS."""
    feats, bg, deltas = forward_batch(state.params, np.stack([d for d, _ in proposals]))
    q = posterior_batch(feats, bg, state.prototypes)
    candidates = []
    for i, (_, anchor) in enumerate(proposals):
        box = scalar_decode(anchor, deltas[i])
        for k, cid in enumerate(state.prototypes.ids):
            if float(q[i, k + 1]) >= score_threshold:
                candidates.append(Detection(class_id=cid, score=float(q[i, k + 1]), box=box))
    return nms(candidates, nms_iou), len(candidates)


@pytest.mark.parametrize("n_classes", [25, 80])
@pytest.mark.parametrize("score_threshold", [0.0, 0.05])
def test_detect_equals_the_per_pair_reference(n_classes, score_threshold):
    for seed in range(3):
        state, proposals = random_detector(n_classes, seed)
        expected, n_candidates = per_pair_detect(state, proposals, score_threshold)
        assert n_candidates > len(expected) > 0
        assert detect(state, proposals, DetectConfig(score_threshold=score_threshold)) == expected


@pytest.mark.parametrize("bad_deltas", [[np.nan, 0.0, 0.0, 0.0], [0.0, 0.0, 800.0, 0.0]], ids=["nan", "exp_overflow"])
def test_detect_refuses_a_bad_box_on_a_proposal_with_no_passing_class(bad_deltas):
    state = identity_detector([(1, [1.0, 0.0]), (2, [0.0, 1.0])])
    state.params.box_head.bias[:] = bad_deltas
    quiet = [(np.zeros(2), Box(0.1, 0.1, 0.4, 0.4))]
    feats, bg, _ = forward_batch(state.params, np.zeros((1, 2)))
    assert np.all(posterior_batch(feats, bg, state.prototypes)[:, 1:] < 0.5)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvalidBox):
        detect(state, quiet, DetectConfig(score_threshold=0.5))


def test_exemplars_csv_round_trip(tmp_path, tiny_exemplars):
    path = tmp_path / "exemplars.csv"
    write_exemplars_csv(path, tiny_exemplars)
    back = read_exemplars_csv(path)
    assert sorted(back) == sorted(tiny_exemplars)
    for cid, descs in tiny_exemplars.items():
        assert len(back[cid]) == len(descs)
        for mine, theirs in zip(descs, back[cid]):
            assert np.array_equal(mine, theirs)


def test_read_exemplars_rejects_bare_class(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("5\n")
    with pytest.raises(ValueError):
        read_exemplars_csv(path)


def test_read_exemplars_rejects_non_finite_values(tmp_path):
    path = tmp_path / "bad.csv"
    for payload in ("5,1.0,nan\n", "5,inf,1.0\n"):
        path.write_text(payload)
        with pytest.raises(ValueError):
            read_exemplars_csv(path)
