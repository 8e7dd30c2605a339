"""Boxes, NMS against a brute-force oracle, morphing, and detection flow."""

import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import identity_detector, reframe, tensor_body
from helpers import box_geometry, empty_prototypes, encode_one, params_equal, reference_iou, vector_for
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
from morphdet.prototype_store import ClassCollision, PrototypeSet, UnknownClass
from morphdet.toyworld import (
    DATASET_HEADER,
    DataConfig,
    UniverseConfig,
    _iou_table,
    load_dataset,
    make_dataset,
    make_universe,
    save_dataset,
)


def random_box(rng, lo=0.0, hi=1.0):
    x1, x2 = sorted(rng.uniform(lo, hi, size=2))
    y1, y2 = sorted(rng.uniform(lo, hi, size=2))
    return Box(x1, y1, x2 + 0.01, y2 + 0.01)


def test_box_validation_and_properties(tmp_path):
    box = Box(0.1, 0.2, 0.5, 0.6)
    center_x, center_y, width, height = box_geometry(box)
    assert width == pytest.approx(0.4)
    assert height == pytest.approx(0.4)
    assert center_x == pytest.approx(0.3)
    assert center_y == pytest.approx(0.4)
    assert width * height == pytest.approx(0.16)
    assert box.as_tuple() == (0.1, 0.2, 0.5, 0.6)
    # Corners are checked where they enter: decoded (here as anchors with zero deltas) and stored in a dataset,
    # where a NaN never reaches the box check, as the tensor codec refuses it first.
    uni = make_universe(UniverseConfig(n_base=2, n_novel=1), seed=22)
    scenes = make_dataset(uni, uni.base, 1, DataConfig(objects_per_scene=1, proposals_per_scene=3), seed=23)
    path = tmp_path / "dataset.txt"
    for corners, error, message in (
        ((0.5, 0.0, 0.5, 1.0), InvalidBox, "degenerate box corners"),
        ((0.6, 0.0, 0.5, 1.0), InvalidBox, "degenerate box corners"),
        ((0.0, 0.0, np.nan, 1.0), ValueError, "tensor 'gt_boxes' holds a non-finite value"),
    ):
        with pytest.raises(InvalidBox):
            decode_box(np.array([corners]), np.zeros((1, 4)))
        save_dataset(path, scenes)
        reframe(path, DATASET_HEADER, "meta", body=tensor_body(lambda t: np.copyto(t["gt_boxes"][0], corners)))
        with pytest.raises(error, match=message) as refused:
            load_dataset(path)
        assert str(refused.value).startswith(f"{path}: ")


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


def iou_cases():
    """Box pairs for the bit-identity check: 10,000 random pairs, 2,000 on a coarse grid whose corners tie
    (-0.0 among them), and named edge cases, each pair in both orders."""
    rng = np.random.default_rng(12)
    pairs = [(random_box(rng, -1.0, 1.0), random_box(rng, -1.0, 1.0)) for _ in range(10_000)]
    grid = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
    spans = [sorted(pair) for pair in rng.choice(grid, size=(20_000, 2)).tolist()]
    spans = [(lo, hi) for lo, hi in spans if lo < hi][:8_000]  # -0.0 and 0.0 span nothing
    for (ax1, ax2), (ay1, ay2), (bx1, bx2), (by1, by2) in zip(*[iter(spans)] * 4):
        pairs.append((Box(ax1, ay1, ax2, ay2), Box(bx1, by1, bx2, by2)))
    unit = Box(0.0, 0.0, 1.0, 1.0)
    pairs += [
        (unit, Box(1.0, 0.0, 2.0, 1.0)),  # touching edges in x
        (unit, Box(0.0, 1.0, 1.0, 2.0)),  # touching edges in y
        (unit, Box(0.5, 2.0, 1.5, 3.0)),  # overlap in x only
        (unit, Box(2.0, 0.5, 3.0, 1.5)),  # overlap in y only
        (unit, unit),
        (unit, Box(0.0, 0.0, 1.0, 1.0)),  # identical corners, another object
        (unit, Box(0.25, 0.25, 0.75, 0.75)),  # nested
        (unit, Box(0.0, 0.25, 1.0, 0.75)),  # nested, sharing two edges
        (Box(-0.0, -0.0, 1.0, 1.0), Box(0.0, 0.0, 0.5, 0.5)),  # -0.0 against 0.0 corners
        (Box(-2.0, -1.5, -0.5, -0.0), Box(-1.0, -1.0, 0.0, 0.5)),  # negative corners
    ]
    return pairs + [(b, a) for a, b in pairs]


def test_iou_equals_the_min_max_reference_and_the_array_table_bit_for_bit():
    pairs = iou_cases()
    scalar = [iou(a, b).hex() for a, b in pairs]
    assert scalar == [reference_iou(a, b).hex() for a, b in pairs]
    table = _iou_table(np.array([[a] for a, _ in pairs]), np.array([[b] for _, b in pairs]))
    assert scalar == [float(v).hex() for v in table[:, 0, 0]]
    assert 0 < sum(v == (0.0).hex() for v in scalar) < len(scalar)


def decode_one(anchor, deltas):
    """decode_box on a single (Box, deltas) pair, back as a Box."""
    return Box(*decode_box(np.array([anchor.as_tuple()]), np.asarray(deltas)[None, :])[0])


def scalar_decode(anchor, d):
    """Per-box reference decode, from the anchor's center and size."""
    center_x, center_y, width, height = box_geometry(anchor)
    cx = center_x + d[0] * width
    cy = center_y + d[1] * height
    w = width * np.exp(d[2])
    h = height * np.exp(d[3])
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


def test_decode_box_names_the_first_bad_row_among_several():
    anchors = np.array([[0.1, 0.1, 0.4, 0.4], [0.5, 0.0, 0.5, 1.0], [0.1, 0.1, 0.4, 0.4], [0.6, 0.0, 0.5, 1.0]])
    deltas = np.zeros((4, 4))
    deltas[2, 0] = np.nan  # row 2 decodes non-finite; rows 1 and 3 are degenerate with zero deltas
    for order, message in (
        ([0, 1, 2, 3], "degenerate box corners: (0.5, 0.0, 0.5, 1.0)"),
        ([0, 2, 3, 1], "non-finite box corners: (nan, 0.09999999999999998, nan, 0.4)"),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidBox, match=f"^{re.escape(message)}$"):
                decode_box(anchors[order], deltas[order])


def brute_force_nms(detections, thr):
    """Independent reimplementation: visit by the same deterministic order,
    suppress same-class candidates by pairwise IoU."""
    order = sorted(detections, key=lambda d: (-d.score, d.class_id, d.box.as_tuple()))
    kept = []
    for det in order:
        if all(k.class_id != det.class_id or reference_iou(k.box, det.box) <= thr for k in kept):
            kept.append(det)
    return kept


def as_candidates(detections):
    """Detections in the (-score, class_id, corners) tuple form that nms takes."""
    return [(-d.score, d.class_id, d.box) for d in detections]


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
        assert nms(as_candidates(dets), thr) == brute_force_nms(dets, thr)


def test_nms_matches_brute_force_oracle_on_detect_shaped_candidates():
    """Candidates as detect builds them: 24 proposals around 4 boxes, each passing up to 6 of up to 80
    classes, every candidate of one proposal holding that proposal's one Box object; coarse scores tie."""
    rng = np.random.default_rng(13)
    candidates_seen = kept_seen = 0
    for _ in range(60):
        n_classes = int(rng.integers(1, 81))
        centers = [np.concatenate([xy, xy + rng.uniform(0.1, 0.4, size=2)]) for xy in rng.uniform(0.1, 0.5, size=(4, 2))]
        candidates = []
        for j in range(24):
            box = Box(*(centers[j % 4] + rng.uniform(-0.03, 0.03, size=4)).tolist())
            passing = rng.choice(n_classes, size=int(rng.integers(0, min(n_classes, 6) + 1)), replace=False)
            candidates += [Detection(int(k) + 1, float(rng.integers(1, 9)) / 8.0, box) for k in passing]
        rng.shuffle(candidates)
        kept = nms(as_candidates(candidates), 0.5)
        assert kept == brute_force_nms(candidates, 0.5)
        candidates_seen, kept_seen = candidates_seen + len(candidates), kept_seen + len(kept)
    assert 0 < kept_seen < candidates_seen


def test_nms_order_invariance_and_validation():
    rng = np.random.default_rng(3)
    dets = [
        Detection(int(rng.integers(1, 3)), float(rng.integers(0, 3)) / 2.0, random_box(rng))
        for _ in range(10)
    ]
    shuffled = [dets[i] for i in rng.permutation(len(dets))]
    assert nms(as_candidates(dets), 0.5) == nms(as_candidates(shuffled), 0.5)
    with pytest.raises(ValueError):
        nms(as_candidates(dets), 0.0)
    with pytest.raises(ValueError):
        nms(as_candidates(dets), 1.0)


GRID = [i / 10 for i in range(6)]  # coarse corners, so boxes overlap and tie often
coarse_boxes = st.builds(
    lambda x, y, w, h: Box(x, y, x + w, y + h), st.sampled_from(GRID), st.sampled_from(GRID),
    st.sampled_from(GRID[1:]), st.sampled_from(GRID[1:]),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_nms_on_candidate_tuples_equals_the_oracle_on_detections(data):
    """Coarse scores and a few shared boxes tie candidates on score, on class and on corners; the
    corners come as Boxes or, as detect passes them, as lists."""
    boxes = data.draw(st.lists(coarse_boxes, min_size=1, max_size=4))
    detection = st.builds(Detection, st.integers(1, 3), st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.sampled_from(boxes))
    dets = data.draw(st.lists(detection, max_size=16))
    thr = data.draw(st.sampled_from([0.2, 0.5, 0.8]))
    as_list = data.draw(st.booleans())
    candidates = [(-d.score, d.class_id, list(d.box) if as_list else d.box) for d in dets]
    assert nms(candidates, thr) == brute_force_nms(dets, thr)


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
    assert np.max(np.abs(vector_for(morphed.prototypes, cid) - expected)) < 1e-12


def test_morph_empty_mapping_and_errors(tiny_state, tiny_exemplars):
    assert morph(tiny_state, {}) is tiny_state
    with pytest.raises(EmptyInput):
        morph(tiny_state, {99: []})
    taken = sorted(tiny_state.prototypes.base)[0]
    with pytest.raises(ClassCollision):
        morph(tiny_state, {taken: [tiny_exemplars[sorted(tiny_exemplars)[0]][0]]})


@pytest.mark.parametrize("bad", [21.5, "22", True, np.float64(22.0)])
def test_morph_refuses_a_key_that_is_not_a_class_id(tiny_state, tiny_exemplars, bad):
    """A float key is not rounded to a class, nor a str key parsed into one, nor a bool taken as class 1."""
    shots = tiny_exemplars[sorted(tiny_exemplars)[0]]
    with pytest.raises(ValueError, match=f"^{re.escape(f'class id {bad!r} is not an integer')}$"):
        morph(tiny_state, {bad: shots})
    assert 22 in morph(tiny_state, {np.int64(22): shots}).prototypes.novel


def test_sixty_one_class_morphs_build_the_set_the_full_check_builds(tiny_state):
    rng = np.random.default_rng(28)
    first = max(tiny_state.prototypes.ids) + 1
    ids = [int(cid) for cid in rng.permutation(np.arange(first, first + 60))]  # inserted at scattered places in id order
    shots = {cid: rng.normal(size=(int(rng.integers(1, 6)), tiny_state.params.m_in)) for cid in ids}
    state = tiny_state
    for cid in ids:
        state = morph(state, {cid: shots[cid]})
    rows = dict(zip(tiny_state.prototypes.ids, tiny_state.prototypes.matrix))
    rows.update({cid: l2_normalize(forward_batch(tiny_state.params, shots[cid])[0].mean(axis=0)) for cid in ids})
    full = PrototypeSet(ids=tuple(sorted(rows)), matrix=np.stack([rows[c] for c in sorted(rows)]), novel=set(ids))
    assert state.prototypes.ids == full.ids and state.prototypes.novel == full.novel
    assert state.prototypes.matrix.tobytes() == full.matrix.tobytes()
    assert not state.prototypes.matrix.flags.writeable


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
    passing (proposal, class) pair, then the brute-force NMS oracle. Returns the
    kept Detections and every candidate Detection."""
    feats, bg, deltas = forward_batch(state.params, np.stack([d for d, _ in proposals]))
    q = posterior_batch(feats, bg, state.prototypes)
    candidates = []
    for i, (_, anchor) in enumerate(proposals):
        box = scalar_decode(anchor, deltas[i])
        for k, cid in enumerate(state.prototypes.ids):
            if float(q[i, k + 1]) >= score_threshold:
                candidates.append(Detection(class_id=cid, score=float(q[i, k + 1]), box=box))
    return brute_force_nms(candidates, nms_iou), candidates


@pytest.mark.parametrize("n_classes", [25, 80])
@pytest.mark.parametrize("score_threshold", [0.0, 0.05])
def test_detect_equals_the_per_pair_reference(n_classes, score_threshold):
    for seed in range(3):
        state, proposals = random_detector(n_classes, seed)
        expected, candidates = per_pair_detect(state, proposals, score_threshold)
        assert len(candidates) > len(expected) > 0
        assert detect(state, proposals, DetectConfig(score_threshold=score_threshold)) == expected


@pytest.mark.parametrize("n_classes", [25, 80])
@pytest.mark.parametrize("tie", ["duplicated_proposals", "one_descriptor"])
def test_detect_equals_the_per_pair_reference_on_tied_candidates(n_classes, tie):
    """Duplicated proposals (same descriptor and anchor) tie candidates on score, class and corners;
    one descriptor under every anchor ties them on score and class, and the corners break the tie."""
    for seed in range(3):
        state, proposals = random_detector(n_classes, seed)
        if tie == "duplicated_proposals":
            proposals = proposals[:12] * 2
        else:
            proposals = [(proposals[0][0], anchor) for _, anchor in proposals]
        expected, candidates = per_pair_detect(state, proposals, 0.05)
        if tie == "duplicated_proposals":
            assert len(set(candidates)) == len(candidates) // 2
        else:
            assert len({(d.score, d.class_id) for d in candidates}) < len(set(candidates)) == len(candidates)
        assert len(candidates) > len(expected) > 0
        assert detect(state, proposals) == expected


@settings(max_examples=60, deadline=None)
@given(
    n_classes=st.sampled_from([25, 80]),
    seed=st.integers(0, 5),
    form=st.sampled_from(["empty", "one", "all", "random"]),
    data=st.data(),
)
def test_detect_on_asked_classes_is_the_full_list_filtered_to_them(n_classes, seed, form, data):
    """Asking for a set of classes keeps exactly the full call's detections of those classes, in its order:
    NMS is per class, so the unasked classes' candidates suppress nothing that is asked."""
    state, proposals = random_detector(n_classes, seed)
    ids = state.prototypes.ids
    asked = {
        "empty": [],
        "one": [data.draw(st.sampled_from(ids))],
        "all": list(ids),
        "random": data.draw(st.lists(st.sampled_from(ids), unique=True)),
    }[form]
    full = detect(state, proposals)
    assert detect(state, proposals, DetectConfig(), asked) == [d for d in full if d.class_id in set(asked)]


def test_detect_refuses_an_asked_class_with_no_prototype():
    state, proposals = random_detector(25, 0)
    for asked in ([26], [0, 3], [1, 1000]):
        unknown = [cid for cid in asked if cid not in state.prototypes.ids]
        with pytest.raises(UnknownClass, match=re.escape(f"no prototype for asked classes {unknown}")):
            detect(state, proposals, DetectConfig(), asked)
    with pytest.raises(UnknownClass, match=r"\[26\]"):
        detect(state, [], DetectConfig(), [26])  # refused before the empty request returns


@pytest.mark.parametrize("n", [1, 3])
def test_a_batch_of_the_wrong_width_is_refused_by_the_shape_it_came_in(tiny_state, n):
    """An odd batch is padded with a zero row inside forward_batch; the refusal names the caller's shape."""
    m_in = tiny_state.params.m_in
    message = re.escape(f"descriptor batch has shape ({n}, {m_in + 1}), expected (n, {m_in})")
    with pytest.raises(DimensionMismatch, match=message):
        detect(tiny_state, [(np.zeros(m_in + 1), Box(0.1, 0.1, 0.4, 0.4))] * n)
    with pytest.raises(DimensionMismatch, match=message):
        morph(tiny_state, {1000: np.ones((n, m_in + 1))})


@pytest.mark.parametrize("bad_deltas", [[np.nan, 0.0, 0.0, 0.0], [0.0, 0.0, 800.0, 0.0]], ids=["nan", "exp_overflow"])
def test_detect_refuses_a_bad_box_on_a_proposal_with_no_passing_class(bad_deltas):
    state = identity_detector([(1, [1.0, 0.0]), (2, [0.0, 1.0])])
    state.params.box_head.bias[:] = bad_deltas
    quiet = [(np.zeros(2), Box(0.1, 0.1, 0.4, 0.4))]
    feats, bg, _ = forward_batch(state.params, np.zeros((1, 2)))
    assert np.all(posterior_batch(feats, bg, state.prototypes)[:, 1:] < 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused as InvalidBox, with no numpy warning on the way
        for asked in (None, [1], []):  # every box is checked, whether or not an asked class passes
            with pytest.raises(InvalidBox):
                detect(state, quiet, DetectConfig(score_threshold=0.5), asked)


def test_exemplars_csv_round_trip(tmp_path, tiny_exemplars):
    path = tmp_path / "exemplars.csv"
    write_exemplars_csv(path, tiny_exemplars)
    back = read_exemplars_csv(path)
    assert sorted(back) == sorted(tiny_exemplars)
    for cid, descs in tiny_exemplars.items():
        assert len(back[cid]) == len(descs)
        for mine, theirs in zip(descs, back[cid]):
            assert np.array_equal(mine, theirs)


@pytest.mark.parametrize("empty", [np.zeros((0, 3)), []], ids=["zero_rows", "no_rows"])
def test_exemplars_writer_refuses_a_class_with_no_exemplars(tmp_path, empty):
    """Its reader refuses one too, so every file the writer writes loads back."""
    path = tmp_path / "exemplars.csv"
    with pytest.raises(EmptyInput, match=re.escape(f"{path}: class 7 has no exemplars")):
        write_exemplars_csv(path, {2: np.ones((2, 3)), 7: empty})
    assert not path.exists()


@pytest.mark.parametrize("bad", [0, -3, 2.0, True])
def test_exemplars_writer_refuses_ids_its_reader_refuses(tmp_path, bad):
    """A key the reader would refuse is refused before the file is opened, so no file is left behind."""
    path = tmp_path / "exemplars.csv"
    shots = np.ones((2, 3))
    with pytest.raises(ValueError, match=re.escape(f"class id {bad!r} is not an integer >= 1")):
        write_exemplars_csv(path, {bad: shots, 5: shots})
    assert not path.exists()
    write_exemplars_csv(path, {np.int64(2): shots, 7: shots})
    assert sorted(read_exemplars_csv(path)) == [2, 7]


def test_exemplars_are_one_float64_array_per_class_from_draw_to_file_to_morph(
    tmp_path, tiny_universe, tiny_state, tiny_exemplars
):
    path = tmp_path / "exemplars.csv"
    write_exemplars_csv(path, tiny_exemplars)
    back = read_exemplars_csv(path)
    for exemplars in (tiny_exemplars, back):
        assert list(exemplars) == list(tiny_universe.novel)
        for arr in exemplars.values():
            assert type(arr) is np.ndarray and arr.dtype == np.float64 and arr.shape == (5, tiny_universe.config.m_in)
    assert all(np.array_equal(back[cid], arr) for cid, arr in tiny_exemplars.items())
    rows = {cid: list(arr) for cid, arr in tiny_exemplars.items()}
    from_arrays, from_rows = (morph(tiny_state, exemplars).prototypes.matrix for exemplars in (tiny_exemplars, rows))
    assert from_arrays.tobytes() == from_rows.tobytes()


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
