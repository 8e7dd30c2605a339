"""Metric checks against from-scratch reference implementations.

The references below re-derive all-point AP and budgeted recall in plain
Python (no numpy) so the library versions have something independent to agree
with, bit for bit, on random inputs."""

import json
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import identity_detector
from helpers import reference_report_csv, reference_report_dict, reference_report_json, reference_table_rows, scene_of
from morphdet import evalkit, morph_inference
from morphdet.evalkit import (
    IOU_THRESHOLDS,
    average_precision,
    evaluate,
    iou_table,
    recall_at,
    report_table_rows,
    report_to_dict,
    report_to_json,
    write_report_csv,
)
from morphdet.morph_inference import Box, DetectConfig, iou, morph
from morphdet.numkernel import EmptyInput
from morphdet.prototype_store import UnknownClass
from morphdet.toyworld import DataConfig, make_dataset


def ap_of(detections, ground_truths, thr):
    """average_precision on the iou_table of `detections` and `ground_truths`, as evaluate builds it."""
    return average_precision(iou_table(detections, ground_truths), len(ground_truths), thr)


def ref_average_precision(detections, ground_truths, thr):
    """All-point interpolated AP, recomputed from the definition."""
    detections = list(detections)
    ground_truths = list(ground_truths)
    if not detections or not ground_truths:
        return 0.0
    order = sorted(range(len(detections)), key=lambda i: -detections[i][1])
    gt_boxes: dict = {}
    for scene_id, box in ground_truths:
        gt_boxes.setdefault(scene_id, []).append(box)
    used = {scene_id: [False] * len(boxes) for scene_id, boxes in gt_boxes.items()}
    flags = []
    for i in order:
        scene_id, _score, box = detections[i]
        best, where = 0.0, -1
        for j, gt in enumerate(gt_boxes.get(scene_id, [])):
            if used[scene_id][j]:
                continue
            overlap = iou(box, gt)
            if overlap >= thr and overlap > best:
                best, where = overlap, j
        if where >= 0:
            used[scene_id][where] = True
        flags.append(where >= 0)
    tp = fp = 0.0
    rec, pre = [0.0], [0.0]
    for hit in flags:
        tp += 1.0 if hit else 0.0
        fp += 0.0 if hit else 1.0
        rec.append(tp / len(ground_truths))
        pre.append(tp / (tp + fp))
    rec.append(1.0)
    pre.append(0.0)
    for i in range(len(pre) - 1, 0, -1):
        pre[i - 1] = max(pre[i - 1], pre[i])
    ap = 0.0
    for i in range(1, len(rec)):
        if rec[i] != rec[i - 1]:
            ap += (rec[i] - rec[i - 1]) * pre[i]
    return ap


def ref_recall_at(detections, ground_truths, n, thr):
    """Budgeted class-agnostic recall, matched scene by scene."""
    ground_truths = list(ground_truths)
    if not ground_truths:
        return 0.0
    dets_by_scene: dict = {}
    for scene_id, score, box in detections:
        dets_by_scene.setdefault(scene_id, []).append((score, box))
    gts_by_scene: dict = {}
    for scene_id, box in ground_truths:
        gts_by_scene.setdefault(scene_id, []).append(box)
    hits = 0
    for scene_id, rows in dets_by_scene.items():
        order = sorted(range(len(rows)), key=lambda i: -rows[i][0])[:n]
        used = [False] * len(gts_by_scene.get(scene_id, []))
        for i in order:
            _score, box = rows[i]
            best, where = 0.0, -1
            for j, gt in enumerate(gts_by_scene.get(scene_id, [])):
                if used[j]:
                    continue
                overlap = iou(box, gt)
                if overlap >= thr and overlap > best:
                    best, where = overlap, j
            if where >= 0:
                used[where] = True
                hits += 1
    return float(hits) / len(ground_truths)


def random_box(rng):
    x1 = rng.uniform(0.0, 0.7)
    y1 = rng.uniform(0.0, 0.7)
    return Box(x1, y1, x1 + rng.uniform(0.05, 0.3), y1 + rng.uniform(0.05, 0.3))


def test_metrics_match_reference_on_random_instances():
    rng = np.random.default_rng(77)
    for case in range(200):
        n_scenes = int(rng.integers(1, 4))
        gts = []
        for _ in range(int(rng.integers(0, 6))):
            gts.append((int(rng.integers(0, n_scenes)), random_box(rng)))
        dets = []
        for _ in range(int(rng.integers(0, 11))):
            scene = int(rng.integers(0, n_scenes))
            if case % 2 == 0:
                score = float(rng.integers(0, 5)) / 4.0
            else:
                score = float(rng.uniform())
            if gts and rng.uniform() < 0.6:
                anchor = gts[int(rng.integers(0, len(gts)))][1]
                dx = rng.uniform(-0.05, 0.05)
                dy = rng.uniform(-0.05, 0.05)
                box = Box(anchor.x1 + dx, anchor.y1 + dy, anchor.x2 + dx, anchor.y2 + dy)
            else:
                box = random_box(rng)
            dets.append((scene, score, box))
        for thr in (0.5, 0.75):
            got = ap_of(dets, gts, thr)
            assert got == ref_average_precision(dets, gts, thr)
            assert 0.0 <= got <= 1.0
        previous = 0.0
        for budget in (1, 2, 3):
            got = recall_at(dets, gts, budget, 0.5)
            assert got == ref_recall_at(dets, gts, budget, 0.5)
            assert previous <= got <= 1.0
            previous = got


def _class_at_evaluate_size(rng, gt_scenes, det_scenes):
    """One class as evaluate hands it over: 8 to 24 ground truths, some repeated within a scene, and
    100 to 159 detections on quarter-step scores (so many tie), some a repeat of an earlier box.
    Detections near a ground truth score higher, as a working detector's do."""
    gts = []
    for _ in range(int(rng.integers(8, 25))):
        if gts and rng.uniform() < 0.1:
            gts.append(gts[int(rng.integers(0, len(gts)))])
        else:
            gts.append((int(rng.choice(gt_scenes)), random_box(rng)))
    dets = []
    for _ in range(int(rng.integers(100, 160))):
        score = float(rng.integers(0, 3)) / 4.0
        if dets and rng.uniform() < 0.2:
            scene, _score, box = dets[int(rng.integers(0, len(dets)))]
        elif rng.uniform() < 0.5:
            score += 0.5
            scene, anchor = gts[int(rng.integers(0, len(gts)))]
            if scene not in det_scenes:
                scene = int(rng.choice(det_scenes))
            dx, dy = rng.uniform(-0.06, 0.06, size=2)
            box = Box(anchor.x1 + dx, anchor.y1 + dy, anchor.x2 + dx, anchor.y2 + dy)
        else:
            scene, box = int(rng.choice(det_scenes)), random_box(rng)
        dets.append((scene, score, box))
    return dets, gts


def test_metrics_match_reference_at_the_sizes_evaluate_feeds():
    """AP at all ten thresholds and recall at budgets below a scene's detection count, bit for bit
    against the references, on classes of evaluate's size spread over a dozen scenes."""
    rng = np.random.default_rng(2030)
    scenes = list(range(12))
    classes = [_class_at_evaluate_size(rng, scenes, scenes) for _ in range(8)]
    # Ground truths in scenes 0-5 and detections in 6-11 only: no detection overlaps a ground truth.
    classes.append(_class_at_evaluate_size(rng, scenes[:6], scenes[6:]))
    inside = 0
    for number, (dets, gts) in enumerate(classes):
        table = iou_table(dets, gts)
        assert (table == []) == (number == len(classes) - 1)
        for thr in IOU_THRESHOLDS:
            got = average_precision(table, len(gts), thr)
            assert got == ref_average_precision(dets, gts, thr), (number, thr)
            inside += 0.0 < got < 1.0
    assert inside >= 40  # most curves are partial, so the envelope and every step count

    dets = [det for class_dets, _ in classes for det in class_dets]
    gts = [gt for _, class_gts in classes for gt in class_gts]
    per_scene = [sum(det[0] == scene for det in dets) for scene in scenes]
    assert min(per_scene) > 50
    for budget in (1, 3, 10, 50, 100):
        for thr in (0.5, 0.75):
            assert recall_at(dets, gts, budget, thr) == ref_recall_at(dets, gts, budget, thr), (budget, thr)


# MIDDLE overlaps LEFT and RIGHT at exactly 0.6, a tie that matching must give to the first ground truth.
LEFT, MIDDLE, RIGHT = Box(0.0, 0.0, 0.5, 0.25), Box(0.125, 0.0, 0.625, 0.25), Box(0.25, 0.0, 0.75, 0.25)


def test_ap_hand_cases():
    a = Box(0.1, 0.1, 0.4, 0.4)
    far = Box(0.1, 0.6, 0.3, 0.8)
    assert ap_of([], [(0, a)], 0.5) == 0.0
    assert ap_of([(0, 0.9, a)], [], 0.5) == 0.0
    assert ap_of([(0, 0.9, a)], [(0, a)], 0.5) == 1.0
    # Duplicate of a matched box ranks second: [TP, FP] still integrates to 1.
    assert ap_of([(0, 0.9, a), (0, 0.5, a)], [(0, a)], 0.5) == 1.0
    # Miss ranked above a hit halves the envelope.
    assert ap_of([(0, 0.9, far), (0, 0.5, a)], [(0, a)], 0.5) == 0.5
    # Equal scores keep list order; a leading miss cannot be reordered away.
    assert ap_of([(0, 0.7, far), (0, 0.7, a)], [(0, a)], 0.5) == 0.5
    # The second duplicate falls back to the other overlapping ground truth.
    tall = Box(0.0, 0.0, 1.0, 1.0)
    short = Box(0.0, 0.0, 1.0, 0.8)
    dets = [(0, 0.9, short), (0, 0.5, short)]
    assert ap_of(dets, [(0, tall), (0, short)], 0.5) == 1.0
    # Same boxes in different scenes stay separate.
    assert ap_of([(1, 0.9, a)], [(0, a)], 0.5) == 0.0
    # The tied detection takes LEFT, so the exact LEFT box ranked after it finds its ground truth taken.
    assert iou(MIDDLE, LEFT) == iou(MIDDLE, RIGHT) == 0.6
    assert ap_of([(0, 0.9, MIDDLE), (0, 0.5, LEFT)], [(0, LEFT), (0, RIGHT)], 0.5) == 0.5


def test_recall_hand_cases():
    a = Box(0.1, 0.1, 0.4, 0.4)
    b = Box(0.6, 0.6, 0.9, 0.9)
    far = Box(0.1, 0.6, 0.3, 0.8)
    gts = [(0, a), (0, b)]
    dets = [(0, 0.9, far), (0, 0.8, a), (0, 0.7, b)]
    assert recall_at(dets, gts, 1, 0.5) == 0.0
    assert recall_at(dets, gts, 2, 0.5) == 0.5
    assert recall_at(dets, gts, 3, 0.5) == 1.0
    assert recall_at([(0, 0.9, MIDDLE), (0, 0.5, LEFT)], [(0, LEFT), (0, RIGHT)], 2, 0.5) == 0.5
    assert recall_at([], gts, 5, 0.5) == 0.0
    assert recall_at(dets, [], 5, 0.5) == 0.0
    with pytest.raises(ValueError):
        recall_at(dets, gts, 0, 0.5)


def _axis(dim, i):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


def _eval_world():
    dim = 3
    state = identity_detector([(1, _axis(dim, 0)), (2, _axis(dim, 1)), (3, _axis(dim, 2))])
    box_a = Box(0.1, 0.1, 0.3, 0.3)
    box_b = Box(0.6, 0.6, 0.85, 0.85)
    box_c = Box(0.4, 0.1, 0.55, 0.2)
    box_d = Box(0.2, 0.5, 0.45, 0.75)
    scene1 = scene_of(
        scene_id=11,
        objects=[
            SimpleNamespace(class_id=1, box=box_a),
            SimpleNamespace(class_id=2, box=box_b),
        ],
        proposals=[
            SimpleNamespace(descriptor=_axis(dim, 0), anchor=box_a),
            SimpleNamespace(descriptor=_axis(dim, 1), anchor=box_b),
            SimpleNamespace(descriptor=np.zeros(dim), anchor=box_c),
        ],
    )
    scene2 = scene_of(
        scene_id=12,
        objects=[SimpleNamespace(class_id=3, box=box_d)],
        proposals=[SimpleNamespace(descriptor=_axis(dim, 2), anchor=box_d)],
    )
    return state, [scene1, scene2]


def test_evaluate_scores_a_perfect_detector():
    state, scenes = _eval_world()
    report = evaluate(state, scenes, base_ids=[1, 2], novel_ids=[3])
    assert report_to_dict(report)["iou_thresholds"] == list(IOU_THRESHOLDS)
    assert sorted(report.per_class_ap) == [1, 2, 3]
    for thrs in report.per_class_ap.values():
        assert sorted(thrs) == sorted(IOU_THRESHOLDS)
        # Box deltas are zero, so every kept detection sits exactly on its
        # object and survives all ten thresholds.
        for value in thrs.values():
            assert value == 1.0
    assert report.overall.ap == 1.0 and report.overall.ap50 == 1.0 and report.overall.ap75 == 1.0
    assert report.overall.class_ids == (1, 2, 3)
    assert report.base.class_ids == (1, 2) and report.base.ap == 1.0
    assert report.novel.class_ids == (3,) and report.novel.ap50 == 1.0
    assert report.recall == 1.0


def test_evaluate_tells_apart_scenes_that_share_an_id(monkeypatch):
    # `eval --split all` joins two splits whose scene ids both start at 0. A budget of one detection per
    # scene makes that show: scene 11 holds two objects, so keyed by position recall is 2/3, not 1/3.
    monkeypatch.setattr(evalkit, "RECALL_BUDGET", 1)
    state, scenes = _eval_world()
    shared = [replace(scene, scene_id=0) for scene in scenes]
    distinct = evaluate(state, scenes, base_ids=[1, 2], novel_ids=[3])
    joined = evaluate(state, shared, base_ids=[1, 2], novel_ids=[3])
    assert joined == distinct
    assert joined.recall == 2.0 / 3.0


def test_evaluate_excludes_classes_without_ground_truth():
    state, scenes = _eval_world()
    report = evaluate(state, scenes[:1], base_ids=[1, 2], novel_ids=[3])
    assert sorted(report.per_class_ap) == [1, 2]
    assert report.novel is None
    assert report.base.class_ids == (1, 2)


def test_evaluate_validation():
    state, scenes = _eval_world()
    with pytest.raises(EmptyInput):
        evaluate(state, [], base_ids=[1], novel_ids=[])
    with pytest.raises(ValueError):
        evaluate(state, scenes, base_ids=[1, 2], novel_ids=[2])
    with pytest.raises(UnknownClass):
        evaluate(state, scenes, base_ids=[1, 2], novel_ids=[9])
    with pytest.raises(EmptyInput):
        evaluate(state, scenes, base_ids=[], novel_ids=[])
    with pytest.raises(EmptyInput, match="no ground truth for the listed classes"):
        evaluate(state, scenes[:1], base_ids=[], novel_ids=[3])  # scene 0 holds classes 1 and 2 only


@pytest.mark.parametrize(
    "bad, message",
    [(v, f"class id {v!r} is not an integer") for v in (1.5, 1.0, True, "1", np.float64(2.0))]
    + [(v, f"class ids must be >= 1 (0 is background), got {v}") for v in (0, np.int64(-1))],
)
@pytest.mark.parametrize("listed", ["base", "novel"])
def test_evaluate_refuses_an_id_that_is_not_a_class_id(listed, bad, message):
    """A float, bool or str id is refused by value, never rounded or parsed into a class it does not name."""
    state, scenes = _eval_world()
    base, novel = ([bad], []) if listed == "base" else ([], [bad])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        evaluate(state, scenes, base_ids=base, novel_ids=novel)


def test_evaluate_takes_ids_as_a_tuple_or_numpy_integers():
    state, scenes = _eval_world()
    plain = evaluate(state, scenes, base_ids=[1, 2], novel_ids=[3])
    for base, novel in (((1, 2), (3,)), (np.array([1, 2]), [np.int32(3)]), (list(np.arange(1, 3)), np.array([3]))):
        assert evaluate(state, scenes, base_ids=base, novel_ids=novel) == plain


def test_report_serialization(tmp_path):
    state, scenes = _eval_world()
    report = evaluate(state, scenes, base_ids=[1, 2], novel_ids=[3])
    data = report_to_dict(report)
    assert data["ap"] == 1.0
    assert data["per_class_ap"]["1"]["0.50"] == 1.0
    assert data["recall"]["100"] == 1.0
    assert data["base"]["class_ids"] == [1, 2]
    assert data["novel"]["class_ids"] == [3]
    text = report_to_json(report)
    assert text.endswith("\n") and '"ap50"' in text

    rows = report_table_rows("morph", report)
    assert [split for _, split, _ in rows] == ["all", "base", "novel"]
    assert all(method == "morph" for method, _, _ in rows)
    path = tmp_path / "report.csv"
    write_report_csv(path, rows)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "method,split,ap,ap50,ap75"
    assert lines[1] == "morph,all,1.000000,1.000000,1.000000"
    assert len(lines) == 4


@pytest.mark.parametrize(
    "split, budget",
    [("both", None), ("base", None), ("novel", None), ("both", 1)],
    ids=["base_and_novel", "base_only", "novel_only", "recall_budget_1"],
)
def test_report_bytes_match_the_former_report(split, budget, tiny_universe, tiny_state, tiny_exemplars, tmp_path,
                                              monkeypatch):
    # A trained and morphed detector on fresh scenes of every class scores AP strictly between 0 and 1, so every
    # figure of report.json and report.csv is one the oracle must rebuild from per_class_ap, the ids and recall.
    if budget is not None:
        monkeypatch.setattr(evalkit, "RECALL_BUDGET", budget)
    base = tiny_universe.base if split != "novel" else ()
    novel = tiny_universe.novel if split != "base" else ()
    scenes = make_dataset(tiny_universe, tiny_universe.base + tiny_universe.novel, 2, DataConfig(), seed=5)
    report = evaluate(morph(tiny_state, tiny_exemplars), scenes, base, novel)
    assert 0.0 < report.overall.ap < 1.0 and 0.0 < report.recall <= 1.0
    assert [s is None for _, s in report.splits()] == [False, not base, not novel]

    oracle = reference_report_dict(report.per_class_ap, base, novel, report.recall, evalkit.RECALL_BUDGET)
    assert report_to_json(report) == json.dumps(oracle, sort_keys=True, indent=2) + "\n"
    path = tmp_path / "report.csv"
    write_report_csv(path, report_table_rows("morph", report) + report_table_rows("other", report))
    rows = reference_table_rows("morph", report.per_class_ap, base, novel)
    rows += reference_table_rows("other", report.per_class_ap, base, novel)
    assert path.read_bytes() == reference_report_csv(rows).encode("utf-8")


@pytest.mark.parametrize("form", ["novel_scenes_base_listed", "base_only", "all"])
def test_evaluate_asks_detect_for_the_scored_classes_and_keeps_the_report_bytes(
    form, tiny_universe, tiny_state, tiny_exemplars, monkeypatch
):
    # The studies' form scores eval_novel with the base ids listed: base classes have no ground truth there, so
    # only the novel ones are scored, and no base class may reach NMS. The report must be the all-class loop's.
    u, state = tiny_universe, morph(tiny_state, tiny_exemplars)
    drawn, base, novel = {
        "novel_scenes_base_listed": (u.novel, u.base, u.novel),
        "base_only": (u.base, u.base, ()),
        "all": (u.base + u.novel, u.base, u.novel),
    }[form]
    scenes = make_dataset(u, drawn, 2, DataConfig(), seed=7)
    expected = reference_report_json(state, scenes, base, novel)

    reached = set()

    def watched_nms(candidates, iou_threshold):
        reached.update(class_id for _, class_id, _ in candidates)
        return nms(candidates, iou_threshold)

    nms = morph_inference.nms
    monkeypatch.setattr(morph_inference, "nms", watched_nms)
    report = evaluate(state, scenes, base, novel)
    assert report_to_json(report) == expected
    assert reached and reached <= set(report.per_class_ap) == set(drawn)
