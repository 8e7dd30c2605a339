"""Detection metrics and the evaluation report.

Average precision follows the all-point interpolation convention: detections
are ranked by score (stable on ties), matched greedily to the highest-IoU
unmatched ground truth in their own scene, and precision is enveloped from
the right before integrating over recall. The headline AP averages the ten
IoU thresholds 0.50:0.05:0.95; AP50/AP75 are the usual single-threshold cuts.

Recall@N is class-agnostic: the top-N detections of each scene are matched to
that scene's objects ignoring labels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .morph_inference import DetectConfig, detect, iou
from .numkernel import EmptyInput
from .prototype_store import UnknownClass

IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))


def _match_detections(detections, ground_truths, iou_threshold: float) -> list[bool]:
    """Greedy matching in (stable) descending-score order. Returns a
    true/false flag per detection, aligned with that order's permutation of
    the input; callers that need the order use _score_order."""
    order = _score_order(detections)
    by_scene: dict = {}
    for scene_id, gt_box in ground_truths:
        by_scene.setdefault(scene_id, []).append(gt_box)
    taken = {scene_id: [False] * len(boxes) for scene_id, boxes in by_scene.items()}
    flags: list[bool] = []
    for idx in order:
        scene_id, _score, box = detections[idx]
        best_iou, best_j = 0.0, -1
        for j, gt_box in enumerate(by_scene.get(scene_id, [])):
            if taken[scene_id][j]:
                continue
            overlap = iou(box, gt_box)
            if overlap >= iou_threshold and overlap > best_iou:
                best_iou, best_j = overlap, j
        if best_j >= 0:
            taken[scene_id][best_j] = True
            flags.append(True)
        else:
            flags.append(False)
    return flags


def _score_order(detections) -> list[int]:
    return sorted(range(len(detections)), key=lambda i: -detections[i][1])


def average_precision(detections, ground_truths, iou_threshold: float) -> float:
    """AP for one class.

    `detections` are (scene_id, score, Box) triples, `ground_truths` are
    (scene_id, Box) pairs. No ground truth yields 0.0 by convention (callers
    normally exclude such classes).
    """
    detections = list(detections)
    ground_truths = list(ground_truths)
    if not ground_truths or not detections:
        return 0.0
    flags = _match_detections(detections, ground_truths, iou_threshold)
    tp = np.cumsum([1.0 if f else 0.0 for f in flags])
    fp = np.cumsum([0.0 if f else 1.0 for f in flags])
    recall = tp / len(ground_truths)
    precision = tp / (tp + fp)

    mrec = np.concatenate([[0.0], recall, [1.0]])
    mpre = np.concatenate([[0.0], precision, [0.0]])
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]
    # mrec runs from 0 to 1, so there is at least one step; cumsum adds left to right.
    steps = np.flatnonzero(mrec[1:] != mrec[:-1]) + 1
    return float(np.cumsum((mrec[steps] - mrec[steps - 1]) * mpre[steps])[-1])


def recall_at(detections, ground_truths, n: int, iou_threshold: float) -> float:
    """Fraction of ground truths matched by each scene's top-n detections,
    ignoring class labels. Inputs use the same triple/pair shapes as
    average_precision."""
    if n < 1:
        raise ValueError(f"detection budget must be >= 1, got {n}")
    detections = list(detections)
    ground_truths = list(ground_truths)
    if not ground_truths:
        return 0.0
    by_scene: dict = {}
    for scene_id, score, box in detections:
        by_scene.setdefault(scene_id, []).append((scene_id, score, box))
    budgeted = []
    for scene_id in sorted(by_scene):
        scene_dets = by_scene[scene_id]
        order = _score_order(scene_dets)[:n]
        budgeted.extend(scene_dets[i] for i in order)
    flags = _match_detections(budgeted, ground_truths, iou_threshold)
    return float(sum(flags)) / len(ground_truths)


@dataclass(frozen=True)
class SubsetMetrics:
    class_ids: tuple[int, ...]
    ap: float
    ap50: float
    ap75: float


@dataclass(frozen=True)
class EvalReport:
    iou_thresholds: tuple[float, ...]
    per_class_ap: dict[int, dict[float, float]]
    ap: float
    ap50: float
    ap75: float
    recall: dict[int, float]
    base: SubsetMetrics | None
    novel: SubsetMetrics | None


def _subset(per_class: dict[int, dict[float, float]], ids) -> SubsetMetrics | None:
    ids = tuple(sorted(cid for cid in ids if cid in per_class))
    if not ids:
        return None
    means = {
        thr: float(np.mean([per_class[cid][thr] for cid in ids])) for thr in IOU_THRESHOLDS
    }
    return SubsetMetrics(
        class_ids=ids,
        ap=float(np.mean(list(means.values()))),
        ap50=means[0.5],
        ap75=means[0.75],
    )


def evaluate(
    state,
    scenes,
    base_ids,
    novel_ids,
    config: DetectConfig = DetectConfig(),
    recall_budgets=(100,),
) -> EvalReport:
    """Run the detector on every scene, with `config` passed to detect as it
    is, and score the listed classes.

    Classes without any ground truth in `scenes` are excluded from means.
    The state must have a prototype for every listed id.
    """
    scenes = list(scenes)
    if not scenes:
        raise EmptyInput("nothing to evaluate: no scenes")
    base_ids = sorted(set(int(c) for c in base_ids))
    novel_ids = sorted(set(int(c) for c in novel_ids))
    clash = set(base_ids) & set(novel_ids)
    if clash:
        raise ValueError(f"classes listed as both base and novel: {sorted(clash)}")
    all_ids = base_ids + novel_ids
    if not all_ids:
        raise EmptyInput("nothing to evaluate: no class ids")
    for cid in all_ids:
        if not state.prototypes.has_class(cid):
            raise UnknownClass(f"state has no prototype for evaluated class {cid}")

    # Scenes are keyed by their position in `scenes`, not by scene_id: joined
    # splits (eval --split all) number their scenes from 0 each.
    gts_by_class: dict[int, list] = {cid: [] for cid in all_ids}
    dets_by_class: dict[int, list] = {cid: [] for cid in all_ids}
    for pos, scene in enumerate(scenes):
        for obj in scene.objects:
            if obj.class_id in gts_by_class:
                gts_by_class[obj.class_id].append((pos, obj.box))
        pairs = [(p.descriptor, p.anchor) for p in scene.proposals]
        for det in detect(state, pairs, config):
            if det.class_id in dets_by_class:
                dets_by_class[det.class_id].append((pos, det.score, det.box))

    evaluated = [cid for cid in all_ids if gts_by_class[cid]]
    if not evaluated:
        raise EmptyInput("nothing to evaluate: no ground truth for the listed classes")
    per_class = {
        cid: {
            thr: average_precision(dets_by_class[cid], gts_by_class[cid], thr)
            for thr in IOU_THRESHOLDS
        }
        for cid in evaluated
    }

    overall = _subset(per_class, evaluated)
    recall_dets = [row for cid in evaluated for row in dets_by_class[cid]]
    recall_gts = [gt for cid in evaluated for gt in gts_by_class[cid]]
    recall = {
        int(n): recall_at(recall_dets, recall_gts, int(n), 0.5) for n in recall_budgets
    }
    return EvalReport(
        iou_thresholds=IOU_THRESHOLDS,
        per_class_ap=per_class,
        ap=overall.ap,
        ap50=overall.ap50,
        ap75=overall.ap75,
        recall=recall,
        base=_subset(per_class, base_ids),
        novel=_subset(per_class, novel_ids),
    )


def report_to_dict(report: EvalReport) -> dict:
    def subset(s: SubsetMetrics | None):
        if s is None:
            return None
        return {"class_ids": list(s.class_ids), "ap": s.ap, "ap50": s.ap50, "ap75": s.ap75}

    return {
        "iou_thresholds": list(report.iou_thresholds),
        "per_class_ap": {
            str(cid): {f"{thr:.2f}": ap for thr, ap in sorted(thrs.items())}
            for cid, thrs in sorted(report.per_class_ap.items())
        },
        "ap": report.ap,
        "ap50": report.ap50,
        "ap75": report.ap75,
        "recall": {str(n): v for n, v in sorted(report.recall.items())},
        "base": subset(report.base),
        "novel": subset(report.novel),
    }


def report_to_json(report: EvalReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"


def report_table_rows(method: str, report: EvalReport) -> list[dict]:
    """Rows for the summary CSV: one per split with AP / AP50 / AP75."""
    rows = [
        {"method": method, "split": "all", "ap": report.ap, "ap50": report.ap50, "ap75": report.ap75}
    ]
    for split, subset in (("base", report.base), ("novel", report.novel)):
        if subset is not None:
            rows.append(
                {"method": method, "split": split, "ap": subset.ap, "ap50": subset.ap50, "ap75": subset.ap75}
            )
    return rows


def write_report_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("method,split,ap,ap50,ap75\n")
        for row in rows:
            fh.write(
                f"{row['method']},{row['split']},{row['ap']:.6f},{row['ap50']:.6f},{row['ap75']:.6f}\n"
            )
