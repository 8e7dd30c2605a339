"""Detection metrics and the evaluation report.

Average precision follows the all-point interpolation convention: detections
are ranked by score (stable on ties), matched greedily to the highest-IoU
unmatched ground truth in their own scene, and precision is enveloped from
the right before integrating over recall, which is done over the hit ranks
alone. The headline AP averages the ten IoU thresholds 0.50:0.05:0.95;
AP50/AP75 are the usual single-threshold cuts.

Recall@N is class-agnostic: the top-N detections of each scene are matched to
that scene's objects ignoring labels, scene by scene. The report collects the
ground truth first, which fixes the scored classes, then hands detect each
scene itself, whose arrays it reads as they are, asking for those classes alone.

An EvalReport holds each figure once: per-class AP, one SubsetMetrics for each
split (all, base, novel) and recall at RECALL_BUDGET as one number; report.json,
report.csv and eval's printed lines read its (split, SubsetMetrics) pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .morph_inference import Box, DetectConfig, detect, iou
from .numkernel import EmptyInput
from .prototype_store import UnknownClass
from .textio import check_class_id, write_csv

IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
RECALL_BUDGET = 100  # detections per scene that the report's recall counts


def iou_table(detections, ground_truths) -> list[tuple[int, list[tuple[int, float]]]]:
    """Per detection that overlaps a ground truth of its scene, its rank in
    descending-score order (stable on ties) and the (index, IoU) of each ground
    truth it overlaps: all that matching reads, as a row without one never matches.
    `detections` are (scene, score, Box) triples and `ground_truths` (scene, Box)
    pairs, where a scene is any key that tells scenes apart: evaluate passes each
    scene's position in its list, as joined splits repeat scene_ids."""
    by_scene: dict = {}
    for j, (scene, gt_box) in enumerate(ground_truths):
        by_scene.setdefault(scene, []).append((j, gt_box))
    table = []
    for rank, idx in enumerate(_score_order(detections)):
        scene, _score, box = detections[idx]
        row = [(j, overlap) for j, gt_box in by_scene.get(scene, ()) if (overlap := iou(box, gt_box)) > 0.0]
        if row:
            table.append((rank, row))
    return table


def _match_detections(table, gt_count: int, iou_threshold: float) -> list[int]:
    """Greedy matching down an iou_table: the rank of each row that takes the
    highest-IoU ground truth (the first on ties) that no earlier row took."""
    taken = [False] * gt_count
    hits: list[int] = []
    for rank, overlaps in table:
        best_iou, best_j = 0.0, -1
        for j, overlap in overlaps:
            if overlap >= iou_threshold and overlap > best_iou and not taken[j]:
                best_iou, best_j = overlap, j
        if best_j >= 0:
            taken[best_j] = True
            hits.append(rank)
    return hits


def _score_order(detections) -> list[int]:
    return sorted(range(len(detections)), key=lambda i: -detections[i][1])


def average_precision(table, gt_count: int, iou_threshold: float) -> float:
    """AP for one class from the iou_table of its detections and its
    `gt_count` ground truths, built once for every threshold. No ground
    truth yields 0.0 by convention (callers normally exclude such classes).
    The curve is integrated over the hit ranks alone, bit-equal to the curve
    over every rank: a miss's precision is below the hit's before it, and the
    step to recall 1.0 adds (1 - recall) * 0.0 = +0.0.
    """
    if not gt_count:
        return 0.0
    hits = _match_detections(table, gt_count, iou_threshold)
    envelope, best = [0.0] * len(hits), 0.0
    for k in range(len(hits) - 1, -1, -1):
        best = envelope[k] = max(best, (k + 1) / (hits[k] + 1.0))
    ap = recall = 0.0
    for k, precision in enumerate(envelope):
        step = (k + 1) / gt_count
        ap += (step - recall) * precision
        recall = step
    return ap


def recall_at(detections, ground_truths, n: int, iou_threshold: float) -> float:
    """Fraction of ground truths matched by each scene's top-n detections,
    ignoring class labels. `detections` are (scene, score, Box) triples and
    `ground_truths` (scene, Box) pairs, keyed by scene as iou_table takes them.
    A scene's top n are matched to its ground truths as _match_detections
    matches, at one threshold and with no table: each IoU is taken when read,
    none against a taken truth."""
    if n < 1:
        raise ValueError(f"detection budget must be >= 1, got {n}")
    ground_truths = list(ground_truths)
    if not ground_truths:
        return 0.0
    gts_by_scene: dict = {}
    for scene, gt_box in ground_truths:
        gts_by_scene.setdefault(scene, []).append(gt_box)
    dets_by_scene: dict = {}
    for det in detections:
        dets_by_scene.setdefault(det[0], []).append(det)
    hits = 0
    for scene, scene_dets in dets_by_scene.items():
        gts = gts_by_scene.get(scene, ())
        taken = [False] * len(gts)
        for i in _score_order(scene_dets)[:n]:
            box = scene_dets[i][2]
            best_iou, best_j = 0.0, -1  # so `overlap > best_iou` keeps iou_table's `overlap > 0.0`
            for j, gt_box in enumerate(gts):
                if not taken[j] and (overlap := iou(box, gt_box)) >= iou_threshold and overlap > best_iou:
                    best_iou, best_j = overlap, j
            if best_j >= 0:
                taken[best_j] = True
                hits += 1
    return float(hits) / len(ground_truths)


@dataclass(frozen=True)
class SubsetMetrics:
    class_ids: tuple[int, ...]
    ap: float
    ap50: float
    ap75: float


@dataclass(frozen=True)
class EvalReport:
    """Per-class AP at each IoU threshold; the means over all scored classes
    (`overall`) and over the base and novel ones (None where none is scored);
    and class-agnostic recall of each scene's top RECALL_BUDGET detections."""

    per_class_ap: dict[int, dict[float, float]]
    overall: SubsetMetrics
    base: SubsetMetrics | None
    novel: SubsetMetrics | None
    recall: float

    def splits(self) -> list[tuple[str, SubsetMetrics | None]]:
        return [("all", self.overall), ("base", self.base), ("novel", self.novel)]


def _subset(per_class: dict[int, dict[float, float]], ids) -> SubsetMetrics | None:
    ids = tuple(sorted(cid for cid in ids if cid in per_class))
    if not ids:
        return None
    means = {thr: float(np.mean([per_class[cid][thr] for cid in ids])) for thr in IOU_THRESHOLDS}
    return SubsetMetrics(ids, ap=float(np.mean(list(means.values()))), ap50=means[0.5], ap75=means[0.75])


def evaluate(
    state,
    scenes,
    base_ids,
    novel_ids,
    config: DetectConfig = DetectConfig(),
) -> EvalReport:
    """Score the listed classes: AP at each IoU threshold, and recall of each
    scene's top RECALL_BUDGET detections. Ground truth is collected first; then
    detect runs on every scene, with `config` as it is, asked for the scored classes.

    Classes without any ground truth in `scenes` are excluded from means.
    Every listed id must be a class id (textio.check_class_id) with a prototype in the state.
    """
    scenes = list(scenes)
    if not scenes:
        raise EmptyInput("nothing to evaluate: no scenes")
    base_ids = sorted(set(map(check_class_id, base_ids)))
    novel_ids = sorted(set(map(check_class_id, novel_ids)))
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
    for pos, scene in enumerate(scenes):
        for cid, corners in zip(scene.gt_ids.tolist(), scene.gt_boxes.tolist()):
            if cid in gts_by_class:
                gts_by_class[cid].append((pos, Box(*corners)))
    evaluated = [cid for cid in all_ids if gts_by_class[cid]]
    if not evaluated:
        raise EmptyInput("nothing to evaluate: no ground truth for the listed classes")
    dets_by_class: dict[int, list] = {cid: [] for cid in evaluated}
    for pos, scene in enumerate(scenes):
        for det in detect(state, scene, config, evaluated):
            dets_by_class[det.class_id].append((pos, det.score, det.box))

    per_class = {}
    for cid in evaluated:
        table = iou_table(dets_by_class[cid], gts_by_class[cid])
        per_class[cid] = {thr: average_precision(table, len(gts_by_class[cid]), thr) for thr in IOU_THRESHOLDS}

    recall_dets = [row for cid in evaluated for row in dets_by_class[cid]]
    recall_gts = [gt for cid in evaluated for gt in gts_by_class[cid]]
    return EvalReport(
        per_class_ap=per_class,
        overall=_subset(per_class, evaluated),
        base=_subset(per_class, base_ids),
        novel=_subset(per_class, novel_ids),
        recall=recall_at(recall_dets, recall_gts, RECALL_BUDGET, 0.5),
    )


def report_to_dict(report: EvalReport) -> dict:
    """The report as report.json holds it: the overall figures at the top level, without class ids."""
    def figures(s: SubsetMetrics) -> dict:
        return {"ap": s.ap, "ap50": s.ap50, "ap75": s.ap75}

    (_, overall), *subsets = report.splits()
    return {
        "iou_thresholds": list(IOU_THRESHOLDS),
        "per_class_ap": {
            str(cid): {f"{thr:.2f}": ap for thr, ap in sorted(thrs.items())}
            for cid, thrs in sorted(report.per_class_ap.items())
        },
        **figures(overall),
        "recall": {str(RECALL_BUDGET): report.recall},
        **{split: None if s is None else {"class_ids": list(s.class_ids), **figures(s)} for split, s in subsets},
    }


def report_to_json(report: EvalReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"


def report_table_rows(method: str, report: EvalReport) -> list[tuple[str, str, SubsetMetrics]]:
    """Rows for the summary CSV: (method, split, metrics) for each split the report holds."""
    return [(method, split, s) for split, s in report.splits() if s is not None]


def write_report_csv(path, rows) -> None:
    """report_table_rows as CSV, each AP to six decimals."""
    rows = ((method, split, *(f"{ap:.6f}" for ap in (s.ap, s.ap50, s.ap75))) for method, split, s in rows)
    write_csv(path, "method,split,ap,ap50,ap75", rows)
