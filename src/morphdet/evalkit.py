"""Detection metrics and the evaluation report.

Average precision follows the all-point interpolation convention: detections
are ranked by score (stable on ties), matched greedily to the highest-IoU
unmatched ground truth in their own scene, and precision is enveloped from
the right before integrating over recall, which is done over the hit ranks
alone. The headline AP averages the ten IoU thresholds 0.50:0.05:0.95;
AP50/AP75 are the usual single-threshold cuts.

Recall@N is class-agnostic: the top-N detections of each scene are matched to
that scene's objects ignoring labels, scene by scene. The report walks the
scenes once, handing detect each scene's descriptor and anchor rows as they are.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .morph_inference import Box, DetectConfig, detect, iou
from .numkernel import EmptyInput
from .prototype_store import UnknownClass
from .textio import write_csv

IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
RECALL_BUDGET = 100  # detections per scene that the report's recall counts


def iou_table(detections, ground_truths) -> list[tuple[int, list[tuple[int, float]]]]:
    """Per detection that overlaps a ground truth of its scene, its rank in
    descending-score order (stable on ties) and the (index, IoU) of each ground
    truth it overlaps: all that matching reads, as a row without one never matches."""
    by_scene: dict = {}
    for j, (scene_id, gt_box) in enumerate(ground_truths):
        by_scene.setdefault(scene_id, []).append((j, gt_box))
    table = []
    for rank, idx in enumerate(_score_order(detections)):
        scene_id, _score, box = detections[idx]
        row = [(j, overlap) for j, gt_box in by_scene.get(scene_id, ()) if (overlap := iou(box, gt_box)) > 0.0]
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
    ignoring class labels. `detections` are (scene_id, score, Box) triples,
    `ground_truths` (scene_id, Box) pairs, as iou_table takes them. A scene's top n
    are matched to its ground truths as _match_detections matches, at one threshold
    and with no table: each IoU is taken when read, none against a taken truth."""
    if n < 1:
        raise ValueError(f"detection budget must be >= 1, got {n}")
    ground_truths = list(ground_truths)
    if not ground_truths:
        return 0.0
    gts_by_scene: dict = {}
    for scene_id, gt_box in ground_truths:
        gts_by_scene.setdefault(scene_id, []).append(gt_box)
    dets_by_scene: dict = {}
    for det in detections:
        dets_by_scene.setdefault(det[0], []).append(det)
    hits = 0
    for scene_id, scene_dets in dets_by_scene.items():
        gts = gts_by_scene.get(scene_id, ())
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
) -> EvalReport:
    """Run the detector on every scene, with `config` passed to detect as it
    is, and score the listed classes: AP at each IoU threshold, and recall of
    each scene's top RECALL_BUDGET detections.

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
        for cid, corners in zip(scene.gt_ids.tolist(), scene.gt_boxes.tolist()):
            if cid in gts_by_class:
                gts_by_class[cid].append((pos, Box(*corners)))
        pairs = list(zip(scene.descriptors, scene.anchors))
        for det in detect(state, pairs, config):
            if det.class_id in dets_by_class:
                dets_by_class[det.class_id].append((pos, det.score, det.box))

    evaluated = [cid for cid in all_ids if gts_by_class[cid]]
    if not evaluated:
        raise EmptyInput("nothing to evaluate: no ground truth for the listed classes")
    per_class = {}
    for cid in evaluated:
        table = iou_table(dets_by_class[cid], gts_by_class[cid])
        per_class[cid] = {thr: average_precision(table, len(gts_by_class[cid]), thr) for thr in IOU_THRESHOLDS}

    overall = _subset(per_class, evaluated)
    recall_dets = [row for cid in evaluated for row in dets_by_class[cid]]
    recall_gts = [gt for cid in evaluated for gt in gts_by_class[cid]]
    recall = {RECALL_BUDGET: recall_at(recall_dets, recall_gts, RECALL_BUDGET, 0.5)}
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
    """report_table_rows as CSV, each AP to six decimals."""
    rows = ((r["method"], r["split"], *(f"{r[k]:.6f}" for k in ("ap", "ap50", "ap75"))) for r in rows)
    write_csv(path, "method,split,ap,ap50,ap75", rows)
