"""Test-only helpers: forms of the library's data that only tests build, and
comparisons that only tests make."""

import base64
import hashlib
import json
import math
from collections import namedtuple

import numpy as np

from morphdet.embedder import EmbedderParams, loss_table
from morphdet.evalkit import IOU_THRESHOLDS, RECALL_BUDGET, average_precision, iou_table, recall_at
from morphdet.morph_inference import Box, DetectConfig, detect, encode_box
from morphdet.numkernel import EmptyInput
from morphdet.objective import scoring_matrix
from morphdet.prototype_store import PrototypeSet, UnknownClass
from morphdet.toyworld import Scene

UNIT_BOX = Box(0.0, 0.0, 1.0, 1.0)
GroundTruth = namedtuple("GroundTruth", "class_id box descriptor")


def box_geometry(box: Box) -> tuple[float, float, float, float]:
    """A box's center x, center y, width and height, from its corners."""
    return 0.5 * (box.x1 + box.x2), 0.5 * (box.y1 + box.y2), box.x2 - box.x1, box.y2 - box.y1


def objects_of(scene: Scene) -> tuple[GroundTruth, ...]:
    """A scene's objects, one (class_id, box, descriptor) per row of its ground-truth arrays."""
    rows = zip(scene.gt_ids.tolist(), scene.gt_boxes.tolist(), scene.gt_descriptors)
    return tuple(GroundTruth(cid, Box(*box), d) for cid, box, d in rows)


def reference_iou(a: Box, b: Box) -> float:
    """IoU in its plain min/max form, which pins the library's iou bit for bit."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / ((a.x2 - a.x1) * (a.y2 - a.y1) + (b.x2 - b.x1) * (b.y2 - b.y1) - inter)


def encode_one(anchor: Box, target: Box) -> np.ndarray:
    """encode_box on a single (anchor, target) pair of Boxes."""
    return encode_box(np.array([anchor.as_tuple()]), np.array([target.as_tuple()]))[0]


def params_equal(a: EmbedderParams, b: EmbedderParams) -> bool:
    """Exact (bitwise-value) equality of two parameter sets."""
    return a.sizes == b.sizes and np.array_equal(a.flat, b.flat)


def empty_prototypes(dim: int) -> PrototypeSet:
    return PrototypeSet(ids=(), matrix=np.zeros((0, int(dim))))


def vector_for(protos: PrototypeSet, class_id: int) -> np.ndarray:
    """The class's row of the set's read-only matrix; refuses a class with no prototype."""
    if class_id not in protos.ids:
        raise UnknownClass(f"no prototype for class {class_id}")
    return protos.matrix[protos.ids.index(class_id)]


def reference_softmax_terms(features, bg_logits, mat) -> tuple:
    """objective.softmax_terms in its plain form, which pins the library's
    arithmetic: np.max and np.sum, exp of fresh arrays, shift + log(sum)."""
    logits = np.concatenate([bg_logits[:, None], features @ mat.T], axis=1)
    shift = np.max(logits, axis=1)
    log_denom = shift + np.log(np.sum(np.exp(logits - shift[:, None]), axis=1))
    return logits, log_denom, np.exp(logits - log_denom[:, None])


def labelled_batch(descriptors, labels, targets, prototypes: PrototypeSet) -> tuple:
    """forward_batch_with_grad's batch arguments from per-row labels (0 for
    background), foreground rows first; refuses a label with no prototype."""
    labels = np.asarray(labels)
    if not labels.shape[0]:
        raise EmptyInput("empty batch")
    pmat = scoring_matrix(prototypes, prototypes.dim)
    fg_rows = np.flatnonzero(labels > 0)
    fg_labels = labels[fg_rows]
    ids = np.asarray(prototypes.ids)
    slots = np.searchsorted(ids, fg_labels)
    unknown = np.take(ids, slots, mode="clip") != fg_labels
    if np.any(unknown):
        raise UnknownClass(f"foreground labels {np.unique(fg_labels[unknown]).tolist()} have no prototype")
    bg_rows = np.flatnonzero(labels == 0)
    X = np.asarray(descriptors, dtype=np.float64)[np.concatenate([fg_rows, bg_rows])]
    cols = np.concatenate([slots + 1, np.zeros(len(bg_rows), dtype=slots.dtype)])
    return X, cols, np.asarray(targets, dtype=np.float64)[fg_rows], loss_table(pmat)


def grad_buffer(params: EmbedderParams) -> EmbedderParams:
    """A gradient buffer for forward_batch_with_grad: params' sizes and flat shape, values unset."""
    return EmbedderParams(params.sizes, np.empty_like(params.flat))


def scene_of(objects=(), proposals=(), scene_id=0) -> Scene:
    """A Scene from per-item objects (class_id, box, descriptor) and proposals
    (descriptor, anchor, label, target_deltas). A missing box or anchor is the
    unit box, a missing label 0 and a missing object descriptor zeros."""
    width = next((len(item.descriptor) for item in (*proposals, *objects) if hasattr(item, "descriptor")), 0)

    def rows(values, cols):
        return np.array(values, dtype=np.float64).reshape(len(values), cols)

    labels = [getattr(p, "label", 0) for p in proposals]
    return Scene(
        scene_id,
        rows([p.descriptor for p in proposals], width),
        rows([getattr(p, "anchor", UNIT_BOX).as_tuple() for p in proposals], 4),
        np.array(labels, dtype=np.int64),
        rows([p.target_deltas if label > 0 else np.zeros(4) for p, label in zip(proposals, labels)], 4),
        np.array([o.class_id for o in objects], dtype=np.int64),
        rows([getattr(o, "box", UNIT_BOX).as_tuple() for o in objects], 4),
        rows([getattr(o, "descriptor", np.zeros(width)) for o in objects], width),
    )


def joined_tensor_line(name: str, arr) -> str:
    """A tensor line as the writers built it before they streamed: the bytes of a '<f8' copy as a base64 str."""
    mat = np.atleast_2d(np.asarray(arr, dtype="<f8"))
    if mat.ndim != 2:
        raise ValueError(f"tensor {name!r} must be 1-D or 2-D, got shape {mat.shape}")
    return f"tensor {name} {mat.shape[0]} {mat.shape[1]} " + base64.b64encode(mat.tobytes()).decode("ascii")


def joined_tensor_file(path, header: str, meta_key: str, meta: dict, tensors) -> None:
    """textio.write_tensor_file's oracle, the writers' former path: every tensor as a str line, the lines joined
    with the header and meta line, the joined text encoded, and its end line appended."""
    body = [joined_tensor_line(name, arr) for name, arr in tensors]
    head = "\n".join([header, f"{meta_key} {json.dumps(meta, sort_keys=True)}", *body, ""]).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(head + f"end sha256={hashlib.sha256(head).hexdigest()}\n".encode("utf-8"))


def reference_pick_plan(fg_pool, bg_pool, n_fg: int, batch_size: int, steps: int, rng) -> np.ndarray:
    """em_trainer._pick_plan's oracle, its former form: every draw's permutation kept in a list, each side's
    list concatenated and cut to its columns, and the two sides stacked."""
    parts = ((fg_pool, n_fg), (bg_pool, batch_size - n_fg))
    draws = sorted(((k * len(pool)) // per, side) for side, (pool, per) in enumerate(parts) if per
                   for k in range(math.ceil(steps * per / len(pool))))  # (step, pool) of each draw
    perms: tuple[list, list] = ([np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)])
    for _, side in draws:
        pool = parts[side][0]
        perms[side].append(pool[rng.permutation(len(pool))])
    return np.hstack([np.concatenate(p)[: steps * per].reshape(steps, per) for p, (_, per) in zip(perms, parts)])


def reference_subset(per_class: dict, ids) -> dict | None:
    """evalkit's subset means in their former form, as report.json writes a subset: the sorted ids that have a
    per-class AP, their mean AP at each threshold, the mean of those means as AP, and the 0.5 and 0.75 cuts."""
    ids = tuple(sorted(cid for cid in ids if cid in per_class))
    if not ids:
        return None
    means = {thr: float(np.mean([per_class[cid][thr] for cid in ids])) for thr in IOU_THRESHOLDS}
    return {"class_ids": list(ids), "ap": float(np.mean(list(means.values()))), "ap50": means[0.5], "ap75": means[0.75]}


def reference_report_dict(per_class: dict, base_ids, novel_ids, recall: float, budget: int) -> dict:
    """evalkit.report_to_dict's oracle, its former form, rebuilt from a report's per-class AP, the listed base and
    novel ids and its recall at `budget`: the thresholds as their own list, the overall AP, AP50 and AP75 as three
    top-level fields, recall as a one-key dict and the base and novel subsets (None where no class is scored)."""
    overall = reference_subset(per_class, per_class)
    return {
        "iou_thresholds": list(IOU_THRESHOLDS),
        "per_class_ap": {
            str(cid): {f"{thr:.2f}": ap for thr, ap in sorted(thrs.items())} for cid, thrs in sorted(per_class.items())
        },
        "ap": overall["ap"],
        "ap50": overall["ap50"],
        "ap75": overall["ap75"],
        "recall": {str(n): v for n, v in sorted({budget: recall}.items())},
        "base": reference_subset(per_class, base_ids),
        "novel": reference_subset(per_class, novel_ids),
    }


def reference_table_rows(method: str, per_class: dict, base_ids, novel_ids) -> list[dict]:
    """evalkit.report_table_rows' oracle, its former form: one dict of method, split, ap, ap50 and ap75 for all
    classes, then for base and novel where the split scores a class."""
    rows = []
    for split, ids in (("all", per_class), ("base", base_ids), ("novel", novel_ids)):
        if (subset := reference_subset(per_class, ids)) is not None:
            rows.append({"method": method, "split": split, **{k: subset[k] for k in ("ap", "ap50", "ap75")}})
    return rows


def reference_report_csv(rows) -> str:
    """evalkit.write_report_csv's oracle: the text of report.csv for reference_table_rows, each AP to six decimals."""
    lines = [f"{r['method']},{r['split']},{r['ap']:.6f},{r['ap50']:.6f},{r['ap75']:.6f}\n" for r in rows]
    return "method,split,ap,ap50,ap75\n" + "".join(lines)


def reference_eval_lines(rows) -> list[str]:
    """The per-split lines that `morphdet eval` prints, in their former form, for reference_table_rows."""
    return [f"{r['method']:>24s} {r['split']:>6s}  ap {r['ap']:.4f}  ap50 {r['ap50']:.4f}  ap75 {r['ap75']:.4f}"
            for r in rows]


def reference_report_json(state, scenes, base_ids, novel_ids, config=DetectConfig()) -> str:
    """evalkit.evaluate's oracle, its former all-class loop, as report.json text: per scene, ground truth of the
    listed classes and every registered class's detections, the unlisted ones then dropped; classes with no ground
    truth are left out of AP and recall. The text is reference_report_dict's."""
    listed = sorted({*base_ids, *novel_ids})
    gts_by_class: dict = {cid: [] for cid in listed}
    dets_by_class: dict = {cid: [] for cid in listed}
    for pos, scene in enumerate(scenes):
        for cid, corners in zip(scene.gt_ids.tolist(), scene.gt_boxes.tolist()):
            if cid in gts_by_class:
                gts_by_class[cid].append((pos, Box(*corners)))
        for det in detect(state, list(zip(scene.descriptors, scene.anchors)), config):
            if det.class_id in dets_by_class:
                dets_by_class[det.class_id].append((pos, det.score, det.box))
    evaluated = [cid for cid in listed if gts_by_class[cid]]
    per_class = {}
    for cid in evaluated:
        table = iou_table(dets_by_class[cid], gts_by_class[cid])
        per_class[cid] = {thr: average_precision(table, len(gts_by_class[cid]), thr) for thr in IOU_THRESHOLDS}
    recall = recall_at([row for cid in evaluated for row in dets_by_class[cid]],
                       [gt for cid in evaluated for gt in gts_by_class[cid]], RECALL_BUDGET, 0.5)
    report = reference_report_dict(per_class, base_ids, novel_ids, recall, RECALL_BUDGET)
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
