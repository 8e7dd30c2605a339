"""Morphing a trained detector onto novel classes, and the detection pipeline.

Morphing is forward-only: each novel class's exemplar descriptors are embedded
with the frozen network, their mean feature becomes the class's prototype, and
the network parameters are shared untouched with the new state. No gradient is
ever computed on this path.

Detection scores every proposal against every registered prototype plus the
background slot, decodes the class-agnostic box regression, thresholds the
classes its caller asks for (all by default), and runs per-class greedy NMS
with a deterministic ordering. Candidates travel as plain (-score, class_id,
corners) tuples; a Detection is built only for a candidate that NMS keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .em_trainer import DetectorState
from .embedder import forward_batch
from .numkernel import DimensionMismatch, EmptyInput
from .objective import posterior_batch
from .prototype_store import UnknownClass, add_novel
from .textio import class_id_name, is_class_id, read_tensor_file, write_tensor_file

EXEMPLARS_HEADER = "morphdet-exemplars v3"


class InvalidBox(ValueError):
    """Box corners that do not describe a positive-area axis-aligned box."""


class Box(NamedTuple):
    """Axis-aligned box corners, x1 < x2 and y1 < y2. Corners are checked where they enter: decode_box
    checks every decoded row, load_dataset every stored box, and generation draws valid boxes."""

    x1: float
    y1: float
    x2: float
    y2: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return tuple(self)


def iou(a: Box, b: Box) -> float:
    """Intersection area over union area; 0 when the boxes do not overlap. Each conditional
    expression is the min or max of two corners as the builtin picks it: `bx2 if bx2 < ax2 else
    ax2` is min(ax2, bx2), so the value is that of the plain min/max formula, bit for bit."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    ix = (bx2 if bx2 < ax2 else ax2) - (bx1 if bx1 > ax1 else ax1)
    if ix <= 0.0:
        return 0.0
    iy = (by2 if by2 < ay2 else ay2) - (by1 if by1 > ay1 else ay1)
    if iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / ((ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter)


def encode_box(anchors, targets) -> np.ndarray:
    """Regression deltas taking each (n, 4) anchor row onto its target row:
    center offsets in anchor units, log size ratios."""
    a, t = np.asarray(anchors, dtype=np.float64), np.asarray(targets, dtype=np.float64)
    a_size, t_size = a[:, 2:] - a[:, :2], t[:, 2:] - t[:, :2]
    return np.hstack([(0.5 * (t[:, :2] + t[:, 2:]) - 0.5 * (a[:, :2] + a[:, 2:])) / a_size, np.log(t_size / a_size)])


def decode_box(anchors, deltas) -> np.ndarray:
    """Inverse of encode_box, row by row in its operation order: (n, 4)
    anchor corners and deltas give (n, 4) corners. A row that is not a finite
    box with x1 < x2 and y1 < y2 (NaN deltas, an overflowing exp) raises InvalidBox."""
    a = np.asarray(anchors, dtype=np.float64)
    d = np.asarray(deltas, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 4 or d.shape != a.shape:
        raise DimensionMismatch(f"anchors and deltas must both be (n, 4), got {a.shape} and {d.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # a bad row is refused below, with no warning first
        size = a[:, 2:] - a[:, :2]
        center = 0.5 * (a[:, :2] + a[:, 2:]) + d[:, :2] * size
        half = 0.5 * (size * np.exp(d[:, 2:]))
        out = np.concatenate([center - half, center + half], axis=1)
    if not (np.isfinite(out).all() and (out[:, :2] < out[:, 2:]).all()):
        finite = np.isfinite(out).all(axis=1)
        at = np.argmin(finite & (out[:, :2] < out[:, 2:]).all(axis=1))  # the first bad row
        raise InvalidBox(f"{'degenerate' if finite[at] else 'non-finite'} box corners: {tuple(out[at].tolist())}")
    return out


class Detection(NamedTuple):
    class_id: int
    score: float
    box: Box


@dataclass(frozen=True)
class DetectConfig:
    """Detection settings, checked on construction; the one place their
    defaults are written."""

    score_threshold: float = 0.05
    nms_iou: float = 0.5

    def __post_init__(self):
        if not 0 <= self.score_threshold < 1:
            raise ValueError(f"score_threshold must lie in [0, 1), got {self.score_threshold}")
        if not 0 < self.nms_iou < 1:
            raise ValueError(f"nms_iou must lie in (0, 1), got {self.nms_iou}")


def morph(state, exemplars):
    """Register novel classes on a trained detector from exemplar descriptors.

    `exemplars` maps class_id -> its descriptors: one non-empty (shots, m_in) array, or
    a sequence of its rows. Each class's prototype is the unit-normalized mean of its
    exemplars' feature vectors under the frozen network. Returns a new state sharing the
    same network parameters object; an empty mapping returns the state unchanged.
    """
    if not exemplars:
        return state
    protos = state.prototypes
    for cid in sorted(exemplars):
        descs = np.asarray(exemplars[cid], dtype=np.float64)
        if not len(descs):
            raise EmptyInput(f"class {cid} has no exemplars")
        feats, _, _ = forward_batch(state.params, descs)
        protos = add_novel(protos, cid, np.add.reduce(feats, axis=0) / len(feats))  # feats.mean(axis=0), bit for bit
    return DetectorState(state.params, protos, state.config)


def nms(candidates, iou_threshold: float) -> list[Detection]:
    """Greedy per-class suppression of (-score, class_id, corners) tuples, in any order.

    Candidates are visited in sorted tuple order: descending score, ties broken
    by class id and then corners, so the kept list (returned in that order) is
    a pure function of the input set. Every `corners` of one call must be the
    same sequence type (all lists, or all Boxes), so that ties compare. Only
    candidates of the same class suppress each other, so each is compared with
    its own class's kept corners. A Detection is built only for a kept one.
    """
    thr = float(iou_threshold)
    if not 0.0 < thr < 1.0:
        raise ValueError(f"NMS IoU threshold must lie in (0, 1), got {thr}")
    kept: list[Detection] = []
    keepers: dict[int, list] = {}
    for neg_score, class_id, corners in sorted(candidates):
        boxes = keepers.setdefault(class_id, [])
        for box in boxes:
            if iou(box, corners) > thr:
                break
        else:
            boxes.append(corners)
            kept.append(Detection(class_id, -neg_score, Box(*corners)))
    return kept


def detect(state, proposals, config: DetectConfig = DetectConfig(), classes=None) -> list[Detection]:
    """Score (descriptor, anchor) proposals against every registered class;
    an anchor is any four corners (x1, y1, x2, y2), a Box among them.

    Each proposal contributes one candidate per class whose posterior
    probability reaches config.score_threshold, all sharing that proposal's
    decoded corners (the regression is class-agnostic). The candidates go to
    per-class NMS at config.nms_iou as (-score, class_id, corners) tuples, and
    only the kept ones become Detections. The settings come checked, as a
    DetectConfig. Pure: identical inputs give an identical list, order included.

    `classes`, if given, are the ids the caller reads, each with a prototype (else
    UnknownClass): every class still takes part in the posterior and every box is
    still decoded, but only asked classes become candidates, so the result is the
    full list filtered to them, order included.
    """
    ids = state.prototypes.ids
    if classes is not None:
        asked = set(classes)
        if unknown := asked.difference(ids):
            raise UnknownClass(f"no prototype for asked classes {sorted(map(int, unknown))}")
    proposals = list(proposals)
    if not proposals:
        return []
    descriptors = np.array([d for d, _ in proposals], dtype=np.float64)
    feats, bg, deltas = forward_batch(state.params, descriptors)
    q = posterior_batch(feats, bg, state.prototypes)[:, 1:]  # the class columns, background dropped
    corners = decode_box(np.array([a for _, a in proposals], dtype=np.float64), deltas).tolist()
    if classes is not None and len(asked) < len(ids):  # NMS is per class: an unasked column suppresses nothing
        keep = [k for k, cid in enumerate(ids) if cid in asked]
        q, ids = q[:, keep], [ids[k] for k in keep]
    passing = q >= config.score_threshold
    rows, cols = np.nonzero(passing)  # row-major, the order of q[passing]
    candidates = [(s, ids[k], corners[i]) for s, i, k in zip((-q[passing]).tolist(), rows.tolist(), cols.tolist())]
    return nms(candidates, config.nms_iou)


def write_exemplars_csv(path, exemplars) -> None:
    """Exemplar file: an empty meta line, then per class in ascending id order
    one tensor named by the id, with a descriptor per row. A key that is not an integer >= 1,
    or a class with no exemplar values, is refused before the file opens."""
    tensors = [(class_id_name(cid), exemplars[cid]) for cid in sorted(exemplars)]
    if empty := [cid for cid in sorted(exemplars) if not np.size(exemplars[cid])]:
        raise EmptyInput(f"{path}: class {empty[0]} has no exemplars")
    write_tensor_file(path, EXEMPLARS_HEADER, "meta", {}, tensors)


def read_exemplars_csv(path) -> dict[int, np.ndarray]:
    """Inverse of write_exemplars_csv: class id -> its (shots, m_in) tensor. Each tensor
    name must be a class id as the writer writes it (textio.is_class_id), and no tensor may be empty."""
    meta, blocks = read_tensor_file(path, EXEMPLARS_HEADER, "meta")
    ids = sorted(int(name) for name in blocks if is_class_id(name))
    if meta or list(blocks) != [str(cid) for cid in ids]:
        raise ValueError(f"{path}: want an empty meta and tensors named by ascending class ids, got {list(blocks)}")
    if empty := [cid for cid in ids if not blocks[str(cid)].size]:
        raise EmptyInput(f"{path}: class {empty[0]} has no exemplars")
    return {cid: blocks[str(cid)] for cid in ids}
