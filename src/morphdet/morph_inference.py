"""Morphing a trained detector onto novel classes, and the detection pipeline.

Morphing is forward-only: each novel class's exemplar descriptors are embedded
with the frozen network, their mean feature becomes the class's prototype, and
the network parameters are shared untouched with the new state. No gradient is
ever computed on this path.

Detection scores every proposal against every registered prototype plus the
background slot, decodes the class-agnostic box regression, thresholds, and
runs per-class greedy NMS with a deterministic ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .embedder import forward_batch
from .numkernel import DimensionMismatch, EmptyInput
from .objective import posterior_batch
from .prototype_store import add_novel
from .textio import read_record_file, tensor_blocks, tensor_lines, write_record_file

EXEMPLARS_HEADER = "morphdet-exemplars v2"


class InvalidBox(ValueError):
    """Box corners that do not describe a positive-area axis-aligned box."""


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with x1 < x2 and y1 < y2."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        coords = (float(self.x1), float(self.y1), float(self.x2), float(self.y2))
        if not all(map(math.isfinite, coords)):
            raise InvalidBox(f"non-finite box corners: {coords}")
        if not (coords[0] < coords[2] and coords[1] < coords[3]):
            raise InvalidBox(f"degenerate box corners: {coords}")
        object.__setattr__(self, "x1", coords[0])
        object.__setattr__(self, "y1", coords[1])
        object.__setattr__(self, "x2", coords[2])
        object.__setattr__(self, "y2", coords[3])

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def center_x(self) -> float:
        return 0.5 * (self.x1 + self.x2)

    @property
    def center_y(self) -> float:
        return 0.5 * (self.y1 + self.y2)

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


def iou(a: Box, b: Box) -> float:
    """Intersection area over union area; 0 when the boxes do not overlap."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    # Box.area's arithmetic, without its property calls.
    return inter / ((a.x2 - a.x1) * (a.y2 - a.y1) + (b.x2 - b.x1) * (b.y2 - b.y1) - inter)


def encode_box(anchors, targets) -> np.ndarray:
    """Regression deltas taking each (n, 4) anchor row onto its target row, in
    Box's operation order: center offsets in anchor units, log size ratios."""
    a, t = np.asarray(anchors, dtype=np.float64), np.asarray(targets, dtype=np.float64)
    a_size, t_size = a[:, 2:] - a[:, :2], t[:, 2:] - t[:, :2]
    return np.hstack([(0.5 * (t[:, :2] + t[:, 2:]) - 0.5 * (a[:, :2] + a[:, 2:])) / a_size, np.log(t_size / a_size)])


def decode_box(anchors, deltas) -> np.ndarray:
    """Inverse of encode_box, row by row in Box's operation order: (n, 4)
    anchor corners and deltas give (n, 4) corners. A row that is not a finite
    box with x1 < x2 and y1 < y2 (NaN deltas, an overflowing exp) raises InvalidBox."""
    a = np.asarray(anchors, dtype=np.float64)
    d = np.asarray(deltas, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 4 or d.shape != a.shape:
        raise DimensionMismatch(f"anchors and deltas must both be (n, 4), got {a.shape} and {d.shape}")
    size = a[:, 2:] - a[:, :2]
    center = 0.5 * (a[:, :2] + a[:, 2:]) + d[:, :2] * size
    half = 0.5 * (size * np.exp(d[:, 2:]))
    out = np.concatenate([center - half, center + half], axis=1)
    finite = np.isfinite(out).all(axis=1)
    ok = finite & (out[:, :2] < out[:, 2:]).all(axis=1)
    if not ok.all():
        at = np.argmin(ok)  # the first bad row, named as Box would name it
        raise InvalidBox(f"{'degenerate' if finite[at] else 'non-finite'} box corners: {tuple(out[at].tolist())}")
    return out


@dataclass(frozen=True)
class Detection:
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

    `exemplars` maps class_id -> non-empty sequence of descriptors. Each
    class's prototype is the unit-normalized mean of its exemplars' feature
    vectors under the frozen network. Returns a new state sharing the same
    network parameters object; an empty mapping returns the state unchanged.
    """
    if not exemplars:
        return state
    protos = state.prototypes
    for cid in sorted(exemplars):
        descs = list(exemplars[cid])
        if not descs:
            raise EmptyInput(f"class {cid} has no exemplars")
        feats, _, _ = forward_batch(state.params, np.stack([np.asarray(d, dtype=np.float64) for d in descs]))
        protos = add_novel(protos, cid, feats.mean(axis=0))
    return replace(state, prototypes=protos)


def _order_key(det: Detection):
    return (-det.score, det.class_id, det.box.as_tuple())


def nms(detections, iou_threshold: float) -> list[Detection]:
    """Greedy per-class suppression.

    Candidates are visited by descending score, ties broken by class id and
    then box corners, so the kept list (returned in that order) is a pure
    function of the input set. Only detections of the same class suppress
    each other.
    """
    thr = float(iou_threshold)
    if not 0.0 < thr < 1.0:
        raise ValueError(f"NMS IoU threshold must lie in (0, 1), got {thr}")
    kept: list[Detection] = []
    for det in sorted(detections, key=_order_key):
        for keeper in kept:
            if keeper.class_id == det.class_id and iou(keeper.box, det.box) > thr:
                break
        else:
            kept.append(det)
    return kept


def detect(state, proposals, config: DetectConfig = DetectConfig()) -> list[Detection]:
    """Score (descriptor, anchor) proposals against every registered class;
    an anchor is a Box or a row of its corners (x1, y1, x2, y2).

    Each proposal contributes one candidate per class whose posterior
    probability reaches config.score_threshold, all sharing that proposal's
    decoded box (the regression is class-agnostic). Per-class NMS at
    config.nms_iou then prunes. The settings come checked, as a DetectConfig.
    Pure: identical inputs give an identical list, order included.
    """
    proposals = list(proposals)
    if not proposals:
        return []
    descriptors = np.stack([np.asarray(d, dtype=np.float64) for d, _ in proposals])
    feats, bg, deltas = forward_batch(state.params, descriptors)
    q = posterior_batch(feats, bg, state.prototypes)
    corners = decode_box(np.array([a.as_tuple() if isinstance(a, Box) else a for _, a in proposals]), deltas)
    rows, cols = np.nonzero(q[:, 1:] >= config.score_threshold)
    boxes = {i: Box(*corners[i].tolist()) for i in set(rows.tolist())}
    ids, scores = state.prototypes.ids, q[rows, cols + 1].tolist()
    candidates = [Detection(ids[k], score, boxes[i]) for i, k, score in zip(rows.tolist(), cols.tolist(), scores)]
    return nms(candidates, config.nms_iou)


def write_exemplars_csv(path, exemplars) -> None:
    """Exemplar file: an empty meta line, then per class in ascending id order
    one tensor named by the id, with a descriptor per row."""
    body = [line for cid in sorted(exemplars) for line in tensor_lines(str(int(cid)), exemplars[cid])]
    write_record_file(path, EXEMPLARS_HEADER, "meta", {}, body)


def read_exemplars_csv(path) -> dict[int, list[np.ndarray]]:
    """Inverse of write_exemplars_csv: class id -> its descriptors, as rows."""
    meta, body = read_record_file(path, EXEMPLARS_HEADER, "meta")
    blocks = tensor_blocks(body)
    ids = sorted(int(name) for name in blocks)
    if meta or list(blocks) != [str(cid) for cid in ids]:
        raise ValueError(f"{path}: want an empty meta and tensors named by ascending class ids, got {list(blocks)}")
    return {cid: list(blocks[str(cid)]) for cid in ids}
