"""Test-only helpers: forms of the library's data that only tests build, and
comparisons that only tests make."""

import numpy as np

from morphdet.embedder import EmbedderParams
from morphdet.morph_inference import Box, encode_box
from morphdet.numkernel import EmptyInput
from morphdet.objective import scoring_matrix
from morphdet.prototype_store import PrototypeSet, UnknownClass
from morphdet.toyworld import Scene

UNIT_BOX = Box(0.0, 0.0, 1.0, 1.0)


def encode_one(anchor: Box, target: Box) -> np.ndarray:
    """encode_box on a single (anchor, target) pair of Boxes."""
    return encode_box(np.array([anchor.as_tuple()]), np.array([target.as_tuple()]))[0]


def params_equal(a: EmbedderParams, b: EmbedderParams) -> bool:
    """Exact (bitwise-value) equality of two parameter sets."""
    return a.sizes == b.sizes and np.array_equal(a.flat, b.flat)


def empty_prototypes(dim: int) -> PrototypeSet:
    return PrototypeSet(ids=(), matrix=np.zeros((0, int(dim))))


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
    X = np.asarray(descriptors, dtype=np.float64)[np.concatenate([fg_rows, np.flatnonzero(labels == 0)])]
    return X, slots, len(fg_rows), np.asarray(targets, dtype=np.float64)[fg_rows], pmat


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
