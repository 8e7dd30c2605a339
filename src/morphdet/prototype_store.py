"""Class prototypes: the detector's second parameter set.

A prototype is a unit vector in embedding space; the inner product between a
proposal's feature vector and each prototype drives classification. A
PrototypeSet keeps every prototype as one row of a matrix ordered by class
id, which detection and the training loss score against as it stands.
Base prototypes are seeded from semantic vectors and refitted during
training; a novel class is registered after training by inserting one
unit-normalized row, computed from exemplar features or taken straight from
a semantic vector. Background has no prototype -- the embedder regresses a
background logit directly.

Prototype sets are immutable values: every update returns a new set.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .numkernel import DimensionMismatch, EmptyInput, l2_normalize
from .textio import check_class_id, class_id_name, fmt_vector, is_class_id, parse_floats

UNIT_NORM_TOL = 1e-9
_UNDECODED = re.compile("[\udc80-\udcff]")  # where surrogateescape put a byte that is not UTF-8


class ClassCollision(ValueError):
    """A class id is already registered."""


class UnknownClass(ValueError):
    """A class id has no prototype (or no stored vector)."""


@dataclass(frozen=True, eq=False)
class PrototypeSet:
    """Every class's unit-norm prototype as one row of `matrix`.

    `ids` ascends, and row k of the (len(ids), dim) matrix is the prototype
    of class ids[k]. Ids start at 1; 0 is reserved for background. `novel`
    holds the ids registered after training; every other id is a base class.

    The set owns and freezes the matrix it is given, so a checked set cannot
    be edited in place: every function that builds one passes a fresh array.
    """

    ids: tuple[int, ...]
    matrix: np.ndarray
    novel: frozenset[int] = frozenset()

    def __post_init__(self):
        ids = self.ids
        mat = np.asarray(self.matrix, dtype=np.float64)
        novel = frozenset(self.novel)
        if mat.ndim != 2 or mat.shape[0] != len(ids):
            raise DimensionMismatch(f"prototype matrix has shape {mat.shape}, expected ({len(ids)}, dim)")
        if ids and ids[0] < 1:
            raise ValueError(f"class ids must be >= 1 (0 is background), got {ids[0]}")
        id_set = set(ids)
        if sorted(id_set) != list(ids):
            raise ValueError(f"class ids must ascend without repeats, got {ids}")
        if not novel <= id_set:
            raise UnknownClass(f"novel classes without a prototype: {sorted(novel - id_set)}")
        if ids:
            # |v|^2 - 1 = (|v| - 1)(|v| + 1) is twice the norm's distance from 1, to first order.
            off = np.abs(np.add.reduce(mat * mat, axis=1) - 1.0)
            if not np.maximum.reduce(off) <= 2 * UNIT_NORM_TOL:  # a NaN or infinite entry fails too
                k = int(np.argmax(~(off <= 2 * UNIT_NORM_TOL)))
                raise ValueError(
                    f"prototype for class {ids[k]} is not a finite unit vector (||v|^2 - 1| = {float(off[k])!r})"
                )
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "novel", novel)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def base(self) -> tuple[int, ...]:
        """Ids of the classes the detector was trained on, ascending."""
        return tuple(cid for cid in self.ids if cid not in self.novel)

    def has_class(self, class_id: int) -> bool:
        return class_id in self.ids


def _grown(ids, matrix, novel) -> PrototypeSet:
    """A set from parts that already hold every invariant, frozen but not checked again."""
    matrix.flags.writeable = False
    grown = object.__new__(PrototypeSet)
    vars(grown).update(ids=ids, matrix=matrix, novel=novel)
    return grown


def init_from_semantic(vectors: Mapping) -> PrototypeSet:
    """Build base prototypes by unit-normalizing one semantic vector per
    class, given as a mapping {class_id: vector}."""
    rows: dict[int, np.ndarray] = {}
    dim: int | None = None
    for cid, raw in vectors.items():
        cid = int(cid)
        vec = np.asarray(raw, dtype=np.float64)
        if vec.ndim != 1:
            raise DimensionMismatch(f"semantic vector for class {cid} must be 1-D")
        if dim is None:
            dim = vec.shape[0]
        elif vec.shape[0] != dim:
            raise DimensionMismatch(
                f"semantic vector for class {cid} has dim {vec.shape[0]}, expected {dim}"
            )
        rows[cid] = l2_normalize(vec)
    if dim is None:
        raise EmptyInput("no semantic vectors given")
    ids = tuple(sorted(rows))
    return PrototypeSet(ids=ids, matrix=np.stack([rows[cid] for cid in ids]))


def e_step_update(protos: PrototypeSet, means, lam: float) -> PrototypeSet:
    """Refit base prototypes toward per-class mean features.

    Each mean is unit-normalized, blended elementwise with the (already unit)
    old prototype as (1 - lam) * mean_hat + lam * old, and the blend is
    re-normalized. lam = 1 keeps the stored vectors bit-for-bit; lam = 0
    replaces them by the normalized means. Novel prototypes are never touched.
    """
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"blend weight must lie in [0, 1], got {lam}")
    normalized: dict[int, np.ndarray] = {}
    for cid, raw in means.items():
        cid = int(cid)
        if cid in protos.novel or not protos.has_class(cid):
            raise UnknownClass(f"mean supplied for class {cid}, which has no base prototype")
        vec = np.asarray(raw, dtype=np.float64)
        if vec.shape != (protos.dim,):
            raise DimensionMismatch(
                f"mean for class {cid} has shape {vec.shape}, expected ({protos.dim},)"
            )
        normalized[cid] = l2_normalize(vec)
    if lam == 1.0:
        return protos
    matrix = protos.matrix.copy()
    for cid, mean_hat in normalized.items():
        k = protos.ids.index(cid)
        matrix[k] = l2_normalize((1.0 - lam) * mean_hat + lam * protos.matrix[k])
    return PrototypeSet(ids=protos.ids, matrix=matrix, novel=protos.novel)


def add_novel(protos: PrototypeSet, class_id: int, vector) -> PrototypeSet:
    """Register a novel class from one vector -- the mean of its exemplar
    features, or its semantic vector -- by inserting its unit-normalized row
    at the class's place in id order. Only what is new is checked: the id, and
    the row, which l2_normalize returns finite and of unit norm or refuses.
    The other rows are copies of the rows of a checked set."""
    cid = check_class_id(class_id)
    k = bisect_left(protos.ids, cid)
    if k < len(protos.ids) and protos.ids[k] == cid:
        raise ClassCollision(f"class {cid} already has a prototype")
    vec = np.asarray(vector, dtype=np.float64)
    if vec.shape != (protos.dim,):
        raise DimensionMismatch(
            f"vector for class {cid} has shape {vec.shape}, expected ({protos.dim},)"
        )
    ids, mat = protos.ids, protos.matrix
    row = l2_normalize(vec)[None, :]
    return _grown(ids[:k] + (cid,) + ids[k:], np.concatenate((mat[:k], row, mat[k:])), protos.novel | {cid})


def write_vector_file(path, vectors: Mapping[int, np.ndarray]) -> None:
    """Plain class_id -> vector map, one 'class_id<TAB>components' line per
    class in ascending id order. Used for semantic-vector files, so real
    word-vector dumps can be swapped in. A key that is not an integer >= 1 is refused before the file opens."""
    lines = [f"{class_id_name(cid)}\t{fmt_vector(vectors[cid])}\n" for cid in sorted(vectors)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def read_vector_file(path) -> dict[int, np.ndarray]:
    """Read a class_id -> vector map; blank lines are skipped. A class id must
    be written as the writer writes it (textio.is_class_id). A refusal names
    the path and line once. A row with no values, one whose length is not the
    first row's, and one whose sum of squares overflows are refused here, as
    none could be normalized into a prototype beside the others."""
    out: dict[int, np.ndarray] = {}
    width = 0  # the first row's length
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                if _UNDECODED.search(line):
                    raise ValueError("not UTF-8 text")
                head, tab, tail = line.rstrip("\n").partition("\t")
                if not tab:
                    raise ValueError(f"malformed vector line (missing tab): {line[:80]!r}")
                if not is_class_id(head):
                    raise ValueError(f"class id {head!r} is not digits for an integer >= 1 without a leading zero")
                cid = int(head)
                if cid in out:
                    raise ClassCollision(f"duplicate vector line for class {cid}")
                vec = out[cid] = parse_floats(tail)
                width = width or vec.size
                if not vec.size:
                    raise ValueError(f"class {cid} has no vector values")
                if vec.size != width:
                    raise ValueError(f"class {cid}'s vector has {vec.size} values, the first row's {width}")
                with np.errstate(over="ignore"):
                    if not np.isfinite(np.add.reduce(vec * vec)):
                        raise ValueError(f"the sum of squares of class {cid}'s vector overflows")
            except ValueError as exc:
                raise type(exc)(f"{path}: line {number}: {exc}") from None
    return out
