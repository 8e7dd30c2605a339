"""Class prototypes: the detector's second parameter set.

A prototype is a unit vector in embedding space; the inner product between a
proposal's feature vector and each prototype drives classification. A
PrototypeSet keeps every prototype as one row of a matrix ordered by class
id, which detection and the training loss score against as it stands.
Base prototypes are seeded from semantic vectors and refitted during
training; novel classes are registered after training by inserting their
unit-normalized rows, computed from exemplar features or taken straight from
semantic vectors, all at once; every write normalizes its rows in one call.
Background has no prototype -- the embedder regresses a background logit directly.

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


def init_from_semantic(vectors: Mapping) -> PrototypeSet:
    """Build base prototypes by unit-normalizing one semantic vector per
    class, given as a mapping {class_id: vector}."""
    rows = {int(cid): np.asarray(raw, dtype=np.float64) for cid, raw in vectors.items()}
    if not rows:
        raise EmptyInput("no semantic vectors given")
    first = next(iter(rows.values())).shape
    for cid, vec in rows.items():
        if vec.ndim != 1:
            raise DimensionMismatch(f"semantic vector for class {cid} must be 1-D")
        if vec.shape != first:
            raise DimensionMismatch(f"semantic vector for class {cid} has dim {vec.shape[0]}, expected {first[0]}")
    ids = tuple(sorted(rows))
    return PrototypeSet(ids=ids, matrix=l2_normalize(np.stack([rows[cid] for cid in ids]), lambda row: f"class {ids[row]}"))


def e_step_update(protos: PrototypeSet, means, lam: float) -> PrototypeSet:
    """Refit base prototypes toward per-class mean features.

    Each mean is unit-normalized, blended elementwise with the (already unit)
    old prototype as (1 - lam) * mean_hat + lam * old, and the blend is
    re-normalized, all rows at once. lam = 1 keeps the stored vectors bit-for-bit;
    lam = 0 replaces them by the normalized means. Novel prototypes are never touched.
    """
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"blend weight must lie in [0, 1], got {lam}")
    rows: dict[int, np.ndarray] = {}  # matrix row -> the mean for its class
    for cid, raw in means.items():
        cid = int(cid)
        if cid in protos.novel or not protos.has_class(cid):
            raise UnknownClass(f"mean supplied for class {cid}, which has no base prototype")
        if (vec := np.asarray(raw, dtype=np.float64)).shape != (protos.dim,):
            raise DimensionMismatch(f"mean for class {cid} has shape {vec.shape}, expected ({protos.dim},)")
        rows[protos.ids.index(cid)] = vec
    k = list(rows)
    mean_hat = l2_normalize(np.reshape(list(rows.values()), (len(k), protos.dim)), lambda row: f"class {protos.ids[k[row]]}")
    if lam == 1.0:
        return protos
    matrix = protos.matrix.copy()
    matrix[k] = l2_normalize((1.0 - lam) * mean_hat + lam * protos.matrix[k])
    return PrototypeSet(ids=protos.ids, matrix=matrix, novel=protos.novel)


def check_new_class(protos: PrototypeSet, class_id) -> int:
    """`class_id` as a class id (textio.check_class_id) with no prototype in `protos`, else ClassCollision."""
    ids, cid = protos.ids, check_class_id(class_id)
    if ids and cid <= ids[-1] and ids[bisect_left(ids, cid)] == cid:  # an id above the last is free
        raise ClassCollision(f"class {cid} already has a prototype")
    return cid


def add_novel(protos: PrototypeSet, class_ids, rows) -> PrototypeSet:
    """Register novel classes from a (len(class_ids), dim) stack of rows, one per class -- the mean of its exemplar
    features, or its semantic vector -- normalized in one pass and inserted in id order into one new set. Only what
    is new is checked: each id (check_new_class; a repeat is a ClassCollision too) and each row, which l2_normalize
    returns finite and of unit norm or refuses, naming its class; the other rows are copies of a checked set's."""
    ids = [check_new_class(protos, cid) for cid in class_ids]
    if len(novel := protos.novel.union(ids)) < len(protos.novel) + len(ids):  # every id is new: only a repeat shrinks it
        raise ClassCollision(f"class {next(cid for cid in ids if ids.count(cid) > 1)} is given twice")
    if (vecs := np.asarray(rows, dtype=np.float64)).shape != (len(ids), protos.dim):
        raise DimensionMismatch(f"rows for classes {ids} have shape {vecs.shape}, expected ({len(ids)}, {protos.dim})")
    old, unit, parts, start = protos.ids, l2_normalize(vecs, lambda row: f"class {ids[row]}"), [], 0
    if sorted(ids) == ids and not (ids and old and ids[0] < old[-1]):  # each new row goes after the rows before it
        merged, matrix = old + tuple(ids), np.concatenate((protos.matrix, unit))
    else:  # splice each new row in at its place
        for cid, j in sorted(zip(ids, range(len(ids)))):
            parts += (protos.matrix[start : (start := bisect_left(old, cid))], unit[j : j + 1])
        merged, matrix = tuple(sorted(old + tuple(ids))), np.concatenate((*parts, protos.matrix[start:]))
    matrix.setflags(write=False)  # the parts hold every invariant: the new set is frozen, not checked again
    grown = object.__new__(PrototypeSet)
    vars(grown).update(ids=merged, matrix=matrix, novel=novel)
    return grown


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
