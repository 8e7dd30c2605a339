"""Class prototypes: the detector's second parameter set.

A prototype is a unit vector in embedding space; the inner product between a
proposal's feature vector and each prototype drives classification. Base
prototypes are seeded from semantic vectors and refitted during training;
novel prototypes are inserted after training, either from exemplar features
or straight from semantic vectors. Background has no prototype -- the
embedder regresses a background logit directly.

Prototype sets are immutable values: every update returns a new set.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from .numkernel import DimensionMismatch, EmptyInput, l2_normalize
from .textio import fmt_vector, parse_floats

UNIT_NORM_TOL = 1e-9

SECTION_SEPARATOR = "---"


class ClassCollision(ValueError):
    """A class id is already registered."""


class UnknownClass(ValueError):
    """A class id has no prototype (or no stored vector)."""


@dataclass(frozen=True, eq=False)
class Prototype:
    """One class's unit-norm anchor in embedding space. Ids start at 1; 0 is
    reserved for background."""

    class_id: int
    vector: np.ndarray

    def __post_init__(self):
        cid = int(self.class_id)
        if cid < 1:
            raise ValueError(f"class_id must be >= 1 (0 is background), got {cid}")
        vec = np.asarray(self.vector, dtype=np.float64)
        if vec.ndim != 1:
            raise DimensionMismatch(f"prototype vector must be 1-D, got shape {vec.shape}")
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"prototype for class {cid} has non-finite entries")
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"prototype for class {cid} is not unit norm (|v| = {norm!r})")
        object.__setattr__(self, "class_id", cid)
        object.__setattr__(self, "vector", vec)


@dataclass(frozen=True, eq=False)
class PrototypeSet:
    """Base and novel prototypes sharing one dimension, with disjoint ids."""

    base: dict[int, Prototype]
    novel: dict[int, Prototype]
    dim: int

    def __post_init__(self):
        overlap = set(self.base) & set(self.novel)
        if overlap:
            raise ClassCollision(f"classes present in both base and novel: {sorted(overlap)}")
        for section in (self.base, self.novel):
            for cid, proto in section.items():
                if cid != proto.class_id:
                    raise ValueError(f"key {cid} maps to prototype for class {proto.class_id}")
                if proto.vector.shape[0] != self.dim:
                    raise DimensionMismatch(
                        f"class {cid} has dim {proto.vector.shape[0]}, set has dim {self.dim}"
                    )

    @staticmethod
    def empty(dim: int) -> "PrototypeSet":
        return PrototypeSet(base={}, novel={}, dim=int(dim))

    def has_class(self, class_id: int) -> bool:
        return class_id in self.base or class_id in self.novel

    def vector_for(self, class_id: int) -> np.ndarray:
        if class_id in self.base:
            return self.base[class_id].vector
        if class_id in self.novel:
            return self.novel[class_id].vector
        raise UnknownClass(f"no prototype for class {class_id}")

    def class_ids(self) -> list[int]:
        return sorted([*self.base, *self.novel])


def init_from_semantic(vectors) -> PrototypeSet:
    """Build base prototypes by unit-normalizing one semantic vector per class.

    Accepts a mapping {class_id: vector} or an iterable of (class_id, vector)
    pairs; the pair form lets file loaders surface duplicate ids as errors.
    """
    if isinstance(vectors, Mapping):
        items: Iterable = vectors.items()
    else:
        items = vectors
    base: dict[int, Prototype] = {}
    dim: int | None = None
    for cid, raw in items:
        cid = int(cid)
        if cid in base:
            raise ClassCollision(f"duplicate semantic vector for class {cid}")
        vec = np.asarray(raw, dtype=np.float64)
        if vec.ndim != 1:
            raise DimensionMismatch(f"semantic vector for class {cid} must be 1-D")
        if dim is None:
            dim = vec.shape[0]
        elif vec.shape[0] != dim:
            raise DimensionMismatch(
                f"semantic vector for class {cid} has dim {vec.shape[0]}, expected {dim}"
            )
        base[cid] = Prototype(cid, l2_normalize(vec))
    if dim is None:
        raise EmptyInput("no semantic vectors given")
    return PrototypeSet(base=base, novel={}, dim=dim)


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
        if cid not in protos.base:
            raise UnknownClass(f"mean supplied for class {cid}, which has no base prototype")
        vec = np.asarray(raw, dtype=np.float64)
        if vec.shape != (protos.dim,):
            raise DimensionMismatch(
                f"mean for class {cid} has shape {vec.shape}, expected ({protos.dim},)"
            )
        normalized[cid] = l2_normalize(vec)
    if lam == 1.0:
        return protos
    new_base = dict(protos.base)
    for cid, mean_hat in normalized.items():
        blended = (1.0 - lam) * mean_hat + lam * protos.base[cid].vector
        new_base[cid] = Prototype(cid, l2_normalize(blended))
    return PrototypeSet(base=new_base, novel=dict(protos.novel), dim=protos.dim)


def add_novel(protos: PrototypeSet, class_id: int, vector) -> PrototypeSet:
    """Register a novel class from one vector -- the mean of its exemplar
    features, or its semantic vector -- unit-normalized."""
    cid = int(class_id)
    if protos.has_class(cid):
        raise ClassCollision(f"class {cid} already has a prototype")
    vec = np.asarray(vector, dtype=np.float64)
    if vec.shape != (protos.dim,):
        raise DimensionMismatch(
            f"vector for class {cid} has shape {vec.shape}, expected ({protos.dim},)"
        )
    novel = dict(protos.novel)
    novel[cid] = Prototype(cid, l2_normalize(vec))
    return PrototypeSet(base=dict(protos.base), novel=novel, dim=protos.dim)


def all_prototypes(protos: PrototypeSet) -> list[Prototype]:
    """Base and novel prototypes merged, in ascending class-id order."""
    merged = {**protos.base, **protos.novel}
    return [merged[cid] for cid in sorted(merged)]


def to_text(protos: PrototypeSet) -> str:
    """Render as one line per prototype, 'class_id<TAB>components', base
    section first, then a '---' line, then the novel section."""
    lines = [f"{cid}\t{fmt_vector(protos.base[cid].vector)}" for cid in sorted(protos.base)]
    lines.append(SECTION_SEPARATOR)
    lines.extend(f"{cid}\t{fmt_vector(protos.novel[cid].vector)}" for cid in sorted(protos.novel))
    return "\n".join(lines) + "\n"


def _parse_line(line: str) -> tuple[int, np.ndarray]:
    head, _, tail = line.partition("\t")
    if not tail:
        raise ValueError(f"malformed prototype line (missing tab): {line!r}")
    return int(head), parse_floats(tail)


def from_text(text: str, dim: int | None = None) -> PrototypeSet:
    """Inverse of to_text. `dim` is only needed when the file holds no vectors."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if SECTION_SEPARATOR not in lines:
        raise ValueError("prototype text is missing the '---' base/novel separator")
    cut = lines.index(SECTION_SEPARATOR)
    base_items = [_parse_line(ln) for ln in lines[:cut]]
    novel_items = [_parse_line(ln) for ln in lines[cut + 1 :]]
    vectors = base_items + novel_items
    if vectors:
        found = vectors[0][1].shape[0]
        if dim is not None and dim != found:
            raise DimensionMismatch(f"expected dim {dim}, file has dim {found}")
        dim = found
    elif dim is None:
        raise ValueError("empty prototype text and no dim given")

    def build(items) -> dict[int, Prototype]:
        out: dict[int, Prototype] = {}
        for cid, vec in items:
            if cid in out:
                raise ClassCollision(f"duplicate prototype line for class {cid}")
            out[cid] = Prototype(cid, vec)
        return out

    return PrototypeSet(base=build(base_items), novel=build(novel_items), dim=dim)


def write_vector_file(path, vectors: Mapping[int, np.ndarray]) -> None:
    """Plain class_id -> vector map in the same per-line format (no sections).
    Used for semantic-vector files, so real word-vector dumps can be swapped in."""
    with open(path, "w", encoding="utf-8") as fh:
        for cid in sorted(vectors):
            fh.write(f"{int(cid)}\t{fmt_vector(vectors[cid])}\n")


def read_vector_file(path) -> dict[int, np.ndarray]:
    """Read a class_id -> vector map; tolerates (and skips) section separators."""
    out: dict[int, np.ndarray] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line.strip() or line.strip() == SECTION_SEPARATOR:
                continue
            cid, vec = _parse_line(line)
            if cid in out:
                raise ClassCollision(f"duplicate vector line for class {cid}")
            out[cid] = vec
    return out
