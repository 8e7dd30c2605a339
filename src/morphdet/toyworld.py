"""Synthetic detection world with a controllable semantics/appearance link.

Each class is a point in a latent attribute space. Its semantic vector is an
isometric projection of the attributes plus noise (sigma_sem), so how much
semantics reveal about appearance is a single knob: at sigma_sem = 0 the
semantic geometry mirrors the attribute geometry exactly; cranking it up
decorrelates them. Proposal descriptors mix the appearance of whatever
objects the box overlaps (weighted by IoU), per-instance noise (sigma_inst)
and four box-geometry features, so a box on an object carries that object's
appearance and a random box mostly does not.

Scenes live in the unit square. Dataset proposals are jittered copies of the
ground-truth boxes plus uniform random boxes, each labelled by the IoU >= 0.5
rule against the scene's objects; foreground proposals carry box-regression
targets. Each proposal's IoU with each object is computed once and serves both
the label and the descriptor. Ground-truth entries keep a descriptor of their
own (the instance model at IoU 1), which prototype refits embed; exemplars are
drawn by the same model on a box that holds only their class's object.

Exemplar draws and dataset draws use separate seed streams: changing the
exemplar seed never perturbs the dataset, and vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .morph_inference import Box, encode_box, iou
from .textio import fmt, fmt_vector, parse_floats, read_record_file, tensor_blocks, tensor_lines, write_record_file

GEOMETRY_FEATURES = 4
# Weight on the box-geometry channels relative to unit-variance appearance
# noise. Geometry is a class-independent component shared by every proposal,
# so raw descriptor means pick it up as a common direction while semantic
# vectors stay free of it.
GEOMETRY_SCALE = 3.0
FG_IOU_THRESHOLD = 0.5

UNIVERSE_HEADER = "toyworld-universe v1"
DATASET_HEADER = "toyworld-dataset v1"

# Sub-stream tags so one seed drives several independent generators.
_STREAM_UNIVERSE = 0
_STREAM_DATASET = 1
_STREAM_EXEMPLARS = 2


@dataclass(frozen=True, eq=False)
class ToyClass:
    class_id: int
    name: str
    attribute: np.ndarray
    semantic: np.ndarray


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """One annotated object: its class, box, and an IoU-1 descriptor drawn by
    the same instance model as proposals."""

    class_id: int
    box: Box
    descriptor: np.ndarray


@dataclass(frozen=True, eq=False)
class Proposal:
    """A candidate region. label 0 means background; foreground proposals
    carry encode_box targets onto their matched object."""

    descriptor: np.ndarray
    anchor: Box
    label: int
    target_deltas: np.ndarray | None

    def __post_init__(self):
        if (self.label == 0) != (self.target_deltas is None):
            raise ValueError("background proposals carry no targets; foreground ones must")


@dataclass(frozen=True, eq=False)
class Scene:
    scene_id: int
    objects: tuple[GroundTruth, ...]
    proposals: tuple[Proposal, ...]


@dataclass(frozen=True, eq=False)
class Universe:
    """The classes plus the shared generative model that renders them."""

    base: tuple[ToyClass, ...]
    novel: tuple[ToyClass, ...]
    semantic_projection: np.ndarray  # (d_sem, k), orthonormal columns
    descriptor_projection: np.ndarray  # (m_in - 4, k), orthonormal columns
    sigma_sem: float
    sigma_inst: float
    seed: int

    @property
    def k(self) -> int:
        return self.semantic_projection.shape[1]

    @property
    def d_sem(self) -> int:
        return self.semantic_projection.shape[0]

    @property
    def m_in(self) -> int:
        return self.descriptor_projection.shape[0] + GEOMETRY_FEATURES

    def classes(self) -> tuple[ToyClass, ...]:
        return self.base + self.novel

    def split_manifest(self) -> dict:
        return {
            "base_class_ids": [c.class_id for c in self.base],
            "novel_class_ids": [c.class_id for c in self.novel],
            "k": self.k,
            "d_sem": self.d_sem,
            "m_in": self.m_in,
            "sigma_sem": self.sigma_sem,
            "sigma_inst": self.sigma_inst,
            "seed": self.seed,
        }


def _orthonormal_columns(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """QR of a gaussian draw: `cols` orthonormal directions in R^rows, so the
    projection is an isometry on the attribute space."""
    gauss = rng.normal(size=(rows, cols))
    q, r = np.linalg.qr(gauss)
    # Fix each column's sign so the draw is a deterministic function of rng state.
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def make_universe(
    n_base: int = 20,
    n_novel: int = 5,
    k: int = 6,
    d_sem: int = 16,
    m_in: int = 12,
    sigma_sem: float = 0.02,
    sigma_inst: float = 0.3,
    seed: int = 0,
) -> Universe:
    """Draw base and novel classes with disjoint ids (base first, from 1)."""
    if n_base < 1 or n_novel < 0:
        raise ValueError(f"need n_base >= 1 and n_novel >= 0, got {n_base}, {n_novel}")
    if k < 1:
        raise ValueError(f"attribute dim must be >= 1, got {k}")
    if d_sem < k:
        raise ValueError(f"semantic dim {d_sem} must be >= attribute dim {k}")
    if m_in - GEOMETRY_FEATURES < k:
        raise ValueError(
            f"descriptor dim {m_in} leaves {m_in - GEOMETRY_FEATURES} appearance channels, need >= {k}"
        )
    if sigma_sem < 0 or sigma_inst < 0:
        raise ValueError("noise scales must be >= 0")
    rng = np.random.default_rng([seed, _STREAM_UNIVERSE])
    sem_proj = _orthonormal_columns(rng, d_sem, k)
    desc_proj = _orthonormal_columns(rng, m_in - GEOMETRY_FEATURES, k)

    def draw_class(cid: int) -> ToyClass:
        attribute = rng.normal(size=k)
        semantic = sem_proj @ attribute + sigma_sem * rng.normal(size=d_sem)
        return ToyClass(class_id=cid, name=f"toy{cid:03d}", attribute=attribute, semantic=semantic)

    base = tuple(draw_class(cid) for cid in range(1, n_base + 1))
    novel = tuple(draw_class(cid) for cid in range(n_base + 1, n_base + n_novel + 1))
    return Universe(
        base=base,
        novel=novel,
        semantic_projection=sem_proj,
        descriptor_projection=desc_proj,
        sigma_sem=float(sigma_sem),
        sigma_inst=float(sigma_inst),
        seed=int(seed),
    )


def _sample_box(rng: np.random.Generator) -> Box:
    w = rng.uniform(0.12, 0.35)
    h = rng.uniform(0.12, 0.35)
    cx = rng.uniform(0.5 * w, 1.0 - 0.5 * w)
    cy = rng.uniform(0.5 * h, 1.0 - 0.5 * h)
    return Box(cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h)


def _jitter_box(rng: np.random.Generator, box: Box, jitter: float) -> Box:
    cx = box.center_x + rng.uniform(-jitter, jitter) * box.width
    cy = box.center_y + rng.uniform(-jitter, jitter) * box.height
    w = box.width * np.exp(rng.uniform(-jitter, jitter))
    h = box.height * np.exp(rng.uniform(-jitter, jitter))
    return Box(cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h)


def _geometry_features(box: Box) -> np.ndarray:
    return GEOMETRY_SCALE * np.array([box.center_x, box.center_y, box.width, box.height])


def _descriptor(universe: Universe, box: Box, overlaps, rng: np.random.Generator) -> np.ndarray:
    """Instance model: IoU-weighted appearance of overlapped objects, plus
    per-instance noise, plus the box's own geometry features. `overlaps`
    holds (class, IoU of `box` with that class's object) pairs."""
    app_dim = universe.descriptor_projection.shape[0]
    appearance = np.zeros(app_dim)
    for cls, overlap in overlaps:
        if overlap > 0.0:
            appearance += overlap * (universe.descriptor_projection @ cls.attribute)
    appearance += universe.sigma_inst * rng.normal(size=app_dim)
    return np.concatenate([appearance, _geometry_features(box)])


def _make_scene(
    universe: Universe,
    anchor_class: ToyClass,
    pool,
    scene_id: int,
    objects_per_scene: int,
    proposals_per_scene: int,
    jitter: float,
    rng: np.random.Generator,
) -> Scene:
    placed = [(anchor_class, _sample_box(rng))]
    for _ in range(objects_per_scene - 1):
        cls = pool[rng.integers(0, len(pool))]
        placed.append((cls, _sample_box(rng)))

    objects = tuple(
        GroundTruth(cls.class_id, box, _descriptor(universe, box, [(c, iou(box, b)) for c, b in placed], rng))
        for cls, box in placed
    )

    anchors: list[Box] = []
    n_jittered = proposals_per_scene // 2
    for j in range(n_jittered):
        _, source_box = placed[j % len(placed)]
        anchors.append(_jitter_box(rng, source_box, jitter))
    for _ in range(proposals_per_scene - n_jittered):
        anchors.append(_sample_box(rng))

    proposals = []
    for anchor in anchors:
        overlaps = [(cls, iou(anchor, obj_box)) for cls, obj_box in placed]
        # IoU >= 0.5 rule against the max-overlap object (the first on ties).
        best = max(range(len(placed)), key=lambda j: overlaps[j][1])
        matched = overlaps[best][1] >= FG_IOU_THRESHOLD
        proposals.append(
            Proposal(
                descriptor=_descriptor(universe, anchor, overlaps, rng),
                anchor=anchor,
                label=placed[best][0].class_id if matched else 0,
                target_deltas=encode_box(anchor, placed[best][1]) if matched else None,
            )
        )

    return Scene(scene_id=scene_id, objects=objects, proposals=tuple(proposals))


def make_dataset(
    universe: Universe,
    classes,
    scenes_per_class: int,
    objects_per_scene: int,
    proposals_per_scene: int,
    seed: int,
    jitter: float = 0.12,
) -> list[Scene]:
    """Scenes grouped per anchor class (each class fronts `scenes_per_class`
    scenes; extra objects are drawn from the same class pool)."""
    pool = sorted(classes, key=lambda c: c.class_id)
    if not pool:
        raise ValueError("no classes to generate scenes for")
    if scenes_per_class < 1 or objects_per_scene < 1 or proposals_per_scene < 1:
        raise ValueError("scene, object and proposal counts must all be >= 1")
    if jitter < 0:
        raise ValueError(f"jitter must be >= 0, got {jitter}")
    rng = np.random.default_rng([seed, _STREAM_DATASET])
    scenes: list[Scene] = []
    scene_id = 0
    for cls in pool:
        for _ in range(scenes_per_class):
            scenes.append(
                _make_scene(
                    universe, cls, pool, scene_id, objects_per_scene, proposals_per_scene, jitter, rng
                )
            )
            scene_id += 1
    return scenes


def exemplars_for(universe: Universe, classes, shots: int, seed: int) -> dict[int, list[np.ndarray]]:
    """Draw `shots` isolated exemplars per class: the instance model
    (_descriptor) on a fresh random box that holds only the class's own
    object, so at IoU 1, full appearance weight. Uses its own seed stream."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    rng = np.random.default_rng([seed, _STREAM_EXEMPLARS])
    out: dict[int, list[np.ndarray]] = {}
    for cls in sorted(classes, key=lambda c: c.class_id):
        draws = []
        for _ in range(shots):
            box = _sample_box(rng)
            draws.append(_descriptor(universe, box, [(cls, 1.0)], rng))
        out[cls.class_id] = draws
    return out


def semantic_vectors(universe: Universe, classes=None) -> dict[int, np.ndarray]:
    chosen = universe.classes() if classes is None else classes
    return {cls.class_id: cls.semantic for cls in chosen}


def _universe_meta(universe: Universe) -> dict:
    meta = universe.split_manifest()
    meta["n_base"] = len(meta.pop("base_class_ids"))
    meta["n_novel"] = len(meta.pop("novel_class_ids"))
    return meta


def save_universe(path, universe: Universe) -> None:
    body = [
        f"class {cls.class_id} {role} {cls.name} "
        f"attr {fmt_vector(cls.attribute)} sem {fmt_vector(cls.semantic)}"
        for role, group in (("base", universe.base), ("novel", universe.novel))
        for cls in group
    ]
    body += tensor_lines("semantic_projection", universe.semantic_projection, "matrix")
    body += tensor_lines("descriptor_projection", universe.descriptor_projection, "matrix")
    write_record_file(path, UNIVERSE_HEADER, "meta", _universe_meta(universe), body)


def _parse_class(line: str, role: str) -> ToyClass:
    tokens = line.split()
    if len(tokens) < 6 or tokens[0] != "class" or tokens[2] != role or tokens[4] != "attr" or "sem" not in tokens[5:]:
        raise ValueError(f"expected a {role} class line, got {line[:80]!r}")
    sem_at = tokens.index("sem", 5)
    attribute, semantic = parse_floats(tokens[5:sem_at]), parse_floats(tokens[sem_at + 1 :])
    return ToyClass(class_id=int(tokens[1]), name=tokens[3], attribute=attribute, semantic=semantic)


def load_universe(path) -> Universe:
    """Inverse of save_universe: the meta counts say how many class lines
    lead the body (base first); two matrix blocks follow. The meta must equal
    the one the loaded universe would be saved with."""
    meta, body = read_record_file(path, UNIVERSE_HEADER, "meta")
    try:
        n_base = int(meta["n_base"])
        n_classes = n_base + int(meta["n_novel"])
        classes = [_parse_class(line, "base" if i < n_base else "novel") for i, line in enumerate(body[:n_classes])]
        matrices = tensor_blocks(body[n_classes:], "matrix")
        universe = Universe(
            base=tuple(classes[:n_base]),
            novel=tuple(classes[n_base:]),
            semantic_projection=matrices.pop("semantic_projection"),
            descriptor_projection=matrices.pop("descriptor_projection"),
            sigma_sem=float(meta["sigma_sem"]),
            sigma_inst=float(meta["sigma_inst"]),
            seed=int(meta["seed"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: universe file lacks or mistypes {exc} (matrix block or meta key)") from exc
    if matrices or _universe_meta(universe) != meta or any(
        cls.attribute.shape != (universe.k,) or cls.semantic.shape != (universe.d_sem,) for cls in classes
    ):
        raise ValueError(f"{path}: universe body does not match its meta line {meta}")
    return universe


def _box_tokens(box: Box) -> str:
    return f"{fmt(box.x1)} {fmt(box.y1)} {fmt(box.x2)} {fmt(box.y2)}"


def _dataset_meta(scenes) -> dict:
    descriptors = (item.descriptor for scene in scenes for item in (*scene.proposals, *scene.objects))
    return {"scene_count": len(scenes), "m_in": next(descriptors, np.zeros(0)).shape[0]}


def save_dataset(path, scenes) -> None:
    scenes = list(scenes)
    body = []
    for scene in scenes:
        body.append(f"scene {scene.scene_id}")
        for obj in scene.objects:
            body.append(f"object {obj.class_id} {_box_tokens(obj.box)} {fmt_vector(obj.descriptor)}")
        for prop in scene.proposals:
            head = f"proposal {prop.label} {_box_tokens(prop.anchor)}"
            if prop.label > 0:
                head += f" {fmt_vector(prop.target_deltas)}"
            body.append(f"{head} {fmt_vector(prop.descriptor)}")
    write_record_file(path, DATASET_HEADER, "meta", _dataset_meta(scenes), body)


def load_dataset(path) -> list[Scene]:
    """Inverse of save_dataset. Each 'scene' line opens a scene; its object
    and proposal lines follow. The meta must equal the one the loaded scenes
    would be saved with, so a scene count that disagrees is an error."""
    meta, body = read_record_file(path, DATASET_HEADER, "meta")
    m_in = meta.get("m_in")
    parts: list[tuple[int, list[GroundTruth], list[Proposal]]] = []
    for line in body:
        tokens = line.split()
        if tokens[0] == "scene" and len(tokens) == 2:
            parts.append((int(tokens[1]), [], []))
            continue
        if not parts or tokens[0] not in ("object", "proposal") or len(tokens) < 6:
            raise ValueError(f"{path}: unexpected dataset line {line[:80]!r}")
        head = int(tokens[1])
        box = Box(*map(float, tokens[2:6]))
        values = parse_floats(tokens[6:])
        targets, descriptor = (values[:4], values[4:]) if tokens[0] == "proposal" and head > 0 else (None, values)
        if descriptor.shape[0] != m_in:
            raise ValueError(f"{path}: {tokens[0]} descriptor has {descriptor.shape[0]} values, meta says {m_in}")
        if tokens[0] == "object":
            if head < 1:
                raise ValueError(f"{path}: object class id must be >= 1 (0 is background), got {head}")
            parts[-1][1].append(GroundTruth(class_id=head, box=box, descriptor=descriptor))
            continue
        parts[-1][2].append(Proposal(descriptor=descriptor, anchor=box, label=head, target_deltas=targets))
    scenes = [Scene(scene_id=sid, objects=tuple(objs), proposals=tuple(props)) for sid, objs, props in parts]
    if _dataset_meta(scenes) != meta:
        raise ValueError(f"{path}: body holds {_dataset_meta(scenes)}, meta says {meta}")
    return scenes
