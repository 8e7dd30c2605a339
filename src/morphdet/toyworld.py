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

import math
from dataclasses import asdict, dataclass

import numpy as np

from .em_trainer import fill_dataclass
from .morph_inference import Box, encode_box, iou
from .textio import fmt, fmt_vector, parse_floats, read_record_file, tensor_blocks, tensor_lines, write_record_file

GEOMETRY_FEATURES = 4
# Weight on the box-geometry channels relative to unit-variance appearance
# noise. Geometry is a class-independent component shared by every proposal,
# so raw descriptor means pick it up as a common direction while semantic
# vectors stay free of it.
GEOMETRY_SCALE = 3.0
FG_IOU_THRESHOLD = 0.5

UNIVERSE_HEADER = "toyworld-universe v2"
DATASET_HEADER = "toyworld-dataset v2"

# Sub-stream tags so one seed drives several independent generators.
_STREAM_UNIVERSE = 0
_STREAM_DATASET = 1
_STREAM_EXEMPLARS = 2


@dataclass(frozen=True)
class UniverseConfig:
    """The universe's sizes and noise scales, checked on construction (noise
    scales stored as float); the one place their defaults are written."""

    n_base: int = 20
    n_novel: int = 5
    k: int = 6  # attribute dimension
    d_sem: int = 16
    m_in: int = 12  # descriptor length, GEOMETRY_FEATURES of them box geometry
    sigma_sem: float = 0.4
    sigma_inst: float = 0.3

    def __post_init__(self):
        if self.n_base < 1:
            raise ValueError(f"n_base must be >= 1, got {self.n_base}")
        if self.n_novel < 1:
            raise ValueError(f"n_novel must be >= 1, got {self.n_novel}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.d_sem < self.k:
            raise ValueError(f"d_sem must be >= k ({self.k}), got {self.d_sem}")
        if self.m_in - GEOMETRY_FEATURES < self.k:
            raise ValueError(
                f"m_in must leave >= k ({self.k}) appearance channels beside {GEOMETRY_FEATURES} geometry ones, "
                f"got {self.m_in}"
            )
        for name in ("sigma_sem", "sigma_inst"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class DataConfig:
    """Scene counts per anchor class of the train and eval splits, objects
    and proposals per scene, and the box jitter of the proposals drawn around
    objects; checked on construction, the one place their defaults are written."""

    train_scenes_per_class: int = 3
    eval_scenes_per_class: int = 12
    objects_per_scene: int = 2
    proposals_per_scene: int = 24
    jitter: float = 0.12

    def __post_init__(self):
        for name in ("train_scenes_per_class", "eval_scenes_per_class", "objects_per_scene", "proposals_per_scene"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 <= self.jitter < math.inf:
            raise ValueError(f"jitter must be finite and >= 0, got {self.jitter}")


@dataclass(frozen=True, eq=False)
class ToyClass:
    class_id: int
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
    """The classes and the shared generative model drawn from `config` and `seed`."""

    base: tuple[ToyClass, ...]
    novel: tuple[ToyClass, ...]
    semantic_projection: np.ndarray  # (d_sem, k), orthonormal columns
    descriptor_projection: np.ndarray  # (m_in - 4, k), orthonormal columns
    config: UniverseConfig
    seed: int

    def classes(self) -> tuple[ToyClass, ...]:
        return self.base + self.novel

    def split_manifest(self) -> dict:
        """The class ids of each role, the config less its two counts, and the seed."""
        settings = {key: value for key, value in asdict(self.config).items() if key not in ("n_base", "n_novel")}
        return {
            "base_class_ids": [c.class_id for c in self.base],
            "novel_class_ids": [c.class_id for c in self.novel],
            **settings,
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


def make_universe(config: UniverseConfig = UniverseConfig(), seed: int = 0) -> Universe:
    """Draw base and novel classes with disjoint ids (base first, from 1)."""
    rng = np.random.default_rng([seed, _STREAM_UNIVERSE])
    sem_proj = _orthonormal_columns(rng, config.d_sem, config.k)
    desc_proj = _orthonormal_columns(rng, config.m_in - GEOMETRY_FEATURES, config.k)

    def draw_class(cid: int) -> ToyClass:
        attribute = rng.normal(size=config.k)
        semantic = sem_proj @ attribute + config.sigma_sem * rng.normal(size=config.d_sem)
        return ToyClass(class_id=cid, attribute=attribute, semantic=semantic)

    n_base = config.n_base
    base = tuple(draw_class(cid) for cid in range(1, n_base + 1))
    novel = tuple(draw_class(cid) for cid in range(n_base + 1, n_base + config.n_novel + 1))
    return Universe(
        base=base,
        novel=novel,
        semantic_projection=sem_proj,
        descriptor_projection=desc_proj,
        config=config,
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
    appearance += universe.config.sigma_inst * rng.normal(size=app_dim)
    return np.concatenate([appearance, _geometry_features(box)])


def _make_scene(
    universe: Universe, anchor_class: ToyClass, pool, scene_id: int, data: DataConfig, rng: np.random.Generator
) -> Scene:
    placed = [(anchor_class, _sample_box(rng))]
    for _ in range(data.objects_per_scene - 1):
        cls = pool[rng.integers(0, len(pool))]
        placed.append((cls, _sample_box(rng)))

    objects = tuple(
        GroundTruth(cls.class_id, box, _descriptor(universe, box, [(c, iou(box, b)) for c, b in placed], rng))
        for cls, box in placed
    )

    anchors: list[Box] = []
    n_jittered = data.proposals_per_scene // 2
    for j in range(n_jittered):
        _, source_box = placed[j % len(placed)]
        anchors.append(_jitter_box(rng, source_box, data.jitter))
    for _ in range(data.proposals_per_scene - n_jittered):
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


def make_dataset(universe: Universe, classes, scenes_per_class: int, data: DataConfig, seed: int) -> list[Scene]:
    """Scenes grouped per anchor class (each class fronts `scenes_per_class`
    scenes; extra objects are drawn from the same class pool), shaped by
    `data`'s per-scene counts and jitter."""
    pool = sorted(classes, key=lambda c: c.class_id)
    if not pool:
        raise ValueError("no classes to generate scenes for")
    if scenes_per_class < 1:
        raise ValueError(f"scenes_per_class must be >= 1, got {scenes_per_class}")
    rng = np.random.default_rng([seed, _STREAM_DATASET])
    scenes: list[Scene] = []
    scene_id = 0
    for cls in pool:
        for _ in range(scenes_per_class):
            scenes.append(_make_scene(universe, cls, pool, scene_id, data, rng))
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


def save_universe(path, universe: Universe) -> None:
    """The meta line is the universe's config plus its seed; the body holds
    four tensors: attributes and semantics, whose row i is class i + 1, base
    first, then the semantic and descriptor projections."""
    classes = universe.classes()
    tensors = {
        "attributes": np.stack([cls.attribute for cls in classes]),
        "semantics": np.stack([cls.semantic for cls in classes]),
        "semantic_projection": universe.semantic_projection,
        "descriptor_projection": universe.descriptor_projection,
    }
    body = [line for name, arr in tensors.items() for line in tensor_lines(name, arr)]
    write_record_file(path, UNIVERSE_HEADER, "meta", {**asdict(universe.config), "seed": universe.seed}, body)


def load_universe(path) -> Universe:
    """Inverse of save_universe. The meta line must be what save_universe
    writes: a UniverseConfig, checked like a config file's universe section,
    plus an integer seed >= 0. The body's four tensors must come in
    save_universe's order, in the shapes the meta line gives."""
    meta, body = read_record_file(path, UNIVERSE_HEADER, "meta")
    config = fill_dataclass(UniverseConfig, {key: v for key, v in meta.items() if key != "seed"}, f"{path}: universe")
    seed = meta.get("seed")
    if type(seed) is not int or seed < 0:
        raise ValueError(f"{path}: universe seed must be an integer >= 0, got {seed!r}")
    if {**asdict(config), "seed": seed} != meta:
        raise ValueError(f"{path}: universe meta line lacks {sorted(set(asdict(config)) - set(meta))}")
    tensors = tensor_blocks(body)
    n_base, n_classes = config.n_base, config.n_base + config.n_novel
    shapes = [
        ("attributes", (n_classes, config.k)),
        ("semantics", (n_classes, config.d_sem)),
        ("semantic_projection", (config.d_sem, config.k)),
        ("descriptor_projection", (config.m_in - GEOMETRY_FEATURES, config.k)),
    ]
    if [(name, arr.shape) for name, arr in tensors.items()] != shapes:
        raise ValueError(f"{path}: universe body does not match its meta line {meta}")
    classes = [
        ToyClass(class_id=cid, attribute=attribute, semantic=semantic)
        for cid, attribute, semantic in zip(range(1, n_classes + 1), tensors["attributes"], tensors["semantics"])
    ]
    return Universe(
        base=tuple(classes[:n_base]),
        novel=tuple(classes[n_base:]),
        semantic_projection=tensors["semantic_projection"],
        descriptor_projection=tensors["descriptor_projection"],
        config=config,
        seed=seed,
    )


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
