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
from collections import namedtuple
from dataclasses import asdict, dataclass

import numpy as np

from .em_trainer import fill_dataclass
from .morph_inference import Box, InvalidBox, encode_box, iou
from .numkernel import l2_normalize
from .textio import read_record_file, row_format, tensor_blocks, tensor_lines, write_record_file

GEOMETRY_FEATURES = 4
# Weight on the box-geometry channels relative to unit-variance appearance
# noise. Geometry is a class-independent component shared by every proposal,
# so raw descriptor means pick it up as a common direction while semantic
# vectors stay free of it.
GEOMETRY_SCALE = 3.0
FG_IOU_THRESHOLD = 0.5

UNIVERSE_HEADER = "toyworld-universe v2"
DATASET_HEADER = "toyworld-dataset v2"
_LINE_KINDS = {"scene": 0, "object": 1, "proposal": 2}

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


# What Scene.objects and Scene.proposals build on demand; a background proposal (label 0) has no targets.
GroundTruth = namedtuple("GroundTruth", "class_id box descriptor")
Proposal = namedtuple("Proposal", "descriptor anchor label target_deltas")


@dataclass(frozen=True, eq=False)
class Scene:
    """One scene as arrays: proposal descriptors (n, m_in), anchor corners (n, 4), labels (n,)
    and box targets (n, 4, zero on background rows); object class ids (g,), boxes (g, 4) and
    descriptors (g, m_in). A loaded scene's arrays are slices of its file's array store."""

    scene_id: int
    descriptors: np.ndarray
    anchors: np.ndarray
    labels: np.ndarray
    targets: np.ndarray
    gt_ids: np.ndarray
    gt_boxes: np.ndarray
    gt_descriptors: np.ndarray

    @property
    def proposals(self) -> tuple[Proposal, ...]:
        rows = zip(self.descriptors, self.anchors.tolist(), self.labels.tolist(), self.targets)
        return tuple(Proposal(d, Box(*a), label, t if label > 0 else None) for d, a, label, t in rows)

    @property
    def objects(self) -> tuple[GroundTruth, ...]:
        rows = zip(self.gt_ids.tolist(), self.gt_boxes.tolist(), self.gt_descriptors)
        return tuple(GroundTruth(cid, Box(*box), d) for cid, box, d in rows)


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
    """Modified Gram-Schmidt on a gaussian draw: `cols` orthonormal directions
    in R^rows, so the projection is an isometry on the attribute space. With
    no LAPACK, its bits do not depend on the BLAS kernel; R's diagonal is a
    positive norm, so this is the QR factor Q with no sign left to fix."""
    basis = rng.normal(size=(rows, cols)).T.copy()  # one row per direction
    for j in range(cols):
        basis[j] = l2_normalize(basis[j])
        basis[j + 1 :] -= np.add.reduce(basis[j + 1 :] * basis[j], axis=1)[:, None] * basis[j]
    return np.ascontiguousarray(basis.T)


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

    gt_descriptors = [_descriptor(universe, box, [(c, iou(box, b)) for c, b in placed], rng) for _, box in placed]

    anchors: list[Box] = []
    n_jittered = data.proposals_per_scene // 2
    for j in range(n_jittered):
        _, source_box = placed[j % len(placed)]
        anchors.append(_jitter_box(rng, source_box, data.jitter))
    for _ in range(data.proposals_per_scene - n_jittered):
        anchors.append(_sample_box(rng))

    descriptors, labels, targets = [], [], []
    for anchor in anchors:
        overlaps = [(cls, iou(anchor, obj_box)) for cls, obj_box in placed]
        # IoU >= 0.5 rule against the max-overlap object (the first on ties).
        best = max(range(len(placed)), key=lambda j: overlaps[j][1])
        matched = overlaps[best][1] >= FG_IOU_THRESHOLD
        descriptors.append(_descriptor(universe, anchor, overlaps, rng))
        labels.append(placed[best][0].class_id if matched else 0)
        targets.append(encode_box(anchor, placed[best][1]) if matched else np.zeros(4))

    objects = ([cls.class_id for cls, _ in placed], [box.as_tuple() for _, box in placed], gt_descriptors)
    return Scene(scene_id, *map(np.array, (descriptors, [a.as_tuple() for a in anchors], labels, targets, *objects)))


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


def _dataset_meta(scenes) -> dict:
    widths = (rows.shape[1] for scene in scenes for rows in (scene.descriptors, scene.gt_descriptors) if len(rows))
    return {"scene_count": len(scenes), "m_in": next(widths, 0)}


def save_dataset(path, scenes) -> None:
    """Per scene a 'scene <id>' line, an 'object <class id> <box> <descriptor>' line per object,
    then a 'proposal <label> <anchor> [<targets>] <descriptor>' line per proposal (targets if fg)."""
    scenes = list(scenes)
    meta = _dataset_meta(scenes)
    width = 4 + meta["m_in"]
    obj = "object %d " + row_format(width)
    fg, bg = ("proposal %d " + row_format(width + extra) for extra in (4, 0))
    body = []
    for scene in scenes:
        body.append(f"scene {scene.scene_id}")
        rows = np.hstack([scene.gt_boxes, scene.gt_descriptors]).tolist()
        body += [obj % (cid, *row) for cid, row in zip(scene.gt_ids.tolist(), rows)]
        rows = np.hstack([scene.anchors, scene.targets, scene.descriptors]).tolist()
        body += [fg % (n, *row) if n > 0 else bg % (n, *row[:4], *row[8:]) for n, row in zip(scene.labels.tolist(), rows)]
    write_record_file(path, DATASET_HEADER, "meta", meta, body)


def _gather(values, starts, offset: int, width: int) -> np.ndarray:
    """(rows, width): `width` values from `offset` past each start, clipped into `values`."""
    return np.take(values, (starts + offset)[:, None] + np.arange(width), mode="clip")


def load_dataset(path) -> list[Scene]:
    """Inverse of save_dataset: the body is parsed in one pass into one array store,
    and each 'scene' line opens a scene whose arrays are slices of it. The meta must
    equal the one the loaded scenes would be saved with."""
    meta, body = read_record_file(path, DATASET_HEADER, "meta")
    m_in = meta.get("m_in")
    if type(m_in) is not int or m_in < 0:
        raise ValueError(f"{path}: meta m_in must be an integer >= 0, got {m_in!r}")
    codes = np.array([_LINE_KINDS.get(line.partition(" ")[0], -1) for line in body], dtype=np.int8)
    counts = np.array([line.count(" ") for line in body], dtype=np.intp)  # the values after the kind word
    scene_of = np.cumsum(codes == 0) - 1  # the scene each line belongs to
    stray = (codes < 0) | (scene_of < 0) | (counts < 1) | ((codes == 0) & (counts != 1))  # a scene line holds its id
    if stray.any():
        raise ValueError(f"{path}: unexpected dataset line {body[np.argmax(stray)][:80]!r}")
    text = "\n".join([line.partition(" ")[2] for line in body])
    del body  # the lines, then the text, go once parsed: what they hold at once is a load's peak memory
    try:  # a line holds at most its spaces + 1 values, so equal totals mean each holds that many
        values = np.fromstring(text, sep=" ")
        if values.size != counts.sum() or any(c in text for c in "\t\r\x0b\x0c"):
            raise ValueError
    except ValueError:
        raise ValueError(f"{path}: a dataset line holds a token that is not a number, or a stray space") from None
    del text
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: non-finite value in the dataset body")
    starts = np.cumsum(counts) - counts
    heads = values[starts]
    fg = (codes == 2) & (heads > 0)
    lengths = counts - 5 - 4 * fg
    corners = _gather(values, starts, 1, 4)
    checks = (
        (ValueError, (heads != np.trunc(heads)) | (abs(heads) > 2**53), "line head {head:g} is not an integer"),
        (ValueError, (codes == 1) & (heads < 1), "object class id must be >= 1 (0 is background), got {head:g}"),
        (ValueError, (codes == 2) & (heads < 0), "proposal label must be >= 0 (0 is background), got {head:g}"),
        (ValueError, (codes > 0) & (lengths != m_in), f"{{kind}} descriptor has {{length}} values, meta says {m_in}"),
        (InvalidBox, (codes > 0) & ~(corners[:, :2] < corners[:, 2:]).all(axis=1), "degenerate box corners: {box}"),
    )
    for error, bad, message in checks:
        if bad.any():
            at = np.argmax(bad)
            details = dict(head=heads[at], kind=list(_LINE_KINDS)[codes[at]], length=lengths[at], box=corners[at].tolist())
            raise error(f"{path}: " + message.format(**details))
    heads = heads.astype(np.int64)
    targets = np.where(fg[:, None], _gather(values, starts, 5, 4), 0.0)
    descriptors = _gather(values, starts + counts - m_in, 0, m_in)
    store = [arr[codes == 2] for arr in (descriptors, corners, heads, targets)]
    store += [arr[codes == 1] for arr in (heads, corners, descriptors)]
    ids = heads[codes == 0].tolist()
    p_ends, o_ends = (np.searchsorted(scene_of[codes == code], np.arange(len(ids) + 1)) for code in (2, 1))
    ends = [p_ends] * 4 + [o_ends] * 3
    scenes = [Scene(sid, *(arr[end[k] : end[k + 1]] for arr, end in zip(store, ends))) for k, sid in enumerate(ids)]
    if _dataset_meta(scenes) != meta:
        raise ValueError(f"{path}: body holds {_dataset_meta(scenes)}, meta says {meta}")
    return scenes
