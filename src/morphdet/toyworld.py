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
the label and the descriptor. Scenes are drawn in a fixed order and computed as
arrays, in iou's and encode_box's operation order. Ground-truth entries keep a
descriptor of their own (the instance model at IoU 1), which prototype refits
embed; exemplars are the objects of one-object scenes.

Exemplar draws and dataset draws use separate seed streams: changing the
exemplar seed never perturbs the dataset, and vice versa.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import asdict, dataclass

import numpy as np

from .em_trainer import check_settings, fill_dataclass
from .morph_inference import Box, InvalidBox, decode_box, encode_box
from .numkernel import l2_normalize
from .textio import read_tensor_file, write_tensor_file

GEOMETRY_FEATURES = 4
# Weight on the box-geometry channels relative to unit-variance appearance
# noise. Geometry is a class-independent component shared by every proposal,
# so raw descriptor means pick it up as a common direction while semantic
# vectors stay free of it.
GEOMETRY_SCALE = 3.0
FG_IOU_THRESHOLD = 0.5

UNIVERSE_HEADER = "toyworld-universe v3"
DATASET_HEADER = "toyworld-dataset v3"
_UNIVERSE_TENSORS = ("attributes", "semantics", "semantic_projection", "descriptor_projection")

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
        check_settings(self, n_base=">= 1", n_novel=">= 1", k=">= 1", sigma_sem=">= 0", sigma_inst=">= 0")
        if self.d_sem < self.k:
            raise ValueError(f"d_sem must be >= k ({self.k}), got {self.d_sem}")
        if self.m_in - GEOMETRY_FEATURES < self.k:
            raise ValueError(
                f"m_in must leave >= k ({self.k}) appearance channels beside {GEOMETRY_FEATURES} geometry ones, "
                f"got {self.m_in}"
            )
        for name in ("sigma_sem", "sigma_inst"):
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
        check_settings(self, train_scenes_per_class=">= 1", eval_scenes_per_class=">= 1", objects_per_scene=">= 1",
                       proposals_per_scene=">= 1", jitter=">= 0")


# What Scene.proposals builds on demand; a background proposal (label 0) has no targets.
Proposal = namedtuple("Proposal", "descriptor anchor label target_deltas")


@dataclass(frozen=True, eq=False)
class Scene:
    """One scene as arrays: proposal descriptors (n, m_in), anchor corners (n, 4), labels (n,)
    and box targets (n, 4, zero on background rows); object class ids (g,), boxes (g, 4) and
    descriptors (g, m_in). A scene's arrays are slices of one array store: its file's, or its anchor class's batch's."""

    scene_id: int
    descriptors: np.ndarray
    anchors: np.ndarray
    labels: np.ndarray
    targets: np.ndarray
    gt_ids: np.ndarray
    gt_boxes: np.ndarray
    gt_descriptors: np.ndarray

    def __len__(self) -> int:  # the proposal count, as a detect request's len()
        return len(self.labels)

    @property
    def proposals(self) -> tuple[Proposal, ...]:
        rows = zip(self.descriptors, self.anchors.tolist(), self.labels.tolist(), self.targets)
        return tuple(Proposal(d, Box(*a), label, t if label > 0 else None) for d, a, label, t in rows)


@dataclass(frozen=True, eq=False)
class Universe:
    """The classes and the shared generative model drawn from `config` and `seed`. Row i of
    `attributes` and `semantics` is class i + 1, base classes first, as in universe.txt."""

    attributes: np.ndarray  # (n_base + n_novel, k)
    semantics: np.ndarray  # (n_base + n_novel, d_sem)
    semantic_projection: np.ndarray  # (d_sem, k), orthonormal columns
    descriptor_projection: np.ndarray  # (m_in - 4, k), orthonormal columns
    config: UniverseConfig
    seed: int

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(range(1, self.config.n_base + 1))

    @property
    def novel(self) -> tuple[int, ...]:
        return tuple(range(self.config.n_base + 1, self.config.n_base + self.config.n_novel + 1))

    def split_manifest(self) -> dict:
        """The class ids of each role, the config less its two counts, and the seed."""
        settings = {key: value for key, value in asdict(self.config).items() if key not in ("n_base", "n_novel")}
        return {
            "base_class_ids": list(self.base),
            "novel_class_ids": list(self.novel),
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
    """Draw base and novel classes with disjoint ids (base first, from 1) in one call: row i is class
    i + 1's attribute, then its semantic noise."""
    rng = np.random.default_rng([seed, _STREAM_UNIVERSE])
    sem_proj = _orthonormal_columns(rng, config.d_sem, config.k)
    desc_proj = _orthonormal_columns(rng, config.m_in - GEOMETRY_FEATURES, config.k)
    draws = rng.normal(size=(config.n_base + config.n_novel, config.k + config.d_sem))
    attributes = draws[:, : config.k].copy()
    semantics = np.array([sem_proj @ a for a in attributes]) + config.sigma_sem * draws[:, config.k :]  # not a GEMM
    return Universe(attributes, semantics, sem_proj, desc_proj, config, int(seed))


def _sampled_boxes(u: np.ndarray) -> np.ndarray:
    """Boxes from (..., 4) uniforms: width and height on [0.12, 0.35), then a center that keeps the box in
    the unit square, so each is a valid box by construction. `lo + (hi - lo) * u` is rng.uniform(lo, hi)'s
    own arithmetic on its draw u."""
    size = 0.12 + (0.35 - 0.12) * u[..., :2]
    center = 0.5 * size + ((1.0 - 0.5 * size) - 0.5 * size) * u[..., 2:]
    return np.concatenate([center - 0.5 * size, center + 0.5 * size], axis=-1)


def _iou_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., rows of a, rows of b) IoU of corner rows, scene by scene, in iou's operation order."""
    a, b = a[..., :, None, :], b[..., None, :, :]
    ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.where((ix > 0.0) & (iy > 0.0), ix * iy, 0.0)
    area_a, area_b = ((x[..., 2] - x[..., 0]) * (x[..., 3] - x[..., 1]) for x in (a, b))
    return inter / (area_a + area_b - inter)


def _descriptors(appearances: np.ndarray, boxes: np.ndarray, overlaps: np.ndarray, noise: np.ndarray, sigma: float):
    """Instance model per scene: each box's IoU-weighted appearance of the scene's objects, summed in object
    order (a zero overlap adds a signed zero, which changes no sum), plus per-instance noise, plus the box's
    geometry features. `appearances` is (scenes, objects, a), `overlaps` (scenes, boxes, objects)."""
    appearance = np.zeros_like(noise)
    for j in range(appearances.shape[1]):
        appearance += overlaps[:, :, j, None] * appearances[:, j, None, :]
    appearance += sigma * noise
    geometry = [0.5 * (boxes[..., :2] + boxes[..., 2:]), boxes[..., 2:] - boxes[..., :2]]  # as encode_box has them
    return np.concatenate([appearance, GEOMETRY_SCALE * np.concatenate(geometry, axis=-1)], axis=-1)


def _scenes(universe: Universe, ids, appearances, scene_ids, per: int, rng, g: int, n: int, jitter=0.0) -> list:
    """Scenes of `g` objects and `n` proposals, scene i fronted by class ids[i // per]. Each scene's draws come in
    turn, in a fixed order (per object a pool index, but for the first, and four box uniforms; the objects' noise;
    four uniforms per anchor; the proposals' noise); then all the scenes are computed at once, as arrays."""
    count, app = len(scene_ids), appearances.shape[1]
    picks, box_u, anchor_u = np.empty((count, g), dtype=np.intp), np.empty((count, g, 4)), np.empty((count, n, 4))
    picks[:, 0], noise = np.array(scene_ids) // per, np.empty((count, g + n, app))  # object 0: the anchor class
    for k in range(count):
        box_u[k, 0] = rng.random(4)
        for j in range(1, g):
            picks[k, j] = rng.integers(0, len(ids))
            box_u[k, j] = rng.random(4)
        noise[k, :g] = rng.normal(size=(g, app))
        anchor_u[k] = rng.random((n, 4))
        noise[k, g:] = rng.normal(size=(n, app))
    boxes, half = _sampled_boxes(box_u), n // 2
    # A jittered copy is decode_box's arithmetic on deltas within +-jitter, which refuses a non-finite or empty box.
    deltas = (-jitter + (jitter - -jitter) * anchor_u[:, :half]).reshape(-1, 4)
    jittered = decode_box(boxes[:, np.arange(half) % g].reshape(-1, 4), deltas).reshape(count, half, 4)
    rows = np.concatenate([boxes, jittered, _sampled_boxes(anchor_u[:, half:])], axis=1)  # objects, then anchors
    overlaps = _iou_table(rows, boxes)
    descriptors = _descriptors(appearances[picks], rows, overlaps, noise, universe.config.sigma_inst)
    # IoU >= 0.5 rule against the max-overlap object (the first on ties).
    anchors, best, scene = rows[:, g:], overlaps[:, g:].argmax(axis=2), np.arange(count)[:, None]
    matched = overlaps[:, g:].max(axis=2) >= FG_IOU_THRESHOLD
    targets = encode_box(anchors.reshape(-1, 4), boxes[scene, best].reshape(-1, 4))
    targets, gt_ids = np.where(matched[..., None], targets.reshape(count, n, 4), 0.0), ids[picks]
    labels = np.where(matched, gt_ids[scene, best], 0)
    parts = zip(descriptors[:, g:], anchors, labels, targets, gt_ids, boxes, descriptors[:, :g])
    return [Scene(scene_id, *arrays) for scene_id, arrays in zip(scene_ids, parts)]


def _pool(universe: Universe, classes) -> tuple[np.ndarray, np.ndarray]:
    """The class ids, ascending, as int64, and each one's appearance: the descriptor projection of its
    attribute, one mat-vec per class (not a GEMM). Refuses an empty list, an id outside 1..n and a repeated id."""
    ids, n = np.array(sorted(classes), dtype=np.int64), len(universe.attributes)
    if not len(ids):
        raise ValueError("no classes to generate for")
    if ids[0] < 1 or ids[-1] > n:
        raise ValueError(f"class ids must lie in 1..{n}, got {ids.tolist()}")
    repeated = sorted(set(ids[1:][ids[1:] == ids[:-1]].tolist()))  # sorted, so a repeat is its neighbour
    if repeated:
        raise ValueError(f"class ids must not repeat, got {repeated} more than once")
    return ids, np.array([universe.descriptor_projection @ universe.attributes[cid - 1] for cid in ids.tolist()])


def make_dataset(universe: Universe, classes, scenes_per_class: int, data: DataConfig, seed: int) -> list[Scene]:
    """Scenes grouped per anchor class id (each class fronts `scenes_per_class`
    scenes; extra objects are drawn from the same class pool), shaped by
    `data`'s per-scene counts and jitter. An anchor that is not a finite,
    positive-area box (an extreme jitter) raises InvalidBox."""
    ids, appearances = _pool(universe, classes)
    if scenes_per_class < 1:
        raise ValueError(f"scenes_per_class must be >= 1, got {scenes_per_class}")
    rng, scenes, per = np.random.default_rng([seed, _STREAM_DATASET]), [], scenes_per_class
    shape = (data.objects_per_scene, data.proposals_per_scene, data.jitter)
    # A class's scenes at a time: arrays this small the allocator reuses, so repeated calls raise no peak memory.
    with np.errstate(over="ignore", invalid="ignore"):  # what overflows is refused as a box, not warned about
        for k in range(len(ids)):
            scenes += _scenes(universe, ids, appearances, range(k * per, (k + 1) * per), per, rng, *shape)
    return scenes


def exemplars_for(universe: Universe, classes, shots: int, seed: int) -> dict[int, np.ndarray]:
    """Draw `shots` isolated exemplars per class id, as a (shots, m_in) slice of one array: each the object of a
    scene with that one object and no proposal, the instance model at IoU 1 on a fresh random box, drawn before
    its noise. Uses its own seed stream."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    ids, appearances = _pool(universe, classes)
    rng = np.random.default_rng([seed, _STREAM_EXEMPLARS])
    scenes = _scenes(universe, ids, appearances, range(len(ids) * shots), shots, rng, 1, 0)  # one object, no proposal
    rows = np.concatenate([scene.gt_descriptors for scene in scenes])
    return dict(zip(ids.tolist(), rows.reshape(len(ids), shots, -1)))


def semantic_vectors(universe: Universe) -> dict[int, np.ndarray]:
    return dict(enumerate(universe.semantics, start=1))


def save_universe(path, universe: Universe) -> None:
    """The meta line is the universe's config plus its seed; the body holds
    four tensors: attributes and semantics, whose row i is class i + 1, base
    first, then the semantic and descriptor projections."""
    tensors = [(name, getattr(universe, name)) for name in _UNIVERSE_TENSORS]
    write_tensor_file(path, UNIVERSE_HEADER, "meta", {**asdict(universe.config), "seed": universe.seed}, tensors)


def load_universe(path) -> Universe:
    """Inverse of save_universe. The meta line must be what save_universe
    writes: a UniverseConfig, checked like a config file's universe section,
    plus an integer seed >= 0. The body's four tensors must come in
    save_universe's order, in the shapes the meta line gives."""
    meta, tensors = read_tensor_file(path, UNIVERSE_HEADER, "meta")
    config = fill_dataclass(UniverseConfig, {key: v for key, v in meta.items() if key != "seed"}, f"{path}: universe")
    seed = meta.get("seed")
    if type(seed) is not int or seed < 0:
        raise ValueError(f"{path}: universe seed must be an integer >= 0, got {seed!r}")
    if {**asdict(config), "seed": seed} != meta:
        raise ValueError(f"{path}: universe meta line lacks {sorted(set(asdict(config)) - set(meta))}")
    n = config.n_base + config.n_novel
    shapes = [(n, config.k), (n, config.d_sem), (config.d_sem, config.k), (config.m_in - GEOMETRY_FEATURES, config.k)]
    if [(name, arr.shape) for name, arr in tensors.items()] != list(zip(_UNIVERSE_TENSORS, shapes)):
        raise ValueError(f"{path}: universe body does not match its meta line {meta}")
    return Universe(**tensors, config=config, seed=seed)


def _dataset_meta(path, scenes) -> dict:
    arrays = (rows for scene in scenes for rows in (scene.descriptors, scene.gt_descriptors) if len(rows))
    widths = list(dict.fromkeys(rows.shape[1] for rows in arrays))
    if len(widths) > 1:
        raise ValueError(f"{path}: scenes mix descriptor widths {widths[0]} and {widths[1]}")
    return {"scene_count": len(scenes), "m_in": next(iter(widths), 0)}


def _dataset_shapes(scene_count: int, proposals: int, objects: int, m_in: int) -> dict[str, tuple[int, int]]:
    """A dataset file's tensors in file order, each with its shape, a column per value: the scene ids, where each
    scene's proposals and objects start (then their totals), and Scene's arrays over every scene, end to end."""
    widths = {"scene_ids": 1, "proposal_offsets": 1, "object_offsets": 1, "descriptors": m_in, "anchors": 4,
              "labels": 1, "targets": 4, "gt_ids": 1, "gt_boxes": 4, "gt_descriptors": m_in}
    rows = [scene_count, scene_count + 1, scene_count + 1] + [proposals] * 4 + [objects] * 3
    return {name: (count, width) for count, (name, width) in zip(rows, widths.items())}


def save_dataset(path, scenes) -> None:
    """The array store that load_dataset slices into scenes, one tensor per array of _dataset_shapes.
    Ids and labels are exact as float64 below 2**53. Mixed descriptor widths are refused before the file opens."""
    scenes = list(scenes)
    meta = _dataset_meta(path, scenes)
    ends = [np.cumsum([0, *(len(getattr(scene, rows)) for scene in scenes)]) for rows in ("labels", "gt_ids")]
    shapes = _dataset_shapes(len(scenes), ends[0][-1], ends[1][-1], meta["m_in"])
    store = [[scene.scene_id for scene in scenes], *ends]
    store += [np.concatenate([[], *(getattr(scene, name).ravel() for scene in scenes)]) for name in list(shapes)[3:]]
    write_tensor_file(path, DATASET_HEADER, "meta", meta, zip(shapes, map(np.reshape, store, shapes.values())))


def load_dataset(path) -> list[Scene]:
    """Inverse of save_dataset: scenes are slices of the file's tensors, whose names and shapes must agree with the
    meta m_in and each other. Refuses non-integer ids, labels or offsets, offsets not rising from 0 to their row count,
    class ids < 1, labels < 0, background targets, boxes not positive-area (InvalidBox) and a meta not the scenes'."""
    meta, store = read_tensor_file(path, DATASET_HEADER, "meta")
    shapes = {name: arr.shape for name, arr in store.items()}
    want = _dataset_shapes(*(len(store.get(name, ())) for name in ("scene_ids", "labels", "gt_ids")), meta.get("m_in"))
    if list(shapes.items()) != list(want.items()):
        raise ValueError(f"{path}: dataset tensors {shapes} disagree with each other or the meta m_in; want {want}")
    ids = {name: store[name][:, 0] for name in ("scene_ids", "proposal_offsets", "object_offsets", "labels", "gt_ids")}
    for name, column in ids.items():
        bad = (column != np.trunc(column)) | (abs(column) > 2**53)
        if bad.any():
            raise ValueError(f"{path}: {name} holds {column[np.argmax(bad)]:g}, not an integer")
    for name, rows in (("proposal_offsets", len(ids["labels"])), ("object_offsets", len(ids["gt_ids"]))):
        if ids[name][0] != 0 or ids[name][-1] != rows or (ids[name][1:] < ids[name][:-1]).any():
            raise ValueError(f"{path}: {name} must rise from 0 to {rows} and never fall")
    labels, gt_ids, targets = ids["labels"], ids["gt_ids"], store["targets"]
    boxes = np.concatenate([store["gt_boxes"], store["anchors"]])
    checks = (
        (ValueError, gt_ids < 1, gt_ids, "object class id must be >= 1 (0 is background), got {:g}"),
        (ValueError, labels < 0, labels, "proposal label must be >= 0 (0 is background), got {:g}"),
        (ValueError, (labels == 0) & (targets != 0).any(axis=1), targets, "background proposal has targets {}"),
        (InvalidBox, ~(boxes[:, :2] < boxes[:, 2:]).all(axis=1), boxes, "degenerate box corners: {}"),
    )
    for error, bad, values, message in checks:
        if bad.any():
            raise error(f"{path}: " + message.format(values[np.argmax(bad)].tolist()))
    ints = {name: column.astype(np.int64) for name, column in ids.items()}
    columns = [ints.get(name, store[name]) for name in list(want)[3:]]
    ends = [ints["proposal_offsets"].tolist()] * 4 + [ints["object_offsets"].tolist()] * 3
    scenes = [Scene(sid, *(arr[end[k] : end[k + 1]] for arr, end in zip(columns, ends)))
              for k, sid in enumerate(ints["scene_ids"].tolist())]
    if _dataset_meta(path, scenes) != meta or not all(type(value) is int for value in meta.values()):
        raise ValueError(f"{path}: body holds {_dataset_meta(path, scenes)}, meta says {meta}")
    return scenes
