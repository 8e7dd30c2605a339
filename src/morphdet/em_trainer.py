"""Alternating training of the embedder and its class prototypes.

Each iteration runs an M-step (minibatch SGD on the network, optionally with
momentum, prototypes frozen) and then an E-step (prototypes refit toward
per-class mean features of the ground-truth boxes under the frozen network,
blended with the old prototypes). Prototypes start from the base classes'
semantic vectors. A run stacks its proposals and its ground truth into arrays
once; both steps read those arrays, and every setting from the state's config.

Each M-step maps its labels and plans its batches once, then trains a
private copy of the network parameters in place, so the state handed to it,
and every snapshot, stays as it was. A snapshot is captured after every
M-step; the K-th snapshot is "the detector after K iterations", which is
what ablations over the iteration count evaluate, and the last snapshot is
the detector train() returns, so no E-step follows the last M-step.
train_grid steps runs that differ only in lam and starting prototypes in
lockstep, and their first M-step, which reads no lam, once per set.

Everything is a pure function of (dataset, semantic vectors, config): fixed
seeds, fixed shuffle order, fixed reduction order, so reruns are bit-identical.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, astuple, dataclass, fields, is_dataclass, replace

import numpy as np

from .embedder import (
    CheckpointError,
    EmbedderParams,
    clone_params,
    forward_batch,
    forward_batch_with_grad,
    init_params,
    loss_table,
    params_from_tensors,
    params_to_lines,
    sgd_step,
)
from .numkernel import DimensionMismatch, EmptyInput
from .objective import scoring_matrix
from .prototype_store import PrototypeSet, UnknownClass, e_step_update, init_from_semantic
from .textio import read_tensor_file, tensor_line, write_csv, write_record_file

CHECKPOINT_HEADER = "morphdet-checkpoint v3"


class TrainingDiverged(RuntimeError):
    """The loss became non-finite; training cannot continue."""


class MissingClassSamples(ValueError):
    """A base class has no ground-truth samples to refit its prototype from."""


class ConfigError(ValueError):
    """A config mapping had unknown keys or unusable values."""


@dataclass(frozen=True)
class TrainConfig:
    em_iterations: int = 3
    m_step_epochs: int = 6
    batch_size: int = 32
    learning_rate: float = 0.05
    lr_decay_factor: float = 0.1
    lr_decay_at: float = 0.8  # fraction of epochs after which the decay kicks in
    momentum: float = 0.0
    lam: float = 0.5  # weight kept on the old prototype in each E-step blend
    seed: int = 0
    hidden_sizes: tuple[int, ...] = (64, 64)
    fg_weight: float = 1.0
    bg_weight: float = 1.0
    bbox_weight: float = 1.0

    def __post_init__(self):
        if self.em_iterations < 1:
            raise ValueError(f"em_iterations must be >= 1, got {self.em_iterations}")
        if self.m_step_epochs < 0:
            raise ValueError(f"m_step_epochs must be >= 0, got {self.m_step_epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 < self.lr_decay_factor <= 1:
            raise ValueError(f"lr_decay_factor must lie in (0, 1], got {self.lr_decay_factor}")
        if not 0 < self.lr_decay_at <= 1:
            raise ValueError(f"lr_decay_at must lie in (0, 1], got {self.lr_decay_at}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not 0 <= self.lam <= 1:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("fg_weight", "bg_weight", "bbox_weight"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if not all(h >= 1 for h in self.hidden_sizes):
            raise ValueError(f"hidden_sizes widths must all be >= 1, got {list(self.hidden_sizes)}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _checked(where: str, name: str, default, value):
    """`value` for the field `name` whose default is `default`, checked against
    the default's type: int (not bool), a finite int or float, or a list of
    ints for a tuple; a nested section is filled recursively."""
    if is_dataclass(default):
        return fill_dataclass(type(default), value, name)
    if isinstance(default, int):
        ok, kind = _is_int(value), "an integer"
    elif isinstance(default, float):
        ok = (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max
        kind = "a finite number"
    else:
        ok, kind = isinstance(value, list) and all(map(_is_int, value)), "a list of integers"
    if not ok:
        raise ConfigError(f"{where}: {name} must be {kind}, got {value!r}")
    return value


def fill_dataclass(cls, data, where: str):
    """`cls` built from a parsed JSON mapping; unknown keys, values of the
    wrong type and values `cls` refuses raise ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(data).__name__}")
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = sorted(set(data) - set(defaults))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    values = {name: _checked(where, name, defaults[name], value) for name, value in data.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True, eq=False)
class DetectorState:
    """The full detector: network parameters, at least one prototype, and the
    config that produced them, whose hidden_sizes must be the network's."""

    params: EmbedderParams
    prototypes: PrototypeSet
    config: TrainConfig

    def __post_init__(self):
        if self.params.feature_dim != self.prototypes.dim:
            raise DimensionMismatch(
                f"feature dim {self.params.feature_dim} != prototype dim {self.prototypes.dim}"
            )
        config_sizes, network_sizes = self.config.hidden_sizes, self.params.hidden_sizes
        if config_sizes != network_sizes:
            raise DimensionMismatch(f"train config hidden_sizes {list(config_sizes)} != network {list(network_sizes)}")
        if not self.prototypes.ids:
            raise EmptyInput("a detector needs at least one class prototype")


@dataclass(frozen=True)
class EpochRecord:
    iteration: int
    epoch: int
    fg: float
    bg: float
    bbox: float
    total: float


@dataclass(frozen=True, eq=False)
class TrainResult:
    snapshots: list[DetectorState]  # one per EM iteration, captured after its M-step
    metrics: list[EpochRecord]

    @property
    def state(self) -> DetectorState:
        """The last snapshot: the operative detector."""
        return self.snapshots[-1]


def proposal_arrays(dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every proposal of `dataset`, in scene order, as descriptors (N, m_in),
    labels (N,) and box targets (N, 4), zero on background rows."""
    scenes = [scene for scene in dataset if len(scene.labels)]
    if not scenes:
        raise EmptyInput("dataset has no proposals")
    return tuple(np.concatenate([getattr(scene, key) for scene in scenes]) for key in ("descriptors", "labels", "targets"))


def ground_truth_arrays(dataset) -> tuple[np.ndarray, np.ndarray]:
    """Every ground-truth object of `dataset`, in scene order, as class ids
    (G,) and descriptors (G, m_in)."""
    scenes = [scene for scene in dataset if len(scene.gt_ids)]
    if not scenes:
        raise EmptyInput("dataset has no ground-truth objects")
    return np.concatenate([scene.gt_ids for scene in scenes]), np.concatenate([scene.gt_descriptors for scene in scenes])


def _pick_plan(fg_pool, bg_pool, n_fg: int, batch_size: int, steps: int, rng) -> np.ndarray:
    """An M-step's picks, (steps, batch_size): n_fg foreground, then
    background. Each pool walks through rng permutations of itself, drawing
    the next at the step that first needs it, foreground before background."""
    parts = ((fg_pool, n_fg), (bg_pool, batch_size - n_fg))
    draws = sorted(((k * len(pool)) // per, side) for side, (pool, per) in enumerate(parts) if per
                   for k in range(math.ceil(steps * per / len(pool))))  # (step, pool) of each draw
    perms: tuple[list, list] = ([np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)])
    for _, side in draws:
        pool = parts[side][0]
        perms[side].append(pool[rng.permutation(len(pool))])
    return np.hstack([np.concatenate(p)[: steps * per].reshape(steps, per) for p, (_, per) in zip(perms, parts)])


def _epoch_lr(config: TrainConfig, epoch: int) -> float:
    """Schedule restarts every M-step: base rate, then times lr_decay_factor
    for the tail of the epochs."""
    decay_epoch = math.ceil(config.lr_decay_at * config.m_step_epochs)
    if epoch >= decay_epoch:
        return config.learning_rate * config.lr_decay_factor
    return config.learning_rate


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """Runs' arrays on a new leading axis; one run's copied as it is (a (1, P) stack steps slower)."""
    return arrays[0].copy() if len(arrays) == 1 else np.stack(arrays)


def m_step(states, X, labels, targets, iteration: int = 0, names=None) -> tuple[list[DetectorState], list[list[EpochRecord]]]:
    """SGD on the network with prototypes frozen, on proposal_arrays' output,
    for `states`: runs that differ at most in prototype values and config.lam,
    which no M-step reads. `iteration` seeds the shuffle and tags the one
    record of mean losses returned per run and epoch. Batches mix foreground
    and background proposals at 1:3 where both pools allow, at least one of
    each, so a batch size below 2 is refused when both pools are non-empty; a
    missing pool fills the batch from the other. Zero epochs returns the
    states as they are and no records.

    The runs step in lockstep, one forward_batch_with_grad and sgd_step per
    step, on an (L, P) stack of copies of their parameters (one run keeps its
    1-D flat) with one gradient and one velocity buffer, each scored against
    its own prototype table. The input states are left as they were; each
    returned state holds a copy of its row. A non-finite loss raises
    TrainingDiverged naming the run by names[k], "run k" by default.
    """
    if not states:
        raise EmptyInput("an M-step needs at least one run")
    config, ids = states[0].config, states[0].prototypes.ids
    if any(s.prototypes.ids != ids or replace(s.config, lam=config.lam) != config for s in states):
        raise ConfigError("runs stepped together must share their class ids and every setting but lam")
    unknown = set(labels[labels > 0].tolist()) - set(ids)
    if unknown:
        raise UnknownClass(f"dataset labels {sorted(unknown)} have no prototype")
    fg_pool = np.flatnonzero(labels > 0)
    bg_pool = np.flatnonzero(labels == 0)
    if len(fg_pool) and len(bg_pool) and config.batch_size < 2:
        raise ConfigError(
            f"batch_size {config.batch_size} leaves no room for a foreground row beside background; use 2 or more"
        )
    if config.m_step_epochs == 0:
        return list(states), [[] for _ in states]

    steps_per_epoch = max(1, math.ceil(len(labels) / config.batch_size))
    if not len(bg_pool):
        n_fg = config.batch_size
    else:
        n_fg = max(1, config.batch_size // 4) if len(fg_pool) else 0
    rng = np.random.default_rng([config.seed, 17, iteration])
    plan = _pick_plan(fg_pool, bg_pool, n_fg, config.batch_size, config.m_step_epochs * steps_per_epoch, rng)
    cols = np.where(labels > 0, np.searchsorted(np.asarray(ids), labels) + 1, 0)  # own logit column

    params = EmbedderParams(states[0].params.sizes, _stack([s.params.flat for s in states]))
    table = _stack([loss_table(scoring_matrix(s.prototypes, params.feature_dim)) for s in states])
    grad = np.empty_like(params.flat)
    velocity = np.zeros_like(params.flat)
    names = names or [f"run {k}" for k in range(len(states))]
    records: list[list[EpochRecord]] = [[] for _ in states]
    for epoch in range(config.m_step_epochs):
        lr = _epoch_lr(config, epoch)
        picks = plan[epoch * steps_per_epoch : (epoch + 1) * steps_per_epoch]
        batch_X, batch_cols, batch_targets = X[picks], cols[picks], targets[picks[:, :n_fg]]
        sums = [[0.0] * 4 for _ in states]
        for step in range(steps_per_epoch):
            breakdown, _ = forward_batch_with_grad(
                params, batch_X[step], batch_cols[step], n_fg, batch_targets[step], table, config, out=grad
            )
            for k, loss in enumerate(zip(*breakdown) if len(states) > 1 else [breakdown]):
                if not math.isfinite(loss[3]):
                    raise TrainingDiverged(f"{names[k]}: non-finite loss at epoch {epoch} (total {loss[3]})")
                sums[k] = [total + term for total, term in zip(sums[k], loss)]
            sgd_step(params, grad, lr, velocity, config.momentum)
        for run_records, run_sums in zip(records, sums):
            run_records.append(EpochRecord(iteration, epoch, *(float(total / steps_per_epoch) for total in run_sums)))
    rows = params.flat.reshape(len(states), -1)
    return [replace(s, params=EmbedderParams(params.sizes, row.copy())) for s, row in zip(states, rows)], records


def e_step(state: DetectorState, gt_ids, gt_X) -> DetectorState:
    """Refit base prototypes toward per-class mean features of
    ground_truth_arrays' output under the frozen network, keeping weight
    state.config.lam on the old prototypes."""
    base_ids = set(state.prototypes.base)
    stray = sorted(set(gt_ids.tolist()) - base_ids)
    if stray:
        raise UnknownClass(f"ground-truth classes {stray} have no base prototype")
    feats, _, _ = forward_batch(state.params, gt_X)
    means = _class_means(gt_ids, feats)
    missing = sorted(base_ids - set(means))
    if missing:
        raise MissingClassSamples(f"no ground-truth samples for base classes {missing}")
    return replace(state, prototypes=e_step_update(state.prototypes, means, state.config.lam))


def train(dataset, semantic_vectors, config: TrainConfig = TrainConfig()) -> TrainResult:
    """Full alternating run: semantic prototype init, then em_iterations
    M-steps with an E-step between each two, snapshotting after each M-step.
    `semantic_vectors` maps class_id -> vector and must cover every class of
    the dataset; extra entries (e.g. novel classes kept for later) are ignored."""
    return train_grid(dataset, [semantic_vectors], config, [config.lam])[0][0]


def train_grid(dataset, vector_sets, config: TrainConfig, lams) -> list[list[TrainResult]]:
    """train() for every vector set and blend weight: results[s][j] is, bit
    for bit, train(dataset, vector_sets[s], replace(config, lam=lams[j])).
    The runs share the initial network and each M-step's batch plan, so each
    M-step steps them in lockstep: the first, which reads no lam, once per
    vector set. E-steps and snapshots are per run."""
    vector_sets, configs = list(vector_sets), [replace(config, lam=lam) for lam in lams]
    if not vector_sets or not configs:
        raise EmptyInput(f"a training grid needs vector sets and lams, got {len(vector_sets)} and {len(configs)}")
    dataset = list(dataset)
    X, labels, targets = proposal_arrays(dataset)
    gt_ids, gt_X = ground_truth_arrays(dataset)
    base_ids = sorted(set(labels[labels > 0].tolist()) | set(gt_ids.tolist()))
    for s, vectors in enumerate(vector_sets):
        missing = [cid for cid in base_ids if cid not in vectors]
        if missing:
            raise UnknownClass(f"vector set {s} has no vector for dataset classes {missing}")

    protos = [init_from_semantic({cid: vectors[cid] for cid in base_ids}) for vectors in vector_sets]
    params = init_params(X.shape[1], config.hidden_sizes, protos[0].dim, config.seed)
    sets = range(len(protos))
    names = [f"vector set {s}, every lam" for s in sets]
    firsts, first_records = m_step([DetectorState(params, p, config) for p in protos], X, labels, targets, 1, names)
    runs = [(s, c) for s in sets for c in configs]
    names = [f"vector set {s}, lam {c.lam}" for s, c in runs]
    results = [
        TrainResult([replace(firsts[s], params=clone_params(firsts[s].params), config=c)], list(first_records[s]))
        for s, c in runs
    ]
    for iteration in range(2, config.em_iterations + 1):
        states, records = m_step([e_step(r.state, gt_ids, gt_X) for r in results], X, labels, targets, iteration, names)
        for result, state, new in zip(results, states, records):
            result.snapshots.append(state)
            result.metrics.extend(new)
    return [results[s * len(configs) : (s + 1) * len(configs)] for s in sets]


def visual_init_vectors(dataset, dim: int) -> dict[int, np.ndarray]:
    """Baseline prototype seeds: per-class means of the raw ground-truth
    descriptors, zero-padded or truncated to the prototype dimension."""
    means = _class_means(*ground_truth_arrays(dataset))
    return {
        cid: mean[:dim] if mean.shape[0] >= dim else np.concatenate([mean, np.zeros(dim - mean.shape[0])])
        for cid, mean in means.items()
    }


def _class_means(ids: np.ndarray, rows: np.ndarray) -> dict[int, np.ndarray]:
    """Mean row per class id, in ascending id order. Each class sums its rows
    in input order, then divides once: a running sum, which adds row after row
    at every width (an axis-0 `sum` of one-column rows sums pairwise)."""
    # np.unique would keep ~1 MB alive from its first call on.
    picks = {cid: rows[ids == cid] for cid in sorted(set(ids.tolist()))}
    return {cid: np.cumsum(mine, axis=0)[-1] / len(mine) for cid, mine in picks.items()}


def write_metrics_csv(path, records) -> None:
    write_csv(path, "iteration,epoch,fg_loss,bg_loss,bbox_loss,total_loss", map(astuple, records))


def save_checkpoint(path, state: DetectorState) -> None:
    """Full-detector checkpoint: versioned header, config line (training config,
    class ids, novel ids), every network tensor, then the prototype matrix."""
    protos = state.prototypes
    config = {"train": asdict(state.config), "class_ids": list(protos.ids), "novel_ids": sorted(protos.novel)}
    body = [*params_to_lines(state.params), tensor_line("prototypes", protos.matrix)]
    write_record_file(path, CHECKPOINT_HEADER, "config", config, body)


def load_checkpoint(path) -> DetectorState:
    """Inverse of save_checkpoint; every defect raises a CheckpointError that names the path once."""
    try:
        config, tensors = read_tensor_file(path, CHECKPOINT_HEADER, "config")
        if sorted(config) != ["class_ids", "novel_ids", "train"]:
            raise ValueError(f"config keys {sorted(config)} are not class_ids, novel_ids and train")
        tconfig = fill_dataclass(TrainConfig, config["train"], "checkpoint train config")
        ids, novel = config["class_ids"], config["novel_ids"]
        if not all(isinstance(group, list) and all(map(_is_int, group)) for group in (ids, novel)):
            raise ValueError(f"class_ids {ids!r} and novel_ids {novel!r} must be lists of integers")
        if "prototypes" not in tensors:
            raise ValueError("checkpoint is missing tensor 'prototypes'")
        protos = PrototypeSet(ids=tuple(ids), matrix=tensors.pop("prototypes"), novel=frozenset(novel))
        if sorted(protos.novel) != novel:
            raise ValueError(f"novel_ids must ascend without repeats, got {novel}")
        return DetectorState(params_from_tensors(tensors, tconfig.hidden_sizes), protos, tconfig)
    except (KeyError, TypeError, ValueError) as exc:  # the container reader's messages open with the path
        raise CheckpointError(f"{path}: {str(exc).removeprefix(f'{path}: ')}") from exc
