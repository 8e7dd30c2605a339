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
lockstep, and their first M-step, which reads no lam, once per set; it
refuses an empty grid and a vector set that lacks a dataset class.

Everything is a pure function of (dataset, semantic vectors, config): fixed
seeds, fixed shuffle order, fixed reduction order, so reruns are bit-identical.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, astuple, dataclass, fields, is_dataclass, replace
from functools import reduce
from operator import add

import numpy as np

from .embedder import (
    CheckpointError,
    EmbedderParams,
    clone_params,
    forward_batch,
    forward_batch_with_grad,
    init_params,
    loss_table,
    param_layout,
    params_from_tensors,
    sgd_step,
)
from .numkernel import DimensionMismatch, EmptyInput, NonFiniteValue
from .objective import loss_breakdown, scoring_matrix
from .prototype_store import PrototypeSet, UnknownClass, e_step_update, init_from_semantic
from .textio import read_tensor_file, write_csv, write_tensor_file

CHECKPOINT_HEADER = "morphdet-checkpoint v3"
PICK_PLAN_BUDGET = 2 << 30  # bytes; m_step's pick plan and loss stash and train_grid's network stacks are refused above it, unallocated


class TrainingDiverged(RuntimeError):
    """The loss became non-finite; training cannot continue."""


class MissingClassSamples(ValueError):
    """A base class has no ground-truth samples to refit its prototype from."""


class ConfigError(ValueError):
    """A settings section or a config mapping had unknown keys or unusable values."""


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
        check_settings(
            self, em_iterations=">= 1", m_step_epochs=">= 0", batch_size=">= 1", learning_rate="> 0",
            lr_decay_factor="(0, 1]", lr_decay_at="(0, 1]", momentum="[0, 1)", lam="[0, 1]", seed=">= 0",
            hidden_sizes=">= 1", fg_weight=">= 0", bg_weight=">= 0", bbox_weight=">= 0",
        )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _meets(value, rule: str) -> bool:
    """Whether `value` meets `rule`: a bound such as ">= 1" or "> 0", or an interval such as "(0, 1]"."""
    if rule[0] in "([":
        lo, hi = (float(end) for end in rule[1:-1].split(","))
        return (lo < value if rule[0] == "(" else lo <= value) and (value < hi if rule[-1] == ")" else value <= hi)
    op, bound = rule.split()
    return value > float(bound) if op == ">" else value >= float(bound)


def check_settings(section, **rules) -> None:
    """Refuse, as ConfigError naming the field, a value of the settings dataclass `section` that is not of its
    default's kind (an int that is not a bool; a finite int or float; a list or tuple of such ints, stored as a
    tuple of widths; the default's own section type), or that breaks its field's rule, which is also the
    message's text: a bound such as ">= 1" ("finite and > 0" for a number) or an interval such as "(0, 1]"."""
    for f in fields(section):
        value, default = getattr(section, f.name), f.default
        if is_dataclass(default):
            ok, kind = isinstance(value, type(default)), f"a {type(default).__name__}"
        elif isinstance(default, int):
            ok, kind = _is_int(value), "an integer"
        elif isinstance(default, float):
            ok = (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max
            kind = "a finite number"
        else:
            ok, kind = isinstance(value, (list, tuple)) and all(map(_is_int, value)), "a list of integers"
        if not ok:
            raise ConfigError(f"{f.name} must be {kind}, got {value!r}")
        rule = rules.get(f.name)
        if isinstance(default, tuple):
            object.__setattr__(section, f.name, tuple(value))
            if rule and not all(_meets(width, rule) for width in value):
                raise ConfigError(f"{f.name} widths must all be {rule}, got {list(value)}")
        elif rule and not _meets(value, rule):
            must = f"lie in {rule}" if rule[0] in "([" else f"be finite and {rule}" if isinstance(default, float) else f"be {rule}"
            raise ConfigError(f"{f.name} must {must}, got {value}")


def fill_dataclass(cls, data, where: str):
    """`cls` built from a parsed JSON mapping, each mapping given for a section field filled as that section;
    unknown keys raise ConfigError, and so do the values that `cls` refuses, prefixed with `where`."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(data).__name__}")
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = sorted(set(data) - set(defaults))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    values = {name: fill_dataclass(type(defaults[name]), value, name)  # a section refused under its own name
              if is_dataclass(defaults[name]) and isinstance(value, dict) else value for name, value in data.items()}
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


def _joined(scenes, keys) -> tuple[np.ndarray, ...]:
    """Each of the scenes' `keys` arrays joined in scene order; a NaN or an infinity in one raises
    NonFiniteValue naming the first scene and array that hold one."""
    arrays = tuple(np.concatenate([getattr(scene, key) for scene in scenes]) for key in keys)
    if not all(np.isfinite(joined).all() for joined in arrays):
        sid, key = next((s.scene_id, k) for s in scenes for k in keys if not np.isfinite(getattr(s, k)).all())
        raise NonFiniteValue(f"scene {sid} holds a non-finite value in its {key}")
    return arrays


def proposal_arrays(dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every proposal of `dataset`, in scene order, as descriptors (N, m_in),
    labels (N,) and box targets (N, 4), zero on background rows; all finite."""
    scenes = [scene for scene in dataset if len(scene.labels)]
    if not scenes:
        raise EmptyInput("dataset has no proposals")
    return _joined(scenes, ("descriptors", "labels", "targets"))


def ground_truth_arrays(dataset) -> tuple[np.ndarray, np.ndarray]:
    """Every ground-truth object of `dataset`, in scene order, as class ids
    (G,) and descriptors (G, m_in); all finite."""
    scenes = [scene for scene in dataset if len(scene.gt_ids)]
    if not scenes:
        raise EmptyInput("dataset has no ground-truth objects")
    return _joined(scenes, ("gt_ids", "gt_descriptors"))


def _pick_plan(fg_pool, bg_pool, n_fg: int, batch_size: int, steps: int, rng) -> np.ndarray:
    """An M-step's picks, (steps, batch_size): n_fg foreground, then
    background. Each pool walks through rng permutations of itself, drawing
    the next at the step that first needs it, foreground before background.
    Each permutation is written into the one plan as it is drawn."""
    plan = np.empty((steps, batch_size), dtype=np.intp)
    parts = [(fg_pool, plan[:, :n_fg]), (bg_pool, plan[:, n_fg:])]
    draws = sorted((start // cols.shape[1], side, start) for side, (pool, cols) in enumerate(parts) if cols.size
                   for start in range(0, cols.size, len(pool)))  # (step, side, first flat index) of each draw
    for _, side, start in draws:
        pool, cols = parts[side]
        cols.flat[start : start + len(pool)] = pool[rng.permutation(len(pool))][: cols.size - start]
    return plan


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
    states as they are and no records. A pick plan or a per-epoch loss stash
    larger than PICK_PLAN_BUDGET bytes is refused with ConfigError before the
    plan is drawn.

    The runs step in lockstep, one forward_batch_with_grad and sgd_step per
    step, on an (L, P) stack of copies of their parameters (one run keeps its
    1-D flat), each scored against its own prototype table. One gradient
    buffer, an EmbedderParams of the stack's layout, and one velocity vector
    serve every step. Each step's loss rows are kept, and one loss_breakdown
    reduces the epoch's. The input states are left as they were; each
    returned state holds a copy of its row. A non-finite loss raises
    TrainingDiverged at the end of its epoch, naming the run of the first
    such step (steps in order, then runs) by names[k], "run k" by default;
    the epoch steps on under np.errstate, so numpy warns of nothing.
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
    plan_bytes = config.m_step_epochs * steps_per_epoch * config.batch_size * np.dtype(np.intp).itemsize
    if plan_bytes > PICK_PLAN_BUDGET:
        raise ConfigError(
            f"m_step_epochs {config.m_step_epochs} x batch_size {config.batch_size} needs a pick plan of "
            f"{plan_bytes:,} bytes, over the budget of {PICK_PLAN_BUDGET:,}"
        )
    if not len(bg_pool):
        n_fg = config.batch_size
    else:
        n_fg = max(1, config.batch_size // 4) if len(fg_pool) else 0
    stash_bytes = steps_per_epoch * len(states) * (config.batch_size + 4 * n_fg) * 8  # each row's nll, each fg row's 4 residuals
    if stash_bytes > PICK_PLAN_BUDGET:
        raise ConfigError(
            f"batch_size {config.batch_size} x {steps_per_epoch} steps x {len(states)} runs needs a per-epoch loss "
            f"stash of {stash_bytes:,} bytes, over the budget of {PICK_PLAN_BUDGET:,}"
        )
    rng = np.random.default_rng([config.seed, 17, iteration])
    plan = _pick_plan(fg_pool, bg_pool, n_fg, config.batch_size, config.m_step_epochs * steps_per_epoch, rng)
    cols = np.where(labels > 0, np.searchsorted(np.asarray(ids), labels) + 1, 0)  # own logit column

    params = EmbedderParams(states[0].params.sizes, _stack([s.params.flat for s in states]))
    table = _stack([loss_table(scoring_matrix(s.prototypes, params.feature_dim)) for s in states])
    grad = EmbedderParams(params.sizes, np.empty_like(params.flat))
    velocity = np.zeros_like(params.flat)
    names = names or [f"run {k}" for k in range(len(states))]
    records: list[list[EpochRecord]] = [[] for _ in states]
    for epoch in range(config.m_step_epochs):
        lr = _epoch_lr(config, epoch)
        picks = plan[epoch * steps_per_epoch : (epoch + 1) * steps_per_epoch]
        batch_X, batch_cols, batch_targets = X[picks], cols[picks], targets[picks[:, :n_fg]]
        stash = []
        with np.errstate(over="ignore", invalid="ignore"):  # a diverging run steps on quietly to the check below
            for step in range(steps_per_epoch):
                stash.append(forward_batch_with_grad(
                    params, batch_X[step], batch_cols[step], batch_targets[step], table, config, grad
                ))
                sgd_step(params, grad.flat, lr, velocity, config.momentum)
            losses = loss_breakdown(tuple(map(np.stack, zip(*stash))), config)
        terms = np.stack(losses, axis=-1).reshape(steps_per_epoch, len(states), 4)
        if len(bad := np.argwhere(~np.isfinite(terms[..., 3]))):  # (step, run) pairs, step-major as the steps ran
            step, k = bad[0]
            raise TrainingDiverged(f"{names[k]}: non-finite loss at epoch {epoch} (total {terms[step, k, 3]})")
        for run_records, run_terms in zip(records, terms.transpose(1, 2, 0).tolist()):  # each term's steps, in order
            sums = [reduce(add, steps, 0.0) for steps in run_terms]  # Python floats from 0.0 (np.add.reduce is pairwise)
            run_records.append(EpochRecord(iteration, epoch, *(total / steps_per_epoch for total in sums)))
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
    n_runs = len(vector_sets) * len(configs)  # each run's parameter, velocity and gradient rows, 8 bytes a value
    if (net_bytes := 24 * n_runs * param_layout((X.shape[1], *config.hidden_sizes, protos[0].dim))[1]) > PICK_PLAN_BUDGET:
        raise ConfigError(f"hidden_sizes {list(config.hidden_sizes)} makes {n_runs}-run parameter, velocity and "
                          f"gradient stacks of {net_bytes:,} bytes, over the budget of {PICK_PLAN_BUDGET:,}")
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
    tensors = [*state.params.named_tensors(), ("prototypes", protos.matrix)]
    write_tensor_file(path, CHECKPOINT_HEADER, "config", config, tensors)


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
