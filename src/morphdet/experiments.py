"""Canned toy-benchmark studies: iteration count, blend weight, prototype
initialization, and semantics-only registration. Each runner trains across
several seeds, writes a raw per-run CSV plus a seed-averaged summary CSV, and
returns both tables.

A World's base-class evaluation split, World.eval_base, is built on first
read from its own seed stream: `gen` writes it, the studies never read it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
import os

import numpy as np

from .em_trainer import ConfigError, TrainConfig, fill_dataclass, train, train_lambdas, visual_init_vectors
from .evalkit import evaluate
from .morph_inference import DetectConfig, morph
from .prototype_store import add_novel
from .textio import write_csv
from .toyworld import DataConfig, UniverseConfig, exemplars_for, make_dataset, make_universe, semantic_vectors

LAMBDA_GRID = (0.0, 0.3, 0.5, 0.7)


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's settings: a section each for the universe, the data, training
    and detection, plus the exemplar count per novel class and the number of
    seeds a study averages over. The JSON config file has the same shape."""

    universe: UniverseConfig = UniverseConfig()
    data: DataConfig = DataConfig()
    train: TrainConfig = TrainConfig()
    detect: DetectConfig = DetectConfig()
    shots: int = 5
    seeds: int = 5

    def __post_init__(self):
        if self.shots < 1:
            raise ConfigError(f"shots must be >= 1, got {self.shots}")
        if self.seeds < 1:
            raise ConfigError(f"seeds must be >= 1, got {self.seeds}")


def experiment_config_from_dict(data: dict) -> ExperimentConfig:
    """Build a validated config from parsed JSON; any key the schema does not
    declare, or any value of the wrong type, is an error, including in the
    nested sections."""
    return fill_dataclass(ExperimentConfig, data, "config root")


@dataclass(frozen=True, eq=False)
class World:
    """One seeded draw of the benchmark: classes, splits, and exemplars."""

    universe: object
    data: DataConfig
    train_scenes: list
    eval_novel: list
    exemplars: dict
    semantics: dict

    @cached_property
    def eval_base(self) -> list:
        """Base-class evaluation scenes, generated on first read. They come
        from their own seed stream, so when, or whether, they are built moves
        no other draw of the world."""
        d, u = self.data, self.universe
        return make_dataset(u, u.base, d.eval_scenes_per_class, d, u.seed + _EVAL_BASE)


# Stream offsets keeping the world's independent draws decoupled from the seed.
_TRAIN_DATA = 101
_EVAL_BASE = 202
_EVAL_NOVEL = 303
_EXEMPLARS = 404
_RANDOM_PROTOS = 505


def build_world(config: ExperimentConfig, seed: int) -> World:
    d = config.data
    universe = make_universe(config.universe, seed)
    return World(
        universe=universe,
        data=d,
        train_scenes=make_dataset(universe, universe.base, d.train_scenes_per_class, d, seed + _TRAIN_DATA),
        eval_novel=make_dataset(universe, universe.novel, d.eval_scenes_per_class, d, seed + _EVAL_NOVEL),
        exemplars=exemplars_for(universe, universe.novel, config.shots, seed + _EXEMPLARS),
        semantics=semantic_vectors(universe),
    )


def _tables(out_dir, name: str, header: str, raw):
    """(raw, summary) of a study whose raw rows are (seed, key, *values): the
    summary has one row per key, in first-seen order, with each value column
    averaged over the seeds. With an out_dir, creates it if missing and writes
    <name>_raw.csv and <name>_summary.csv, whose header drops the seed column."""
    groups: dict = {}
    for row in raw:
        groups.setdefault(row[1], []).append(row[2:])
    summary = [(key, *(float(np.mean(col)) for col in zip(*rows))) for key, rows in groups.items()]
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(os.path.join(out_dir, f"{name}_raw.csv"), header, raw)
        write_csv(os.path.join(out_dir, f"{name}_summary.csv"), header.partition(",")[2], summary)
    return raw, summary


def _trial_seeds(config: ExperimentConfig):
    return [config.train.seed + t for t in range(config.seeds)]


def _novel_ap50(state, world: World, config: ExperimentConfig) -> float:
    morphed = morph(state, world.exemplars)
    return evaluate(morphed, world.eval_novel, world.universe.base, world.universe.novel, config.detect).novel.ap50


def run_em_iterations(config: ExperimentConfig, out_dir=None):
    """Novel-class AP50 of each post-M-step snapshot, morphed with the same
    exemplars: the iteration-count trend."""
    raw = []
    for seed in _trial_seeds(config):
        world = build_world(config, seed)
        result = train(world.train_scenes, world.semantics, replace(config.train, seed=seed))
        for k, snap in enumerate(result.snapshots, start=1):
            raw.append((seed, k, _novel_ap50(snap, world, config)))
    return _tables(out_dir, "em_iterations", "seed,iteration,novel_ap50", raw)


def run_lambda(config: ExperimentConfig, out_dir=None):
    """Novel-class AP50 across the prototype blend-weight grid, trained from one first M-step per seed."""
    raw = []
    for seed in _trial_seeds(config):
        world = build_world(config, seed)
        results = train_lambdas(world.train_scenes, world.semantics, replace(config.train, seed=seed), LAMBDA_GRID)
        for lam, result in zip(LAMBDA_GRID, results):
            raw.append((seed, lam, _novel_ap50(result.state, world, config)))
    return _tables(out_dir, "lambda", "seed,lambda,novel_ap50", raw)


def run_init(config: ExperimentConfig, out_dir=None):
    """Semantic prototype initialization against per-class raw-descriptor
    means, scored on morphed novel-class AP50."""
    raw = []
    for seed in _trial_seeds(config):
        world = build_world(config, seed)
        tcfg = replace(config.train, seed=seed)
        sem = train(world.train_scenes, world.semantics, tcfg)
        visual_seeds = visual_init_vectors(world.train_scenes, world.universe.config.d_sem)
        vis = train(world.train_scenes, visual_seeds, tcfg)
        raw.append((seed, "semantic", _novel_ap50(sem.state, world, config)))
        raw.append((seed, "visual", _novel_ap50(vis.state, world, config)))
    return _tables(out_dir, "init", "seed,init,novel_ap50", raw)


def run_zero_shot(config: ExperimentConfig, out_dir=None):
    """Registration without exemplars: novel prototypes taken straight from
    the semantic vectors, against a random-unit-prototype floor. Reports
    class-agnostic recall@100 over the novel scenes plus novel AP50."""
    raw = []
    for seed in _trial_seeds(config):
        world = build_world(config, seed)
        result = train(world.train_scenes, world.semantics, replace(config.train, seed=seed))
        state, base, novel = result.state, world.universe.base, world.universe.novel

        sem_protos = state.prototypes
        for cid in novel:
            sem_protos = add_novel(sem_protos, cid, world.semantics[cid])
        sem_state = replace(state, prototypes=sem_protos)

        rng = np.random.default_rng([seed + _RANDOM_PROTOS, 7])
        protos = state.prototypes
        for cid in novel:
            protos = add_novel(protos, cid, rng.normal(size=protos.dim))
        rand_state = replace(state, prototypes=protos)

        for method, st in (("semantic", sem_state), ("random", rand_state)):
            report = evaluate(st, world.eval_novel, base, novel, config.detect)
            raw.append((seed, method, report.recall[100], report.novel.ap50))
    return _tables(out_dir, "zero_shot", "seed,method,recall100,novel_ap50", raw)


EXPERIMENTS = {
    "em_iterations": run_em_iterations,
    "lambda": run_lambda,
    "init": run_init,
    "zero_shot": run_zero_shot,
}
