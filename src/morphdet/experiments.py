"""Canned toy-benchmark studies: iteration count, blend weight, prototype
initialization, and semantics-only registration, run as one plan. For each
trial seed, run_studies builds the world once, trains each run the named
studies read once (the runs that share a lambda list in one train_grid call)
and registers and evaluates each snapshot a study reads once. Each study writes
a raw per-run CSV plus a seed-averaged summary CSV and returns both tables. A
study's run_* runner is the plan of that study alone, so the studies of one
plan write the tables their runners write one by one.

A World's base-class evaluation split, World.eval_base, is built on first
read from its own seed stream: `gen` writes it, the studies never read it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property
from operator import attrgetter
import os
from typing import Callable, NamedTuple

import numpy as np

from .em_trainer import PICK_PLAN_BUDGET, ConfigError, TrainConfig, train_grid, visual_init_vectors
from .em_trainer import train  # noqa: F401  unused here; perfbench's span sites still look up experiments.train
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
    """Refuses, before any draw, a world whose universe, datasets (gen's three splits) and exemplars would hold
    more than PICK_PLAN_BUDGET bytes, naming the size setting furthest above its default."""
    u, d = config.universe, config.data
    scenes = u.n_base * d.train_scenes_per_class + (u.n_base + u.n_novel) * d.eval_scenes_per_class
    per_scene = d.proposals_per_scene * (u.m_in + 9) + d.objects_per_scene * (u.m_in + 5)  # 8-byte values
    predicted = 8 * (scenes * per_scene + u.n_novel * config.shots * u.m_in + (u.n_base + u.n_novel + u.k) * (u.k + u.d_sem))
    if predicted > PICK_PLAN_BUDGET:
        sizes = [f"{s}.{f.name}" for s in ("universe", "data") for f in fields(getattr(config, s)) if type(f.default) is int]
        name = max(["shots", *sizes], key=lambda n: attrgetter(n)(config) / attrgetter(n)(ExperimentConfig()))
        raise ConfigError(f"{name} {attrgetter(name)(config)} makes a world of {predicted:,} bytes, "
                          f"over the budget of {PICK_PLAN_BUDGET:,}")
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


def _registered(state, world: World, how: str, seed: int):
    """`state` with the novel classes registered: "morph" embeds their exemplars, while "semantic" and "random"
    (zero-shot and its floor) insert their semantic vectors or seeded random vectors as prototypes."""
    if how == "morph":
        return morph(state, world.exemplars)
    rng, protos = np.random.default_rng([seed + _RANDOM_PROTOS, 7]), state.prototypes
    for cid in world.universe.novel:
        protos = add_novel(protos, cid, world.semantics[cid] if how == "semantic" else rng.normal(size=protos.dim))
    return replace(state, prototypes=protos)


class Study(NamedTuple):
    header: str  # of the raw table
    runs: Callable  # the config's lambda -> the (vector set, lambda) runs the study reads
    # (train config, report) -> the study's rows of one seed, seed column left out, where
    # report(vector set, lambda, registration="morph", snapshot=0 for the last) is an EvalReport on eval_novel.
    rows: Callable


STUDIES = {
    # Novel-class AP50 of each post-M-step snapshot, morphed with the same exemplars: the iteration-count trend.
    "em_iterations": Study("seed,iteration,novel_ap50", lambda lam: [("semantic", lam)],
                           lambda t, report: [(k, report("semantic", t.lam, snapshot=k).novel.ap50)
                                              for k in range(1, t.em_iterations + 1)]),
    # Novel-class AP50 across the prototype blend-weight grid.
    "lambda": Study("seed,lambda,novel_ap50", lambda lam: [("semantic", grid_lam) for grid_lam in LAMBDA_GRID],
                    lambda t, report: [(lam, report("semantic", lam).novel.ap50) for lam in LAMBDA_GRID]),
    # Semantic prototype initialization against per-class raw-descriptor means, scored on morphed novel-class AP50.
    "init": Study("seed,init,novel_ap50", lambda lam: [("semantic", lam), ("visual", lam)],
                  lambda t, report: [(init, report(init, t.lam).novel.ap50) for init in ("semantic", "visual")]),
    # Registration without exemplars, from the semantic vectors, against a random-unit-prototype floor:
    # class-agnostic recall@100 over the novel scenes plus novel AP50.
    "zero_shot": Study("seed,method,recall100,novel_ap50", lambda lam: [("semantic", lam)],
                       lambda t, report: [(how, r.recall, r.novel.ap50)
                                          for how in ("semantic", "random") for r in [report("semantic", t.lam, how)]]),
}


def run_studies(config: ExperimentConfig, names, out_dir=None) -> dict:
    """{name: (raw, summary)} of the named studies, each what its runner alone returns and writes. Per trial seed
    the world is built once, each run the studies read is trained once, the runs that share their lambda list
    in one train_grid, and each distinct snapshot and registration is evaluated once."""
    names, t = list(dict.fromkeys(names)), config.train
    lams: dict = {}  # vector set -> its lambdas, in first-read order
    for name in names:
        for vectors, lam in STUDIES[name].runs(t.lam):
            lams.setdefault(vectors, {})[lam] = None
    grid: dict = {}  # lambda list -> the vector sets trained at it
    for vectors, row in lams.items():
        grid.setdefault(tuple(row), []).append(vectors)
    raw: dict = {name: [] for name in names}
    for seed in range(t.seed, t.seed + config.seeds):
        world, snapshots, reports = build_world(config, seed), {}, {}
        scenes = world.train_scenes
        for grid_lams, sets in grid.items():
            vectors = [world.semantics if s == "semantic" else visual_init_vectors(scenes, config.universe.d_sem) for s in sets]
            results = train_grid(scenes, vectors, replace(t, seed=seed), grid_lams)
            snapshots.update({(s, lam): r.snapshots for s, row in zip(sets, results) for lam, r in zip(grid_lams, row)})

        def report(vectors, lam, how="morph", snapshot=0):
            k = snapshot or t.em_iterations
            key = (vectors, lam, how, k)
            if key not in reports:
                state = _registered(snapshots[vectors, lam][k - 1], world, how, seed)
                reports[key] = evaluate(state, world.eval_novel, world.universe.base, world.universe.novel, config.detect)
            return reports[key]

        for name in names:
            raw[name] += [(seed, *row) for row in STUDIES[name].rows(t, report)]
    return {name: _tables(out_dir, name, STUDIES[name].header, raw[name]) for name in names}


def _runner(name: str):
    def run(config: ExperimentConfig, out_dir=None):
        return run_studies(config, [name], out_dir)[name]

    run.__name__ = run.__qualname__ = f"run_{name}"
    return run


EXPERIMENTS = {name: _runner(name) for name in STUDIES}
run_em_iterations, run_lambda, run_init, run_zero_shot = EXPERIMENTS.values()  # each the plan of its one study
