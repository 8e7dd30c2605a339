"""Benchmark study configs and runners at miniature sizes."""

import itertools
import math
import re
from dataclasses import fields, is_dataclass, replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from test_toyworld import DATA_REFUSALS, UNIVERSE_REFUSALS

from morphdet import em_trainer, experiments
from morphdet.em_trainer import (
    DetectorState,
    TrainConfig,
    TrainingDiverged,
    fill_dataclass,
    proposal_arrays,
    train,
    train_grid,
    visual_init_vectors,
)
from morphdet.embedder import EmbedderParams, grad_evaluation_count, init_params
from morphdet.morph_inference import DetectConfig
from morphdet.numkernel import EmptyInput
from morphdet.prototype_store import UnknownClass, add_novel, init_from_semantic
from morphdet.experiments import (
    EXPERIMENTS,
    LAMBDA_GRID,
    ConfigError,
    DataConfig,
    ExperimentConfig,
    UniverseConfig,
    build_world,
    run_em_iterations,
    run_init,
    run_lambda,
    run_studies,
    run_zero_shot,
)
from morphdet.textio import sha256_file
from morphdet.toyworld import make_dataset, save_dataset

TINY = ExperimentConfig(
    universe=UniverseConfig(n_base=4, n_novel=2, k=4, d_sem=8, m_in=10, sigma_sem=0.2, sigma_inst=0.2),
    data=DataConfig(
        train_scenes_per_class=1,
        eval_scenes_per_class=1,
        objects_per_scene=1,
        proposals_per_scene=8,
        jitter=0.1,
    ),
    train=TrainConfig(em_iterations=2, m_step_epochs=2, batch_size=8, hidden_sizes=(16,), seed=0),
    shots=2,
    seeds=2,
)


def config_of(data):
    """A parsed config file as the CLI's load_experiment_config reads it."""
    return fill_dataclass(ExperimentConfig, data, "config root")


def test_default_benchmark_shape():
    uni = UniverseConfig()
    assert (uni.n_base, uni.n_novel) == (20, 5)
    assert (uni.k, uni.d_sem, uni.m_in) == (6, 16, 12)
    data = DataConfig()
    assert data.train_scenes_per_class == 3
    assert data.proposals_per_scene == 24
    cfg = ExperimentConfig()
    assert cfg.shots == 5 and cfg.seeds == 5
    assert cfg.detect == DetectConfig()
    assert LAMBDA_GRID == (0.0, 0.3, 0.5, 0.7)
    assert sorted(EXPERIMENTS) == ["em_iterations", "init", "lambda", "zero_shot"]


def test_experiment_config_validation():
    for bad in (dict(shots=0), dict(seeds=0)):
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad)
    for bad in (dict(score_threshold=1.0), dict(nms_iou=1.0), dict(nms_iou=0.0)):
        with pytest.raises(ConfigError, match=f"detect: {next(iter(bad))}"):
            config_of({"detect": bad})
    cfg = config_of({"detect": {"score_threshold": 0.2, "nms_iou": 0.4}})
    assert cfg.detect == DetectConfig(score_threshold=0.2, nms_iou=0.4)
    # The universe and data sections check themselves when the config is read.
    for section, refusals in (("universe", UNIVERSE_REFUSALS), ("data", DATA_REFUSALS)):
        for field, value in refusals:
            with pytest.raises(ConfigError, match=f"^{section}: {field} must"):
                config_of({section: {field: value}})


def test_config_from_dict_round_trip():
    assert config_of({}) == ExperimentConfig()
    cfg = config_of(
        {
            "universe": {"n_base": 7, "sigma_sem": 0.1},
            "data": {"proposals_per_scene": 10},
            "train": {"em_iterations": 2, "hidden_sizes": [8, 4]},
            "shots": 3,
            "seeds": 2,
        }
    )
    assert cfg.universe.n_base == 7 and cfg.universe.n_novel == 5
    assert cfg.data.proposals_per_scene == 10
    assert cfg.train.em_iterations == 2
    assert cfg.train.hidden_sizes == (8, 4)
    assert cfg.shots == 3 and cfg.seeds == 2


def test_config_from_dict_rejects_unknowns():
    with pytest.raises(ConfigError):
        config_of({"worlds": 3})
    with pytest.raises(ConfigError):
        config_of({"universe": {"bases": 3}})
    with pytest.raises(ConfigError):
        config_of({"train": {"em_iterations": 0}})
    with pytest.raises(ConfigError):
        config_of({"universe": 7})
    with pytest.raises(ConfigError):
        config_of([1, 2])
    for wrong_type in (
        {"universe": {"n_base": "x"}},
        {"universe": {"n_base": 2.5}},
        {"universe": {"n_base": True}},
        {"universe": {"sigma_sem": "0.4"}},
        {"data": {"proposals_per_scene": "24"}},
        {"data": {"jitter": 1e400}},
        {"train": {"hidden_sizes": 5}},
        {"train": {"hidden_sizes": [8, 2.5]}},
        {"train": {"batch_size": 2.5}},
        {"train": {"learning_rate": None}},
        {"seeds": 1.5},
        {"detect": {"score_threshold": "0.1"}},
        {"detect": {"nms_iou": None}},
    ):
        with pytest.raises(ConfigError):
            config_of(wrong_type)
    # The detection settings live in the "detect" section, the output directory only in `experiment --out`.
    for old_key, value in (("score_threshold", 0.1), ("nms_iou", 0.4), ("out_dir", "tables")):
        with pytest.raises(ConfigError, match=f"config root: unknown keys \\['{old_key}'\\]"):
            config_of({old_key: value})
    cfg = config_of({"universe": {"sigma_sem": 1}})
    assert cfg.universe.sigma_sem == 1


SECTIONS = (UniverseConfig, DataConfig, TrainConfig, DetectConfig, ExperimentConfig)


def _wrong_kinds(default):
    """Values that a field with this default refuses by kind, whichever way they come in."""
    if is_dataclass(default):
        return [7, "x", None, [1], DetectConfig() if not isinstance(default, DetectConfig) else DataConfig()]
    if isinstance(default, int):
        return [2.5, 3.0, True, "3", None, np.int64(3), [3]]
    if isinstance(default, float):
        return ["0.4", None, True, float("nan"), float("inf"), -float("inf"), 10**400, np.float32(0.5), [0.4]]
    return [5, None, "64", [8, 2.5], (64.9, 64), [True], [np.int64(8)], [[8]]]


@pytest.mark.parametrize(
    "cls, name", [(cls, f.name) for cls in SECTIONS for f in fields(cls)], ids=lambda x: getattr(x, "__name__", x)
)
def test_every_setting_refuses_a_wrong_kind_alike_from_code_and_from_a_file(cls, name):
    """One check per setting: the section's constructor refuses a value of the wrong kind, naming the field,
    and a config mapping meets the same refusal word for word, after its `where` prefix."""
    default = next(f.default for f in fields(cls) if f.name == name)
    for value in _wrong_kinds(default):
        with pytest.raises(ValueError) as built:
            cls(**{name: value})
        message = str(built.value)
        assert message.startswith(f"{name} must be ") and message.endswith(f", got {value!r}")
        with pytest.raises(ConfigError, match=f"^{re.escape(f'where: {message}')}$"):
            fill_dataclass(cls, {name: value}, "where")


def test_settings_keep_the_kind_they_were_given():
    """Only hidden_sizes (a tuple) and the universe's noise scales (floats) are stored otherwise than given, so a
    config file's int in a float field reaches asdict, and the checkpoint's bytes, as the int it was."""
    assert type(TrainConfig(learning_rate=1).learning_rate) is int
    assert type(config_of({"train": {"lam": 1}}).train.lam) is int
    assert TrainConfig(hidden_sizes=[8, 4]).hidden_sizes == (8, 4) == config_of({"train": {"hidden_sizes": [8, 4]}}).train.hidden_sizes
    assert type(UniverseConfig(sigma_sem=1).sigma_sem) is float
    assert type(TrainConfig(lam=np.float64(0.5)).lam) is np.float64  # a float, as the file checker takes it


def test_build_world_structure_and_determinism():
    world = build_world(TINY, seed=3)
    assert world.universe.base == (1, 2, 3, 4)
    assert world.universe.novel == (5, 6)
    assert len(world.train_scenes) == 4
    assert len(world.eval_base) == 4 and len(world.eval_novel) == 2
    assert sorted(world.exemplars) == [5, 6]
    assert all(len(v) == TINY.shots for v in world.exemplars.values())
    assert sorted(world.semantics) == [1, 2, 3, 4, 5, 6]

    again = build_world(TINY, seed=3)
    assert np.array_equal(
        world.train_scenes[0].proposals[0].descriptor,
        again.train_scenes[0].proposals[0].descriptor,
    )
    other = build_world(TINY, seed=4)
    assert not np.array_equal(
        world.train_scenes[0].proposals[0].descriptor,
        other.train_scenes[0].proposals[0].descriptor,
    )


def test_world_builds_eval_base_on_first_read(monkeypatch, tmp_path):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[-1])
        return make_dataset(*args, **kwargs)

    monkeypatch.setattr(experiments, "make_dataset", counted)
    run_lambda(replace(TINY, seeds=1))
    assert len(calls) == 2  # train and eval_novel; the study never reads eval_base

    calls.clear()
    world = build_world(TINY, seed=0)
    assert len(calls) == 2
    scenes = world.eval_base
    assert len(calls) == 3 and world.eval_base is scenes
    # The arrays an eager build wrote before eval_base became lazy, framed as
    # format v3 and drawn from BLAS-free projections, so the same under the
    # AVX2 and AVX-512 kernels of numpy's bundled OpenBLAS.
    save_dataset(tmp_path / "eval_base.txt", scenes)
    assert sha256_file(tmp_path / "eval_base.txt") == "a62b10acd15d0b6207cc87e93de2ec9457ea117d2755dc313761a6da723b0652"


def _assert_csv(path, header, n_rows):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == header
    assert len(lines) == n_rows + 1


def test_run_em_iterations(tmp_path):
    raw, summary = run_em_iterations(TINY, out_dir=tmp_path)
    assert len(raw) == TINY.seeds * TINY.train.em_iterations
    assert sorted({r[0] for r in raw}) == [0, 1]
    assert sorted({r[1] for r in raw}) == [1, 2]
    assert all(0.0 <= r[2] <= 1.0 for r in raw)
    assert [k for k, _ in summary] == [1, 2]
    for k, mean in summary:
        assert mean == float(np.mean([r[2] for r in raw if r[1] == k]))
    _assert_csv(tmp_path / "em_iterations_raw.csv", "seed,iteration,novel_ap50", len(raw))
    _assert_csv(tmp_path / "em_iterations_summary.csv", "iteration,novel_ap50", len(summary))


def test_run_lambda(tmp_path):
    raw, summary = run_lambda(TINY, out_dir=tmp_path)
    assert len(raw) == TINY.seeds * len(LAMBDA_GRID)
    assert sorted({r[1] for r in raw}) == sorted(LAMBDA_GRID)
    assert [lam for lam, _ in summary] == list(LAMBDA_GRID)
    for lam, mean in summary:
        assert mean == float(np.mean([r[2] for r in raw if r[1] == lam]))
    _assert_csv(tmp_path / "lambda_raw.csv", "seed,lambda,novel_ap50", len(raw))
    _assert_csv(tmp_path / "lambda_summary.csv", "lambda,novel_ap50", len(summary))


def test_default_studies_write_the_recorded_tables(tmp_path):
    """The four studies at the default config and one seed write the eight tables that
    studies_seed0.sha256 records, under whatever BLAS kernel runs the suite. The tables
    hold AP50s, so a change in the last bits of training or detection may not show here."""
    for run in EXPERIMENTS.values():
        run(replace(ExperimentConfig(), seeds=1), tmp_path)
    written = "".join(f"{sha256_file(path)}  {path.name}\n" for path in sorted(tmp_path.iterdir()))
    assert written == Path(__file__).with_name("studies_seed0.sha256").read_text(encoding="ascii")


@pytest.mark.parametrize(
    "train_config",
    [TINY.train, replace(TINY.train, em_iterations=3, momentum=0.9), replace(TINY.train, em_iterations=1)],
    ids=["tiny", "three_rounds_momentum", "one_round"],
)
def test_train_grid_equals_a_train_per_lambda(train_config):
    """Every cell of a two-set by LAMBDA_GRID grid, trained in lockstep, is a
    separate train() bit for bit."""
    world = build_world(TINY, seed=1)
    vector_sets = [world.semantics, visual_init_vectors(world.train_scenes, TINY.universe.d_sem)]
    grid = train_grid(world.train_scenes, vector_sets, train_config, LAMBDA_GRID)
    assert [len(row) for row in grid] == [len(LAMBDA_GRID)] * len(vector_sets)
    for vectors, row in zip(vector_sets, grid):
        for lam, shared in zip(LAMBDA_GRID, row):
            alone = train(world.train_scenes, vectors, replace(train_config, lam=lam))
            assert len(shared.snapshots) == len(alone.snapshots) == train_config.em_iterations
            for a, b in zip(shared.snapshots, alone.snapshots):
                assert a.config == b.config and a.config.lam == lam
                assert a.params.flat.shape == b.params.flat.shape and a.params.flat.tobytes() == b.params.flat.tobytes()
                assert a.prototypes.ids == b.prototypes.ids
                assert a.prototypes.matrix.tobytes() == b.prototypes.matrix.tobytes()
            assert shared.state is shared.snapshots[-1]
            assert repr(shared.metrics) == repr(alone.metrics)
    # The runs share values where they start alike, never memory.
    flats = [snap.params.flat for row in grid for result in row for snap in result.snapshots]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(flats) for b in flats[i + 1 :])


def test_train_grid_refuses_a_bad_grid_before_training():
    world = build_world(TINY, seed=1)
    before = grad_evaluation_count()
    for sets, lams in (([world.semantics], ()), ([], LAMBDA_GRID), ((), ())):
        with pytest.raises(EmptyInput, match="vector sets and lams"):
            train_grid(world.train_scenes, sets, TINY.train, lams)
    short = {cid: vec for cid, vec in world.semantics.items() if cid != world.universe.base[1]}
    with pytest.raises(UnknownClass, match=rf"vector set 1 has no vector for dataset classes \[{world.universe.base[1]}\]"):
        train_grid(world.train_scenes, [world.semantics, short], TINY.train, LAMBDA_GRID)
    assert grad_evaluation_count() == before


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_grid_names_the_run_that_diverged(monkeypatch):
    world = build_world(TINY, seed=1)
    vector_sets = [world.semantics, visual_init_vectors(world.train_scenes, TINY.universe.d_sem)]
    with pytest.raises(TrainingDiverged, match="^vector set 0, every lam: non-finite loss at epoch 0"):
        train_grid(world.train_scenes, vector_sets, replace(TINY.train, learning_rate=1e308), LAMBDA_GRID)
    # E-steps run per run in set-major order, so the sixth is that of set 1 at the second lam:
    # parameters of 1e300 make its loss, and only its, non-finite in the lockstep M-step after it.
    e_step, calls = em_trainer.e_step, []

    def poisoned(state, *args):
        calls.append(state.config.lam)
        state = e_step(state, *args)
        if len(calls) == 6:
            state = replace(state, params=EmbedderParams(state.params.sizes, np.full(state.params.flat.size, 1e300)))
        return state

    monkeypatch.setattr(em_trainer, "e_step", poisoned)
    with pytest.raises(TrainingDiverged, match=rf"^vector set 1, lam {LAMBDA_GRID[1]}: non-finite loss at epoch 0"):
        train_grid(world.train_scenes, vector_sets, TINY.train, LAMBDA_GRID)
    assert calls == list(LAMBDA_GRID) * 2


def test_run_lambda_trains_the_shared_first_m_step_once():
    config = replace(TINY, seeds=1)
    world = build_world(config, seed=0)
    proposals = proposal_arrays(world.train_scenes)[0]
    steps_per_m_step = config.train.m_step_epochs * math.ceil(len(proposals) / config.train.batch_size)
    before = grad_evaluation_count()
    run_lambda(config)
    rounds = 1 + len(LAMBDA_GRID) * (config.train.em_iterations - 1)
    assert grad_evaluation_count() - before == rounds * steps_per_m_step


def _steps_per_m_step(config):
    proposals = proposal_arrays(build_world(config, seed=0).train_scenes)[0]
    return config.train.m_step_epochs * math.ceil(len(proposals) / config.train.batch_size)


@pytest.mark.parametrize("run", [run_em_iterations, run_zero_shot])
def test_a_one_run_study_makes_em_iterations_m_steps(run):
    config = replace(TINY, seeds=1)
    before = grad_evaluation_count()
    run(config)
    assert grad_evaluation_count() - before == config.train.em_iterations * _steps_per_m_step(config)


# The (vector set, lambda) runs each study reads at the config's lambda, written out apart from the plan's table.
READS = {
    "em_iterations": lambda lam: {("semantic", lam)},
    "lambda": lambda lam: {("semantic", grid_lam) for grid_lam in LAMBDA_GRID},
    "init": lambda lam: {("semantic", lam), ("visual", lam)},
    "zero_shot": lambda lam: {("semantic", lam)},
}
SUBSETS = [names for r in range(1, len(EXPERIMENTS) + 1) for names in itertools.combinations(sorted(EXPERIMENTS), r)]


@cache
def _alone(name, lam):
    return repr(EXPERIMENTS[name](replace(TINY, train=replace(TINY.train, lam=lam))))


@pytest.mark.parametrize("lam", [TINY.train.lam, 0.4], ids=["default_lambda", "off_grid_lambda"])
@pytest.mark.parametrize("names", SUBSETS, ids="+".join)
def test_a_plan_writes_each_study_s_tables_and_trains_each_run_once(names, lam, tmp_path):
    """Any set of studies run as one plan gives each study the tables of its runner called alone, at two
    seeds; every run the studies read trains once, its first M-step shared with the runs of its vector set."""
    config = replace(TINY, train=replace(TINY.train, lam=lam))
    before = grad_evaluation_count()
    tables = run_studies(config, list(names), tmp_path)
    grads = grad_evaluation_count() - before
    assert list(tables) == list(names)
    for name in names:
        assert repr(tables[name]) == _alone(name, lam)
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(f"{n}_{t}.csv" for n in names for t in ("raw", "summary"))
    runs = set().union(*(READS[name](lam) for name in names))
    m_steps = len({vectors for vectors, _ in runs}) + len(runs) * (config.train.em_iterations - 1)
    assert grads == config.seeds * m_steps * _steps_per_m_step(config)


def test_run_init_counts_one_gradient_per_run_and_step():
    config = replace(TINY, seeds=1)
    world = build_world(config, seed=0)
    proposals = proposal_arrays(world.train_scenes)[0]
    steps_per_m_step = config.train.m_step_epochs * math.ceil(len(proposals) / config.train.batch_size)
    before = grad_evaluation_count()
    run_init(config)
    assert grad_evaluation_count() - before == 2 * config.train.em_iterations * steps_per_m_step


def test_run_init(tmp_path):
    raw, summary = run_init(TINY, out_dir=tmp_path)
    assert len(raw) == TINY.seeds * 2
    assert [r[1] for r in raw] == ["semantic", "visual"] * TINY.seeds
    assert [m for m, _ in summary] == ["semantic", "visual"]
    for method, mean in summary:
        assert mean == float(np.mean([r[2] for r in raw if r[1] == method]))
    _assert_csv(tmp_path / "init_raw.csv", "seed,init,novel_ap50", len(raw))
    _assert_csv(tmp_path / "init_summary.csv", "init,novel_ap50", len(summary))


def test_run_zero_shot(tmp_path):
    raw, summary = run_zero_shot(TINY, out_dir=tmp_path)
    assert len(raw) == TINY.seeds * 2
    assert [r[1] for r in raw] == ["semantic", "random"] * TINY.seeds
    for row in raw:
        assert 0.0 <= row[2] <= 1.0
        assert 0.0 <= row[3] <= 1.0
    assert [m for m, *_ in summary] == ["semantic", "random"]
    _assert_csv(tmp_path / "zero_shot_raw.csv", "seed,method,recall100,novel_ap50", len(raw))
    _assert_csv(tmp_path / "zero_shot_summary.csv", "method,recall100,novel_ap50", len(summary))


@pytest.mark.parametrize("how", ["semantic", "random"])
def test_zero_shot_registration_equals_one_insert_per_class(how):
    """One add_novel call of every novel class's row, the random rows drawn at once, makes the set that one insert
    per class made, the random rows drawn one class at a time."""
    seed = 3
    world, u = build_world(TINY, seed), TINY.universe
    base = init_from_semantic({cid: world.semantics[cid] for cid in world.universe.base})
    state = DetectorState(init_params(u.m_in, TINY.train.hidden_sizes, u.d_sem, seed=0), base, TINY.train)
    rng, protos = np.random.default_rng([seed + experiments._RANDOM_PROTOS, 7]), base
    for cid in world.universe.novel:
        protos = add_novel(protos, [cid], [world.semantics[cid] if how == "semantic" else rng.normal(size=protos.dim)])
    registered = experiments._registered(state, world, how, seed).prototypes
    assert registered.ids == protos.ids and registered.novel == protos.novel == set(world.universe.novel)
    assert registered.matrix.tobytes() == protos.matrix.tobytes()


def test_runners_work_without_an_output_directory():
    raw, summary = run_em_iterations(TINY)
    assert len(raw) == TINY.seeds * TINY.train.em_iterations
    assert len(summary) == TINY.train.em_iterations
