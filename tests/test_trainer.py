"""Alternating-training loop: M-step, E-step, the full run, and checkpoints."""

import gc
import inspect
import itertools
import json
import math
import re
import tracemalloc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import TINY_TRAIN, identity_detector, reframe, tensor_body
from helpers import (
    empty_prototypes,
    grad_buffer,
    labelled_batch,
    objects_of,
    params_equal,
    reference_pick_plan,
    scene_of,
    vector_for,
)
from morphdet import em_trainer
from morphdet.em_trainer import (
    CHECKPOINT_HEADER,
    ConfigError,
    DetectorState,
    EpochRecord,
    MissingClassSamples,
    TrainConfig,
    TrainingDiverged,
    _class_means,
    _epoch_lr,
    _pick_plan,
    e_step,
    ground_truth_arrays,
    load_checkpoint,
    m_step,
    proposal_arrays,
    save_checkpoint,
    train,
    train_grid,
    visual_init_vectors,
    write_metrics_csv,
)
from morphdet.embedder import CheckpointError, clone_params, forward_batch, forward_batch_with_grad, init_params, sgd_step
from morphdet.morph_inference import morph
from morphdet.numkernel import DimensionMismatch, EmptyInput, NonFiniteValue
from morphdet.prototype_store import PrototypeSet, UnknownClass, add_novel, e_step_update, init_from_semantic
from morphdet.toyworld import semantic_vectors


def test_train_config_validation():
    cfg = TrainConfig(hidden_sizes=[8, 4])
    assert cfg.hidden_sizes == (8, 4)
    assert TrainConfig(hidden_sizes=()).hidden_sizes == ()  # a network with no trunk
    assert (cfg.fg_weight, cfg.bg_weight, cfg.bbox_weight) == (1.0, 1.0, 1.0)
    for bad in (
        dict(em_iterations=0),
        dict(m_step_epochs=-1),
        dict(batch_size=0),
        dict(learning_rate=0.0),
        dict(lr_decay_factor=0.0),
        dict(lr_decay_factor=1.5),
        dict(lr_decay_at=0.0),
        dict(momentum=1.0),
        dict(momentum=-0.1),
        dict(lam=1.5),
        dict(learning_rate=float("inf")),
        dict(learning_rate=float("nan")),
        dict(seed=-3),
        dict(fg_weight=-1.0),
        dict(bg_weight=float("nan")),
        dict(bbox_weight=float("inf")),
        dict(hidden_sizes=[0]),
        dict(hidden_sizes=[-4, 64]),
    ):
        with pytest.raises(ValueError, match=next(iter(bad))):
            TrainConfig(**bad)


def test_detector_state_checks_dimensions():
    params = init_params(4, (), 3, seed=0)
    with pytest.raises(DimensionMismatch):
        DetectorState(params=params, prototypes=empty_prototypes(2), config=TrainConfig())


def test_detector_state_refuses_a_config_of_other_hidden_sizes():
    params = init_params(4, (5,), 3, seed=0)
    protos = PrototypeSet(ids=(1,), matrix=np.array([[1.0, 0.0, 0.0]]))
    assert DetectorState(params, protos, TrainConfig(hidden_sizes=(5,))).config.hidden_sizes == (5,)
    for sizes in ((64, 64), (), (5, 5), (6,)):
        with pytest.raises(DimensionMismatch, match=re.escape(f"hidden_sizes {list(sizes)} != network [5]")):
            DetectorState(params, protos, TrainConfig(hidden_sizes=sizes))


def test_epoch_lr_schedule():
    cfg = TrainConfig(m_step_epochs=10, learning_rate=0.5, lr_decay_factor=0.1, lr_decay_at=0.8)
    assert [_epoch_lr(cfg, e) for e in range(8)] == [0.5] * 8
    assert _epoch_lr(cfg, 8) == 0.5 * 0.1
    assert _epoch_lr(cfg, 9) == 0.5 * 0.1
    # Fractional products round up: decay starts at epoch 5 of 6.
    cfg = TrainConfig(m_step_epochs=6, learning_rate=0.5, lr_decay_at=0.8)
    assert _epoch_lr(cfg, 4) == 0.5
    assert _epoch_lr(cfg, 5) == 0.5 * 0.1


def test_proposal_arrays_preserves_order(tiny_dataset):
    props = [p for s in tiny_dataset for p in s.proposals]
    descriptors, labels, targets = proposal_arrays(tiny_dataset)
    assert descriptors.shape == (len(props), props[0].descriptor.shape[0])
    assert labels.tolist() == [p.label for p in props]
    assert targets.shape == (len(props), 4)
    assert 0 < np.count_nonzero(labels) < len(props)
    for row, label, target, prop in zip(descriptors, labels, targets, props):
        assert np.array_equal(row, prop.descriptor)
        assert np.array_equal(target, prop.target_deltas if label > 0 else np.zeros(4))
    with pytest.raises(EmptyInput):
        proposal_arrays([_scene()])


def _spoiled(dataset, k, key, row, value=np.nan):
    """`dataset` with scene k's `key` array a copy whose row `row` holds `value` in its first column."""
    array = getattr(dataset[k], key).copy()
    array[row, 0] = value
    return [replace(scene, **{key: array}) if j == k else scene for j, scene in enumerate(dataset)]


@pytest.mark.parametrize("key", ["descriptors", "targets", "gt_descriptors"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_stacked_arrays_refuse_a_non_finite_value_naming_its_scene(tiny_dataset, key, value):
    fg_row = int(np.flatnonzero(tiny_dataset[3].labels)[0])  # targets are nonzero on foreground rows alone
    spoiled = _spoiled(tiny_dataset, 3, key, fg_row, value)
    stack = ground_truth_arrays if key.startswith("gt_") else proposal_arrays
    with pytest.raises(NonFiniteValue, match=f"^scene {tiny_dataset[3].scene_id} holds a non-finite value in its {key}$"):
        stack(spoiled)


def test_train_refuses_a_nan_descriptor_on_a_row_that_one_epoch_never_samples(tiny_universe, tiny_dataset, monkeypatch):
    """A NaN on a row that no step draws trains to finite losses; the stacked arrays are checked once per run,
    so training refuses the row's scene before the first step."""
    config, vectors = replace(TINY_TRAIN, em_iterations=1, m_step_epochs=1), semantic_vectors(tiny_universe)
    sampled, steps, original = set(), [], em_trainer.forward_batch_with_grad

    def recording(params, X, *rest):
        sampled.update(row.tobytes() for row in X)
        steps.append(len(X))
        return original(params, X, *rest)

    monkeypatch.setattr(em_trainer, "forward_batch_with_grad", recording)
    train(tiny_dataset, vectors, config)
    k, row = next((k, r) for k, scene in enumerate(tiny_dataset) for r, d in enumerate(scene.descriptors)
                  if d.tobytes() not in sampled)
    spoiled = _spoiled(tiny_dataset, k, "descriptors", row)
    X, labels, targets = (np.concatenate([getattr(s, key) for s in spoiled]) for key in ("descriptors", "labels", "targets"))
    _, [records] = m_step([train(tiny_dataset, vectors, config).state], X, labels, targets, 1)
    assert all(math.isfinite(r.total) for r in records)  # the row would go unseen
    calls = len(steps)
    with pytest.raises(NonFiniteValue, match=f"^scene {tiny_dataset[k].scene_id} holds a non-finite value in its descriptors$"):
        train(spoiled, vectors, config)
    assert len(steps) == calls


def test_sampler_reshuffles_lazily_from_the_shared_rng():
    """Two pools on one rng, a fg pool smaller than its draw: the plan asks
    the rng for a pool's next permutation only at the step that needs its
    next index, so the fg pool running out at the end of a draw leaves the bg
    draw that follows it on the rng state a lazy stream would have seen."""
    fg_pool, bg_pool = np.array([3, 5, 8]), np.arange(10, 17)
    rng = np.random.default_rng(7)
    plan = _pick_plan(fg_pool, bg_pool, 4, 9, 6, rng)
    assert plan.shape == (6, 9) and plan.dtype == np.intp

    ref_rng = np.random.default_rng(7)
    queues = {"fg": [], "bg": []}

    def take(name, pool, count):
        out = []
        for _ in range(count):
            if not queues[name]:
                queues[name] = [int(pool[j]) for j in ref_rng.permutation(len(pool))]
            out.append(queues[name].pop(0))
        return out

    # The fg pool of 3 runs out exactly at the end of the third fg draw (12
    # indices); an eager reshuffle there would take the rng calls that the
    # third bg draw's reshuffle (index 15 of 7-long passes) makes next.
    want = [take("fg", fg_pool, 4) + take("bg", bg_pool, 5) for _ in range(6)]
    assert plan.tolist() == want
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # A pool that no step takes from is never shuffled, empty or not.
    empty = np.array([], dtype=np.intp)
    assert _pick_plan(empty, np.arange(4), 0, 0, 3, rng).shape == (3, 0)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_pick_plan_equals_its_former_form_byte_for_byte():
    """The plan filled in place equals the list-and-stack plan, and leaves the rng where it left it, over pool
    sizes from empty to larger than a batch, every n_fg a batch allows and step counts from 0."""
    for fg, bg in itertools.product((0, 1, 3, 7, 40), (0, 1, 5, 13, 100)):
        fg_pool, bg_pool = np.arange(100, 100 + fg), np.arange(1000, 1000 + bg)
        for batch_size, steps in itertools.product((0, 1, 2, 5, 9, 32), (0, 1, 2, 7, 30)):
            for n_fg in range(batch_size + 1):
                if (n_fg and not fg) or (batch_size - n_fg and not bg):
                    continue  # m_step gives an empty pool no columns
                rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
                plan = _pick_plan(fg_pool, bg_pool, n_fg, batch_size, steps, rng)
                want = reference_pick_plan(fg_pool, bg_pool, n_fg, batch_size, steps, ref_rng)
                assert plan.dtype == want.dtype == np.intp
                assert plan.shape == want.shape and plan.tobytes() == want.tobytes(), (fg, bg, n_fg, batch_size, steps)
                assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_pick_plan_peaks_near_the_plan_it_returns():
    """9,000 steps of 32 picks from pools of 1,800 and 5,400 are 2,304,000 bytes of plan; the former form peaked
    at about 3 times that."""
    fg_pool, bg_pool = np.arange(1800), np.arange(1800, 7200)
    tracemalloc.start()
    try:
        plan = _pick_plan(fg_pool, bg_pool, 8, 32, 9000, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.nbytes == 2_304_000
    assert peak <= 1.5 * plan.nbytes


def _axis(dim, i):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


def _identity3():
    return identity_detector([(1, _axis(3, 0)), (2, _axis(3, 1)), (3, _axis(3, 2))])


def _scene(objects=(), proposals=(), scene_id=0):
    return scene_of(objects, proposals, scene_id)


def _fg(label, descriptor):
    return SimpleNamespace(
        descriptor=np.asarray(descriptor, dtype=np.float64),
        label=label,
        target_deltas=np.zeros(4),
    )


def _bg(descriptor):
    return SimpleNamespace(
        descriptor=np.asarray(descriptor, dtype=np.float64), label=0, target_deltas=None
    )


def _with_config(state, **changes):
    return replace(state, config=replace(state.config, **changes))


def test_m_step_zero_epochs_is_identity(tiny_state, tiny_dataset):
    state = _with_config(tiny_state, m_step_epochs=0)
    [same], [records] = m_step([state], *proposal_arrays(tiny_dataset))
    assert same is state and records == []


def test_m_step_is_deterministic(tiny_state, tiny_dataset):
    arrays = proposal_arrays(tiny_dataset)
    [a], [sink_a] = m_step([tiny_state], *arrays, iteration=2)
    [b], [sink_b] = m_step([tiny_state], *arrays, iteration=2)
    assert params_equal(a.params, b.params)
    assert sink_a == sink_b
    assert len(sink_a) == TINY_TRAIN.m_step_epochs
    assert a.prototypes is tiny_state.prototypes
    [c], _ = m_step([tiny_state], *arrays, iteration=3)
    assert not params_equal(a.params, c.params)


def test_m_step_records_one_epoch_record_per_epoch(tiny_state, tiny_dataset):
    _, [records] = m_step([tiny_state], *proposal_arrays(tiny_dataset), iteration=4)
    assert [(rec.iteration, rec.epoch) for rec in records] == [(4, e) for e in range(TINY_TRAIN.m_step_epochs)]
    for rec in records:
        assert rec.total == pytest.approx(rec.fg + rec.bg + rec.bbox)


def test_m_step_error_paths(tiny_state, tiny_dataset):
    with pytest.raises(EmptyInput):
        m_step([tiny_state], *proposal_arrays([]))
    with pytest.raises(EmptyInput, match="at least one run"):
        m_step([], *proposal_arrays(tiny_dataset))
    state = _identity3()
    bad = [_scene(proposals=[_fg(9, [1.0, 0.0, 0.0])])]
    with pytest.raises(UnknownClass):
        m_step([state], *proposal_arrays(bad))


def test_m_step_handles_single_sided_pools():
    state = _with_config(_identity3(), m_step_epochs=2, batch_size=4, learning_rate=0.01)
    all_fg = [
        _scene(
            proposals=[
                _fg(1, [1.0, 0.0, 0.0]),
                _fg(2, [0.0, 1.0, 0.0]),
                _fg(3, [0.0, 0.0, 1.0]),
                _fg(1, [0.9, 0.1, 0.0]),
            ]
        )
    ]
    _, [sink] = m_step([state], *proposal_arrays(all_fg))
    assert all(rec.bg == 0.0 for rec in sink)  # no background term without bg proposals
    assert all(rec.fg > 0.0 for rec in sink)

    all_bg = [_scene(proposals=[_bg([0.2, 0.1, 0.0]), _bg([0.0, 0.3, 0.1])])]
    _, [sink] = m_step([state], *proposal_arrays(all_bg))
    assert all(rec.fg == 0.0 and rec.bbox == 0.0 for rec in sink)
    assert all(rec.bg > 0.0 for rec in sink)


def test_m_step_refuses_a_batch_without_room_for_both_pools(tiny_state, tiny_dataset):
    arrays = proposal_arrays(tiny_dataset)
    with pytest.raises(ConfigError, match="batch_size 1"):
        m_step([_with_config(tiny_state, batch_size=1)], *arrays)
    state = _with_config(_identity3(), m_step_epochs=1, batch_size=1, learning_rate=0.01)
    all_fg = [_scene(proposals=[_fg(1, [1.0, 0.0, 0.0]), _fg(2, [0.0, 1.0, 0.0])])]
    all_bg = [_scene(proposals=[_bg([0.2, 0.1, 0.0])])]
    for data in (all_fg, all_bg):
        _, [records] = m_step([state], *proposal_arrays(data))
        assert len(records) == 1
    _, [records] = m_step([_with_config(tiny_state, batch_size=2)], *arrays)
    assert all(rec.fg > 0.0 and rec.bg > 0.0 for rec in records)


@pytest.mark.parametrize("setting", ["m_step_epochs", "batch_size"])
def test_m_step_refuses_a_pick_plan_over_budget_before_drawing_it(tiny_state, tiny_dataset, monkeypatch, setting):
    """The check runs before _pick_plan, which here fails if called, so no plan is ever allocated: a plan
    just over the budget is refused, naming both settings and the bytes, and one just under it is drawn."""

    def drawn(*args):
        raise RuntimeError("pick plan drawn")

    monkeypatch.setattr(em_trainer, "_pick_plan", drawn)
    arrays = proposal_arrays(tiny_dataset)
    n = len(arrays[1])
    budget = em_trainer.PICK_PLAN_BUDGET
    assert budget == 2**31
    for over in (False, True):
        if setting == "m_step_epochs":  # 16 rows a batch, so the plan is epochs x ceil(n / 16) x 16 indices
            cfg = dict(m_step_epochs=budget // (math.ceil(n / 16) * 16 * 8) + over, batch_size=16)
        else:  # one step an epoch once batch_size passes n, so the plan is 3 x batch_size indices
            cfg = dict(m_step_epochs=3, batch_size=budget // (3 * 8) + over)
        plan_bytes = cfg["m_step_epochs"] * math.ceil(n / cfg["batch_size"]) * cfg["batch_size"] * 8
        assert (plan_bytes > budget) == over
        message = (f"m_step_epochs {cfg['m_step_epochs']} x batch_size {cfg['batch_size']} needs a pick plan of "
                   f"{plan_bytes:,} bytes, over the budget of 2,147,483,648")
        with pytest.raises(ConfigError if over else RuntimeError, match=f"^{re.escape(message)}$" if over else "drawn"):
            m_step([_with_config(tiny_state, **cfg)], *arrays)


def test_train_grid_refuses_network_stacks_over_budget_before_allocating_them(tiny_dataset, monkeypatch):
    """Two hidden layers of 4,000 units hold 16.1M parameters, 386 MB for one run's parameter, velocity and
    gradient stacks, but nine lockstep runs need 3.5 GB: refused by its predicted bytes, naming hidden_sizes,
    before init_params, which here fails if called, and with no large allocation on the way."""

    def allocated(*args):
        raise RuntimeError("network allocated")

    monkeypatch.setattr(em_trainer, "init_params", allocated)
    semantics = {cid: np.ones(8) for cid in range(1, 7)}
    config = replace(TINY_TRAIN, hidden_sizes=(4000, 4000))
    count = 10 * 4000 + 4000 + 4000 * 4000 + 4000 + 4000 * 13 + 13  # m_in 10, feature_dim 8: a 13-column head block
    message = (f"hidden_sizes [4000, 4000] makes 9-run parameter, velocity and gradient stacks of {24 * 9 * count:,} "
               "bytes, over the budget of 2,147,483,648")
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            train_grid(tiny_dataset, [semantics], config, [0.1 * k for k in range(1, 10)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(RuntimeError, match="network allocated"):  # one run's stacks are under the budget
        train_grid(tiny_dataset, [semantics], config, [0.5])


def test_m_step_steps_a_group_that_differs_only_in_lam(tiny_state, tiny_dataset):
    arrays = proposal_arrays(tiny_dataset)
    extra_class = add_novel(tiny_state.prototypes, 99, np.ones(tiny_state.prototypes.dim))
    for other in (_with_config(tiny_state, learning_rate=0.01), replace(tiny_state, prototypes=extra_class)):
        with pytest.raises(ConfigError, match="every setting but lam"):
            m_step([tiny_state, other], *arrays)
    [a, b], records = m_step([tiny_state, _with_config(tiny_state, lam=0.9)], *arrays)
    [alone], [alone_records] = m_step([tiny_state], *arrays)
    assert a.params.flat.tobytes() == b.params.flat.tobytes() == alone.params.flat.tobytes()
    assert records == [alone_records, alone_records] and b.config.lam == 0.9


def hand_m_step(state, X, labels, targets, iteration):
    """m_step written as a loop of per-step labelled batches over the same
    plan: each step maps its own labels through labelled_batch, then takes an
    sgd_step; each epoch's four losses are summed step by step."""
    config = state.config
    fg_pool, bg_pool = np.flatnonzero(labels > 0), np.flatnonzero(labels == 0)
    steps = max(1, math.ceil(len(labels) / config.batch_size))
    n_fg = max(1, config.batch_size // 4) if len(fg_pool) and len(bg_pool) else (config.batch_size if len(fg_pool) else 0)
    rng = np.random.default_rng([config.seed, 17, iteration])
    plan = _pick_plan(fg_pool, bg_pool, n_fg, config.batch_size, config.m_step_epochs * steps, rng)
    params = clone_params(state.params)
    grad, velocity = grad_buffer(params), np.zeros_like(params.flat)
    records = []
    for epoch in range(config.m_step_epochs):
        sums = [0.0] * 4
        for picks in plan[epoch * steps : (epoch + 1) * steps]:
            batch = labelled_batch(X[picks], labels[picks], targets[picks], state.prototypes)
            loss = forward_batch_with_grad(params, *batch, config, grad)
            sgd_step(params, grad.flat, _epoch_lr(config, epoch), velocity, config.momentum)
            sums = [total + term for total, term in zip(sums, (loss.fg, loss.bg, loss.bbox, loss.total))]
        records.append(EpochRecord(iteration, epoch, *(float(total / steps) for total in sums)))
    return params, records


@pytest.mark.parametrize("pools", ["both", "fg_only", "bg_only"])
@pytest.mark.parametrize("batch_size", [2, 5, 32])
def test_m_step_equals_a_loop_of_labelled_batches_bit_for_bit(tiny_state, tiny_dataset, batch_size, pools):
    """The M-step's once-per-run column map, prototype table and per-epoch
    gathers give what per-step labelled batches give, in parameters and epoch
    records, under uneven loss weights, momentum and the decayed rate."""
    X, labels, targets = proposal_arrays(tiny_dataset)
    keep = {"both": labels >= 0, "fg_only": labels > 0, "bg_only": labels == 0}[pools]
    X, labels, targets = X[keep], labels[keep], targets[keep]
    state = _with_config(
        tiny_state, fg_weight=1.0, bg_weight=0.7, bbox_weight=1.3, momentum=0.9, batch_size=batch_size, m_step_epochs=5
    )
    [trained], [records] = m_step([state], X, labels, targets, iteration=5)
    want_params, want_records = hand_m_step(state, X, labels, targets, 5)
    assert params_equal(trained.params, want_params)
    assert repr(records) == repr(want_records) and len(records) == 5


def test_no_gradient_buffer_outlives_training(tiny_universe, tiny_dataset, monkeypatch):
    """Every M-step's gradient buffer is freed once train returns: no module
    keeps a buffer, or a view of one, between calls."""
    buffers = []
    real = em_trainer.forward_batch_with_grad

    def spy(*args, **kwargs):
        buffers.append(weakref.ref(inspect.signature(real).bind(*args, **kwargs).arguments["out"].flat))
        return real(*args, **kwargs)

    monkeypatch.setattr(em_trainer, "forward_batch_with_grad", spy)
    train(tiny_dataset, semantic_vectors(tiny_universe), TINY_TRAIN)
    gc.collect()
    assert buffers and all(buffer() is None for buffer in buffers)


def test_m_step_leaves_its_input_state_untouched(tiny_state, tiny_dataset):
    flat = tiny_state.params.flat
    before = flat.tobytes()
    [trained], _ = m_step([_with_config(tiny_state, momentum=0.9)], *proposal_arrays(tiny_dataset))
    assert tiny_state.params.flat is flat and flat.tobytes() == before
    assert not np.shares_memory(trained.params.flat, flat)
    assert trained.params.flat.tobytes() != before


def test_train_snapshots_share_no_memory(tiny_universe, tiny_dataset, tiny_result, monkeypatch):
    initial = []

    def recorded(*args):
        initial.append(init_params(*args))
        return initial[-1]

    monkeypatch.setattr(em_trainer, "init_params", recorded)
    result = train(tiny_dataset, semantic_vectors(tiny_universe), TINY_TRAIN)
    flats = [initial[0].flat] + [snap.params.flat for snap in result.snapshots]
    assert len(flats) == 1 + TINY_TRAIN.em_iterations
    for i, a in enumerate(flats):
        for b in flats[i + 1 :]:
            assert not np.shares_memory(a, b)
    for snap, reference in zip(result.snapshots, tiny_result.snapshots):
        assert params_equal(snap.params, reference.params)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_m_step_divergence_is_reported(tiny_state, tiny_dataset):
    with pytest.raises(TrainingDiverged):
        m_step([_with_config(tiny_state, learning_rate=1e308)], *proposal_arrays(tiny_dataset))


def test_e_step_matches_manual_means(tiny_state, tiny_dataset):
    gts = [obj for scene in tiny_dataset for obj in objects_of(scene)]
    feats, _, _ = forward_batch(tiny_state.params, np.stack([o.descriptor for o in gts]))
    rows: dict[int, list] = {}
    for row, obj in zip(feats, gts):
        rows.setdefault(obj.class_id, []).append(row)
    means = {}
    for cid in rows:
        acc = rows[cid][0].copy()
        for extra in rows[cid][1:]:
            acc = acc + extra
        means[cid] = acc / len(rows[cid])
    expected = e_step_update(tiny_state.prototypes, means, 0.5)

    after = e_step(_with_config(tiny_state, lam=0.5), *ground_truth_arrays(tiny_dataset))
    assert after.params is tiny_state.params
    assert after.prototypes.ids == expected.ids
    for cid in expected.ids:
        assert np.array_equal(vector_for(after.prototypes, cid), vector_for(expected, cid))
        assert np.linalg.norm(vector_for(after.prototypes, cid)) == pytest.approx(1.0, abs=1e-9)


def test_e_step_lam_one_keeps_prototype_object(tiny_state, tiny_dataset):
    state = _with_config(tiny_state, lam=1.0)
    after = e_step(state, *ground_truth_arrays(tiny_dataset))
    assert after.prototypes is state.prototypes


def test_e_step_error_paths(tiny_state):
    with pytest.raises(EmptyInput):
        e_step(tiny_state, *ground_truth_arrays([_scene(proposals=[_bg(np.zeros(10))])]))
    state = _identity3()
    # Class 3 owns a prototype but contributes no ground truth.
    data = [
        _scene(
            objects=[
                SimpleNamespace(class_id=1, descriptor=_axis(3, 0)),
                SimpleNamespace(class_id=2, descriptor=_axis(3, 1)),
            ]
        )
    ]
    with pytest.raises(MissingClassSamples):
        e_step(state, *ground_truth_arrays(data))
    stray = [_scene(objects=[SimpleNamespace(class_id=7, descriptor=_axis(3, 0))])]
    with pytest.raises(UnknownClass):
        e_step(state, *ground_truth_arrays(stray))


def test_train_shapes_and_snapshots(tiny_result):
    cfg = TINY_TRAIN
    assert len(tiny_result.snapshots) == cfg.em_iterations
    assert tiny_result.state is tiny_result.snapshots[-1]
    assert len(tiny_result.metrics) == cfg.em_iterations * cfg.m_step_epochs
    for k, rec in enumerate(tiny_result.metrics):
        assert rec.iteration == 1 + k // cfg.m_step_epochs
        assert rec.epoch == k % cfg.m_step_epochs
        assert rec.total == pytest.approx(rec.fg + rec.bg + rec.bbox)


def test_train_stacks_its_data_once(tiny_universe, tiny_dataset, tiny_result, monkeypatch):
    calls = {"proposal_arrays": 0, "ground_truth_arrays": 0}

    def counted(name):
        original = getattr(em_trainer, name)

        def wrapper(dataset):
            calls[name] += 1
            return original(dataset)

        return wrapper

    for name in calls:
        monkeypatch.setattr(em_trainer, name, counted(name))
    config = replace(TINY_TRAIN, em_iterations=3)
    result = train(tiny_dataset, semantic_vectors(tiny_universe), config)
    assert calls == {"proposal_arrays": 1, "ground_truth_arrays": 1}
    assert len(result.snapshots) == 3
    assert params_equal(result.snapshots[1].params, tiny_result.state.params)


def test_train_prototypes_cover_exactly_the_dataset_classes(tiny_result, tiny_universe):
    protos = tiny_result.state.prototypes
    assert sorted(protos.base) == list(tiny_universe.base)
    assert protos.novel == frozenset()


def test_train_is_deterministic(tiny_universe, tiny_dataset, tiny_result):
    again = train(tiny_dataset, semantic_vectors(tiny_universe), TINY_TRAIN)
    assert params_equal(again.state.params, tiny_result.state.params)
    for cid in tiny_result.state.prototypes.ids:
        assert np.array_equal(
            vector_for(again.state.prototypes, cid),
            vector_for(tiny_result.state.prototypes, cid),
        )
    assert again.metrics == tiny_result.metrics


def test_train_requires_semantics_for_every_class(tiny_universe, tiny_dataset):
    table = semantic_vectors(tiny_universe)
    table.pop(3)
    with pytest.raises(UnknownClass):
        train(tiny_dataset, table, TINY_TRAIN)
    with pytest.raises(EmptyInput):
        train([], semantic_vectors(tiny_universe), TINY_TRAIN)


def test_visual_init_vectors_oracle():
    scenes = [
        _scene(
            objects=[
                SimpleNamespace(class_id=2, descriptor=np.array([1.0, 2.0, 3.0])),
                SimpleNamespace(class_id=1, descriptor=np.array([10.0, 0.0, 0.0])),
            ]
        ),
        _scene(objects=[SimpleNamespace(class_id=2, descriptor=np.array([3.0, 2.0, 1.0]))]),
    ]
    exact = visual_init_vectors(scenes, 3)
    assert sorted(exact) == [1, 2]
    assert np.array_equal(exact[1], [10.0, 0.0, 0.0])
    assert np.array_equal(exact[2], [2.0, 2.0, 2.0])
    padded = visual_init_vectors(scenes, 5)
    assert np.array_equal(padded[2], [2.0, 2.0, 2.0, 0.0, 0.0])
    cut = visual_init_vectors(scenes, 2)
    assert np.array_equal(cut[2], [2.0, 2.0])
    with pytest.raises(EmptyInput):
        visual_init_vectors([_scene()], 3)


def test_class_means_add_rows_in_input_order_at_every_width():
    rng = np.random.default_rng(0)
    for width in (1, 2, 7):
        rows = rng.normal(size=(60, width)) * 10.0 ** rng.uniform(-3, 3, size=(60, 1))
        ids = rng.integers(1, 4, size=60)
        means = _class_means(ids, rows)
        assert list(means) == [1, 2, 3]
        for cid, mean in means.items():
            mine = [row for row, c in zip(rows, ids) if c == cid]
            acc = mine[0]
            for row in mine[1:]:
                acc = acc + row
            assert np.array_equal(mean, acc / len(mine))


def test_metrics_csv_round_trip(tmp_path, tiny_result):
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, tiny_result.metrics)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "iteration,epoch,fg_loss,bg_loss,bbox_loss,total_loss"
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    back = [
        EpochRecord(int(it), int(ep), float(fg), float(bg), float(bbox), float(total))
        for it, ep, fg, bg, bbox, total in rows
    ]
    assert back == tiny_result.metrics


def test_checkpoint_round_trip(tmp_path, tiny_state, tiny_exemplars):
    state = morph(tiny_state, tiny_exemplars)
    path = tmp_path / "detector.ckpt"
    save_checkpoint(path, state)
    back = load_checkpoint(path)
    assert params_equal(back.params, state.params)
    assert back.config == state.config
    assert sorted(back.prototypes.base) == sorted(state.prototypes.base)
    assert sorted(back.prototypes.novel) == sorted(state.prototypes.novel)
    for cid in state.prototypes.ids:
        assert np.array_equal(vector_for(back.prototypes, cid), vector_for(state.prototypes, cid))
    # Value-exact round trip implies byte-stable re-serialization.
    save_checkpoint(tmp_path / "again.ckpt", back)
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_no_way_of_building_a_prototype_set_leaves_its_matrix_writable(tmp_path, tiny_universe, tiny_result, tiny_exemplars):
    snapshot = tiny_result.snapshots[-1]
    morphed = morph(snapshot, tiny_exemplars)
    save_checkpoint(tmp_path / "morphed.ckpt", morphed)
    built = {
        "init_from_semantic": init_from_semantic(semantic_vectors(tiny_universe)),
        "train": snapshot.prototypes,
        "e_step_update": e_step_update(snapshot.prototypes, {1: np.ones(snapshot.prototypes.dim)}, 0.5),
        "morph": morphed.prototypes,
        "load_checkpoint": load_checkpoint(tmp_path / "morphed.ckpt").prototypes,
    }
    for maker, protos in built.items():
        before = protos.matrix.copy()
        with pytest.raises(ValueError, match="read-only"):
            protos.matrix[0] = 0.0
        assert np.array_equal(protos.matrix, before), maker


def test_checkpoint_of_a_trunk_free_detector_loads_back_equal(tmp_path):
    state = _identity3()
    path = tmp_path / "identity.ckpt"
    save_checkpoint(path, state)
    back = load_checkpoint(path)
    assert back.config == state.config and back.params.hidden_sizes == ()
    assert params_equal(back.params, state.params)
    assert back.prototypes.ids == state.prototypes.ids
    assert np.array_equal(back.prototypes.matrix, state.prototypes.matrix)


def test_checkpoint_rejects_corruption(tmp_path, tiny_state, tiny_exemplars):
    morphed = morph(tiny_state, tiny_exemplars)
    save_checkpoint(tmp_path / "morphed.ckpt", morphed)
    lines = (tmp_path / "morphed.ckpt").read_text(encoding="utf-8").splitlines()
    ids, novel = list(morphed.prototypes.ids), sorted(morphed.prototypes.novel)
    m_in, hidden = tiny_state.params.m_in, tiny_state.params.hidden_sizes[0]

    # Any edit that does not rewrite the end line is refused by the digest.
    raw_cases = {
        "bad_header.ckpt": ["junk"] + lines[1:],
        "older_format.ckpt": [CHECKPOINT_HEADER.replace("v3", "v2")] + lines[1:],
        "no_config.ckpt": [lines[0]] + lines[2:],
        "edited_novel_ids.ckpt": [lines[0], lines[1].replace(f'"novel_ids": {novel}', f'"novel_ids": {novel[:-1]}')]
        + lines[2:],
        "truncated.ckpt": lines[:-2],
        "junk_after_end.ckpt": lines + ["junk"],
    }
    for name, payload in raw_cases.items():
        path = tmp_path / name
        path.write_text("".join(line + "\n" for line in payload), encoding="utf-8")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def config_with(**change):
        def edit(config):
            config = json.loads(json.dumps(config))
            for key, value in change.items():
                section, _, field = key.partition("__")
                if field:
                    config[section][field] = value
                elif value is None:
                    del config[section]
                else:
                    config[section] = value
            return config

        return {"meta": edit}

    def tensor_at(body, name):
        return next(k for k, line in enumerate(body) if line.startswith(f"tensor {name} "))

    def drop_tensor(name):
        return {"body": lambda body: body[: tensor_at(body, name)] + body[tensor_at(body, name) + 1 :]}

    def tensors(edit):
        return {"body": tensor_body(edit)}

    # A file whose digest holds is refused by the loader check it breaks.
    cases = {
        "bad_config": (config_with(train__em_iterations=0), "em_iterations must be >= 1"),
        "unknown_config_key": (config_with(arch={"m_in": m_in}), "config keys"),
        "no_class_ids": (config_with(class_ids=None), "config keys"),
        "duplicate": ({"body": lambda body: body[:1] + body}, "duplicate tensor 'trunk.0.weight'"),
        "missing_tensor": (drop_tensor("box_head.bias"), "missing tensor 'box_head.bias'"),
        "missing_bottom_tensor": (drop_tensor("trunk.0.weight"), "missing tensor 'trunk.0.weight'"),
        "no_prototypes": (drop_tensor("prototypes"), "missing tensor 'prototypes'"),
        "extra_tensor": (tensors(lambda t: t.update(extra=np.ones((1, 1)))), "unexpected tensors: ['extra']"),
        "trunk_shape": (
            tensors(lambda t: t.update({"trunk.0.weight": t["trunk.0.weight"].reshape(2 * m_in, hidden // 2)})),
            f"has shape ({2 * m_in}, {hidden // 2}), expected ({2 * m_in}, {hidden})",
        ),
        # Config values of the wrong type must not be truncated or accepted.
        "train_hidden_fraction": (
            config_with(train__hidden_sizes=[64.9, 64]), "hidden_sizes must be a list of integers"
        ),
        "batch_size_fraction": (config_with(train__batch_size=2.5), "batch_size must be an integer"),
        "em_iterations_bool": (config_with(train__em_iterations=True), "em_iterations must be an integer"),
        # The training config must describe the network it trained.
        "train_hidden_mismatch": (
            config_with(train__hidden_sizes=[32]),
            f"'trunk.0.weight' has shape ({m_in}, {hidden}), expected ({m_in}, 32)",
        ),
        # The class ids, the novel ids and the prototype rows must agree.
        "fractional_class_id": (config_with(class_ids=[1.5, *ids[1:]]), "must be lists of integers"),
        "bool_novel_id": (config_with(novel_ids=[True]), "must be lists of integers"),
        "class_ids_not_a_list": (config_with(class_ids=7), "must be lists of integers"),
        "repeated_class_id": (config_with(class_ids=[1, 1, *ids[2:]]), "ascend without repeats"),
        "descending_class_ids": (config_with(class_ids=ids[::-1]), "ascend without repeats"),
        "background_class_id": (config_with(class_ids=[0, *ids[1:]]), "must be >= 1"),
        "repeated_novel_id": (config_with(novel_ids=[novel[0], *novel]), "novel_ids must ascend without repeats"),
        "descending_novel_ids": (config_with(novel_ids=novel[::-1]), "novel_ids must ascend without repeats"),
        "novel_id_not_a_class": (config_with(novel_ids=[*novel, ids[-1] + 1]), "novel classes without a prototype"),
        "fewer_class_ids_than_rows": (
            config_with(class_ids=ids[:-1], novel_ids=novel[:-1]), "prototype matrix has shape"
        ),
        "prototype_row_lost": (tensors(lambda t: t.update(prototypes=t["prototypes"][:-1])), "prototype matrix has shape"),
        "prototype_not_unit": (
            tensors(lambda t: np.put(t["prototypes"], -1, 0.5)),
            f"prototype for class {ids[-1]} is not a finite unit vector",
        ),
    }
    for name, (edit, message) in cases.items():
        path = tmp_path / f"{name}.ckpt"
        save_checkpoint(path, morphed)
        reframe(path, CHECKPOINT_HEADER, "config", **edit)
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(path)


def test_detector_state_refuses_an_empty_prototype_set(tiny_state):
    with pytest.raises(EmptyInput):
        replace(tiny_state, prototypes=empty_prototypes(tiny_state.prototypes.dim))
