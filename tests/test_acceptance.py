"""Acceptance gate: twelve numbered checks covering gradients, posteriors,
prototype updates, forward-only registration, metric oracles, benchmark
trends, overfit sanity, determinism, and the box codec. One test per check;
each prints a single summary line with the measured figure and its budget."""

import time

import numpy as np
import pytest

from test_embedder import make_batch, make_protos, max_grad_error
from test_evalkit import ap_of, random_box, ref_average_precision, ref_recall_at

from helpers import encode_one, grad_buffer, labelled_batch, scene_of, vector_for
from morphdet.cli import main
from morphdet.em_trainer import DetectorState, TrainConfig, m_step, proposal_arrays
from morphdet.embedder import (
    forward_batch,
    forward_batch_with_grad,
    grad_evaluation_count,
    init_params,
    params_to_lines,
)
from morphdet.evalkit import recall_at
from morphdet.experiments import (
    ExperimentConfig,
    UniverseConfig,
    run_em_iterations,
    run_init,
    run_zero_shot,
)
from morphdet.morph_inference import Box, decode_box, morph
from morphdet.numkernel import l2_normalize
from morphdet.objective import loss_breakdown, posterior_batch
from morphdet.prototype_store import PrototypeSet, e_step_update, init_from_semantic
from morphdet.toyworld import DataConfig, make_dataset, make_universe, semantic_vectors


def test_criterion_01_gradient_correctness():
    start = time.perf_counter()
    worst = 0.0
    compositions = ([1, 0, 2, 0, 3, 0], [1, 2, 3, 1], [0, 0, 0, 0])
    for seed in range(3):
        rng = np.random.default_rng([900, seed])
        params = init_params(6, (8,), 5, seed=seed)
        protos = make_protos(rng, 3, 5)
        weights = TrainConfig(fg_weight=1.0, bg_weight=0.7, bbox_weight=1.3)
        for labels in compositions:
            batch = make_batch(rng, 6, labels)
            worst = max(worst, max_grad_error(params, batch, protos, weights, h=1e-5))
    elapsed = time.perf_counter() - start
    print(f"criterion 1: max relative gradient error {worst:.3e} < 1e-4, {elapsed:.2f}s < 10s")
    assert worst < 1e-4
    assert elapsed < 10.0


def test_criterion_02_posterior_normalization():
    start = time.perf_counter()
    rng = np.random.default_rng(902)
    protos = make_protos(rng, 8, 16)
    features = rng.normal(size=(1000, 16)) * rng.uniform(0.5, 50.0, size=(1000, 1))
    bg_logits = rng.normal(size=1000) * 10.0
    q = posterior_batch(features, bg_logits, protos)
    worst = float(np.max(np.abs(q.sum(axis=1) - 1.0)))
    elapsed = time.perf_counter() - start
    print(f"criterion 2: max |row sum - 1| = {worst:.3e} < 1e-9, {elapsed:.3f}s < 1s")
    assert worst < 1e-9
    assert elapsed < 1.0


def test_criterion_03_e_step_algebra():
    rng = np.random.default_rng(903)
    protos = init_from_semantic({cid: rng.normal(size=5) for cid in (1, 2, 3)})
    means = {cid: rng.normal(size=5) for cid in (1, 2, 3)}

    kept = e_step_update(protos, means, 1.0)
    assert kept is protos
    for cid in (1, 2, 3):
        assert np.array_equal(vector_for(kept, cid), vector_for(protos, cid))

    refit = e_step_update(protos, means, 0.0)
    for cid in (1, 2, 3):
        expected = l2_normalize(means[cid])
        assert np.max(np.abs(vector_for(refit, cid) - expected)) < 1e-12

    pair = PrototypeSet(ids=(1,), matrix=np.array([[0.0, 1.0]]))
    blended = e_step_update(pair, {1: np.array([1.0, 0.0])}, 0.5)
    target = np.array([1.0, 1.0]) / np.sqrt(2.0)
    worst = float(np.max(np.abs(vector_for(blended, 1) - target)))
    print(f"criterion 3: lam=1 bitwise, lam=0 normalized means, symmetric blend off by {worst:.3e} < 1e-12")
    assert worst < 1e-12


def test_criterion_04_morph_is_forward_only(tiny_state, tiny_exemplars):
    cid = min(tiny_exemplars)
    exemplar = tiny_exemplars[cid][0]
    theta_before = "\n".join(params_to_lines(tiny_state.params))

    before = grad_evaluation_count()
    morphed = morph(tiny_state, {cid: [exemplar]})
    grads_used = grad_evaluation_count() - before

    theta_after = "\n".join(params_to_lines(morphed.params))
    expected = l2_normalize(forward_batch(tiny_state.params, exemplar[None, :])[0][0])
    worst = float(np.max(np.abs(vector_for(morphed.prototypes, cid) - expected)))
    print(
        f"criterion 4: {grads_used} gradient evaluations, parameters byte-identical "
        f"{theta_after == theta_before}, one-shot prototype off by {worst:.3e} < 1e-12"
    )
    assert grads_used == 0
    assert morphed.params is tiny_state.params
    assert theta_after == theta_before
    assert worst < 1e-12


def test_criterion_05_base_ratio_preservation(tiny_state, tiny_exemplars):
    rng = np.random.default_rng(905)
    descriptors = rng.normal(size=(100, tiny_state.params.m_in))
    features, bg_logits, _ = forward_batch(tiny_state.params, descriptors)

    before = posterior_batch(features, bg_logits, tiny_state.prototypes)
    morphed = morph(tiny_state, tiny_exemplars)
    after = posterior_batch(features, bg_logits, morphed.prototypes)
    base_ids = tiny_state.prototypes.base
    col_before = {cid: tiny_state.prototypes.ids.index(cid) + 1 for cid in base_ids}
    col_after = {cid: morphed.prototypes.ids.index(cid) + 1 for cid in base_ids}

    worst = 0.0
    for i in range(100):
        for a in base_ids:
            for b in base_ids:
                if a >= b:
                    continue
                r_before = before[i, col_before[a]] / before[i, col_before[b]]
                r_after = after[i, col_after[a]] / after[i, col_after[b]]
                worst = max(worst, abs(r_after / r_before - 1.0))
    print(f"criterion 5: max relative ratio drift {worst:.3e} < 1e-12 over 100 proposals")
    assert worst < 1e-12


def test_criterion_06_metric_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(906)
    checked = 0
    for _case in range(200):
        n_scenes = int(rng.integers(1, 4))
        gts = [
            (int(rng.integers(0, n_scenes)), random_box(rng))
            for _ in range(int(rng.integers(0, 6)))
        ]
        dets = []
        for _ in range(int(rng.integers(0, 11))):
            scene = int(rng.integers(0, n_scenes))
            score = float(rng.integers(0, 5)) / 4.0 if checked % 2 == 0 else float(rng.uniform())
            if gts and rng.uniform() < 0.6:
                anchor = gts[int(rng.integers(0, len(gts)))][1]
                dx, dy = rng.uniform(-0.05, 0.05, size=2)
                box = Box(anchor.x1 + dx, anchor.y1 + dy, anchor.x2 + dx, anchor.y2 + dy)
            else:
                box = random_box(rng)
            dets.append((scene, score, box))
        for thr in (0.5, 0.75):
            assert ap_of(dets, gts, thr) == ref_average_precision(dets, gts, thr)
        for budget in (1, 3):
            assert recall_at(dets, gts, budget, 0.5) == ref_recall_at(dets, gts, budget, 0.5)
        checked += 1
    elapsed = time.perf_counter() - start
    print(f"criterion 6: AP and recall exact on {checked} instances, {elapsed:.2f}s < 5s")
    assert checked == 200
    assert elapsed < 5.0


def _read_csv_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:]]


def test_criterion_07_em_iteration_trend(tmp_path):
    start = time.perf_counter()
    config = ExperimentConfig()
    run_em_iterations(config, out_dir=tmp_path)
    rows = _read_csv_rows(tmp_path / "em_iterations_raw.csv")
    by_seed: dict = {}
    for seed, iteration, ap50 in rows:
        by_seed.setdefault(int(seed), {})[int(iteration)] = float(ap50)
    deltas = {seed: vals[3] - vals[1] for seed, vals in sorted(by_seed.items())}
    wins = sum(1 for d in deltas.values() if d > 0.0)
    elapsed = time.perf_counter() - start
    print(
        f"criterion 7: iteration 3 beats iteration 1 in {wins}/{len(deltas)} seeds "
        f"(margins {[f'{d:+.3f}' for d in deltas.values()]}), {elapsed:.1f}s < 300s"
    )
    assert len(deltas) == 5
    assert wins >= 4
    assert elapsed < 300.0


def test_criterion_08_semantic_vs_visual_init(tmp_path):
    start = time.perf_counter()
    config = ExperimentConfig(universe=UniverseConfig(sigma_sem=0.05))
    run_init(config, out_dir=tmp_path)
    rows = _read_csv_rows(tmp_path / "init_raw.csv")
    by_seed: dict = {}
    for seed, method, ap50 in rows:
        by_seed.setdefault(int(seed), {})[method] = float(ap50)
    margins = {s: v["semantic"] - v["visual"] for s, v in sorted(by_seed.items())}
    wins = sum(1 for d in margins.values() if d > 0.0)
    elapsed = time.perf_counter() - start
    print(
        f"criterion 8: semantic init beats visual in {wins}/{len(margins)} seeds "
        f"(margins {[f'{d:+.3f}' for d in margins.values()]}), {elapsed:.1f}s < 300s"
    )
    assert len(margins) == 5
    assert wins >= 4
    assert elapsed < 300.0


def test_criterion_09_zero_shot_recall(tmp_path):
    start = time.perf_counter()
    config = ExperimentConfig(universe=UniverseConfig(sigma_sem=0.05))
    run_zero_shot(config, out_dir=tmp_path)
    rows = _read_csv_rows(tmp_path / "zero_shot_raw.csv")
    recalls: dict = {"semantic": [], "random": []}
    for _seed, method, recall100, _ap50 in rows:
        recalls[method].append(float(recall100))
    sem = float(np.mean(recalls["semantic"]))
    rand = float(np.mean(recalls["random"]))
    elapsed = time.perf_counter() - start
    print(
        f"criterion 9: semantic recall@100 {sem:.3f} > random {rand:.3f} "
        f"(margin {sem - rand:+.3f}), {elapsed:.1f}s < 120s"
    )
    assert len(recalls["semantic"]) == 5 and len(recalls["random"]) == 5
    assert sem > rand
    assert elapsed < 120.0


def test_criterion_10_overfit_sanity():
    start = time.perf_counter()
    universe = make_universe(UniverseConfig(n_base=6, n_novel=2, k=4, d_sem=8, m_in=10, sigma_sem=0.02), seed=0)
    scenes = make_dataset(universe, universe.base, 2, DataConfig(proposals_per_scene=16), seed=0)
    pool = [p for s in scenes for p in s.proposals if p.label > 0][:5]
    pool += [p for s in scenes for p in s.proposals if p.label == 0][:15]
    assert len(pool) == 20

    config = TrainConfig(m_step_epochs=50, batch_size=20, learning_rate=0.1, momentum=0.8, seed=0)
    base_ids = sorted(universe.base)
    table = semantic_vectors(universe)
    protos = init_from_semantic({cid: table[cid] for cid in base_ids})
    params = init_params(universe.config.m_in, config.hidden_sizes, protos.dim, config.seed)
    state = DetectorState(params=params, prototypes=protos, config=config)
    data = [scene_of(proposals=pool)]
    batch = proposal_arrays(data)

    initial = loss_breakdown(forward_batch_with_grad(params, *labelled_batch(*batch, protos), config, grad_buffer(params)), config).total
    [trained], _ = m_step([state], *batch)
    final = loss_breakdown(forward_batch_with_grad(
        trained.params, *labelled_batch(*batch, protos), config, grad_buffer(trained.params)
    ), config).total
    ratio = final / initial
    elapsed = time.perf_counter() - start
    print(
        f"criterion 10: loss {initial:.4f} -> {final:.4f} after 50 epochs "
        f"(ratio {ratio:.4f} < 0.1), {elapsed:.1f}s < 30s"
    )
    assert ratio < 0.1
    assert elapsed < 30.0


def test_criterion_11_training_determinism(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        """{
  "universe": {"n_base": 4, "n_novel": 2, "k": 4, "d_sem": 8, "m_in": 10, "sigma_sem": 0.2, "sigma_inst": 0.2},
  "data": {"train_scenes_per_class": 1, "eval_scenes_per_class": 1, "objects_per_scene": 1, "proposals_per_scene": 8, "jitter": 0.1},
  "train": {"em_iterations": 2, "m_step_epochs": 2, "batch_size": 8, "hidden_sizes": [16], "seed": 0},
  "shots": 2
}
""",
        encoding="utf-8",
    )
    data = tmp_path / "data"
    assert main(["gen", "--out", str(data), "--config", str(config)]) == 0
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    assert main(["train", "--data", str(data), "--out", str(run_a), "--config", str(config)]) == 0
    assert main(["train", "--data", str(data), "--out", str(run_b), "--config", str(config)]) == 0
    names = ("checkpoint_iter1.ckpt", "checkpoint_iter2.ckpt", "metrics.csv")
    identical = [(run_a / n).read_bytes() == (run_b / n).read_bytes() for n in names]
    print(f"criterion 11: repeated cmd_train byte-identical for {names}: {identical}")
    assert all(identical)


def test_criterion_12_box_codec_round_trip():
    rng = np.random.default_rng(912)
    worst = 0.0
    for _ in range(1000):
        anchor = random_box(rng)
        target = random_box(rng)
        deltas = encode_one(anchor, target)
        back = Box(*decode_box(np.array([anchor.as_tuple()]), deltas[None, :])[0])
        worst = max(worst, float(np.max(np.abs(np.array(back.as_tuple()) - target.as_tuple()))))
        free = np.concatenate([rng.uniform(-2, 2, size=2), rng.uniform(-1, 1, size=2)])
        redone = encode_one(anchor, Box(*decode_box(np.array([anchor.as_tuple()]), free[None, :])[0]))
        worst = max(worst, float(np.max(np.abs(redone - free))))
    print(f"criterion 12: worst round-trip error {worst:.3e} < 1e-9 over 1000 pairs")
    assert worst < 1e-9
