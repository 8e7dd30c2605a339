"""Toy world generation: determinism, labeling oracle, correlation knobs,
stream separation, and the serialization formats."""

from dataclasses import replace

import numpy as np
import pytest

from morphdet import toyworld
from morphdet.morph_inference import encode_box, iou
from morphdet.toyworld import (
    FG_IOU_THRESHOLD,
    GEOMETRY_SCALE,
    exemplars_for,
    load_dataset,
    load_universe,
    make_dataset,
    make_universe,
    save_dataset,
    save_universe,
    semantic_vectors,
)


def test_make_universe_ids_names_and_split():
    uni = make_universe(n_base=5, n_novel=3, seed=0)
    assert [c.class_id for c in uni.base] == [1, 2, 3, 4, 5]
    assert [c.class_id for c in uni.novel] == [6, 7, 8]
    assert uni.base[0].name == "toy001"
    assert uni.novel[-1].name == "toy008"
    manifest = uni.split_manifest()
    assert manifest["base_class_ids"] == [1, 2, 3, 4, 5]
    assert manifest["novel_class_ids"] == [6, 7, 8]
    assert not set(manifest["base_class_ids"]) & set(manifest["novel_class_ids"])


def test_make_universe_deterministic_per_seed():
    a = make_universe(n_base=4, n_novel=2, seed=9)
    b = make_universe(n_base=4, n_novel=2, seed=9)
    c = make_universe(n_base=4, n_novel=2, seed=10)
    for ca, cb in zip(a.classes(), b.classes()):
        assert np.array_equal(ca.attribute, cb.attribute)
        assert np.array_equal(ca.semantic, cb.semantic)
    assert not np.array_equal(a.base[0].attribute, c.base[0].attribute)


def test_make_universe_validates_sizes():
    with pytest.raises(ValueError):
        make_universe(n_base=0, n_novel=2)
    with pytest.raises(ValueError):
        make_universe(n_base=2, n_novel=-1)
    with pytest.raises(ValueError):
        make_universe(n_base=2, n_novel=1, k=0)
    # a world with no novel classes is legal (pure base training)
    assert make_universe(n_base=2, n_novel=0).novel == ()


def test_projections_have_orthonormal_columns():
    uni = make_universe(n_base=4, n_novel=2, k=5, d_sem=9, m_in=11, seed=1)
    for proj in (uni.semantic_projection, uni.descriptor_projection):
        gram = proj.T @ proj
        assert np.max(np.abs(gram - np.eye(proj.shape[1]))) < 1e-9


def test_zero_semantic_noise_is_an_isometry():
    uni = make_universe(n_base=6, n_novel=2, sigma_sem=0.0, seed=2)
    classes = uni.classes()
    for a in classes:
        for b in classes:
            attr_dist = np.linalg.norm(a.attribute - b.attribute)
            sem_dist = np.linalg.norm(a.semantic - b.semantic)
            assert sem_dist == pytest.approx(attr_dist, abs=1e-9)


def test_zero_noise_nearest_neighbor_invariant():
    uni = make_universe(n_base=8, n_novel=3, sigma_sem=0.0, sigma_inst=0.0, seed=3)
    classes = uni.classes()
    for cls in classes:
        others = [c for c in classes if c.class_id != cls.class_id]
        nn_attr = min(others, key=lambda c: np.linalg.norm(c.attribute - cls.attribute))
        nn_sem = min(others, key=lambda c: np.linalg.norm(c.semantic - cls.semantic))
        assert nn_attr.class_id == nn_sem.class_id


def test_dataset_shape_and_determinism():
    uni = make_universe(n_base=4, n_novel=2, seed=4)
    a = make_dataset(uni, uni.base, 3, 2, 10, seed=5)
    b = make_dataset(uni, uni.base, 3, 2, 10, seed=5)
    assert len(a) == 4 * 3
    for sa, sb in zip(a, b):
        assert sa.scene_id == sb.scene_id
        assert len(sa.objects) == 2 and len(sa.proposals) == 10
        for oa, ob in zip(sa.objects, sb.objects):
            assert oa.class_id == ob.class_id
            assert oa.box == ob.box
            assert np.array_equal(oa.descriptor, ob.descriptor)
        for pa, pb in zip(sa.proposals, sb.proposals):
            assert pa.label == pb.label
            assert np.array_equal(pa.descriptor, pb.descriptor)
    other = make_dataset(uni, uni.base, 3, 2, 10, seed=6)
    assert not np.array_equal(a[0].proposals[0].descriptor, other[0].proposals[0].descriptor)


def test_labels_match_independent_iou_rule():
    uni = make_universe(n_base=5, n_novel=2, seed=7)
    scenes = make_dataset(uni, uni.base, 3, 2, 24, seed=8)
    checked = 0
    for scene in scenes:
        for prop in scene.proposals:
            best_iou, best_cid = 0.0, 0
            for obj in scene.objects:
                overlap = iou(prop.anchor, obj.box)
                if overlap > best_iou:
                    best_iou, best_cid = overlap, obj.class_id
            expected = best_cid if best_iou >= FG_IOU_THRESHOLD else 0
            assert prop.label == expected
            checked += 1
    assert checked == len(scenes) * 24


def test_scene_generation_computes_each_iou_once(monkeypatch):
    calls = []
    monkeypatch.setattr(toyworld, "iou", lambda a, b: calls.append(1) or iou(a, b))
    uni = make_universe(n_base=3, n_novel=1, seed=7)
    make_dataset(uni, uni.base, 1, 3, 10, seed=8)
    assert len(calls) == 3 * (3 * 3 + 10 * 3)  # per scene: objects^2 + proposals x objects


def test_foreground_targets_encode_matched_object():
    uni = make_universe(n_base=4, n_novel=2, seed=9)
    scenes = make_dataset(uni, uni.base, 2, 2, 24, seed=10)
    fg_seen = 0
    for scene in scenes:
        for prop in scene.proposals:
            if prop.label == 0:
                assert prop.target_deltas is None
                continue
            fg_seen += 1
            best = max(scene.objects, key=lambda o: iou(prop.anchor, o.box))
            assert np.allclose(prop.target_deltas, encode_box(prop.anchor, best.box), atol=1e-12)
    assert fg_seen > 0


def test_zero_jitter_copies_sit_on_their_objects():
    uni = make_universe(n_base=4, n_novel=2, seed=11)
    scenes = make_dataset(uni, uni.base, 2, 2, 12, seed=12, jitter=0.0)
    for scene in scenes:
        for obj in scene.objects:
            # copies are rebuilt from center/size, exact only up to rounding
            exact = [
                p
                for p in scene.proposals
                if p.label == obj.class_id and iou(p.anchor, obj.box) > 1.0 - 1e-9
            ]
            assert exact, f"object {obj.class_id} in scene {scene.scene_id} has no copy"
            for p in exact:
                assert np.allclose(p.target_deltas, np.zeros(4), atol=1e-12)


def test_descriptor_geometry_channels_are_scaled_box_features():
    uni = make_universe(n_base=3, n_novel=1, seed=13)
    scenes = make_dataset(uni, uni.base, 1, 1, 8, seed=14)
    for scene in scenes:
        for prop in scene.proposals:
            a = prop.anchor
            expected = GEOMETRY_SCALE * np.array([a.center_x, a.center_y, a.width, a.height])
            assert np.allclose(prop.descriptor[-4:], expected, atol=1e-12)


def test_proposal_descriptors_carry_overlapped_appearance():
    uni = make_universe(n_base=3, n_novel=1, sigma_inst=0.0, seed=15)
    scenes = make_dataset(uni, uni.base, 1, 1, 12, seed=16, jitter=0.0)
    by_id = {cls.class_id: cls for cls in uni.classes()}
    for scene in scenes:
        obj = scene.objects[0]
        pure = uni.descriptor_projection @ by_id[obj.class_id].attribute
        exact = [p for p in scene.proposals if iou(p.anchor, obj.box) > 1.0 - 1e-12]
        assert exact
        for p in exact:
            assert np.allclose(p.descriptor[:-4], pure, atol=1e-9)


def test_exemplars_shape_and_stream_separation():
    uni = make_universe(n_base=3, n_novel=2, seed=17)
    ex5 = exemplars_for(uni, uni.novel, shots=5, seed=1)
    assert sorted(ex5) == [4, 5]
    assert all(len(v) == 5 for v in ex5.values())
    assert all(d.shape == (uni.m_in,) for v in ex5.values() for d in v)

    again = exemplars_for(uni, uni.novel, shots=5, seed=1)
    for cid in ex5:
        for a, b in zip(ex5[cid], again[cid]):
            assert np.array_equal(a, b)
    different = exemplars_for(uni, uni.novel, shots=5, seed=2)
    assert not np.array_equal(ex5[4][0], different[4][0])

    data_a = make_dataset(uni, uni.base, 1, 1, 6, seed=1)
    data_b = make_dataset(uni, uni.base, 1, 1, 6, seed=2)
    assert not np.array_equal(
        data_a[0].proposals[0].descriptor, data_b[0].proposals[0].descriptor
    )
    with pytest.raises(ValueError):
        exemplars_for(uni, uni.novel, shots=0, seed=0)


def test_semantic_vectors_cover_requested_classes():
    uni = make_universe(n_base=3, n_novel=2, seed=18)
    table = semantic_vectors(uni)
    assert sorted(table) == [1, 2, 3, 4, 5]
    subset = semantic_vectors(uni, uni.novel)
    assert sorted(subset) == [4, 5]
    assert np.array_equal(table[4], uni.novel[0].semantic)


def test_universe_round_trip(tmp_path):
    uni = make_universe(n_base=4, n_novel=2, k=5, d_sem=7, m_in=11, seed=19)
    path = tmp_path / "universe.txt"
    save_universe(path, uni)
    back = load_universe(path)
    assert back.sigma_sem == uni.sigma_sem and back.sigma_inst == uni.sigma_inst
    assert back.seed == uni.seed
    assert np.array_equal(back.semantic_projection, uni.semantic_projection)
    assert np.array_equal(back.descriptor_projection, uni.descriptor_projection)
    for ca, cb in zip(uni.classes(), back.classes()):
        assert ca.class_id == cb.class_id and ca.name == cb.name
        assert np.array_equal(ca.attribute, cb.attribute)
        assert np.array_equal(ca.semantic, cb.semantic)
    assert back.split_manifest() == uni.split_manifest()


def test_dataset_round_trip(tmp_path):
    uni = make_universe(n_base=3, n_novel=2, seed=20)
    generated = make_dataset(uni, uni.base, 2, 2, 9, seed=21)
    bare = replace(generated[0], proposals=())
    # The meta's m_in must come from a scene that has descriptors.
    for scenes in (generated, [bare, *generated[1:]], [bare]):
        path = tmp_path / "dataset.txt"
        save_dataset(path, scenes)
        back = load_dataset(path)
        assert len(back) == len(scenes)
        for sa, sb in zip(scenes, back):
            assert sa.scene_id == sb.scene_id
            assert len(sa.objects) == len(sb.objects)
            assert len(sa.proposals) == len(sb.proposals)
            for oa, ob in zip(sa.objects, sb.objects):
                assert oa.class_id == ob.class_id
                assert oa.box.as_tuple() == ob.box.as_tuple()
                assert np.array_equal(oa.descriptor, ob.descriptor)
            for pa, pb in zip(sa.proposals, sb.proposals):
                assert pa.label == pb.label
                assert pa.anchor.as_tuple() == pb.anchor.as_tuple()
                assert np.array_equal(pa.descriptor, pb.descriptor)
                if pa.label == 0:
                    assert pb.target_deltas is None
                else:
                    assert np.array_equal(pa.target_deltas, pb.target_deltas)


def test_dataset_load_rejects_non_finite_values_and_wrong_scene_count(tmp_path):
    uni = make_universe(n_base=2, n_novel=1, seed=22)
    path = tmp_path / "dataset.txt"
    save_dataset(path, make_dataset(uni, uni.base, 2, 1, 3, seed=23))
    lines = path.read_text(encoding="utf-8").splitlines()
    at = next(k for k, line in enumerate(lines) if line.startswith("proposal "))
    spoiled = {
        "nan descriptor": lines[:at] + [lines[at].rsplit(" ", 1)[0] + " nan"] + lines[at + 1 :],
        "scene count": [lines[0], lines[1].replace('"scene_count": 4', '"scene_count": 5')] + lines[2:],
        "object before scene": lines[:2] + lines[3:],
    }
    for payload in spoiled.values():
        path.write_text("\n".join(payload) + "\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_dataset(path)
