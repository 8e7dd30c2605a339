"""Toy world generation: determinism, labeling oracle, correlation knobs,
stream separation, and the serialization formats."""


import numpy as np
import pytest

from conftest import reframe
from helpers import scene_of
from morphdet import toyworld
from morphdet.morph_inference import encode_box, iou
from morphdet.toyworld import (
    DATASET_HEADER,
    FG_IOU_THRESHOLD,
    GEOMETRY_SCALE,
    UNIVERSE_HEADER,
    DataConfig,
    UniverseConfig,
    exemplars_for,
    load_dataset,
    load_universe,
    make_dataset,
    make_universe,
    save_dataset,
    save_universe,
    semantic_vectors,
)


def test_make_universe_ids_and_split():
    uni = make_universe(UniverseConfig(n_base=5, n_novel=3, sigma_sem=0.02), seed=0)
    assert [c.class_id for c in uni.base] == [1, 2, 3, 4, 5]
    assert [c.class_id for c in uni.novel] == [6, 7, 8]
    manifest = uni.split_manifest()
    assert manifest["base_class_ids"] == [1, 2, 3, 4, 5]
    assert manifest["novel_class_ids"] == [6, 7, 8]
    assert not set(manifest["base_class_ids"]) & set(manifest["novel_class_ids"])


def test_make_universe_deterministic_per_seed():
    a = make_universe(UniverseConfig(n_base=4, n_novel=2, sigma_sem=0.02), seed=9)
    b = make_universe(UniverseConfig(n_base=4, n_novel=2, sigma_sem=0.02), seed=9)
    c = make_universe(UniverseConfig(n_base=4, n_novel=2, sigma_sem=0.02), seed=10)
    for ca, cb in zip(a.classes(), b.classes()):
        assert np.array_equal(ca.attribute, cb.attribute)
        assert np.array_equal(ca.semantic, cb.semantic)
    assert not np.array_equal(a.base[0].attribute, c.base[0].attribute)


# (field, value) pairs each config section refuses; the default k is 6, so
# d_sem 5 is below it and m_in 9 leaves 5 appearance channels.
UNIVERSE_REFUSALS = (
    ("n_base", 0), ("n_novel", -1), ("k", 0), ("d_sem", 5), ("m_in", 9), ("sigma_sem", -0.1), ("sigma_inst", -0.1),
)
DATA_REFUSALS = (
    ("train_scenes_per_class", 0), ("eval_scenes_per_class", 0), ("objects_per_scene", 0),
    ("proposals_per_scene", 0), ("jitter", -0.1),
)


def test_make_universe_validates_sizes():
    for field, value in UNIVERSE_REFUSALS:
        with pytest.raises(ValueError, match=f"^{field} must"):
            UniverseConfig(**{field: value})
    # every world needs novel classes to evaluate and morph
    with pytest.raises(ValueError, match="^n_novel must be >= 1, got 0"):
        UniverseConfig(n_base=2, n_novel=0, sigma_sem=0.02)


def test_make_dataset_validates_counts_and_jitter():
    for field, value in DATA_REFUSALS:
        with pytest.raises(ValueError, match=f"^{field} must"):
            DataConfig(**{field: value})
    uni = make_universe(UniverseConfig(n_base=2, n_novel=1), seed=0)
    with pytest.raises(ValueError, match="no classes"):
        make_dataset(uni, (), 1, DataConfig(), seed=0)
    with pytest.raises(ValueError, match="^scenes_per_class must"):
        make_dataset(uni, uni.base, 0, DataConfig(), seed=0)


def test_projections_have_orthonormal_columns():
    uni = make_universe(UniverseConfig(n_base=4, n_novel=2, k=5, d_sem=9, m_in=11, sigma_sem=0.02), seed=1)
    for proj in (uni.semantic_projection, uni.descriptor_projection):
        gram = proj.T @ proj
        assert np.max(np.abs(gram - np.eye(proj.shape[1]))) < 1e-9


def test_orthonormal_columns_are_the_sign_fixed_qr_factor():
    """Modified Gram-Schmidt gives LAPACK's Q, each column's sign fixed so that
    R's diagonal is positive."""
    for rows, cols in [(16, 6), (8, 6), (6, 6), (40, 10)]:
        for seed in range(200):
            q = toyworld._orthonormal_columns(np.random.default_rng(seed), rows, cols)
            ref, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(rows, cols)))
            assert np.max(np.abs(q - ref * np.sign(np.diag(r)))) <= 1e-12
            assert np.max(np.abs(q.T @ q - np.eye(cols))) <= 1e-12


def test_zero_semantic_noise_is_an_isometry():
    uni = make_universe(UniverseConfig(n_base=6, n_novel=2, sigma_sem=0.0), seed=2)
    classes = uni.classes()
    for a in classes:
        for b in classes:
            attr_dist = np.linalg.norm(a.attribute - b.attribute)
            sem_dist = np.linalg.norm(a.semantic - b.semantic)
            assert sem_dist == pytest.approx(attr_dist, abs=1e-9)


def test_zero_noise_nearest_neighbor_invariant():
    uni = make_universe(UniverseConfig(n_base=8, n_novel=3, sigma_sem=0.0, sigma_inst=0.0), seed=3)
    classes = uni.classes()
    for cls in classes:
        others = [c for c in classes if c.class_id != cls.class_id]
        nn_attr = min(others, key=lambda c: np.linalg.norm(c.attribute - cls.attribute))
        nn_sem = min(others, key=lambda c: np.linalg.norm(c.semantic - cls.semantic))
        assert nn_attr.class_id == nn_sem.class_id


def test_dataset_shape_and_determinism():
    uni = make_universe(UniverseConfig(n_base=4, n_novel=2, sigma_sem=0.02), seed=4)
    a = make_dataset(uni, uni.base, 3, DataConfig(proposals_per_scene=10), seed=5)
    b = make_dataset(uni, uni.base, 3, DataConfig(proposals_per_scene=10), seed=5)
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
    other = make_dataset(uni, uni.base, 3, DataConfig(proposals_per_scene=10), seed=6)
    assert not np.array_equal(a[0].proposals[0].descriptor, other[0].proposals[0].descriptor)


def test_labels_match_independent_iou_rule():
    uni = make_universe(UniverseConfig(n_base=5, n_novel=2, sigma_sem=0.02), seed=7)
    scenes = make_dataset(uni, uni.base, 3, DataConfig(), seed=8)
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
    uni = make_universe(UniverseConfig(n_base=3, n_novel=1, sigma_sem=0.02), seed=7)
    make_dataset(uni, uni.base, 1, DataConfig(objects_per_scene=3, proposals_per_scene=10), seed=8)
    assert len(calls) == 3 * (3 * 3 + 10 * 3)  # per scene: objects^2 + proposals x objects


def test_foreground_targets_encode_matched_object():
    uni = make_universe(UniverseConfig(n_base=4, n_novel=2, sigma_sem=0.02), seed=9)
    scenes = make_dataset(uni, uni.base, 2, DataConfig(), seed=10)
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
    uni = make_universe(UniverseConfig(n_base=4, n_novel=2, sigma_sem=0.02), seed=11)
    scenes = make_dataset(uni, uni.base, 2, DataConfig(proposals_per_scene=12, jitter=0.0), seed=12)
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
    uni = make_universe(UniverseConfig(n_base=3, n_novel=1, sigma_sem=0.02), seed=13)
    scenes = make_dataset(uni, uni.base, 1, DataConfig(objects_per_scene=1, proposals_per_scene=8), seed=14)
    for scene in scenes:
        for prop in scene.proposals:
            a = prop.anchor
            expected = GEOMETRY_SCALE * np.array([a.center_x, a.center_y, a.width, a.height])
            assert np.allclose(prop.descriptor[-4:], expected, atol=1e-12)


def test_proposal_descriptors_carry_overlapped_appearance():
    uni = make_universe(UniverseConfig(n_base=3, n_novel=1, sigma_inst=0.0, sigma_sem=0.02), seed=15)
    data = DataConfig(objects_per_scene=1, proposals_per_scene=12, jitter=0.0)
    scenes = make_dataset(uni, uni.base, 1, data, seed=16)
    by_id = {cls.class_id: cls for cls in uni.classes()}
    for scene in scenes:
        obj = scene.objects[0]
        pure = uni.descriptor_projection @ by_id[obj.class_id].attribute
        exact = [p for p in scene.proposals if iou(p.anchor, obj.box) > 1.0 - 1e-12]
        assert exact
        for p in exact:
            assert np.allclose(p.descriptor[:-4], pure, atol=1e-9)


def test_exemplars_shape_and_stream_separation():
    uni = make_universe(UniverseConfig(n_base=3, n_novel=2, sigma_sem=0.02), seed=17)
    ex5 = exemplars_for(uni, uni.novel, shots=5, seed=1)
    assert sorted(ex5) == [4, 5]
    assert all(len(v) == 5 for v in ex5.values())
    assert all(d.shape == (uni.config.m_in,) for v in ex5.values() for d in v)

    again = exemplars_for(uni, uni.novel, shots=5, seed=1)
    for cid in ex5:
        for a, b in zip(ex5[cid], again[cid]):
            assert np.array_equal(a, b)
    different = exemplars_for(uni, uni.novel, shots=5, seed=2)
    assert not np.array_equal(ex5[4][0], different[4][0])

    data_a = make_dataset(uni, uni.base, 1, DataConfig(objects_per_scene=1, proposals_per_scene=6), seed=1)
    data_b = make_dataset(uni, uni.base, 1, DataConfig(objects_per_scene=1, proposals_per_scene=6), seed=2)
    assert not np.array_equal(
        data_a[0].proposals[0].descriptor, data_b[0].proposals[0].descriptor
    )
    with pytest.raises(ValueError):
        exemplars_for(uni, uni.novel, shots=0, seed=0)


def test_semantic_vectors_cover_requested_classes():
    uni = make_universe(UniverseConfig(n_base=3, n_novel=2, sigma_sem=0.02), seed=18)
    table = semantic_vectors(uni)
    assert sorted(table) == [1, 2, 3, 4, 5]
    subset = semantic_vectors(uni, uni.novel)
    assert sorted(subset) == [4, 5]
    assert np.array_equal(table[4], uni.novel[0].semantic)


def test_universe_round_trip(tmp_path):
    uni = make_universe(UniverseConfig(n_base=4, n_novel=2, k=5, d_sem=7, m_in=11, sigma_sem=0.02), seed=19)
    path = tmp_path / "universe.txt"
    save_universe(path, uni)
    back = load_universe(path)
    assert back.config == uni.config
    assert back.seed == uni.seed
    assert np.array_equal(back.semantic_projection, uni.semantic_projection)
    assert np.array_equal(back.descriptor_projection, uni.descriptor_projection)
    for ca, cb in zip(uni.classes(), back.classes()):
        assert ca.class_id == cb.class_id
        assert np.array_equal(ca.attribute, cb.attribute)
        assert np.array_equal(ca.semantic, cb.semantic)
    assert back.split_manifest() == uni.split_manifest()


def test_universe_config_stores_noise_scales_as_floats(tmp_path):
    config = UniverseConfig(n_base=2, n_novel=1, sigma_sem=1, sigma_inst=0)
    assert type(config.sigma_sem) is float and type(config.sigma_inst) is float
    path = tmp_path / "universe.txt"
    save_universe(path, make_universe(config, seed=0))
    assert '"sigma_inst": 0.0' in path.read_text(encoding="utf-8").splitlines()[1]
    assert load_universe(path).config == config


def test_universe_load_refuses_a_meta_line_its_body_disagrees_with(tmp_path):
    path = tmp_path / "universe.txt"
    universe = make_universe(UniverseConfig(n_base=2, n_novel=1, k=2, d_sem=3, m_in=6), seed=3)
    # k 3 leaves m_in 6 too few appearance channels, so the config refuses it
    # before the body is read.
    cases = (
        ({"meta": lambda meta: {**meta, "d_sem": 4}}, "does not match its meta line"),
        ({"meta": lambda meta: {**meta, "n_novel": 2}}, "does not match its meta line"),
        ({"meta": lambda meta: {**meta, "k": 3}}, "m_in"),
        # The four tensors come in save_universe's order.
        ({"body": lambda body: body[2:4] + body[:2] + body[4:]}, "does not match its meta line"),
        ({"body": lambda body: body[:-2]}, "does not match its meta line"),
        ({"body": lambda body: [body[0], body[1].rsplit(" ", 1)[0], *body[2:]]}, "declares 3x2 but carries 5 values"),
    )
    for edit, message in cases:
        save_universe(path, universe)
        reframe(path, UNIVERSE_HEADER, "meta", **edit)
        with pytest.raises(ValueError, match=message):
            load_universe(path)


@pytest.mark.parametrize(
    "change, field",
    [
        ({"sigma_sem": -0.4}, "sigma_sem must be finite and >= 0"),
        ({"sigma_inst": float("nan")}, "sigma_inst must be a finite number"),
        ({"seed": -7}, "seed must be an integer >= 0, got -7"),
        ({"seed": None}, "seed must be an integer >= 0, got None"),
        ({"colour": 1}, r"unknown keys \['colour'\]"),
        ({"n_novel": 0}, "n_novel must be >= 1, got 0"),
        ({"sigma_inst": None}, r"lacks \['sigma_inst'\]"),
    ],
    ids=[
        "negative_sigma_sem", "nan_sigma_inst", "negative_seed", "no_seed", "unknown_key", "no_novel", "no_sigma_inst",
    ],
)
def test_universe_load_refuses_a_meta_line_its_config_refuses(tmp_path, change, field):
    path = tmp_path / "universe.txt"
    save_universe(path, make_universe(UniverseConfig(n_base=2, n_novel=1, k=2, d_sem=3, m_in=6), seed=3))
    reframe(path, UNIVERSE_HEADER, "meta", meta=lambda meta: {
        key: value for key, value in {**meta, **change}.items() if value is not None
    })
    with pytest.raises(ValueError, match=field):
        load_universe(path)


def test_dataset_round_trip(tmp_path):
    uni = make_universe(UniverseConfig(n_base=3, n_novel=2, sigma_sem=0.02), seed=20)
    generated = make_dataset(uni, uni.base, 2, DataConfig(proposals_per_scene=9), seed=21)
    bare = scene_of(generated[0].objects, (), generated[0].scene_id)
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
    uni = make_universe(UniverseConfig(n_base=2, n_novel=1, sigma_sem=0.02), seed=22)
    path = tmp_path / "dataset.txt"
    scenes = make_dataset(uni, uni.base, 2, DataConfig(objects_per_scene=1, proposals_per_scene=3), seed=23)

    def nan_descriptor(body):
        at = next(k for k, line in enumerate(body) if line.startswith("proposal "))
        return body[:at] + [body[at].rsplit(" ", 1)[0] + " nan"] + body[at + 1 :]

    cases = {
        "nan descriptor": ({"body": nan_descriptor}, "non-finite"),
        "scene count": ({"meta": lambda meta: {**meta, "scene_count": 5}}, "meta says"),
        "object before scene": ({"body": lambda body: body[1:]}, "unexpected dataset line"),
        "short descriptor": (
            {"body": lambda body: [body[0], body[1].rsplit(" ", 1)[0], *body[2:]]}, "has 11 values, meta says 12"
        ),
    }
    for edit, message in cases.values():
        save_dataset(path, scenes)
        reframe(path, DATASET_HEADER, "meta", **edit)
        with pytest.raises(ValueError, match=message):
            load_dataset(path)
    # An older version of the format is refused by name.
    save_dataset(path, scenes)
    older = path.read_text(encoding="utf-8").replace(DATASET_HEADER, "toyworld-dataset v1", 1)
    path.write_text(older, encoding="utf-8")
    with pytest.raises(ValueError, match="older format"):
        load_dataset(path)


def _edit_first(prefix, edit):
    """A body edit: `edit` applied to the tokens of the first line that starts with `prefix`."""

    def apply(body):
        at = next(k for k, line in enumerate(body) if line.startswith(prefix))
        return body[:at] + [" ".join(edit(body[at].split(" ")))] + body[at + 1 :]

    return apply


def _swapped_x(tokens):
    return tokens[:2] + [tokens[4], tokens[3], tokens[2]] + tokens[5:]


# One body defect per case, each refused by the dataset loader's own checks;
# the regex matches the message naming that defect.
DATASET_BODY_REFUSALS = {
    "object class id 0": (_edit_first("object ", lambda t: [t[0], "0", *t[2:]]), "class id must be >= 1"),
    "proposal label -1": (_edit_first("proposal 0 ", lambda t: [t[0], "-1", *t[2:]]), "background"),
    "inverted anchor": (_edit_first("proposal ", _swapped_x), "degenerate box corners"),
    "nan box corner": (_edit_first("object ", lambda t: [*t[:2], "nan", *t[3:]]), "non-finite"),
    "unknown line kind": (_edit_first("object ", lambda t: ["thing", *t[1:]]), "unexpected dataset line"),
    "scene with two ids": (_edit_first("scene ", lambda t: [*t, "2"]), "unexpected dataset line"),
    "non-integer head": (_edit_first("object ", lambda t: [t[0], "2.5", *t[2:]]), r"2\.5"),
    "head beyond exact integers": (_edit_first("object ", lambda t: [t[0], "1e300", *t[2:]]), r"1e\+?300"),
}


@pytest.mark.parametrize("case", DATASET_BODY_REFUSALS)
def test_dataset_load_refuses_each_bad_body_line(tmp_path, case):
    uni = make_universe(UniverseConfig(n_base=2, n_novel=1, sigma_sem=0.02), seed=22)
    scenes = make_dataset(uni, uni.base, 2, DataConfig(objects_per_scene=1, proposals_per_scene=3), seed=23)
    path = tmp_path / "dataset.txt"
    save_dataset(path, scenes)
    edit, message = DATASET_BODY_REFUSALS[case]
    reframe(path, DATASET_HEADER, "meta", body=edit)
    with pytest.raises(ValueError, match=message):
        load_dataset(path)
