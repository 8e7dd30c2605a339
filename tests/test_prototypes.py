"""Prototype store: unit-norm invariants, E-step blend algebra, text formats."""

import numpy as np
import pytest

from morphdet.numkernel import DimensionMismatch, EmptyInput, l2_normalize
from morphdet.prototype_store import (
    ClassCollision,
    Prototype,
    PrototypeSet,
    UnknownClass,
    add_novel,
    all_prototypes,
    e_step_update,
    from_text,
    init_from_semantic,
    read_vector_file,
    to_text,
    write_vector_file,
)


def unit(vec):
    return l2_normalize(np.asarray(vec, dtype=np.float64))


def small_set():
    return PrototypeSet(
        base={1: Prototype(1, unit([1.0, 0.0, 0.0])), 2: Prototype(2, unit([0.0, 1.0, 1.0]))},
        novel={7: Prototype(7, unit([1.0, 1.0, 1.0]))},
        dim=3,
    )


def test_prototype_enforces_unit_norm_and_valid_id():
    with pytest.raises(ValueError):
        Prototype(1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        Prototype(0, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        Prototype(-3, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        Prototype(1, np.array([np.nan, 0.0]))
    with pytest.raises(DimensionMismatch):
        Prototype(1, np.eye(2))


def test_set_rejects_overlap_and_dim_mismatch():
    p = Prototype(1, np.array([1.0, 0.0]))
    with pytest.raises(ClassCollision):
        PrototypeSet(base={1: p}, novel={1: p}, dim=2)
    with pytest.raises(DimensionMismatch):
        PrototypeSet(base={1: p}, novel={}, dim=3)
    with pytest.raises(ValueError):
        PrototypeSet(base={2: p}, novel={}, dim=2)


def test_set_lookup_surface():
    protos = small_set()
    assert protos.class_ids() == [1, 2, 7]
    assert protos.has_class(7) and not protos.has_class(3)
    assert np.array_equal(protos.vector_for(2), unit([0.0, 1.0, 1.0]))
    with pytest.raises(UnknownClass):
        protos.vector_for(3)
    empty = PrototypeSet.empty(4)
    assert empty.dim == 4 and empty.class_ids() == []


def test_init_from_semantic_normalizes_and_validates():
    protos = init_from_semantic({3: [2.0, 0.0], 1: [1.0, 1.0]})
    assert protos.class_ids() == [1, 3]
    assert np.array_equal(protos.base[3].vector, np.array([1.0, 0.0]))
    assert np.allclose(protos.base[1].vector, unit([1.0, 1.0]), atol=1e-15)
    with pytest.raises(ClassCollision):
        init_from_semantic([(1, [1.0, 0.0]), (1, [0.0, 1.0])])
    with pytest.raises(DimensionMismatch):
        init_from_semantic({1: [1.0, 0.0], 2: [1.0, 0.0, 0.0]})
    with pytest.raises(EmptyInput):
        init_from_semantic({})


def test_e_step_lambda_one_is_bitwise_identity():
    protos = small_set()
    means = {1: np.array([5.0, 1.0, -2.0]), 2: np.array([0.3, 0.4, 0.5])}
    updated = e_step_update(protos, means, lam=1.0)
    assert updated is protos
    for cid in (1, 2):
        assert np.array_equal(updated.base[cid].vector, protos.base[cid].vector)


def test_e_step_lambda_zero_replaces_with_normalized_means():
    protos = small_set()
    means = {1: np.array([5.0, 1.0, -2.0]), 2: np.array([0.3, 0.4, 0.5])}
    updated = e_step_update(protos, means, lam=0.0)
    for cid in (1, 2):
        assert np.allclose(updated.base[cid].vector, unit(means[cid]), atol=1e-15)


def test_e_step_symmetric_blend_example():
    protos = PrototypeSet(base={1: Prototype(1, np.array([0.0, 1.0]))}, novel={}, dim=2)
    updated = e_step_update(protos, {1: np.array([1.0, 0.0])}, lam=0.5)
    expected = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert np.max(np.abs(updated.base[1].vector - expected)) < 1e-12


def test_e_step_moves_prototypes_toward_means():
    rng = np.random.default_rng(5)
    for _ in range(50):
        dim = int(rng.integers(2, 8))
        old = unit(rng.normal(size=dim))
        mean = rng.normal(size=dim) * 3
        lam = float(rng.uniform(0.05, 0.95))
        protos = PrototypeSet(base={1: Prototype(1, old)}, novel={}, dim=dim)
        new = e_step_update(protos, {1: mean}, lam).base[1].vector
        mean_hat = unit(mean)
        assert float(new @ mean_hat) >= float(old @ mean_hat) - 1e-12


def test_e_step_validation():
    protos = small_set()
    with pytest.raises(UnknownClass):
        e_step_update(protos, {9: np.array([1.0, 0.0, 0.0])}, 0.5)
    with pytest.raises(ValueError):
        e_step_update(protos, {1: np.array([1.0, 0.0, 0.0])}, 1.5)
    with pytest.raises(DimensionMismatch):
        e_step_update(protos, {1: np.array([1.0, 0.0])}, 0.5)


def test_e_step_leaves_novel_untouched():
    protos = small_set()
    updated = e_step_update(protos, {1: np.array([0.0, 3.0, 4.0])}, 0.25)
    assert np.array_equal(updated.novel[7].vector, protos.novel[7].vector)


def test_add_novel_normalizes_and_guards_collisions():
    protos = small_set()
    grown = add_novel(protos, 8, np.array([0.0, 0.0, 2.0]))
    assert np.array_equal(grown.novel[8].vector, np.array([0.0, 0.0, 1.0]))
    assert not protos.has_class(8)
    with pytest.raises(ClassCollision):
        add_novel(grown, 1, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(DimensionMismatch):
        add_novel(protos, 9, np.array([1.0, 0.0]))


def test_all_prototypes_ascending_merge():
    merged = all_prototypes(small_set())
    assert [p.class_id for p in merged] == [1, 2, 7]


def test_text_round_trip_bitwise():
    rng = np.random.default_rng(6)
    base = {cid: Prototype(cid, unit(rng.normal(size=5))) for cid in (1, 2, 3)}
    novel = {cid: Prototype(cid, unit(rng.normal(size=5))) for cid in (10, 11)}
    protos = PrototypeSet(base=base, novel=novel, dim=5)
    back = from_text(to_text(protos))
    assert sorted(back.base) == [1, 2, 3] and sorted(back.novel) == [10, 11]
    for cid in back.class_ids():
        assert np.array_equal(back.vector_for(cid), protos.vector_for(cid))


def test_from_text_validation():
    with pytest.raises(ValueError):
        from_text("1\t1 0\n2\t0 1\n")  # no separator
    with pytest.raises(ClassCollision):
        from_text("1\t1 0\n1\t0 1\n---\n")
    with pytest.raises(ValueError):
        from_text("not-a-line\n---\n")
    with pytest.raises(ValueError):
        from_text("---\n")  # empty and no dim
    empty = from_text("---\n", dim=4)
    assert empty.dim == 4 and empty.class_ids() == []
    with pytest.raises(DimensionMismatch):
        from_text("1\t1 0\n---\n", dim=3)


def test_vector_file_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    vectors = {cid: rng.normal(size=6) for cid in (4, 1, 9)}
    path = tmp_path / "vectors.txt"
    write_vector_file(path, vectors)
    back = read_vector_file(path)
    assert sorted(back) == [1, 4, 9]
    for cid, vec in vectors.items():
        assert np.array_equal(back[cid], vec)


def test_vector_file_tolerates_separators_and_rejects_duplicates(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("1\t1 0\n---\n2\t0 1\n\n")
    back = read_vector_file(path)
    assert sorted(back) == [1, 2]
    path.write_text("1\t1 0\n1\t0 1\n")
    with pytest.raises(ClassCollision):
        read_vector_file(path)
