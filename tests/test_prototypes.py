"""Prototype store: matrix invariants, E-step blend algebra, vector files."""

import re

import numpy as np
import pytest

from helpers import empty_prototypes, vector_for
from morphdet.numkernel import DegenerateVector, DimensionMismatch, EmptyInput, l2_normalize
from morphdet.prototype_store import (
    ClassCollision,
    PrototypeSet,
    UnknownClass,
    add_novel,
    e_step_update,
    init_from_semantic,
    read_vector_file,
    write_vector_file,
)


def unit(vec):
    return l2_normalize(np.asarray(vec, dtype=np.float64))


def small_set():
    return PrototypeSet(
        ids=(1, 2, 7),
        matrix=np.stack([unit([1.0, 0.0, 0.0]), unit([0.0, 1.0, 1.0]), unit([1.0, 1.0, 1.0])]),
        novel={7},
    )


def test_prototype_enforces_unit_norm_and_valid_id():
    with pytest.raises(ValueError):
        PrototypeSet(ids=(1,), matrix=np.array([[1.0, 1.0]]))
    with pytest.raises(ValueError):
        PrototypeSet(ids=(1, 2), matrix=np.array([[1.0, 0.0], [0.0, 1.0 + 1e-6]]))
    with pytest.raises(ValueError):
        PrototypeSet(ids=(0,), matrix=np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError):
        PrototypeSet(ids=(-3, 1), matrix=np.eye(2))
    with pytest.raises(ValueError):
        PrototypeSet(ids=(1,), matrix=np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError):
        PrototypeSet(ids=(1, 2), matrix=np.array([[1.0, 0.0], [np.nan, 0.0]]))
    with pytest.raises(ValueError):
        PrototypeSet(ids=(1, 2), matrix=np.array([[1.0, 0.0], [np.inf, 0.0]]))
    with pytest.raises(DimensionMismatch):
        PrototypeSet(ids=(1,), matrix=np.array([1.0, 0.0]))
    with pytest.raises(DimensionMismatch):
        PrototypeSet(ids=(1,), matrix=np.ones((1, 1, 1)))


def test_set_rejects_overlap_and_dim_mismatch():
    with pytest.raises(ValueError):
        PrototypeSet(ids=(1, 1), matrix=np.eye(2))
    with pytest.raises(ValueError):
        PrototypeSet(ids=(2, 1), matrix=np.eye(2))
    with pytest.raises(UnknownClass):
        PrototypeSet(ids=(1, 2), matrix=np.eye(2), novel={3})
    with pytest.raises(DimensionMismatch):
        PrototypeSet(ids=(1, 2), matrix=np.eye(3))
    with pytest.raises(DimensionMismatch):
        PrototypeSet(ids=(1, 2, 3), matrix=np.eye(2))


def test_set_lookup_surface():
    protos = small_set()
    assert protos.ids == (1, 2, 7) and protos.dim == 3
    assert protos.base == (1, 2) and protos.novel == {7}
    assert protos.has_class(7) and not protos.has_class(3) and not protos.has_class(8)
    assert np.array_equal(vector_for(protos, 2), unit([0.0, 1.0, 1.0]))
    with pytest.raises(UnknownClass):
        vector_for(protos, 3)
    empty = empty_prototypes(4)
    assert empty.dim == 4 and empty.ids == () and empty.base == ()
    assert not empty.has_class(1)


def test_vector_for_hands_out_a_read_only_row():
    protos = small_set()
    row = vector_for(protos, 2)
    with pytest.raises(ValueError):
        row[:] = 0.0
    assert np.array_equal(vector_for(protos, 2), unit([0.0, 1.0, 1.0]))


def test_init_from_semantic_normalizes_and_validates():
    protos = init_from_semantic({3: [2.0, 0.0], 1: [1.0, 1.0]})
    assert protos.ids == (1, 3) and protos.base == (1, 3)
    assert all(type(cid) is int for cid in protos.ids)
    assert np.array_equal(vector_for(protos, 3), np.array([1.0, 0.0]))
    assert np.array_equal(vector_for(protos, 1), unit([1.0, 1.0]))
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
        assert np.array_equal(vector_for(updated, cid), vector_for(protos, cid))


def test_e_step_lambda_zero_replaces_with_normalized_means():
    protos = small_set()
    means = {1: np.array([5.0, 1.0, -2.0]), 2: np.array([0.3, 0.4, 0.5])}
    updated = e_step_update(protos, means, lam=0.0)
    for cid in (1, 2):
        assert np.allclose(vector_for(updated, cid), unit(means[cid]), atol=1e-15)


def test_e_step_symmetric_blend_example():
    protos = PrototypeSet(ids=(1,), matrix=np.array([[0.0, 1.0]]))
    updated = e_step_update(protos, {1: np.array([1.0, 0.0])}, lam=0.5)
    expected = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert np.max(np.abs(vector_for(updated, 1) - expected)) < 1e-12


def test_e_step_moves_prototypes_toward_means():
    rng = np.random.default_rng(5)
    for _ in range(50):
        dim = int(rng.integers(2, 8))
        old = unit(rng.normal(size=dim))
        mean = rng.normal(size=dim) * 3
        lam = float(rng.uniform(0.05, 0.95))
        protos = PrototypeSet(ids=(1,), matrix=old[None, :])
        new = vector_for(e_step_update(protos, {1: mean}, lam), 1)
        mean_hat = unit(mean)
        assert float(new @ mean_hat) >= float(old @ mean_hat) - 1e-12


def test_e_step_validation():
    protos = small_set()
    with pytest.raises(UnknownClass):
        e_step_update(protos, {9: np.array([1.0, 0.0, 0.0])}, 0.5)
    with pytest.raises(UnknownClass):
        e_step_update(protos, {7: np.array([1.0, 0.0, 0.0])}, 0.5)  # novel
    with pytest.raises(ValueError):
        e_step_update(protos, {1: np.array([1.0, 0.0, 0.0])}, 1.5)
    with pytest.raises(DimensionMismatch):
        e_step_update(protos, {1: np.array([1.0, 0.0])}, 0.5)


def test_e_step_leaves_novel_untouched():
    protos = small_set()
    updated = e_step_update(protos, {1: np.array([0.0, 3.0, 4.0])}, 0.25)
    assert np.array_equal(vector_for(updated, 7), vector_for(protos, 7))
    assert updated.novel == protos.novel


def test_add_novel_normalizes_and_guards_collisions():
    protos = small_set()
    grown = add_novel(protos, 8, np.array([0.0, 0.0, 2.0]))
    assert np.array_equal(vector_for(grown, 8), np.array([0.0, 0.0, 1.0]))
    assert grown.novel == {7, 8}
    assert not protos.has_class(8)
    with pytest.raises(ClassCollision):
        add_novel(grown, 1, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(DimensionMismatch):
        add_novel(protos, 9, np.array([1.0, 0.0]))


def test_add_novel_keeps_rows_in_id_order():
    protos = small_set()
    row = np.array([3.0, 0.0, 4.0])
    grown = add_novel(protos, 5, row)
    assert grown.ids == (1, 2, 5, 7)
    assert grown.base == (1, 2) and grown.novel == {5, 7}
    expected = np.stack([protos.matrix[0], protos.matrix[1], unit(row), protos.matrix[2]])
    assert np.array_equal(grown.matrix, expected)
    assert protos.ids == (1, 2, 7) and protos.matrix.shape == (3, 3)


@pytest.mark.parametrize("cid", [0, -2])
def test_add_novel_refuses_an_id_below_one(cid):
    with pytest.raises(ValueError, match=rf"class ids must be >= 1 \(0 is background\), got {cid}$"):
        add_novel(small_set(), cid, np.array([0.0, 0.0, 1.0]))


def test_add_novel_rows_pass_the_full_check_bit_for_bit():
    rng = np.random.default_rng(5)
    protos = small_set()
    cid = 8
    for exponent in range(-6, 151, 4):
        for _ in range(3):
            vec = rng.normal(size=3) * 10.0**exponent
            vec[rng.integers(3)] = rng.choice([0.0, 5e-324, -2.2e-308, 1e-300])  # near or below underflow
            protos = add_novel(protos, cid, vec)
            full = PrototypeSet(ids=protos.ids, matrix=protos.matrix.copy(), novel=protos.novel)
            assert full.ids == protos.ids and full.novel == protos.novel
            assert full.matrix.tobytes() == protos.matrix.tobytes()
            cid += 1
    with np.errstate(over="ignore", invalid="ignore"):
        for bad in ([np.nan, 0.0, 1.0], [np.inf, 0.0, 1.0], [0.0, 0.0, 0.0], [1e200, 1.0, 0.0]):
            with pytest.raises(DegenerateVector):
                add_novel(protos, cid, np.array(bad))


def test_vector_file_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    vectors = {cid: rng.normal(size=6) for cid in (4, 1, 9)}
    path = tmp_path / "vectors.txt"
    write_vector_file(path, vectors)
    back = read_vector_file(path)
    assert sorted(back) == [1, 4, 9]
    for cid, vec in vectors.items():
        assert np.array_equal(back[cid], vec)


@pytest.mark.parametrize("bad", [0, -3, 2.0, True])
def test_vector_file_writer_refuses_ids_its_reader_refuses(tmp_path, bad):
    """A key the reader would refuse is refused before the file is opened, so no file is left behind."""
    path = tmp_path / "vectors.txt"
    with pytest.raises(ValueError, match=re.escape(f"class id {bad!r} is not an integer >= 1")):
        write_vector_file(path, {bad: np.ones(2), 5: np.ones(2)})
    assert not path.exists()
    write_vector_file(path, {np.int64(2): np.ones(2), 7: np.zeros(2)})
    assert sorted(read_vector_file(path)) == [2, 7]


def test_vector_file_skips_blank_lines_and_rejects_malformed_ones(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("1\t1 0\n\n2\t0 1\n\n")
    back = read_vector_file(path)
    assert sorted(back) == [1, 2]
    path.write_text("1\t1 0\n1\t0 1\n")
    with pytest.raises(ClassCollision):
        read_vector_file(path)
    # A section separator is no vector line.
    for bad in ("1\t1 0\n---\n2\t0 1\n", "1 1 0\n", "x\t1 0\n", "1\t1 nan\n"):
        path.write_text(bad)
        with pytest.raises(ValueError):
            read_vector_file(path)
    # Ids that int() reads as integers but the writer never writes: zero, signed, underscored, padded, non-ASCII.
    for head in ("0", "-3", "+7", "1_0", "01", " 1", "\u0663"):
        path.write_text(f"2\t0 1\n{head}\t1 0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"line 2: class id {head!r} is not digits")):
            read_vector_file(path)
