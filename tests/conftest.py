"""Shared fixtures: a small world and a detector trained on it.

Session scope keeps the suite fast; tests treat these values as read-only.
"""

import base64

import numpy as np
import pytest

from morphdet.em_trainer import DetectorState, TrainConfig, train
from morphdet.embedder import EmbedderParams
from morphdet.prototype_store import PrototypeSet
from morphdet.textio import read_record_file, tensor_blocks, tensor_line, write_record_file
from morphdet.toyworld import DataConfig, UniverseConfig, exemplars_for, make_dataset, make_universe, semantic_vectors

TINY_TRAIN = TrainConfig(em_iterations=2, m_step_epochs=3, batch_size=16, seed=0)


@pytest.fixture(scope="session")
def tiny_universe():
    return make_universe(UniverseConfig(n_base=6, n_novel=2, k=4, d_sem=8, m_in=10, sigma_sem=0.02), seed=0)


@pytest.fixture(scope="session")
def tiny_dataset(tiny_universe):
    return make_dataset(tiny_universe, tiny_universe.base, 2, DataConfig(proposals_per_scene=16), seed=0)


@pytest.fixture(scope="session")
def tiny_exemplars(tiny_universe):
    return exemplars_for(tiny_universe, tiny_universe.novel, shots=5, seed=0)


@pytest.fixture(scope="session")
def tiny_result(tiny_universe, tiny_dataset):
    return train(tiny_dataset, semantic_vectors(tiny_universe), TINY_TRAIN)


@pytest.fixture(scope="session")
def tiny_state(tiny_result):
    return tiny_result.state


def identity_detector(class_axes, scale=8.0):
    """A trunk-free detector whose feature head is a scaled identity:
    descriptors map straight to features, the background logit and box deltas
    are 0 (decoded boxes equal their anchors). One unit-vector prototype per
    (class_id, axis) pair makes posteriors predictable by hand."""
    axes = dict(class_axes)
    ids = tuple(sorted(axes))
    protos = PrototypeSet(ids=ids, matrix=np.array([axes[cid] for cid in ids], dtype=np.float64))
    params = EmbedderParams((protos.dim, protos.dim))
    params.feature_head.weight[:] = np.eye(protos.dim) * scale
    return DetectorState(params=params, prototypes=protos, config=TrainConfig(hidden_sizes=()))


def reframe(path, header, meta_key, meta=lambda meta: meta, body=lambda body: body):
    """Rewrite the container at `path` with its meta and body lines mapped by
    `meta` and `body`, through write_record_file, so its sha256 end line holds
    and only the loader's own checks can refuse it."""
    old_meta, old_body = read_record_file(path, header, meta_key)
    write_record_file(path, header, meta_key, meta(old_meta), body(old_body))


def tensor_body(edit):
    """A reframe body edit on arrays, not text: the body's tensors, decoded into writable copies in file
    order, are handed to `edit`, which changes the dict or its arrays in place; the result is encoded again."""

    def body(lines):
        tensors = {name: arr.copy() for name, arr in tensor_blocks(lines).items()}
        edit(tensors)
        return [tensor_line(name, arr) for name, arr in tensors.items()]

    return body


def without_last_value(line):
    """A tensor line whose data lost its last value while its header kept the count."""
    head, data = line.rsplit(" ", 1)
    return f"{head} {base64.b64encode(base64.b64decode(data)[:-8]).decode('ascii')}"
