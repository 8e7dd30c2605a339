"""Every universe, dataset, checkpoint and exemplar file either loads back
exactly what it holds or is refused: each line cut, dropped, repeated or
edited, and any text appended after its end line, must give a file that saves
back byte for byte after loading, or raise a ValueError subclass
(CheckpointError for checkpoints)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import joined_tensor_file, objects_of, scene_of
from morphdet import em_trainer, morph_inference, toyworld
from morphdet.em_trainer import DetectorState, TrainConfig, load_checkpoint, save_checkpoint
from morphdet.embedder import CheckpointError, init_params
from morphdet.morph_inference import read_exemplars_csv, write_exemplars_csv
from morphdet.prototype_store import PrototypeSet
from morphdet.toyworld import (
    DataConfig,
    UniverseConfig,
    load_dataset,
    load_universe,
    make_dataset,
    exemplars_for,
    make_universe,
    save_dataset,
    save_universe,
)

FUZZ = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
# Appended text: anything encodable, or a copy of one of the file's own lines.
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=30)


def _variants(lines, extra, edit):
    yield lines
    for k in range(len(lines)):
        yield lines[:k]
        yield lines[:k] + lines[k + 1 :]
        yield lines[: k + 1] + lines[k:]
        yield lines[:k] + [edit(lines[k])] + lines[k + 1 :]
    yield lines + [extra]


def _check_every_variant(path, text, data, load, dump, error):
    extra = data.draw(_TEXT | st.sampled_from(text.splitlines()))
    # One token of a line gains a character: a changed digit, name or count.
    token_edit = data.draw(st.tuples(st.integers(0, 64), st.sampled_from("0123456789.-e x")))

    def edit(line):
        tokens = line.split(" ")
        k = token_edit[0] % len(tokens)
        return " ".join(tokens[:k] + [tokens[k] + token_edit[1]] + tokens[k + 1 :])

    for lines in _variants(text.splitlines(), extra, edit):
        mutated = "".join(line + "\n" for line in lines)
        path.write_text(mutated, encoding="utf-8")
        try:
            loaded = load(path)
        except error:
            continue
        assert dump(loaded) == mutated, f"loaded a file that does not save back:\n{mutated}"


def _saved_text(save, tmp_dir):
    def dump(value):
        out = tmp_dir / "saved.txt"
        save(out, value)
        return out.read_text(encoding="utf-8")

    return dump


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def small_universe():
    return make_universe(UniverseConfig(n_base=2, n_novel=1, k=2, d_sem=3, m_in=6, sigma_sem=0.02), seed=3)


@FUZZ
@given(data=st.data())
def test_universe_file_loads_exactly_or_is_refused(fuzz_dir, small_universe, data):
    path = fuzz_dir / "universe.txt"
    save_universe(path, small_universe)
    text = path.read_text(encoding="utf-8")
    dump = _saved_text(save_universe, fuzz_dir)
    _check_every_variant(path, text, data, load_universe, dump, ValueError)


@FUZZ
@given(data=st.data())
def test_dataset_file_loads_exactly_or_is_refused(fuzz_dir, small_universe, data):
    path = fuzz_dir / "dataset.txt"
    data_config = DataConfig(objects_per_scene=1, proposals_per_scene=3)
    save_dataset(path, make_dataset(small_universe, small_universe.base, 1, data_config, seed=4))
    text = path.read_text(encoding="utf-8")
    dump = _saved_text(save_dataset, fuzz_dir)
    _check_every_variant(path, text, data, load_dataset, dump, ValueError)


@FUZZ
@given(data=st.data())
def test_checkpoint_file_loads_exactly_or_is_refused(fuzz_dir, data):
    diagonal = np.sqrt([0.5, 0.5])
    sets = (
        PrototypeSet(ids=(1, 2, 3), matrix=np.array([[1.0, 0.0], [0.0, 1.0], diagonal]), novel={3}),
        # The novel id sits between the base ids, so file order is not id order.
        PrototypeSet(ids=(1, 2, 3), matrix=np.array([[1.0, 0.0], diagonal, [0.0, 1.0]]), novel={2}),
    )
    path = fuzz_dir / "detector.ckpt"
    dump = _saved_text(save_checkpoint, fuzz_dir)
    for protos in sets:
        state = DetectorState(init_params(3, (2,), 2, seed=5), protos, TrainConfig(hidden_sizes=(2,)))
        _check_every_variant(path, dump(state), data, load_checkpoint, dump, CheckpointError)


@FUZZ
@given(data=st.data())
def test_exemplar_file_loads_exactly_or_is_refused(fuzz_dir, small_universe, data):
    path = fuzz_dir / "exemplars.csv"
    every_class = small_universe.base + small_universe.novel
    write_exemplars_csv(path, exemplars_for(small_universe, every_class, shots=2, seed=6))
    text = path.read_text(encoding="utf-8")
    dump = _saved_text(write_exemplars_csv, fuzz_dir)
    _check_every_variant(path, text, data, read_exemplars_csv, dump, ValueError)


@pytest.mark.parametrize("kind", ["universe", "dataset", "checkpoint", "exemplars"])
def test_each_container_writes_the_bytes_of_the_joined_text_path(tmp_path, monkeypatch, small_universe, kind):
    """Each writer streams the bytes its former path wrote: every tensor a str line, the lines joined. The seed-0
    quickstart digests pin which tensors each writer hands over; this pins how they are encoded and framed."""
    scenes = make_dataset(small_universe, small_universe.base, 2, DataConfig(proposals_per_scene=5), seed=4)
    protos = PrototypeSet(ids=(1, 2, 3), matrix=np.array([[1.0, 0.0], [0.0, 1.0], np.sqrt([0.5, 0.5])]), novel={3})
    module, save, value = {
        "universe": (toyworld, save_universe, small_universe),
        "dataset": (toyworld, save_dataset, [*scenes, scene_of(objects_of(scenes[0]), (), scene_id=9)]),
        "checkpoint": (em_trainer, save_checkpoint,
                       DetectorState(init_params(3, (2,), 2, seed=5), protos, TrainConfig(hidden_sizes=(2,)))),
        "exemplars": (morph_inference, write_exemplars_csv, exemplars_for(small_universe, small_universe.novel, 2, 6)),
    }[kind]
    save(tmp_path / "streamed.txt", value)
    monkeypatch.setattr(module, "write_tensor_file", joined_tensor_file)
    save(tmp_path / "joined.txt", value)
    assert (tmp_path / "streamed.txt").read_bytes() == (tmp_path / "joined.txt").read_bytes()
