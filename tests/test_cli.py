"""End-to-end command-line flows on a miniature benchmark."""

import hashlib
import json
import pathlib
import re
import shutil
from dataclasses import replace

import numpy as np
import pytest

from conftest import reframe, tensor_body, without_last_value
from helpers import params_equal, reference_eval_lines, reference_report_csv, reference_table_rows, vector_for
from morphdet import cli, em_trainer, experiments
from morphdet.cli import GEN_FILES, _apply_train_overrides, build_parser, main
from morphdet.em_trainer import CHECKPOINT_HEADER, TrainConfig, load_checkpoint
from morphdet.embedder import grad_evaluation_count
from morphdet.experiments import ExperimentConfig
from morphdet.morph_inference import EXEMPLARS_HEADER, read_exemplars_csv
from morphdet.textio import parse_tensor, sha256_file, tensor_line, write_record_file
from morphdet.toyworld import DATASET_HEADER, UNIVERSE_HEADER

TINY_CONFIG = {
    "universe": {"n_base": 4, "n_novel": 2, "k": 4, "d_sem": 8, "m_in": 10, "sigma_sem": 0.2, "sigma_inst": 0.2},
    "data": {
        "train_scenes_per_class": 1,
        "eval_scenes_per_class": 1,
        "objects_per_scene": 1,
        "proposals_per_scene": 8,
        "jitter": 0.1,
    },
    "train": {"em_iterations": 2, "m_step_epochs": 2, "batch_size": 8, "hidden_sizes": [16], "seed": 0},
    "shots": 2,
    "seeds": 2,
}


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    path.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def gen_dir(cfg_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    assert main(["gen", "--out", str(out), "--config", cfg_path]) == 0
    return out


@pytest.fixture(scope="module")
def train_dir(cfg_path, gen_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    assert main(["train", "--data", str(gen_dir), "--out", str(out), "--config", cfg_path]) == 0
    return out


@pytest.fixture(scope="module")
def morphed_ckpt(train_dir, gen_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("morph") / "morphed.ckpt"
    rc = main(
        [
            "morph",
            "--checkpoint", str(train_dir / "checkpoint_iter2.ckpt"),
            "--exemplars", str(gen_dir / "exemplars.csv"),
            "--out", str(out),
        ]
    )
    assert rc == 0
    return out


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().out.lower()


def test_missing_required_flags_are_usage_errors(capsys):
    assert main(["train"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_gen_writes_split_and_manifest(gen_dir):
    for name in GEN_FILES:
        assert (gen_dir / name).is_file()
    manifest = json.loads((gen_dir / "manifest.json").read_text(encoding="utf-8"))
    # The class split and the seed are written once, in the universe's entry.
    assert sorted(manifest) == ["files", "scene_counts", "shots", "universe"]
    assert manifest["universe"]["seed"] == 0 and manifest["shots"] == 2
    assert manifest["universe"]["base_class_ids"] == [1, 2, 3, 4]
    assert manifest["universe"]["novel_class_ids"] == [5, 6]
    assert manifest["scene_counts"] == {"train_base": 4, "eval_base": 4, "eval_novel": 2}
    for name, digest in manifest["files"].items():
        assert sha256_file(gen_dir / name) == digest


def test_gen_is_deterministic(cfg_path, gen_dir, tmp_path, capsys):
    out = tmp_path / "again"
    assert main(["gen", "--out", str(out), "--config", cfg_path]) == 0
    stdout = capsys.readouterr().out
    assert "4 base / 2 novel classes, seed 0" in stdout
    for name in GEN_FILES + ("manifest.json",):
        assert (out / name).read_bytes() == (gen_dir / name).read_bytes()


def test_gen_seed_and_shot_flags(cfg_path, tmp_path):
    out = tmp_path / "shot1"
    assert main(["gen", "--out", str(out), "--config", cfg_path, "--seed", "3", "--shots", "1"]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["universe"]["seed"] == 3 and manifest["shots"] == 1
    exemplars = read_exemplars_csv(out / "exemplars.csv")
    assert all(len(vecs) == 1 for vecs in exemplars.values())


def test_gen_default_world_is_twenty_five(tmp_path):
    out = tmp_path / "full"
    assert main(["gen", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["universe"]["base_class_ids"] == list(range(1, 21))
    assert manifest["universe"]["novel_class_ids"] == list(range(21, 26))
    assert manifest["scene_counts"]["train_base"] == 60


def test_gen_rejects_bad_config(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    assert main(["gen", "--out", str(tmp_path / "a"), "--config", str(broken)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"zzz": 1}', encoding="utf-8")
    assert main(["gen", "--out", str(tmp_path / "b"), "--config", str(unknown)]) == 2
    wrong_type = tmp_path / "wrong_type.json"
    wrong_type.write_text('{"universe": {"n_base": "x"}}', encoding="utf-8")
    assert main(["gen", "--out", str(tmp_path / "c"), "--config", str(wrong_type)]) == 2
    assert "n_base must be an integer" in capsys.readouterr().err
    zero_width = tmp_path / "zero_width.json"
    zero_width.write_text('{"train": {"hidden_sizes": [0]}}', encoding="utf-8")
    assert main(["gen", "--out", str(tmp_path / "d"), "--config", str(zero_width)]) == 2
    assert "error: train: hidden_sizes widths must all be >= 1, got [0]" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize(
    "content",
    [b"[" * 100_000 + b"]" * 100_000, b'{"shots": ' + b"9" * 5000 + b"}", b"\xff{}"],
    ids=["nested 100000 deep", "a 5000-digit integer", "not UTF-8"],
)
def test_gen_names_a_config_file_that_json_cannot_parse(content, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(content)
    out = tmp_path / "world"
    _refused_without_output(["gen", "--out", str(out), "--config", str(config)], out, capsys, f"{config}: not valid JSON")


def test_train_writes_checkpoints_and_metrics(train_dir):
    assert (train_dir / "checkpoint_iter1.ckpt").is_file()
    assert (train_dir / "checkpoint_iter2.ckpt").is_file()
    assert not (train_dir / "checkpoint_iter3.ckpt").exists()
    lines = (train_dir / "metrics.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "iteration,epoch,fg_loss,bg_loss,bbox_loss,total_loss"
    assert len(lines) == 1 + 2 * 2  # em_iterations * m_step_epochs


def test_train_rerun_is_bit_identical(cfg_path, gen_dir, train_dir, tmp_path, capsys):
    out = tmp_path / "again"
    assert main(["train", "--data", str(gen_dir), "--out", str(out), "--config", cfg_path]) == 0
    assert "final epoch loss" in capsys.readouterr().out
    for name in ("checkpoint_iter1.ckpt", "checkpoint_iter2.ckpt", "metrics.csv"):
        assert (out / name).read_bytes() == (train_dir / name).read_bytes()


def test_train_iteration_override(cfg_path, gen_dir, tmp_path):
    out = tmp_path / "one"
    rc = main(
        ["train", "--data", str(gen_dir), "--out", str(out), "--config", cfg_path, "--em-iterations", "1"]
    )
    assert rc == 0
    assert (out / "checkpoint_iter1.ckpt").is_file()
    assert not (out / "checkpoint_iter2.ckpt").exists()


def test_train_flags_override_their_config_fields():
    flags = ["--em-iterations", "4", "--lambda", "0.25", "--epochs", "2", "--seed", "9", "--lr", "0.01", "--batch-size", "7"]
    args = build_parser().parse_args(["train", "--data", "d", "--out", "o", *flags])
    tcfg = _apply_train_overrides(ExperimentConfig(), args).train
    assert (tcfg.em_iterations, tcfg.lam, tcfg.m_step_epochs) == (4, 0.25, 2)
    assert (tcfg.seed, tcfg.learning_rate, tcfg.batch_size) == (9, 0.01, 7)
    assert replace(tcfg, em_iterations=3, lam=0.5, m_step_epochs=6, seed=0, learning_rate=0.05, batch_size=32) == TrainConfig()
    # `experiment` has only --seed of these flags; flags left out keep the config's values.
    args = build_parser().parse_args(["experiment", "lambda", "--out", "o", "--seed", "5"])
    assert _apply_train_overrides(ExperimentConfig(), args).train == TrainConfig(seed=5)


def test_train_missing_data_dir(tmp_path):
    assert main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exit_code(cfg_path, gen_dir, tmp_path):
    rc = main(
        ["train", "--data", str(gen_dir), "--out", str(tmp_path / "out"), "--config", cfg_path, "--lr", "1e308"]
    )
    assert rc == 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_divergence_under_warnings_as_errors_exits_3_in_one_line(cfg_path, gen_dir, tmp_path, capsys):
    """The overflowing steps warn of nothing, so with warnings as errors (as CI runs the quickstart) training
    still ends in the divergence refusal: exit 3, one line, no output directory."""
    out = tmp_path / "out"
    rc = main(["train", "--data", str(gen_dir), "--out", str(out), "--config", cfg_path, "--lr", "1e308"])
    err = capsys.readouterr().err
    assert rc == 3 and err == "diverged: vector set 0, every lam: non-finite loss at epoch 0 (total nan)\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("classes", [("5",), ("5", "6")], ids=["one_class", "two_classes"])
def test_morph_of_an_overflowing_exemplar_under_warnings_as_errors_names_its_class(
    classes, train_dir, gen_dir, tmp_path, capsys
):
    """A 1e308 exemplar makes its class mean's sum of squares overflow; with warnings as errors the morph is
    still refused naming the class, exit 2, with no output."""
    path = tmp_path / "exemplars.csv"
    shutil.copy(gen_dir / "exemplars.csv", path)

    def edit(tensors):
        for name in set(tensors) - set(classes):
            del tensors[name]
        tensors["5"][0, 0] = 1e308

    reframe(path, EXEMPLARS_HEADER, "meta", body=tensor_body(edit))
    out = tmp_path / "out.ckpt"
    rc = main(["morph", "--checkpoint", str(train_dir / "checkpoint_iter2.ckpt"), "--exemplars", str(path), "--out", str(out)])
    assert rc == 2 and capsys.readouterr().err == "error: class 5: cannot normalize: norm inf is not a finite value > 1e-12\n"
    assert not out.exists()


def test_morph_registers_novel_classes(morphed_ckpt, train_dir):
    state = load_checkpoint(morphed_ckpt)
    source = load_checkpoint(train_dir / "checkpoint_iter2.ckpt")
    assert sorted(state.prototypes.novel) == [5, 6]
    assert sorted(state.prototypes.base) == [1, 2, 3, 4]
    assert params_equal(state.params, source.params)


def test_morph_reports_registration(train_dir, gen_dir, tmp_path, capsys):
    out = tmp_path / "m.ckpt"
    rc = main(
        [
            "morph",
            "--checkpoint", str(train_dir / "checkpoint_iter1.ckpt"),
            "--exemplars", str(gen_dir / "exemplars.csv"),
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert "registered 2 classes in" in capsys.readouterr().out


def test_morph_shot_cap_changes_prototypes(morphed_ckpt, train_dir, gen_dir, tmp_path):
    out = tmp_path / "one_shot.ckpt"
    rc = main(
        [
            "morph",
            "--checkpoint", str(train_dir / "checkpoint_iter2.ckpt"),
            "--exemplars", str(gen_dir / "exemplars.csv"),
            "--out", str(out),
            "--shots", "1",
        ]
    )
    assert rc == 0
    one = load_checkpoint(out)
    full = load_checkpoint(morphed_ckpt)
    assert not np.array_equal(vector_for(one.prototypes, 5), vector_for(full.prototypes, 5))


def test_morph_twice_collides(morphed_ckpt, gen_dir, tmp_path):
    rc = main(
        [
            "morph",
            "--checkpoint", str(morphed_ckpt),
            "--exemplars", str(gen_dir / "exemplars.csv"),
            "--out", str(tmp_path / "again.ckpt"),
        ]
    )
    assert rc == 2


@pytest.mark.parametrize("shots", ["0", "-1"])
def test_morph_rejects_shots_below_one(train_dir, gen_dir, tmp_path, capsys, shots):
    rc = main(
        [
            "morph",
            "--checkpoint", str(train_dir / "checkpoint_iter2.ckpt"),
            "--exemplars", str(gen_dir / "exemplars.csv"),
            "--out", str(tmp_path / "out.ckpt"),
            "--shots", shots,
        ]
    )
    assert rc == 2
    assert "--shots must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out.ckpt").exists()


def test_morph_refuses_more_shots_than_a_class_has(train_dir, gen_dir, tmp_path, capsys):
    rc = main(
        [
            "morph",
            "--checkpoint", str(train_dir / "checkpoint_iter2.ckpt"),
            "--exemplars", str(gen_dir / "exemplars.csv"),
            "--out", str(tmp_path / "out.ckpt"),
            "--shots", "3",
        ]
    )
    assert rc == 2
    assert "error: --shots 3: class 5 has only 2 exemplars" in capsys.readouterr().err
    assert not (tmp_path / "out.ckpt").exists()


def test_train_refuses_batch_size_one(cfg_path, gen_dir, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["train", "--data", str(gen_dir), "--out", str(out), "--config", cfg_path, "--batch-size", "1"])
    assert rc == 2
    assert "error: batch_size 1" in capsys.readouterr().err
    assert not out.exists()


def test_train_refuses_a_network_too_large_to_allocate(gen_dir, tmp_path, capsys):
    """Two hidden layers of ten million units need a 728 TiB parameter vector, three times over with its velocity
    and gradient: train_grid refuses it by its predicted bytes, naming hidden_sizes, before anything is allocated.
    One error line, exit 2, no traceback."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"train": {"hidden_sizes": [10_000_000, 10_000_000]}}), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["train", "--data", str(gen_dir), "--out", str(out), "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: hidden_sizes [10000000, 10000000] makes 1-run parameter, velocity and gradient "
                          "stacks of 2,400,006,000,000,312 bytes, over the budget of 2,147,483,648") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_a_memory_error_is_one_error_line_and_exit_2(monkeypatch, tmp_path, capsys):
    def exhausted(args):
        raise MemoryError("no room for the world")

    monkeypatch.setattr(cli, "cmd_gen", exhausted)
    assert main(["gen", "--out", str(tmp_path / "world")]) == 2
    assert capsys.readouterr().err == "error: no room for the world\n"


def test_train_refuses_a_pick_plan_over_budget_and_writes_nothing(cfg_path, gen_dir, tmp_path, capsys, monkeypatch):
    """A billion epochs an M-step is refused before the plan exists; the pick planner fails if it is reached."""

    def drawn(*args):
        raise AssertionError("pick plan drawn")

    monkeypatch.setattr(em_trainer, "_pick_plan", drawn)
    out = tmp_path / "run"
    rc = main(["train", "--data", str(gen_dir), "--out", str(out), "--config", cfg_path, "--epochs", "1000000000"])
    assert rc == 2
    err = capsys.readouterr().err
    assert re.search(r"error: m_step_epochs 1000000000 x batch_size \d+ needs a pick plan of [\d,]+ bytes, over the budget", err)
    assert not out.exists()


@pytest.mark.parametrize(
    "section, name, value",
    [("universe", "n_base", 10**7), ("data", "proposals_per_scene", 10**8), (None, "shots", 10**9)],
)
def test_gen_refuses_a_world_over_budget_before_any_draw(section, name, value, tmp_path, capsys, monkeypatch):
    """Datasets or exemplars past the 2 GiB budget are refused with the setting that dominates and the bytes;
    the universe, dataset and exemplar draws fail if they are reached, so nothing is allocated."""

    def drawn(*args):
        raise AssertionError("world drawn")

    for draw in ("make_universe", "make_dataset", "exemplars_for"):
        monkeypatch.setattr(experiments, draw, drawn)
    config = json.loads(json.dumps(TINY_CONFIG))
    (config.setdefault(section, {}) if section else config)[name] = value
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "world"
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    setting = f"{section}.{name}" if section else name
    found = re.fullmatch(rf"error: {setting} {value} makes a world of ([\d,]+) bytes, over the budget of 2,147,483,648\n", err)
    assert found and int(found.group(1).replace(",", "")) > em_trainer.PICK_PLAN_BUDGET
    assert not out.exists()


def _refused_argv(command, gen_dir, train_dir, cfg_path, out):
    """argv of `command` with every input in place and `--out` at `out`."""
    return {
        "gen": ["gen", "--config", cfg_path, "--out", out],
        "train": ["train", "--data", str(gen_dir), "--config", cfg_path, "--out", out],
        "eval": ["eval", "--checkpoint", str(train_dir / "checkpoint_iter2.ckpt"), "--data", str(gen_dir), "--out", out],
        "experiment": ["experiment", "zero_shot", "--config", cfg_path, "--seeds", "1", "--out", out],
    }[command]


@pytest.mark.parametrize("command", ["gen", "train", "eval", "experiment"])
def test_out_naming_a_file_is_refused(command, gen_dir, train_dir, cfg_path, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n", encoding="utf-8")
    grads = grad_evaluation_count()
    assert main(_refused_argv(command, gen_dir, train_dir, cfg_path, str(out))) == 2
    assert grad_evaluation_count() == grads  # refused before any training
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {out} exists and is not a directory") and "Traceback" not in err
    assert out.read_text(encoding="utf-8") == "not a directory\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("jitter, message", [(300, "degenerate box corners"), (1000, "non-finite box corners")])
def test_gen_refuses_an_extreme_jitter_without_a_numpy_warning(jitter, message, tmp_path, capsys):
    config = tmp_path / "jitter.json"
    config.write_text(json.dumps({"data": {"jitter": jitter}}), encoding="utf-8")
    out = tmp_path / "world"
    _refused_without_output(["gen", "--out", str(out), "--config", str(config)], out, capsys, message)


def _first_line(edit):
    return lambda lines: [edit(lines[0]), *lines[1:]]


# One edit of semantics.txt per case, each refused as train reads the file.
SEMANTICS_REFUSALS = {
    "missing tab": (_first_line(lambda line: line.replace("\t", " ", 1)), "malformed vector line (missing tab)"),
    "a tab and no values": (_first_line(lambda line: "1\t"), "line 1: class 1 has no vector values"),
    "a tab and blanks": (_first_line(lambda line: "1\t   "), "line 1: class 1 has no vector values"),
    "a row cut short": (
        lambda lines: [*lines[:2], lines[2].rsplit(" ", 1)[0], *lines[3:]],
        "line 3: class 3's vector has 7 values, the first row's 8",
    ),
    "a row one too long": (lambda lines: [lines[0], lines[1] + " 0.5", *lines[2:]], "line 2: class 2's vector has 9 values"),
    "class id not an integer": (_first_line(lambda line: "x" + line[1:]), "class id 'x' is not digits"),
    "duplicate class": (lambda lines: [lines[0], *lines], "duplicate vector line for class 1"),
    "non-finite value": (_first_line(lambda line: line.rsplit(" ", 1)[0] + " inf"), "non-finite value among 8 floats"),
    "sum of squares overflows": (
        _first_line(lambda line: "1\t" + " ".join(["1e200"] * 8)), "the sum of squares of class 1's vector overflows"
    ),
    # Ids that int() reads but the writer never writes, each on a line added after class 1's own.
    **{
        f"class id {head}": (lambda lines, head=head: [*lines, head + lines[0][1:]], f"class id '{head}' is not digits")
        for head in ("0", "-3", "+77", "7_7")
    },
    # Values that float() reads but fmt never writes: 10.0 and 1.0.
    **{
        case: (
            _first_line(lambda line, value=value: line.rsplit(" ", 1)[0] + " " + value),
            f"line 1: value {value!r} holds an underscore or a non-ASCII character",
        )
        for case, value in (("value 1_0", "1_0"), ("an Arabic-Indic digit", "\u0661"))
    },
    # Written back with surrogateescape, "\udcff" is the byte 0xff, which UTF-8 never holds.
    "a 0xff byte": (lambda lines: [lines[0], lines[1] + "\udcff", *lines[2:]], "line 2: not UTF-8 text"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", SEMANTICS_REFUSALS)
def test_a_refused_semantics_file_is_named_once(case, gen_dir, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(gen_dir, data)
    path = data / "semantics.txt"
    edit, message = SEMANTICS_REFUSALS[case]
    lines = edit(path.read_text(encoding="utf-8", errors="surrogateescape").splitlines())
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8", errors="surrogateescape")
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line ") and message in err and err.count(str(path)) == 1
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize(
    "command, flags",
    [
        ("gen", ["--seed", "-1"]),
        ("train", ["--seed", "-1"]),
        ("train", ["--lr", "inf"]),
        ("experiment", ["--seed", "-1"]),
    ],
    ids=["gen_seed", "train_seed", "train_lr_inf", "experiment_seed"],
)
def test_refused_settings_leave_no_out_directory(command, flags, gen_dir, train_dir, cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(_refused_argv(command, gen_dir, train_dir, cfg_path, str(out)) + flags) == 2
    err = capsys.readouterr().err
    name = "seed" if "--seed" in flags else "learning_rate"
    assert err.startswith(f"error: {name} must be") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "train", "experiment"])
@pytest.mark.parametrize(
    "section",
    [{"universe": {"n_base": 0}}, {"data": {"jitter": -1.0}}, {"universe": {"n_novel": 0}}],
    ids=["universe", "data", "no_novel"],
)
def test_bad_world_sections_are_refused_when_the_config_is_read(command, section, gen_dir, train_dir, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(section), encoding="utf-8")
    out = tmp_path / "out"
    grads = grad_evaluation_count()
    assert main(_refused_argv(command, gen_dir, train_dir, str(path), str(out))) == 2
    assert grad_evaluation_count() == grads
    name, fields = next(iter(section.items()))
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}: {next(iter(fields))} must be") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("score_threshold", 0.1), ("nms_iou", 0.4), ("out_dir", "tables")])
def test_experiment_refuses_old_flat_config_keys(key, value, tmp_path, capsys):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({**TINY_CONFIG, key: value}), encoding="utf-8")
    out = tmp_path / "tables"
    assert main(["experiment", "zero_shot", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"unknown keys ['{key}']" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "morph", "eval"])
def test_missing_inputs_are_named_and_leave_no_out(command, gen_dir, train_dir, tmp_path, capsys):
    out, data = tmp_path / "out", tmp_path / "data"
    checkpoint = str(train_dir / "checkpoint_iter2.ckpt")
    if command == "train":
        data.mkdir()
        missing = data / "train_base.txt"
        argv = ["train", "--data", str(data), "--out", str(out)]
    elif command == "morph":
        missing = tmp_path / "nope.csv"
        argv = ["morph", "--checkpoint", checkpoint, "--exemplars", str(missing), "--out", str(out)]
    else:
        shutil.copytree(gen_dir, data)
        missing = data / "eval_novel.txt"
        missing.unlink()
        argv = ["eval", "--checkpoint", checkpoint, "--data", str(data), "--split", "all", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(missing) in err and "Traceback" not in err
    assert not out.exists()


def test_morph_missing_checkpoint(gen_dir, tmp_path):
    rc = main(
        [
            "morph",
            "--checkpoint", str(tmp_path / "nope.ckpt"),
            "--exemplars", str(gen_dir / "exemplars.csv"),
            "--out", str(tmp_path / "out.ckpt"),
        ]
    )
    assert rc == 2


def test_eval_base_split(train_dir, gen_dir, tmp_path, capsys):
    out = tmp_path / "eval"
    rc = main(
        [
            "eval",
            "--checkpoint", str(train_dir / "checkpoint_iter2.ckpt"),
            "--data", str(gen_dir),
            "--split", "base",
            "--out", str(out),
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "ap50" in printed
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["base"]["class_ids"] == [1, 2, 3, 4]
    assert report["novel"] is None
    lines = (out / "report.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "method,split,ap,ap50,ap75"
    assert lines[1].startswith("checkpoint_iter2,all,")
    assert lines[2].startswith("checkpoint_iter2,base,")
    # The CSV and the printed lines are those the former report wrote from the same per-class AP.
    per_class = {int(cid): {float(thr): ap for thr, ap in thrs.items()} for cid, thrs in report["per_class_ap"].items()}
    rows = reference_table_rows("checkpoint_iter2", per_class, [1, 2, 3, 4], ())
    assert (out / "report.csv").read_text(encoding="utf-8") == reference_report_csv(rows)
    assert printed.splitlines()[-2:] == reference_eval_lines(rows)


def test_eval_all_split_skips_unregistered_novel(train_dir, gen_dir, tmp_path):
    out = tmp_path / "eval"
    rc = main(
        [
            "eval",
            "--checkpoint", str(train_dir / "checkpoint_iter2.ckpt"),
            "--data", str(gen_dir),
            "--out", str(out),
        ]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["novel"] is None


def test_eval_novel_with_baseline(morphed_ckpt, train_dir, gen_dir, tmp_path):
    baseline = tmp_path / "baseline.ckpt"
    rc = main(
        [
            "morph",
            "--checkpoint", str(train_dir / "checkpoint_iter1.ckpt"),
            "--exemplars", str(gen_dir / "exemplars.csv"),
            "--out", str(baseline),
        ]
    )
    assert rc == 0
    out = tmp_path / "eval"
    rc = main(
        [
            "eval",
            "--checkpoint", str(morphed_ckpt),
            "--data", str(gen_dir),
            "--split", "novel",
            "--out", str(out),
            "--baseline-checkpoint", str(baseline),
        ]
    )
    assert rc == 0
    assert (out / "baseline_report.json").is_file()
    lines = (out / "report.csv").read_text(encoding="utf-8").splitlines()
    methods = {line.split(",")[0] for line in lines[1:]}
    assert methods == {"morphed", "baseline"}


def _eval_on(data_dir, train_dir, tmp_path, *flags):
    return main(
        [
            "eval",
            "--checkpoint", str(train_dir / "checkpoint_iter2.ckpt"),
            "--data", str(data_dir),
            "--out", str(tmp_path / "eval"),
            *flags,
        ]
    )


def _edit_lines(path, edit):
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")


def _universe_cut_beside_manifest(data):
    _edit_lines(data / "universe.txt", lambda lines: lines[:-2])


def _universe_cut_without_manifest(data):
    (data / "manifest.json").unlink()
    _universe_cut_beside_manifest(data)


def _universe_with_short_class_line(data):
    (data / "manifest.json").unlink()

    def short_row(body):  # the attributes tensor, one row per class, loses its last value
        return [without_last_value(body[0]), *body[1:]]

    reframe(data / "universe.txt", UNIVERSE_HEADER, "meta", body=short_row)


def _edit_novel_tensors(edit):
    def spoil(data):
        reframe(data / "eval_novel.txt", DATASET_HEADER, "meta", body=tensor_body(edit))

    return spoil


def _first_novel_object_as_class(class_id):
    return _edit_novel_tensors(lambda t: np.put(t["gt_ids"], 0, class_id))


def _eval_split_with_blank_line(data):
    reframe(data / "eval_base.txt", DATASET_HEADER, "meta", body=lambda body: body[:2] + [""] + body[2:])


@pytest.mark.parametrize(
    "spoil, flags",
    [
        (_universe_cut_without_manifest, []),
        (_universe_cut_beside_manifest, []),
        (_universe_with_short_class_line, []),
        (_eval_split_with_blank_line, []),
        (_first_novel_object_as_class(0), []),
        (_first_novel_object_as_class(-3), []),
        (_first_novel_object_as_class(99), []),
        (_edit_novel_tensors(lambda t: t.update(gt_descriptors=np.pad(t["gt_descriptors"], ((0, 0), (0, 1))))), []),
        (None, ["--score-threshold", "nan"]),
        (None, ["--score-threshold", "-5"]),
        (None, ["--nms-iou", "1"]),
    ],
    ids=[
        "truncated_universe", "truncated_universe_beside_manifest", "short_class_line", "blank_dataset_line",
        "background_object", "negative_object",
        "unknown_class_object", "long_object_descriptor", "nan_threshold", "negative_threshold", "nms_iou_1",
    ],
)
def test_eval_refuses_partial_files_and_bad_flags(train_dir, gen_dir, tmp_path, capsys, spoil, flags):
    data = tmp_path / "data"
    shutil.copytree(gen_dir, data)
    if spoil is not None:
        spoil(data)
    assert _eval_on(data, train_dir, tmp_path, *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "eval").exists()


def test_eval_refused_baseline_writes_no_report(morphed_ckpt, train_dir, gen_dir, tmp_path, capsys):
    out = tmp_path / "eval"
    rc = main(
        [
            "eval",
            "--checkpoint", str(morphed_ckpt),
            "--baseline-checkpoint", str(train_dir / "checkpoint_iter1.ckpt"),
            "--data", str(gen_dir),
            "--split", "novel",
            "--out", str(out),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no prototype" in err and "Traceback" not in err
    assert not out.exists()


def test_eval_refuses_checkpoint_config_of_wrong_type(train_dir, gen_dir, tmp_path, capsys):
    spoiled = tmp_path / "train"
    shutil.copytree(train_dir, spoiled)

    def fractional_batch_size(config):
        config["train"]["batch_size"] = 2.5
        return config

    reframe(spoiled / "checkpoint_iter2.ckpt", CHECKPOINT_HEADER, "config", meta=fractional_batch_size)
    assert _eval_on(gen_dir, spoiled, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "batch_size must be an integer, got 2.5" in err and "Traceback" not in err


def test_eval_universe_without_descriptor_projection(train_dir, gen_dir, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(gen_dir, data)
    (data / "manifest.json").unlink()
    reframe(data / "universe.txt", UNIVERSE_HEADER, "meta", body=lambda body: body[:-2])
    assert _eval_on(data, train_dir, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "universe body does not match its meta line" in err


def test_eval_refuses_a_universe_meta_its_config_refuses(train_dir, gen_dir, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(gen_dir, data)
    reframe(data / "universe.txt", UNIVERSE_HEADER, "meta", meta=lambda meta: {**meta, "sigma_sem": -0.4})
    assert _eval_on(data, train_dir, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "universe: sigma_sem must be finite and >= 0, got -0.4" in err
    assert not (tmp_path / "eval").exists()


def _refused_without_output(argv, out, capsys, message=""):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert not out.exists()


def test_checkpoint_that_lost_a_prototype_row_is_refused(morphed_ckpt, gen_dir, tmp_path, capsys):
    path = tmp_path / "cut.ckpt"
    lines = morphed_ckpt.read_text(encoding="utf-8").splitlines()
    name, prototypes = parse_tensor(lines[-2])
    assert name == "prototypes" and len(prototypes) == 6
    # The last class's row goes, and the tensor header follows it.
    cut = lines[:-2] + [tensor_line(name, prototypes[:-1]), lines[-1]]
    path.write_text("".join(line + "\n" for line in cut), encoding="utf-8")
    out = tmp_path / "eval"
    argv = ["eval", "--checkpoint", str(path), "--data", str(gen_dir), "--out", str(out)]
    _refused_without_output(argv, out, capsys, "sha256")


def test_exemplar_block_cut_by_one_row_is_refused(train_dir, gen_dir, tmp_path, capsys):
    path = tmp_path / "exemplars.csv"
    lines = (gen_dir / "exemplars.csv").read_text(encoding="utf-8").splitlines()
    name, shots = parse_tensor(lines[-2])
    assert name == "6" and len(shots) == 2
    cut = lines[:-2] + [tensor_line(name, shots[:-1]), lines[-1]]
    path.write_text("".join(line + "\n" for line in cut), encoding="utf-8")
    out = tmp_path / "out.ckpt"
    checkpoint = str(train_dir / "checkpoint_iter2.ckpt")
    argv = ["morph", "--checkpoint", checkpoint, "--exemplars", str(path), "--out", str(out)]
    _refused_without_output(argv, out, capsys, "sha256")
    # Framed anew, the cut block loads with one shot less; a renamed one does not.
    write_record_file(path, EXEMPLARS_HEADER, "meta", {}, cut[2:-1])
    assert [len(rows) for rows in read_exemplars_csv(path).values()] == [2, 1]
    reframe(path, EXEMPLARS_HEADER, "meta", body=lambda body: [body[0].replace("tensor 5 ", "tensor 05 "), *body[1:]])
    _refused_without_output(argv, out, capsys, "tensors named by ascending class ids")


@pytest.mark.parametrize("name", ["universe.txt", "eval_novel.txt", "exemplars.csv", "checkpoint"])
def test_an_older_format_version_is_refused_by_name(name, gen_dir, train_dir, tmp_path, capsys):
    data, run = tmp_path / "data", tmp_path / "run"
    shutil.copytree(gen_dir, data)
    shutil.copytree(train_dir, run)
    path = run / "checkpoint_iter2.ckpt" if name == "checkpoint" else data / name
    text = path.read_text(encoding="utf-8")
    header = text.partition("\n")[0]
    path.write_text(text.replace(header, header.replace(" v3", " v2"), 1), encoding="utf-8")
    out = tmp_path / "out"
    checkpoint = str(run / "checkpoint_iter2.ckpt")
    if name == "exemplars.csv":
        argv = ["morph", "--checkpoint", checkpoint, "--exemplars", str(path), "--out", str(out)]
    else:
        argv = ["eval", "--checkpoint", checkpoint, "--data", str(data), "--out", str(out)]
    _refused_without_output(argv, out, capsys, f"{header.replace(' v3', ' v2')}' is an older format than '{header}'")


_FRAMINGS = {"checkpoint": (CHECKPOINT_HEADER, "config"), "exemplars.csv": (EXEMPLARS_HEADER, "meta"),
             "universe.txt": (UNIVERSE_HEADER, "meta")}
# Bodies framed anew, so that the sha256 end line holds and a loader's own check or the tensor codec refuses them.
_SPOILED_BODIES = {
    "no_prototypes": lambda body: body[:-1],  # the checkpoint loader's own check
    "first tensor lost a value": lambda body: [without_last_value(body[0]), *body[1:]],
    "inf in the first tensor": tensor_body(lambda t: np.put(next(iter(t.values())), 0, np.inf)),
    "nan in the first tensor": tensor_body(lambda t: np.put(next(iter(t.values())), 0, np.nan)),
    "first tensor with no rows": tensor_body(lambda t: t.update((k, v[:0]) for k, v in list(t.items())[:1])),
}
# Meta JSON that json.loads cannot parse, framed by hand, as json.dumps cannot write it either.
_SPOILED_METAS = {"meta nested 100000 deep": "[" * 100_000 + "]" * 100_000, "meta with a 5000-digit integer": "9" * 5000}
# Bytes that are not UTF-8: a PNG signature for a whole file, or one 0xff byte opening line 2 (the sha256 then fails).
_NOT_UTF8 = {"PNG bytes": lambda raw: b"\x89PNG\r\n\x1a\n", "0xff on line 2": lambda raw: raw.replace(b"\n", b"\n\xff", 1)}


def _frame_meta_text(path, payload: str) -> None:
    """Give the container at `path` the meta JSON text `payload` and the sha256 end line its bytes hash to."""
    header, meta, *body = path.read_bytes().split(b"\n")[:-2]
    head = b"\n".join([header, meta.partition(b" ")[0] + b" " + payload.encode("ascii"), *body, b""])
    path.write_bytes(head + f"end sha256={hashlib.sha256(head).hexdigest()}\n".encode("ascii"))


@pytest.mark.parametrize(
    "name, spoil",
    [(name, "older_version") for name in ("universe.txt", "eval_novel.txt", "exemplars.csv", "checkpoint")]
    + [("checkpoint", "no_prototypes")]
    + [("exemplars.csv", f"tensor named {tensor}") for tensor in ("x", "1.5", "0", "-3")]
    + [("exemplars.csv", "first tensor lost a value"), ("exemplars.csv", "inf in the first tensor")]
    + [("exemplars.csv", "first tensor with no rows")]
    + [("universe.txt", "nan in the first tensor"), ("checkpoint", "nan in the first tensor")]
    + [("eval_base.txt", "m_in 14"), ("exemplars.csv", "m_in 14")]
    + [("eval_novel.txt", "PNG bytes"), ("universe.txt", "0xff on line 2")]
    + [(name, "meta nested 100000 deep") for name in ("eval_base.txt", "exemplars.csv", "checkpoint")]
    + [("eval_novel.txt", "meta with a 5000-digit integer")],
)
def test_a_refused_file_is_named_once_in_a_plain_message(name, spoil, gen_dir, train_dir, tmp_path, capsys):
    data, run = tmp_path / "data", tmp_path / "run"
    shutil.copytree(gen_dir, data)
    shutil.copytree(train_dir, run)
    checkpoint = run / "checkpoint_iter2.ckpt"
    path = checkpoint if name == "checkpoint" else data / name
    if spoil in _SPOILED_BODIES:
        reframe(path, *_FRAMINGS[name], body=_SPOILED_BODIES[spoil])
    elif spoil in _SPOILED_METAS:
        _frame_meta_text(path, _SPOILED_METAS[spoil])
    elif spoil in _NOT_UTF8:
        path.write_bytes(_NOT_UTF8[spoil](path.read_bytes()))
    elif spoil.startswith("tensor named "):  # refused by the exemplar reader's own check: not a class id >= 1
        renamed = f"tensor {spoil.removeprefix('tensor named ')} "
        reframe(path, EXEMPLARS_HEADER, "meta", body=lambda body: [renamed + body[0].split(" ", 2)[2], *body[1:]])
    elif spoil == "m_in 14":  # a whole world drawn with wider descriptors than the checkpoint's network takes
        config = tmp_path / "wide.json"
        config.write_text(json.dumps({**TINY_CONFIG, "universe": {**TINY_CONFIG["universe"], "m_in": 14}}), "utf-8")
        assert main(["gen", "--out", str(data), "--config", str(config)]) == 0
        capsys.readouterr()
    else:
        path.write_text(path.read_text(encoding="utf-8").replace(" v3\n", " v2\n", 1), encoding="utf-8")
    out = tmp_path / "out"
    if name == "exemplars.csv":
        argv = ["morph", "--checkpoint", str(checkpoint), "--exemplars", str(path), "--out", str(out)]
    else:
        argv = ["eval", "--checkpoint", str(checkpoint), "--data", str(data), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count(str(path)) == 1
    assert "Error(" not in err and "Traceback" not in err and not out.exists()
    if spoil == "m_in 14":
        assert f"{path} holds descriptors of m_in 14, but {checkpoint} takes m_in 10" in err
    if spoil in _SPOILED_METAS:
        assert f"{path}: {'config' if name == 'checkpoint' else 'meta'} line is not a JSON object" in err
    if spoil in _NOT_UTF8:
        assert f"{path}: not UTF-8 text" in err
    if spoil == "first tensor with no rows":
        assert f"{path}: class {min(read_exemplars_csv(gen_dir / name))} has no exemplars" in err


def test_experiment_unknown_name(tmp_path, capsys):
    assert main(["experiment", "nope", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "invalid choice" in err
    assert all(name in err for name in ("em_iterations", "lambda", "init", "zero_shot"))


def test_experiment_requires_out(cfg_path):
    assert main(["experiment", "em_iterations", "--config", cfg_path]) == 1


def test_experiment_writes_tables(cfg_path, tmp_path, capsys):
    out = tmp_path / "study"
    rc = main(
        ["experiment", "em_iterations", "--config", cfg_path, "--out", str(out), "--seeds", "1"]
    )
    assert rc == 0
    assert "wrote em_iterations tables" in capsys.readouterr().out
    assert (out / "em_iterations_raw.csv").is_file()
    assert (out / "em_iterations_summary.csv").is_file()


def test_experiment_runs_several_studies_as_one_plan(cfg_path, tmp_path, capsys):
    """Several names make one plan, whose tables are byte-identical to those of one call per name; a name given
    twice runs once."""
    names = ["zero_shot", "init", "em_iterations"]
    for name in names:
        assert main(["experiment", name, "--config", cfg_path, "--out", str(tmp_path / "apart")]) == 0
    capsys.readouterr()
    assert main(["experiment", *names, "init", "--config", cfg_path, "--out", str(tmp_path / "plan")]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("wrote ")]
    assert printed == [f"wrote {name} tables to {tmp_path / 'plan'}" for name in names]
    apart, plan = (sorted((p.name, p.read_bytes()) for p in (tmp_path / d).iterdir()) for d in ("apart", "plan"))
    assert len(plan) == 6 and plan == apart


def test_seed0_quickstart_reproduces_the_recorded_digests(tmp_path, capsys):
    """The README quickstart at seed 0, in process: every output has the sha256
    that BENCH_21.json records, under whatever BLAS kernel runs the suite."""
    record = pathlib.Path(__file__).resolve().parent.parent / "BENCH_21.json"
    recorded = json.loads(record.read_text(encoding="utf-8"))["quickstart_digests"]
    world, run = tmp_path / "world", tmp_path / "run"
    for argv in (
        ["gen", "--out", world, "--seed", "0"],
        ["train", "--data", world, "--out", run, "--seed", "0"],
        ["morph", "--checkpoint", run / "checkpoint_iter3.ckpt", "--exemplars", world / "exemplars.csv",
         "--out", run / "morphed.ckpt"],
        ["eval", "--checkpoint", run / "morphed.ckpt", "--data", world, "--split", "all", "--out", run / "eval"],
    ):
        assert main([str(arg) for arg in argv]) == 0
    digests = {path.name: sha256_file(path) for path in tmp_path.rglob("*") if path.is_file()}
    assert digests == recorded and len(recorded) == 14
