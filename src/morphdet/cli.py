"""Command-line front end.

Subcommands: gen (write a toy benchmark to disk), train (alternating
optimization on a generated split), morph (register novel classes into a
checkpoint from an exemplar file, no training), eval (score a checkpoint on a
split), experiment (run canned studies as one plan and emit their tables).

Exit codes: 0 success, 1 usage, 2 bad input, 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields, replace

from .em_trainer import (
    TrainConfig,
    TrainingDiverged,
    fill_dataclass,
    load_checkpoint,
    save_checkpoint,
    train,
    write_metrics_csv,
)
from .embedder import grad_evaluation_count
from .evalkit import evaluate, report_table_rows, report_to_json, write_report_csv
from .experiments import EXPERIMENTS, ConfigError, ExperimentConfig, build_world, run_studies
from .morph_inference import DetectConfig, morph, read_exemplars_csv, write_exemplars_csv
from .prototype_store import read_vector_file, write_vector_file
from .textio import sha256_file
from .toyworld import load_dataset, load_universe, save_dataset, save_universe

GEN_FILES = ("universe.txt", "semantics.txt", "train_base.txt", "eval_base.txt", "eval_novel.txt", "exemplars.csv")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through our own codes.
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def load_experiment_config(path: str | None) -> ExperimentConfig:
    """The config file at `path`, or the defaults if None. Any key the schema
    does not declare, or any value of the wrong type, is an error, including
    in the nested sections."""
    if path is None:
        return ExperimentConfig()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or JSON too deep or too long a number
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return fill_dataclass(ExperimentConfig, data, "config root")


def _apply_train_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    """`config` with each training flag given on the command line, whose
    argparse dest is its TrainConfig field, set in its train section."""
    given = {f.name: getattr(args, f.name) for f in fields(TrainConfig) if getattr(args, f.name, None) is not None}
    return replace(config, train=replace(config.train, **given))


def cmd_gen(args) -> int:
    config = _apply_train_overrides(load_experiment_config(args.config), args)
    if args.shots is not None:
        config = replace(config, shots=args.shots)
    seed = config.train.seed
    world = build_world(config, seed)
    os.makedirs(args.out, exist_ok=True)

    paths = {name: os.path.join(args.out, name) for name in GEN_FILES}
    save_universe(paths["universe.txt"], world.universe)
    write_vector_file(paths["semantics.txt"], world.semantics)
    save_dataset(paths["train_base.txt"], world.train_scenes)
    save_dataset(paths["eval_base.txt"], world.eval_base)
    save_dataset(paths["eval_novel.txt"], world.eval_novel)
    write_exemplars_csv(paths["exemplars.csv"], world.exemplars)

    manifest = {
        "shots": config.shots,
        "universe": world.universe.split_manifest(),
        "scene_counts": {
            "train_base": len(world.train_scenes),
            "eval_base": len(world.eval_base),
            "eval_novel": len(world.eval_novel),
        },
        "files": {name: sha256_file(path) for name, path in sorted(paths.items())},
    }
    manifest_path = os.path.join(args.out, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    for name in GEN_FILES + ("manifest.json",):
        print(f"wrote {os.path.join(args.out, name)}")
    print(f"{len(world.universe.base)} base / {len(world.universe.novel)} novel classes, seed {seed}")
    return 0


def _out_dir(path: str) -> str:
    """--out type: a non-directory is refused at parse time (OSError passes argparse)."""
    if os.path.exists(path) and not os.path.isdir(path):
        raise NotADirectoryError(f"--out {path} exists and is not a directory")
    return path


def cmd_train(args) -> int:
    config = _apply_train_overrides(load_experiment_config(args.config), args)
    dataset = load_dataset(os.path.join(args.data, "train_base.txt"))
    semantics = read_vector_file(os.path.join(args.data, "semantics.txt"))
    result = train(dataset, semantics, config.train)
    os.makedirs(args.out, exist_ok=True)
    for k, snap in enumerate(result.snapshots, start=1):
        path = os.path.join(args.out, f"checkpoint_iter{k}.ckpt")
        save_checkpoint(path, snap)
        print(f"wrote {path}")
    metrics_path = os.path.join(args.out, "metrics.csv")
    write_metrics_csv(metrics_path, result.metrics)
    print(f"wrote {metrics_path}")
    last = result.metrics[-1] if result.metrics else None
    if last is not None:
        print(f"final epoch loss: total {last.total:.6f} (fg {last.fg:.6f}, bg {last.bg:.6f}, bbox {last.bbox:.6f})")
    return 0


def _refuse_other_m_in(state, checkpoint: str, widths, path: str) -> None:
    """Refuse `path` unless every descriptor width in `widths` is the m_in of `checkpoint`'s network."""
    other = sorted(set(widths) - {state.params.m_in})
    if other:
        raise ValueError(f"{path} holds descriptors of m_in {other[0]}, but {checkpoint} takes m_in {state.params.m_in}")


def cmd_morph(args) -> int:
    state = load_checkpoint(args.checkpoint)
    exemplars = read_exemplars_csv(args.exemplars)
    _refuse_other_m_in(state, args.checkpoint, (vecs.shape[1] for vecs in exemplars.values()), args.exemplars)
    if args.shots is not None:
        if args.shots < 1:
            raise ValueError(f"--shots must be >= 1, got {args.shots}")
        short = sorted(cid for cid, vecs in exemplars.items() if len(vecs) < args.shots)
        if short:
            cid = short[0]
            raise ValueError(
                f"--shots {args.shots}: class {cid} has only {len(exemplars[cid])} exemplars in {args.exemplars}"
            )
        exemplars = {cid: vecs[: args.shots] for cid, vecs in exemplars.items()}

    before = grad_evaluation_count()
    start = time.perf_counter()
    morphed = morph(state, exemplars)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    if grad_evaluation_count() != before:
        raise RuntimeError("morph path computed gradients; registration must be forward-only")

    save_checkpoint(args.out, morphed)
    added = sorted(set(morphed.prototypes.novel) - set(state.prototypes.novel))
    print(f"registered {len(added)} classes in {elapsed_ms:.3f} ms")
    print(f"wrote {args.out}")
    return 0


_SPLIT_FILES = {"base": ("eval_base.txt",), "novel": ("eval_novel.txt",), "all": ("eval_base.txt", "eval_novel.txt")}


def cmd_eval(args) -> int:
    detect_config = DetectConfig(score_threshold=args.score_threshold, nms_iou=args.nms_iou)
    universe = load_universe(os.path.join(args.data, "universe.txt"))
    base_ids = universe.base if args.split != "novel" else ()
    novel_ids = universe.novel if args.split != "base" else ()
    datasets = {path: load_dataset(path) for path in (os.path.join(args.data, n) for n in _SPLIT_FILES[args.split])}
    scenes = [scene for dataset in datasets.values() for scene in dataset]
    stray = sorted({cid for scene in scenes for cid in scene.gt_ids.tolist()} - {*universe.base, *universe.novel})
    if stray:
        raise ValueError(f"{args.data}: objects of classes {stray} that universe.txt does not list")

    # Every checkpoint is evaluated before anything is written, so a refused
    # one leaves no partial report set behind.
    reports = []
    for stem, path in (("report", args.checkpoint), ("baseline_report", args.baseline_checkpoint)):
        if path is not None:
            state = load_checkpoint(path)
            for data, dataset in datasets.items():
                _refuse_other_m_in(state, path, (scene.descriptors.shape[1] for scene in dataset), data)
            # An "all" report leaves out novel classes the checkpoint has not
            # registered yet: a pre-morph eval just lacks a novel section.
            present = [cid for cid in novel_ids if args.split != "all" or state.prototypes.has_class(cid)]
            reports.append((stem, path, evaluate(state, scenes, base_ids, present, detect_config)))

    os.makedirs(args.out, exist_ok=True)
    rows = []
    for stem, path, report in reports:
        with open(os.path.join(args.out, f"{stem}.json"), "w", encoding="utf-8") as fh:
            fh.write(report_to_json(report))
        rows += report_table_rows(os.path.splitext(os.path.basename(path))[0], report)
    write_report_csv(os.path.join(args.out, "report.csv"), rows)
    print(f"wrote {os.path.join(args.out, 'report.json')}")
    print(f"wrote {os.path.join(args.out, 'report.csv')}")
    for method, split, s in rows:
        print(f"{method:>24s} {split:>6s}  ap {s.ap:.4f}  ap50 {s.ap50:.4f}  ap75 {s.ap75:.4f}")
    return 0


def cmd_experiment(args) -> int:
    config = _apply_train_overrides(load_experiment_config(args.config), args)
    if args.seeds is not None:
        config = replace(config, seeds=args.seeds)
    for name, (_, summary) in run_studies(config, args.names, args.out).items():
        for row in summary:
            print("  ".join(f"{v:.4f}" if isinstance(v, float) else str(v) for v in row))
        print(f"wrote {name} tables to {args.out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="morphdet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("gen", help="generate a toy benchmark directory")
    p.add_argument("--out", required=True, type=_out_dir, help="output directory (created if missing)")
    p.add_argument("--config", default=None, help="experiment config JSON")
    p.add_argument("--seed", type=int, default=None, dest="seed")
    p.add_argument("--shots", type=int, default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="alternating training on a generated split")
    p.add_argument("--data", required=True, help="directory produced by gen")
    p.add_argument("--out", required=True, type=_out_dir, help="output directory for checkpoints and metrics")
    p.add_argument("--config", default=None, help="experiment config JSON")
    p.add_argument("--em-iterations", type=int, default=None, dest="em_iterations")
    p.add_argument("--lambda", type=float, default=None, dest="lam", help="prototype blend weight")
    p.add_argument("--epochs", type=int, default=None, dest="m_step_epochs", help="epochs per M-step")
    p.add_argument("--seed", type=int, default=None, dest="seed")
    p.add_argument("--lr", type=float, default=None, dest="learning_rate")
    p.add_argument("--batch-size", type=int, default=None, dest="batch_size")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("morph", help="register novel classes from exemplars (no training)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--exemplars", required=True, help="exemplar file written by gen")
    p.add_argument("--out", required=True, help="path for the morphed checkpoint")
    p.add_argument("--shots", type=int, default=None, help="cap exemplars per class")
    p.set_defaults(func=cmd_morph)

    p = sub.add_parser("eval", help="score a checkpoint on a generated split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="directory produced by gen")
    p.add_argument("--split", choices=("base", "novel", "all"), default="all")
    p.add_argument("--out", required=True, type=_out_dir, help="output directory for report files")
    p.add_argument("--baseline-checkpoint", default=None, dest="baseline_checkpoint",
                   help="second checkpoint reported side by side")
    p.add_argument("--score-threshold", type=float, default=DetectConfig.score_threshold, dest="score_threshold")
    p.add_argument("--nms-iou", type=float, default=DetectConfig.nms_iou, dest="nms_iou")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("experiment", help="run canned studies")
    p.add_argument("names", nargs="+", choices=sorted(EXPERIMENTS), metavar="name", help="the studies to run as one plan")
    p.add_argument("--out", required=True, type=_out_dir, help="output directory for the tables (created if missing)")
    p.add_argument("--config", default=None, help="experiment config JSON")
    p.add_argument("--seeds", type=int, default=None, help="number of trials")
    p.add_argument("--seed", type=int, default=None, dest="seed", help="base seed for the trials")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_help()
            return 1
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except TrainingDiverged as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, MemoryError) as exc:
        # File system, checkpoint, config, collision, dimension and box errors, and a network too large to allocate.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
