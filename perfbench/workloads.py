"""The benchmark's three workloads.

Each workload is a loop of passes. The benchmark makes every input from the
workload seed; morphdet only ever sees those inputs.

- quickstart: the README pipeline (gen, train, morph, eval --split all)
  through ``cli.main`` on the default world, in a fresh directory per pass.
  It is the only workload whose stages parse and write files.
- studies: the four canned studies in memory at STUDY_SEEDS seed. Training
  dominates; there is no file I/O.
- deploy: one client in a closed loop on DEPLOY_WORLDS wide worlds (20 base
  + 60 novel classes each). A pass runs one cycle per world. Each cycle
  starts from the world's trained base-only checkpoint and registers the
  novel classes one at a time with ``morph``, serving DETECTS_PER_MORPH
  one-scene ``detect`` requests before each registration, then PROBE_SCENES
  requests at the full class count. No training, AP or file I/O runs in the
  loop.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import os
import random
import shutil
import statistics
from collections import defaultdict
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter
from typing import NamedTuple

from spans import latency_timer

STUDIES = ("em_iterations", "lambda", "init", "zero_shot")
STUDY_SEEDS = 1
DEPLOY_BASE = 20
DEPLOY_NOVEL = 60
# Detect cost differs between worlds (by 12% between two seeds' worlds), so a
# run on two worlds halves the variance that the choice of seed adds.
DEPLOY_WORLDS = 2
DETECTS_PER_MORPH = 4
PROBE_SCENES = 8
# README quickstart table at seed 0 (AP50, four decimals).
README_AP50 = {"base": 0.9453, "novel": 0.7864}
# Nominal time of one kernel_s() run: every end-to-end time is scaled to a
# machine that runs the reference kernel this fast.
REFERENCE_S = 0.00005
# kernel_s() runs whose median is a part's reference (README, "Noise").
REFERENCE_RUNS = 15
_kernel_input = []


def kernel_s() -> float:
    """Time one run of a fixed reference kernel shaped like a one-class
    ``morph``, the kind of work morphdet does: five descriptors through two
    small ReLU layers and a head, their mean normalised, a class table
    copied; twice. It lasts about 0.1 ms. The inputs are fresh copies on
    every run: on arrays made once, the kernel's speed depended on where
    they happened to lie, and differed by up to 20% between processes."""
    import numpy as np  # not at module level: set-up timing must pay for numpy

    if not _kernel_input:
        rng = np.random.default_rng(0)
        shapes = ((32, 64), (64, 64), (64, 16))
        _kernel_input.append((
            [rng.standard_normal(32) for _ in range(5)],
            [(rng.standard_normal(shape) * 0.1, rng.standard_normal(shape[1]) * 0.1) for shape in shapes],
            {cid: np.ones(16) for cid in range(80)},
        ))
    template = _kernel_input[0]
    descriptors = [d.copy() for d in template[0]]
    layers = [(weight.copy(), bias.copy()) for weight, bias in template[1]]
    table = dict(template[2])
    start = perf_counter()
    for _ in range(2):
        h = np.stack([np.asarray(d, dtype=np.float64) for d in descriptors])
        for weight, bias in layers[:-1]:
            h = np.maximum(h @ weight + bias, 0.0)
        feature = (h @ layers[-1][0] + layers[-1][1]).mean(axis=0)
        feature = feature / float(np.linalg.norm(feature))
        copies = (dict(table), {**table, -1: feature})
    del copies
    return perf_counter() - start


def reference_s() -> float:
    """How long kernel_s() takes on the machine just now: the median of
    REFERENCE_RUNS runs, so that a run the scheduler interrupts does not
    count. Timed before and after each part of a pass (README, "Noise")."""
    return statistics.median(kernel_s() for _ in range(REFERENCE_RUNS))


def morph_timer(samples):
    """Wrapper factory for a morph call site: times kernel_s(), then the
    call, and records its latency per registered class."""

    def make(fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            reference = kernel_s()
            start = perf_counter()
            result = fn(*args, **kwargs)
            samples.add_morph((perf_counter() - start) * 1e3 / len(args[1]), reference)
            return result

        return timed

    return make


class Part(NamedTuple):
    """One timed part of one pass: a quickstart stage, a study or a deploy
    cycle, with the detect latencies recorded while it ran and the mean of
    the reference kernel's times just before and just after it."""

    seconds: float
    reference_s: float
    detect_ms: list


@dataclass
class Samples:
    """What the untraced (or the traced) passes of a run measured."""

    pass_s: list = field(default_factory=list)
    detect_ms: list = field(default_factory=list)
    morph_ms: list = field(default_factory=list)  # per registered class
    morph_scaled_ms: list = field(default_factory=list)  # the same, scaled by the kernel_s() before each
    parts: dict = field(default_factory=lambda: defaultdict(list))  # part name -> [Part] per pass

    def mark(self) -> tuple[int, float]:
        """Call right before a part starts; times the reference kernel."""
        return len(self.detect_ms), reference_s()

    def add_part(self, name: str, seconds: float, mark: tuple[int, float]) -> None:
        """Record a part that started at `mark` and took `seconds`."""
        reference = (mark[1] + reference_s()) / 2
        self.parts[name].append(Part(seconds, reference, self.detect_ms[mark[0]:]))

    def add_morph(self, ms_per_class: float, reference: float) -> None:
        """Record a morph latency and the kernel_s() timed right before it.
        A morph call lasts about as long as the kernel, too short for a part's
        reference to track, so each call has one of its own."""
        self.morph_ms.append(ms_per_class)
        self.morph_scaled_ms.append(ms_per_class * REFERENCE_S / reference)


class Tally:
    """Operations attempted and failed. ``same`` holds a run's outputs to the
    first value each key took, so every later pass, traced or not, must
    reproduce the first pass byte for byte."""

    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.notes: list[str] = []

    def same(self, outputs: dict) -> bool:
        ok = True
        for key, value in outputs.items():
            first = self.digests.setdefault(key, value)
            if value != first:
                self.notes.append(f"{key} changed: {first} -> {value}")
                ok = False
        return ok

    def record(self, ok: bool, note: str | None = None) -> None:
        self.ops += 1
        if not ok:
            self.failed += 1
            if note and len(self.notes) < 20:
                self.notes.append(note)


@dataclass
class Context:
    md: object  # namespace of imported morphdet modules
    seed: int
    workdir: str
    tally: Tally
    samples: Samples
    recorder: object = None  # SpanRecorder while a traced pass runs
    inputs: object = None

    def begin_op(self) -> None:
        if self.recorder is not None:
            self.recorder.op += 1


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class Quickstart:
    name = "quickstart"
    forward_only = False
    prepare = None  # gen, the first stage, makes the inputs

    def load(self, md, seed, inputs_dir):
        return None

    def instrument(self, ctx, patches) -> None:
        patches.wrap(ctx.md.evalkit, "detect", latency_timer(ctx.samples.detect_ms))
        patches.wrap(ctx.md.cli, "morph", morph_timer(ctx.samples))

    def run_pass(self, ctx) -> None:
        base = os.path.join(ctx.workdir, "quickstart")
        shutil.rmtree(base, ignore_errors=True)
        world = os.path.join(base, "world")
        run = os.path.join(base, "run")
        seed = str(ctx.seed)
        ckpts = [os.path.join(run, f"checkpoint_iter{k}.ckpt") for k in (1, 2, 3)]
        morphed = os.path.join(run, "morphed.ckpt")
        report = os.path.join(run, "eval", "report.json")
        stages = (
            ("gen", ["gen", "--out", world, "--seed", seed], [os.path.join(world, "manifest.json")]),
            ("train", ["train", "--data", world, "--out", run, "--seed", seed],
             ckpts + [os.path.join(run, "metrics.csv")]),
            ("morph", ["morph", "--checkpoint", ckpts[-1], "--exemplars",
                       os.path.join(world, "exemplars.csv"), "--out", morphed], [morphed]),
            ("eval", ["eval", "--checkpoint", morphed, "--data", world, "--split", "all",
                      "--out", os.path.join(run, "eval")], [report]),
        )
        total = 0.0
        with redirect_stdout(io.StringIO()):
            for stage, argv, outputs in stages:
                ctx.begin_op()
                note = None
                mark = ctx.samples.mark()
                start = perf_counter()
                try:
                    code = ctx.md.cli.main(argv)
                    elapsed = perf_counter() - start
                    ok = code == 0 and ctx.tally.same(
                        {os.path.relpath(p, base): sha256_file(p) for p in outputs}
                    )
                    if code != 0:
                        note = f"{stage} exited {code}"
                    if ok and stage == "eval" and ctx.seed == 0:
                        ok, note = _readme_table(report)
                except Exception as exc:  # an op that raises is counted, the run goes on
                    elapsed = perf_counter() - start
                    ok, note = False, f"{stage}: {_describe(exc)}"
                ctx.tally.record(ok, note)
                ctx.samples.add_part(stage, elapsed, mark)
                total += elapsed
        ctx.samples.pass_s.append(total)


def _readme_table(report_path):
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    got = {split: round(report[split]["ap50"], 4) for split in README_AP50}
    if got != README_AP50:
        return False, f"seed-0 AP50 {got} differs from the README table {README_AP50}"
    return True, None


class Studies:
    name = "studies"
    forward_only = False
    prepare = None  # each study builds its worlds in memory

    def load(self, md, seed, inputs_dir):
        return md.experiments.ExperimentConfig(
            seeds=STUDY_SEEDS, train=md.em_trainer.TrainConfig(seed=seed)
        )

    def instrument(self, ctx, patches) -> None:
        patches.wrap(ctx.md.evalkit, "detect", latency_timer(ctx.samples.detect_ms))
        patches.wrap(ctx.md.experiments, "morph", morph_timer(ctx.samples))

    def run_pass(self, ctx) -> None:
        ctx.begin_op()
        note = None
        total = 0.0
        try:
            tables = {}
            for name in STUDIES:
                mark = ctx.samples.mark()
                start = perf_counter()
                tables[name] = getattr(ctx.md.experiments, f"run_{name}")(ctx.inputs)
                elapsed = perf_counter() - start
                total += elapsed
                ctx.samples.add_part(name, elapsed, mark)
            digest = hashlib.sha256(repr(tables).encode()).hexdigest()
            ok = ctx.tally.same({"studies": digest}) and _ap_in_range(tables)
            if not ok:
                note = "study tables changed or left [0, 1]"
        except Exception as exc:  # an op that raises is counted, the run goes on
            ok, note = False, f"studies: {_describe(exc)}"
        ctx.tally.record(ok, note)
        ctx.samples.pass_s.append(total)


def _ap_in_range(tables) -> bool:
    values = [v for _, summary in tables.values() for row in summary for v in row[1:]]
    return all(0.0 <= v <= 1.0 for v in values)


@dataclass
class DeployInputs:
    name: str
    base_state: object
    exemplars: dict
    requests: list  # one (descriptor, anchor) list per scene
    order: list  # request order drawn from the seed
    param_lines: list
    param_bytes: bytes
    position: int = 0  # requests served so far


def _param_bytes(params) -> bytes:
    return b"".join(b.weight.tobytes() + b.bias.tobytes() for b in params.blocks())


class Deploy:
    name = "deploy"
    forward_only = True  # a gradient evaluation anywhere in the loop fails the run

    @staticmethod
    def _worlds(seed, inputs_dir):
        """(world seed, directory) per world; runs with distinct seeds share no world."""
        return [(seed * DEPLOY_WORLDS + k, os.path.join(inputs_dir, f"world{k}")) for k in range(DEPLOY_WORLDS)]

    def prepare(self, md, seed, inputs_dir) -> None:
        """Per world: base-only checkpoint, exemplars and request scenes,
        written once per run before set-up is timed."""
        ex = md.experiments
        for world_seed, out in self._worlds(seed, inputs_dir):
            config = ex.ExperimentConfig(
                universe=ex.UniverseConfig(n_base=DEPLOY_BASE, n_novel=DEPLOY_NOVEL),
                data=ex.DataConfig(eval_scenes_per_class=1),
                train=md.em_trainer.TrainConfig(seed=world_seed),
            )
            world = ex.build_world(config, world_seed)
            result = md.em_trainer.train(world.train_scenes, world.semantics, config.train)
            os.makedirs(out)
            md.em_trainer.save_checkpoint(os.path.join(out, "base.ckpt"), result.state)
            md.morph_inference.write_exemplars_csv(os.path.join(out, "exemplars.csv"), world.exemplars)
            md.toyworld.save_dataset(os.path.join(out, "requests.txt"), world.eval_base + world.eval_novel)

    def load(self, md, seed, inputs_dir) -> list[DeployInputs]:
        return [self._load_world(md, world_seed, path) for world_seed, path in self._worlds(seed, inputs_dir)]

    def _load_world(self, md, world_seed, inputs_dir) -> DeployInputs:
        state = md.em_trainer.load_checkpoint(os.path.join(inputs_dir, "base.ckpt"))
        exemplars = md.morph_inference.read_exemplars_csv(os.path.join(inputs_dir, "exemplars.csv"))
        scenes = md.toyworld.load_dataset(os.path.join(inputs_dir, "requests.txt"))
        requests = [[(p.descriptor, p.anchor) for p in s.proposals] for s in scenes]
        order = list(range(len(requests)))
        random.Random(world_seed).shuffle(order)
        return DeployInputs(
            name=os.path.basename(inputs_dir),
            base_state=state,
            exemplars=exemplars,
            requests=requests,
            order=order,
            param_lines=md.embedder.params_to_lines(state.params),
            param_bytes=_param_bytes(state.params),
        )

    def instrument(self, ctx, patches) -> None:
        pass  # the client times its own requests

    def _detect(self, ctx, state, request):
        """One timed request; returns (detections or None, ms, failure note)."""
        ctx.begin_op()
        start = perf_counter()
        try:
            dets = ctx.md.morph_inference.detect(state, request)
        except Exception as exc:  # an op that raises is counted, the run goes on
            return None, (perf_counter() - start) * 1e3, f"detect: {_describe(exc)}"
        elapsed_ms = (perf_counter() - start) * 1e3
        ctx.samples.detect_ms.append(elapsed_ms)
        return dets, elapsed_ms, None

    def run_pass(self, ctx) -> None:
        ctx.samples.pass_s.append(sum(self._cycle(ctx, inputs) for inputs in ctx.inputs))

    def _cycle(self, ctx, inputs) -> float:
        """One cycle on one world; returns its summed request latencies in s."""
        md = ctx.md
        state = inputs.base_state
        mark = ctx.samples.mark()
        busy_ms = 0.0
        for cid in sorted(inputs.exemplars):
            for _ in range(DETECTS_PER_MORPH):
                request = inputs.requests[inputs.order[inputs.position % len(inputs.order)]]
                inputs.position += 1
                dets, elapsed_ms, note = self._detect(ctx, state, request)
                busy_ms += elapsed_ms
                ctx.tally.record(dets is not None, note)
            ctx.begin_op()
            grads_before = md.embedder.grad_evaluation_count()
            reference = kernel_s()
            start = perf_counter()
            try:
                state = md.morph_inference.morph(state, {cid: inputs.exemplars[cid]})
            except Exception as exc:  # an op that raises is counted, the run goes on
                busy_ms += (perf_counter() - start) * 1e3
                ctx.tally.record(False, f"morph {cid}: {_describe(exc)}")
                continue
            elapsed_ms = (perf_counter() - start) * 1e3
            busy_ms += elapsed_ms
            ctx.samples.add_morph(elapsed_ms, reference)
            ok = (
                md.embedder.grad_evaluation_count() == grads_before
                and _param_bytes(state.params) == inputs.param_bytes
                and state.prototypes.has_class(cid)
            )
            ctx.tally.record(ok, None if ok else f"morph {cid} computed gradients or changed the network")

        # Every class is registered: the probe's detections must hash the same
        # in every cycle and the network must print as it was loaded. The
        # last probe request carries that check.
        digest = hashlib.sha256()
        probe = []
        for index in inputs.order[:PROBE_SCENES]:
            dets, elapsed_ms, note = self._detect(ctx, state, inputs.requests[index])
            busy_ms += elapsed_ms
            probe.append((dets is not None, note))
            for d in dets or ():
                digest.update(f"{d.class_id} {d.score!r} {d.box.as_tuple()!r};".encode())
        cycle_ok = ctx.tally.same({f"{inputs.name}/full_class_detections": digest.hexdigest()}) and (
            md.embedder.params_to_lines(state.params) == inputs.param_lines
        )
        for ok, note in probe[:-1]:
            ctx.tally.record(ok, note)
        ok, note = probe[-1]
        ctx.tally.record(ok and cycle_ok, note or (None if cycle_ok else "full-class probe or network changed"))
        ctx.samples.add_part(inputs.name, busy_ms / 1e3, mark)
        return busy_ms / 1e3


WORKLOADS = {w.name: w for w in (Quickstart(), Studies(), Deploy())}
