"""Outside-in timers for the morphdet benchmark.

Nothing here edits morphdet. A timer replaces a module attribute with a
wrapper that calls the original and returns its result unchanged. Modules
import functions by name (``from .embedder import forward_batch``), so a timer
must sit in the module whose code looks the name up: ``em_trainer.forward_batch``
times the E-step's calls, ``morph_inference.forward_batch`` those of morph and
detect. ``Patches`` restores every replaced attribute on exit.
"""

from __future__ import annotations

import functools
import os
from array import array
from collections import Counter, defaultdict
from time import perf_counter, perf_counter_ns


class Patches:
    """Replaces module attributes and puts every original back on exit."""

    def __init__(self):
        self._saved = []

    def wrap(self, module, attr: str, make) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def latency_timer(sink: list):
    """Wrapper factory appending each call's latency in ms to `sink`."""

    def make(fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            sink.append((perf_counter() - start) * 1e3)
            return result

        return timed

    return make


class SpanRecorder:
    """Spans in memory, one column per field: name, start_ns, end_ns, parent
    span index (-1 at top level) and op id. Columns of machine integers keep
    the hundreds of thousands of spans of a deploy run small.

    The workload sets ``op`` to the id of the operation it is running, so the
    spans of one stage run, study pass or request share an id. Op 0 is the
    set-up before the loop. Counter hooks add to ``counts[op > 0]``.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name, self.parent, self.ops = array("i"), array("q"), array("q")
        self.start, self.end = array("q"), array("q")
        self.counts = (Counter(), Counter())
        self.op = 0
        self._open: list[int] = []

    def timer(self, name: str, count=None):
        self.names.append(name)
        name_id = len(self.names) - 1

        def make(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                index = len(self.start)
                self.name.append(name_id)
                self.parent.append(self._open[-1] if self._open else -1)
                self.ops.append(self.op)
                self.end.append(0)
                self._open.append(index)
                self.start.append(perf_counter_ns())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end[index] = perf_counter_ns()
                    self._open.pop()
                if count is not None:
                    count(self.counts[self.op > 0], args, result)
                return result

            return timed

        return make

    def nbytes(self) -> int:
        """Memory the span columns hold."""
        return sum(len(c) * c.itemsize for c in (self.name, self.parent, self.ops, self.start, self.end))

    def spans(self):
        """(name, start_ns, end_ns, parent index, op id) per span."""
        names = self.names
        for n, start, end, parent, op in zip(self.name, self.start, self.end, self.parent, self.ops):
            yield names[n], start, end, parent, op

    def totals(self) -> tuple[dict, dict]:
        """Per part (set-up, loop): name -> [calls, busy ns, self ns]. Spans
        nest strictly (one thread, no overlap between siblings), so the time
        a span's children cover is the sum of their durations."""
        child_ns = defaultdict(int)
        for _, start, end, parent, _ in self.spans():
            if parent >= 0:
                child_ns[parent] += end - start
        parts = (defaultdict(lambda: [0, 0, 0]), defaultdict(lambda: [0, 0, 0]))
        for i, (name, start, end, _, op) in enumerate(self.spans()):
            row = parts[op > 0][name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_ns[i]
        return parts

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\top\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans()):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{op}\n")


def _file_bytes(prefix):
    def count(counts, args, result):
        counts[prefix + ".bytes"] += os.path.getsize(args[0])

    return count


def _loaded_dataset(counts, args, result):
    counts["toyworld.load_dataset.bytes"] += os.path.getsize(args[0])
    counts["toyworld.load_dataset.proposals"] += sum(len(s.proposals) for s in result)


def _made_dataset(counts, args, result):
    counts["toyworld.make_dataset.scenes"] += len(result)


def _forward_rows(counts, args, result):
    counts["embedder.forward_batch.rows"] += len(args[1])


def _detected(counts, args, result):
    protos = args[0].prototypes
    classes = len(protos.base) + len(protos.novel)
    counts["detect.calls"] += 1
    counts["detect.class_sum"] += classes
    counts["detect.pairs"] += classes * len(args[1])


def _suppressed(counts, args, result):
    counts["morph_inference.nms.candidates"] += len(args[0])
    counts["morph_inference.nms.kept"] += len(result)


# (module, attribute looked up by the caller, span name, counter hook).
# Span names follow <module that defines the function>.<function>.
SITES = (
    ("cli", "cmd_gen", "cli.cmd_gen", None),
    ("cli", "cmd_train", "cli.cmd_train", None),
    ("cli", "cmd_morph", "cli.cmd_morph", None),
    ("cli", "cmd_eval", "cli.cmd_eval", None),
    ("experiments", "run_em_iterations", "experiments.run_em_iterations", None),
    ("experiments", "run_lambda", "experiments.run_lambda", None),
    ("experiments", "run_init", "experiments.run_init", None),
    ("experiments", "run_zero_shot", "experiments.run_zero_shot", None),
    ("cli", "build_world", "experiments.build_world", None),
    ("experiments", "build_world", "experiments.build_world", None),
    ("experiments", "make_dataset", "toyworld.make_dataset", _made_dataset),
    ("cli", "save_dataset", "toyworld.save_dataset", _file_bytes("toyworld.save_dataset")),
    ("cli", "load_dataset", "toyworld.load_dataset", _loaded_dataset),
    ("toyworld", "load_dataset", "toyworld.load_dataset", _loaded_dataset),
    ("cli", "train", "em_trainer.train", None),
    ("experiments", "train", "em_trainer.train", None),
    ("em_trainer", "m_step", "em_trainer.m_step", None),
    ("em_trainer", "e_step", "em_trainer.e_step", None),
    ("em_trainer", "forward_batch_with_grad", "embedder.forward_batch_with_grad", None),
    ("em_trainer", "sgd_step", "embedder.sgd_step", None),
    ("em_trainer", "forward_batch", "embedder.forward_batch", _forward_rows),
    ("em_trainer", "e_step_update", "prototype_store.e_step_update", None),
    ("cli", "save_checkpoint", "em_trainer.save_checkpoint", _file_bytes("em_trainer.save_checkpoint")),
    ("cli", "load_checkpoint", "em_trainer.load_checkpoint", _file_bytes("em_trainer.load_checkpoint")),
    ("em_trainer", "load_checkpoint", "em_trainer.load_checkpoint", _file_bytes("em_trainer.load_checkpoint")),
    ("cli", "morph", "morph_inference.morph", None),
    ("experiments", "morph", "morph_inference.morph", None),
    ("morph_inference", "morph", "morph_inference.morph", None),
    ("morph_inference", "add_novel", "prototype_store.add_novel", None),
    ("experiments", "add_novel", "prototype_store.add_novel", None),
    ("morph_inference", "forward_batch", "embedder.forward_batch", _forward_rows),
    ("cli", "evaluate", "evalkit.evaluate", None),
    ("experiments", "evaluate", "evalkit.evaluate", None),
    ("evalkit", "detect", "morph_inference.detect", _detected),
    ("morph_inference", "detect", "morph_inference.detect", _detected),
    ("morph_inference", "posterior_batch", "objective.posterior_batch", None),
    ("morph_inference", "decode_box", "morph_inference.decode_box", None),
    ("morph_inference", "nms", "morph_inference.nms", _suppressed),
    ("evalkit", "average_precision", "evalkit.average_precision", None),
    ("evalkit", "recall_at", "evalkit.recall_at", None),
)


def install(patches: Patches, recorder: SpanRecorder, modules: dict) -> None:
    """Put a span timer on every site whose module the workload imported."""
    for module_name, attr, span_name, count in SITES:
        module = modules.get(module_name)
        if module is not None:
            patches.wrap(module, attr, recorder.timer(span_name, count))


def layer_metrics(recorder: SpanRecorder, passes: int, grad_evaluations: int) -> dict[str, float]:
    """Per-layer figures per workload pass, so that versions whose runs finish
    different numbers of passes compare directly; set-up work (op 0) counts
    once. Ratios and means are taken over the whole traced phase."""
    out: dict[str, float] = defaultdict(float)
    for part, scale in zip(recorder.totals(), (1.0, 1.0 / passes)):
        for name, (calls, busy_ns, self_ns) in part.items():
            out[f"{name}.calls"] += calls * scale
            out[f"{name}.ms"] += busy_ns / 1e6 * scale
            out[f"{name}.self_ms"] += self_ns / 1e6 * scale
    counts = recorder.counts[0] + recorder.counts[1]
    for counted, scale in zip(recorder.counts, (1.0, 1.0 / passes)):
        for key, value in counted.items():
            if not key.startswith("detect."):
                out[key] += value * scale
    if counts["detect.calls"]:
        out["morph_inference.detect.classes"] = counts["detect.class_sum"] / counts["detect.calls"]
    if counts["detect.pairs"]:
        out["morph_inference.detect.pass_frac"] = counts["morph_inference.nms.candidates"] / counts["detect.pairs"]
    if counts["morph_inference.nms.candidates"]:
        out["morph_inference.nms.kept_frac"] = counts["morph_inference.nms.kept"] / counts["morph_inference.nms.candidates"]
    out["embedder.grad_evaluations"] = grad_evaluations / passes
    return dict(out)
