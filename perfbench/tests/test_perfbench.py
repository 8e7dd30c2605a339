"""Tests of the benchmark's own machinery: timers, traced outputs, tail rule.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
from spans import SITES, Patches, SpanRecorder, install, latency_timer  # noqa: E402
from workloads import WORKLOADS, Part, Tally, kernel_s, reference_s  # noqa: E402


@pytest.fixture(scope="module")
def md():
    return bench.import_morphdet()


def test_timers_restore_every_patched_attribute(md):
    modules = vars(md)
    before = {(m, a): getattr(modules[m], a) for m, a, _, _ in SITES}
    sink = []
    with pytest.raises(RuntimeError):
        with Patches() as patches:
            install(patches, SpanRecorder(), modules)
            patches.wrap(md.evalkit, "detect", latency_timer(sink))
            assert all(getattr(modules[m], a) is not before[(m, a)] for m, a in before)
            raise RuntimeError("the restore must survive an exception")
    assert all(getattr(modules[m], a) is before[(m, a)] for m, a in before)


def test_timer_passes_arguments_and_result_through():
    recorder = SpanRecorder()
    seen = []

    def target(*args, **kwargs):
        seen.append((args, kwargs))
        return seen

    outer = recorder.timer("outer")(latency_timer([])(target))
    inner = recorder.timer("inner")(target)
    assert outer(1, 2, key=3) is seen
    assert recorder.timer("wrap")(lambda: inner(4))() is seen
    assert seen == [((1, 2), {"key": 3}), ((4,), {})]
    spans = list(recorder.spans())
    parents = {name: parent for name, _, _, parent, _ in spans}
    assert parents["outer"] == -1 and parents["wrap"] == -1
    assert spans[parents["inner"]][0] == "wrap"
    recorder.op = 1
    inner(5)
    setup, loop = recorder.totals()
    calls, busy, own = setup["wrap"]
    assert calls == 1 and own == busy - setup["inner"][1]
    assert loop["inner"][0] == 1 and "wrap" not in loop


def test_traced_quickstart_reproduces_untraced_digests(md, tmp_path):
    tally = Tally()
    # Two passes at least: the first untraced, the second traced. The tally
    # holds every output to the first pass's digest.
    phase = bench.run_phase(WORKLOADS["quickstart"], md, 0, 0, tmp_path, str(tmp_path), tally, trace=True)
    assert phase.passes == [1, 1]
    assert (tally.ops, tally.failed) == (8, 0), tally.notes  # includes the README AP50 table
    assert set(tally.digests) >= {"run/checkpoint_iter3.ckpt", "run/metrics.csv", "run/eval/report.json"}
    assert phase.recorder.nbytes() > 0
    metrics = bench.layer_metrics(phase.recorder, phase.passes[1], phase.grad_evaluations[1])
    assert metrics["embedder.sgd_step.calls"] == 810
    assert metrics["morph_inference.detect.calls"] == 300
    assert set(phase.samples.parts) == set(phase.traced.parts) == {"gen", "train", "morph", "eval"}


def test_p99_needs_ten_samples_beyond_it():
    assert bench.percentile(list(range(999)), 99) is None
    assert bench.percentile(list(range(1000)), 99) == 989
    assert bench.percentile([], 50) is None
    short = bench.summary(bench.Samples(pass_s=[1.0], detect_ms=[1.0] * 500, morph_ms=[0.1] * 2000), 1)
    assert short["detect_ms_p99"] is None and short["morph_ms_p99"] == 0.1


def test_end_to_end_scales_each_part_by_the_machine_speed_beside_it():
    ref = bench.REFERENCE_S
    samples = bench.Samples()
    # Pass 2 ran on a machine twice as slow (the reference took twice as
    # long); pass 3 did slower work on a machine as fast as pass 1's.
    samples.parts["a"] = [Part(10.0, ref, [1.0] * 3), Part(20.0, 2 * ref, [2.0] * 3), Part(30.0, ref, [3.0] * 3)]
    samples.parts["b"] = [Part(1.0, ref, [5.0]), Part(2.0, 2 * ref, [10.0]), Part(1.0, ref, [5.0])]
    # Each morph is scaled by the kernel timed right before it: the second
    # ran on a machine twice as slow, the third did slower work.
    for ms, kernel in ((0.5, ref), (1.0, 2 * ref), (0.8, ref)):
        samples.add_morph(ms, kernel)
    e2e = bench.end_to_end(samples, 0.2, 40.0)
    assert e2e["pass_s"] == 11.0
    # Scaled detects: six of 1.0, three of 3.0, three of 5.0.
    assert e2e["detect_ms"] == 2.0
    assert e2e["morph_ms"] == 0.5
    assert samples.morph_ms == [0.5, 1.0, 0.8]
    assert (e2e["setup_s"], e2e["peak_rss_mb"]) == (0.2, 40.0)
    assert 0 < kernel_s() and 0 < reference_s() and bench.compile_reference_s() > 0


def test_peak_rss_counts_live_child_processes():
    rss = bench.PeakRss()
    rss.sample()
    alone = rss.live_kib
    child = subprocess.Popen([sys.executable, "-c", "import sys; b = bytearray(64 << 20); sys.stdin.read()"],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        for _ in range(200):
            rss.sample()
            if rss.live_kib - alone > 60 << 10:
                break
            time.sleep(0.01)
    finally:
        child.communicate(b"")
    assert rss.live_kib - alone > 60 << 10
    assert rss.mb() > 64


def test_every_listed_per_layer_metric_has_a_source():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    spans = {name for _, _, name, _ in SITES}
    derived = {"embedder.grad_evaluations", "bench.passes", "morph_inference.detect.classes",
               "morph_inference.detect.pass_frac", "morph_inference.nms.kept_frac",
               "embedder.forward_batch.rows", "em_trainer.save_checkpoint.bytes",
               "em_trainer.load_checkpoint.bytes", "toyworld.make_dataset.scenes",
               "toyworld.save_dataset.bytes", "toyworld.load_dataset.bytes",
               "toyworld.load_dataset.proposals", "morph_inference.nms.candidates",
               "morph_inference.nms.kept"}
    e2e = {m["name"] for m in spec["end_to_end"]}
    for metric in spec["per_layer"]:
        name = metric["name"]
        span, _, stat = name.rpartition(".")
        assert (name in derived or (span in spans and stat in ("calls", "ms", "self_ms"))
                or (span == "trace.overhead" and stat in e2e)), name


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quickstart", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2 and done.stdout == ""
