"""Benchmark for morphdet: one workload, one seed, one run.

    python3 perfbench/run.py --workload quickstart --seed 0 --seconds 35 --trace 0

Run it from anywhere; it imports morphdet from ``src/`` beside this directory
and exits with code 2, printing no result, when that source tree is missing.
Metric names, units and the workload list come from ``BENCHMARK.json``.

A run takes four steps, each in a fresh interpreter: make the workload's
inputs, time the set-up several times, then measure the workload in a
process of its own, so that its peak memory counts no helper process.

With ``--trace 0`` the last stdout line carries the end-to-end metrics. With
``--trace 1`` every other pass runs under the span timers. The last line then
carries the per-layer metrics of the traced passes, plus the tracing overhead
on each end-to-end metric (traced passes against untraced ones), and the
spans are written to ``.perfbench_out/`` at exit. The line before the last is
a JSON record of the run: machine facts, sample counts, part means, latency
percentiles, output digests and failure notes. It is also saved in
``.perfbench_out/``, where all scratch files of a run live.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import marshal
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import types
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
# Nominal time of one compile_reference_s() run: set-up times are scaled to a
# machine that runs it this fast, as passes are by workloads.REFERENCE_S.
SETUP_REFERENCE_S = 0.015
# Source that compile_reference_s() compiles and runs: functions and classes,
# the kind of module body an import unmarshals and executes.
REFERENCE_SOURCE = "".join(
    f"def f{i}(a, b=1, *c, **d):\n    x = [a + b * j for j in range(10)]\n    return {{'k{i}': x, 'y': (a, b, c, d)}}\n"
    f"class C{i}:\n    z = {i}\n    def m(self):\n        return self.z + {i}\n"
    for i in range(150)
)
MODULES = ("cli", "embedder", "em_trainer", "evalkit", "experiments", "morph_inference",
           "objective", "prototype_store", "toyworld")
PAGE_KIB = os.sysconf("SC_PAGE_SIZE") // 1024

sys.path.insert(0, str(HERE))
from spans import Patches, SpanRecorder, install, layer_metrics  # noqa: E402
from workloads import REFERENCE_S, WORKLOADS, Context, Samples, Tally  # noqa: E402


def import_morphdet() -> types.SimpleNamespace:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    md = types.SimpleNamespace(**{m: importlib.import_module(f"morphdet.{m}") for m in MODULES})
    if Path(md.cli.__file__).resolve().parent != src / "morphdet":
        raise RuntimeError(f"imported morphdet from {md.cli.__file__}, not from {src}")
    return md


def percentile(values, q: float):
    """Nearest-rank percentile, or None when fewer than ten samples lie
    beyond it: a tail read from a short sample is not reported."""
    n = len(values)
    rank = math.ceil(q / 100.0 * n)
    if n == 0 or n - rank < 10:
        return None
    return sorted(values)[rank - 1]


def end_to_end(samples: Samples, setup_s, rss_mb) -> dict:
    """The machine's speed drifts by up to 2x within minutes (README,
    "Noise"), so every time is scaled by REFERENCE_S over the reference
    kernel's time beside it. `pass_s` sums over the parts of a pass
    (quickstart stage, study, deploy cycle) the median over passes of the
    part's scaled time. `detect_ms` is the median over all detect requests,
    each scaled by the reference of the part it ran in; `morph_ms` the median
    over all morph calls, each scaled by the kernel run right before it."""
    detect_ms = [ms * REFERENCE_S / row.reference_s for rows in samples.parts.values() for row in rows
                 for ms in row.detect_ms]
    return {
        "setup_s": setup_s,
        "pass_s": sum(statistics.median(row.seconds * REFERENCE_S / row.reference_s for row in rows)
                      for rows in samples.parts.values()) if samples.parts else None,
        "detect_ms": statistics.median(detect_ms) if detect_ms else None,
        "morph_ms": statistics.median(samples.morph_scaled_ms) if samples.morph_scaled_ms else None,
        "peak_rss_mb": rss_mb,
    }


def descendants_kib(pid: int) -> int:
    """Resident KiB of the live processes below `pid`, found through /proc."""
    children, rss = defaultdict(list), {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                text = fh.read()
        except OSError:
            continue  # the process ended while we looked
        fields = text[text.rindex(b")") + 2:].split()  # fields 3.. of proc(5) stat
        children[int(fields[1])].append(int(entry))
        rss[int(entry)] = int(fields[21])
    total, todo = 0, list(children[pid])
    while todo:
        child_pid = todo.pop()
        total += rss[child_pid]
        todo.extend(children[child_pid])
    return total * PAGE_KIB


class PeakRss:
    """Peak memory of the workload process and of the processes it starts:
    its own peak, plus the larger of the biggest finished child's peak and
    the most its live descendants held at any pass boundary. The first
    counts a pool that lives within one call (its largest worker), the
    second a pool that outlives a pass (all its workers)."""

    def __init__(self):
        self.live_kib = 0

    def sample(self) -> None:
        self.live_kib = max(self.live_kib, descendants_kib(os.getpid()))

    def mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        finished = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return (own + max(finished, self.live_kib)) / 1024.0


def blas_threads():
    """Threads the loaded OpenBLAS uses, asked from the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts() -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                            if k in os.environ},
    }


def child(args, *extra) -> str:
    """Run this script in a fresh interpreter and return its last stdout line."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(extra)} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return lines[-1] if lines else ""


def compile_reference_s() -> float:
    """Time compiling, marshalling and running REFERENCE_SOURCE: interpreter
    work like an import's, which tracks the machine's speed for set-up the
    way reference_s() does for passes (README, "Noise")."""
    start = perf_counter()
    exec(marshal.loads(marshal.dumps(compile(REFERENCE_SOURCE, "<reference>", "exec"))), {})
    return perf_counter() - start


def setup_probe(workload, seed, inputs_dir) -> tuple[float, float]:
    """Set-up as a user pays it: import morphdet, then load the inputs.
    Scaled by the median of three compile_reference_s() runs right after."""
    start = perf_counter()
    md = import_morphdet()
    workload.load(md, seed, inputs_dir)
    setup = perf_counter() - start
    return setup, statistics.median(compile_reference_s() for _ in range(3))


def timed_load(workload, md, seed, inputs_dir):
    start = perf_counter()
    inputs = workload.load(md, seed, inputs_dir)
    return inputs, perf_counter() - start


def run_phase(workload, md, seed, seconds, inputs_dir, workdir, tally, trace):
    """Load the inputs, then run passes for `seconds`. With `trace`, every
    other pass runs under the span timers, so that traced and untraced
    passes see the same machine states, and the inputs are loaded once more
    traced and once more untraced after a first load that warms the caches."""
    samples, traced = Samples(), Samples()
    recorder = SpanRecorder() if trace else None
    ctx = Context(md=md, seed=seed, workdir=workdir, tally=tally, samples=samples)
    ctx.inputs, load_s = timed_load(workload, md, seed, inputs_dir)
    traced_load_s = None
    if trace:
        with Patches() as patches:
            install(patches, recorder, vars(md))
            _, traced_load_s = timed_load(workload, md, seed, inputs_dir)
        _, load_s = timed_load(workload, md, seed, inputs_dir)
    rss = PeakRss()
    passes, grads = [0, 0], [0, 0]  # untraced, traced
    start, last = perf_counter(), 0.0
    # A pass starts while at least half of it (judged by the last one) fits
    # in the time left, so runs end near `seconds` on average.
    while sum(passes) < 1 + trace or perf_counter() - start + last / 2 < seconds:
        tracing = int(trace and sum(passes) % 2 == 1)
        ctx.samples, ctx.recorder = (traced, recorder) if tracing else (samples, None)
        before = md.embedder.grad_evaluation_count()
        with Patches() as patches:
            if tracing:
                install(patches, recorder, vars(md))
            workload.instrument(ctx, patches)
            begun = perf_counter()
            workload.run_pass(ctx)
            last = perf_counter() - begun
        grads[tracing] += md.embedder.grad_evaluation_count() - before
        passes[tracing] += 1
        rss.sample()
    return types.SimpleNamespace(samples=samples, traced=traced, recorder=recorder, passes=passes,
                                 grad_evaluations=grads, load_s=load_s, traced_load_s=traced_load_s,
                                 rss_mb=rss.mb())


def overhead(untraced: dict, traced: dict, phase) -> dict:
    """Tracing's cost on the end-to-end metrics of the passes, in % of the
    untraced value. Traced and untraced passes share one process, so
    peak_rss_mb is the memory the spans hold. setup_s is added by main()."""
    out = {"peak_rss_mb": 100.0 * phase.recorder.nbytes() / 2**20 / phase.rss_mb}
    for name in ("pass_s", "detect_ms", "morph_ms"):
        if untraced.get(name) and traced.get(name) is not None:
            out[name] = 100.0 * (traced[name] - untraced[name]) / untraced[name]
    return out


def summary(samples: Samples, passes: int) -> dict:
    """The run record's view of the untraced or traced passes; tails obey
    the ten-beyond rule."""
    return {
        "passes": passes,
        "samples": {"pass": len(samples.pass_s), "detect": len(samples.detect_ms), "morph": len(samples.morph_ms)},
        "part_s_mean": {k: statistics.fmean(row.seconds for row in v) for k, v in samples.parts.items()},
        "reference_ms_median": statistics.median(row.reference_s * 1e3 for v in samples.parts.values() for row in v)
        if samples.parts else None,
        "detect_ms_p50": percentile(samples.detect_ms, 50),
        "detect_ms_p99": percentile(samples.detect_ms, 99),
        "morph_ms_p50": percentile(samples.morph_ms, 50),
        "morph_ms_p99": percentile(samples.morph_ms, 99),
    }


def measure(args, spec, workdir: Path) -> tuple[dict, dict, bool]:
    """Run the workload in this process: the one whose memory is measured."""
    workload = WORKLOADS[args.workload]
    md = import_morphdet()
    tally = Tally()
    phase = run_phase(workload, md, args.seed, args.seconds, workdir / "inputs", str(workdir), tally,
                      trace=bool(args.trace))
    e2e = end_to_end(phase.samples, None, phase.rss_mb)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "machine": machine_facts(), "load_s": phase.load_s,
              "untraced": summary(phase.samples, phase.passes[0])}
    if not args.trace:
        metrics = e2e
    else:
        traced_passes = phase.passes[1]
        traced_e2e = end_to_end(phase.traced, None, phase.rss_mb)
        metrics = layer_metrics(phase.recorder, traced_passes, phase.grad_evaluations[1])
        metrics["bench.passes"] = traced_passes
        for name, value in overhead(e2e, traced_e2e, phase).items():
            metrics[f"trace.overhead.{name}"] = value
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
        phase.recorder.write(str(spans_path))
        record["traced"] = summary(phase.traced, traced_passes)
        record["traced_load_s"] = phase.traced_load_s
        record["spans"] = str(spans_path.relative_to(ROOT))
        record["untraced_end_to_end"] = e2e
        record["traced_end_to_end"] = traced_e2e
        # Layers the workload never calls read 0; every listed name is printed.
        for m in spec["per_layer"]:
            metrics.setdefault(m["name"], 0.0)
    correct = tally.failed == 0
    grads = sum(phase.grad_evaluations)
    if workload.forward_only and grads:
        tally.notes.append(f"{grads} gradient evaluations in a forward-only loop")
        correct = False
    record.update(ops=tally.ops, ops_failed=tally.failed, digests=tally.digests, notes=tally.notes)
    return metrics, record, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", metavar="DIR", dest="setup_probe", help=argparse.SUPPRESS)
    parser.add_argument("--measure", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "morphdet" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {ROOT} has no src/morphdet/ or BENCHMARK.json to benchmark", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS or args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    if args.prepare:
        workload.prepare(import_morphdet(), args.seed, args.prepare)
        return 0
    if args.setup_probe:
        print(json.dumps(setup_probe(workload, args.seed, args.setup_probe)))
        return 0
    if args.measure:
        metrics, record, correct = measure(args, spec, Path(args.measure))
        print(json.dumps({"metrics": metrics, "record": record, "correct": correct}))
        return 0

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{tag}-{os.getpid()}"
    inputs_dir = workdir / "inputs"
    inputs_dir.mkdir(parents=True)
    try:
        if workload.prepare is not None:
            child(args, "--prepare", str(inputs_dir))
        probes = [json.loads(child(args, "--setup-probe", str(inputs_dir))) for _ in range(SETUP_REPEATS)]
        measured = json.loads(child(args, "--measure", str(workdir)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, record = measured["metrics"], measured["record"]
    metrics["setup_s"] = statistics.median(setup * SETUP_REFERENCE_S / ref for setup, ref in probes)
    setup_raw = statistics.median(setup for setup, _ in probes)
    if args.trace:  # loading is the part of set-up that tracing can touch
        metrics["trace.overhead.setup_s"] = 100.0 * (record["traced_load_s"] - record["load_s"]) / setup_raw
    record.update(setup_s_samples=[setup for setup, _ in probes], setup_reference_s=[ref for _, ref in probes])
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": measured["correct"],
        "attempted": record["ops"],
        "failed": record["ops_failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed if metrics.get(m["name"]) is not None},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps({**record, "result": result}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
