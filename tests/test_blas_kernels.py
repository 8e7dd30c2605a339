"""Byte-reproducibility across BLAS kernels: `gen` and `train` write the same
bytes under the AVX2 (Haswell) and the default kernel of numpy's bundled
DYNAMIC_ARCH OpenBLAS, and the four studies, which morph and so are specific
to their kernel, write the tables recorded under the Haswell kernel. Each run
is its own process, because OpenBLAS reads OPENBLAS_CORETYPE when it loads."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

GEN_AND_TRAIN = """
import sys
from morphdet.cli import main
out = sys.argv[1]
assert main(["gen", "--out", out + "/world", "--seed", "0"]) == 0
assert main(["train", "--data", out + "/world", "--out", out + "/run", "--seed", "0"]) == 0
"""

STUDIES = """
import sys
from dataclasses import replace
from pathlib import Path
from morphdet.experiments import EXPERIMENTS, ExperimentConfig
for run in EXPERIMENTS.values():
    run(replace(ExperimentConfig(), seeds=1), Path(sys.argv[1]))
"""

STUDIES_KERNEL = "Haswell"  # the kernel studies_seed0.sha256 was recorded under


def _dynamic_openblas_on_avx2() -> bool:
    """numpy links a DYNAMIC_ARCH OpenBLAS and the CPU has AVX2. The test never
    forces a kernel past that, because a kernel the CPU lacks faults."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        from numpy._core._multiarray_umath import __cpu_features__
    except (ImportError, KeyError, TypeError):
        return False
    built = f"{blas.get('name', '')} {blas.get('openblas configuration', '')}"
    return "openblas" in built.lower() and "DYNAMIC_ARCH" in built and bool(__cpu_features__.get("AVX2"))


needs_kernels = pytest.mark.skipif(
    not _dynamic_openblas_on_avx2(), reason="needs numpy on a DYNAMIC_ARCH OpenBLAS and an AVX2 CPU"
)


def _digests(script: str, out: Path, coretype: str | None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True, capture_output=True)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.rglob("*")) if p.is_file()}


@needs_kernels
def test_gen_and_train_bytes_agree_across_blas_kernels(tmp_path):
    default = _digests(GEN_AND_TRAIN, tmp_path / "default", None)
    haswell = _digests(GEN_AND_TRAIN, tmp_path / "haswell", "Haswell")
    assert len(default) == 11  # 7 world files (manifest included), 3 checkpoints and metrics.csv
    assert haswell == default


@needs_kernels
def test_default_studies_write_the_recorded_tables(tmp_path):
    """The four studies at the default config and one seed, written through
    run_*(config, out_dir) under STUDIES_KERNEL, give the eight tables whose
    sha256 studies_seed0.sha256 records (sha256sum -c format). The tables hold
    AP50s, so a change to training or detection shows here once it moves a
    detection's rank or match; a change in the last bits alone may not."""
    recorded = Path(__file__).with_name("studies_seed0.sha256").read_text(encoding="ascii").splitlines()
    want = {name: digest for digest, name in (line.split("  ") for line in recorded)}
    assert len(want) == 8
    assert _digests(STUDIES, tmp_path, STUDIES_KERNEL) == want
