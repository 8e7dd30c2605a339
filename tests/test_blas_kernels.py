"""Byte-reproducibility across BLAS kernels: `gen` and `train` write the same
bytes under the AVX2 (Haswell) and the default kernel of numpy's bundled
DYNAMIC_ARCH OpenBLAS. Each kernel runs in its own process, because OpenBLAS
reads OPENBLAS_CORETYPE when it loads."""

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


def _digests(out: Path, coretype: str | None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    subprocess.run([sys.executable, "-c", GEN_AND_TRAIN, str(out)], env=env, check=True, capture_output=True)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.skipif(not _dynamic_openblas_on_avx2(), reason="needs numpy on a DYNAMIC_ARCH OpenBLAS and an AVX2 CPU")
def test_gen_and_train_bytes_agree_across_blas_kernels(tmp_path):
    default = _digests(tmp_path / "default", None)
    haswell = _digests(tmp_path / "haswell", "Haswell")
    assert len(default) == 11  # 7 world files (manifest included), 3 checkpoints and metrics.csv
    assert haswell == default
