"""The README quickstart (`gen`, `train`, `morph`, both `eval` forms) and `forward_batch`
at 1 to 40 rows write the same bytes under the AVX2 (Haswell) and the default kernel of
numpy's bundled DYNAMIC_ARCH OpenBLAS. Each run is its own process, because OpenBLAS
reads OPENBLAS_CORETYPE when it loads."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

QUICKSTART = """
import sys
import numpy as np
from morphdet.cli import main
from morphdet.em_trainer import load_checkpoint
from morphdet.embedder import forward_batch
world, run = sys.argv[1] + "/world", sys.argv[1] + "/run"
ckpt, morphed = run + "/checkpoint_iter3.ckpt", run + "/morphed.ckpt"
for argv in (
    ["gen", "--out", world, "--seed", "0"],
    ["train", "--data", world, "--out", run, "--seed", "0"],
    ["morph", "--checkpoint", ckpt, "--exemplars", world + "/exemplars.csv", "--out", morphed],
    ["eval", "--checkpoint", morphed, "--data", world, "--split", "all", "--out", run + "/eval"],
    ["eval", "--checkpoint", morphed, "--baseline-checkpoint", ckpt, "--data", world, "--split", "all", "--out", run + "/pair"],
):
    assert main(argv) == 0
params = load_checkpoint(ckpt).params
x = np.random.default_rng(0).normal(size=(40, params.m_in))
with open(sys.argv[1] + "/forward_batch.bin", "wb") as fh:
    fh.writelines(head.tobytes() for n in range(1, 41) for head in forward_batch(params, x[:n]))
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


needs_kernels = pytest.mark.skipif(
    not _dynamic_openblas_on_avx2(), reason="needs numpy on a DYNAMIC_ARCH OpenBLAS and an AVX2 CPU"
)


def _digests(out: Path, coretype: str | None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    subprocess.run([sys.executable, "-c", QUICKSTART, str(out)], env=env, check=True, capture_output=True)
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in out.rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def kernel_digests(tmp_path_factory):
    out = tmp_path_factory.mktemp("kernels")
    return _digests(out / "default", None), _digests(out / "haswell", "Haswell")


@needs_kernels
def test_gen_and_train_bytes_agree_across_blas_kernels(kernel_digests):
    gen_and_train = ("world/", "run/checkpoint_iter", "run/metrics.csv")
    default, haswell = ({k: v for k, v in d.items() if k.startswith(gen_and_train)} for d in kernel_digests)
    assert len(default) == 11  # 7 world files (manifest included), 3 checkpoints and metrics.csv
    assert haswell == default


@needs_kernels
def test_morph_eval_and_forward_batch_bytes_agree_across_blas_kernels(kernel_digests):
    default, haswell = kernel_digests
    assert len(default) == 11 + 1 + 2 + 3 + 1  # morphed.ckpt, eval's and the pair's reports, the sweep
    assert haswell == default
