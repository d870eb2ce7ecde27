"""Golden digests: bit-exactness oracle for refactors and speed-ups.

Pins ArtifactBundle.digest() and the SHA-256 of report_gzsl.txt for three TINY
runs (white/KL, black/MMD, and inductive white/KL, the one that also covers
the classifier fit). Floating-point results depend on the numpy and BLAS
build, so the pins hold only for the build named below; on any other build the
test skips and names both, instead of re-pinning. A change that moves these
values on purpose changes the numerics and must say so.
"""
import hashlib

import numpy as np
import pytest

from azsl.experiment import run_experiment
from conftest import tiny_config

PINNED_NUMPY = "2.4.6"
PINNED_OPENBLAS = "0.3.31"

GOLDEN = {
    "white-kl": (
        {},
        "15a02481c0617317848a97116c144d4d7fc03f029f9e31a478d35cada6ef9790",
        "292b407bbf1793573956c21f0b18627bec50346d0abe17561986d2d96ccc0c4b",
    ),
    "black-mmd": (
        {"scenario": "black", "regularizer": "mmd"},
        "528a7544c0e25828a345b4bad8f8147bafc94aa317b1ffc2b0ae6ce0c68dec1d",
        "c5be85f5fe07bdd01d630fe5cb88209ad4bf7f45d3809d56962cdd4dec817e70",
    ),
    "inductive-kl": (
        {"teacher_mode": "inductive"},
        "3351fa351322a0a86c9fd8d78dcce43675c2ca9ed47a6d08660254c294b8c515",
        "340c014e0c893aae67c18b1170ea7f8b7b67f9339d7dd240573ff9ce2583a716",
    ),
}


def _blas() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"


def _require_pinned_build():
    # numpy first: show_config(mode=...) does not exist before numpy 1.26
    found = _blas() if np.__version__ == PINNED_NUMPY else "not checked"
    if "openblas" not in found or not found.split()[-1].startswith(PINNED_OPENBLAS):
        pytest.skip(
            f"golden digests are pinned for numpy {PINNED_NUMPY} with OpenBLAS {PINNED_OPENBLAS}; "
            f"this build has numpy {np.__version__} with BLAS {found}"
        )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest_and_report(name, tmp_path):
    _require_pinned_build()
    overrides, digest, report_sha = GOLDEN[name]
    cfg = tiny_config(out=str(tmp_path / name), **overrides)
    result = run_experiment(cfg, outdir=cfg.out)
    report = (result.outdir / "report_gzsl.txt").read_bytes()
    assert result.bundle.digest() == digest
    assert hashlib.sha256(report).hexdigest() == report_sha, report.decode()
