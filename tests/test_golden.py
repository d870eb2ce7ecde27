"""Golden digests: bit-exactness oracle for refactors and speed-ups.

Pins ArtifactBundle.digest() and the SHA-256 of report_gzsl.txt for three TINY
runs (white/KL, black/MMD, and inductive white/KL, the one that also covers
the classifier fit). A second pin holds the SHA-256 of each run's weight files
and trace.csv alone, which a change of the feedback protocol (its frames, the
transcript, the bundle digest) leaves where they are. Floating-point results
depend on the numpy and BLAS build, so the pins hold only for the build named
below; on any other build the test skips and names both, instead of
re-pinning. A change that moves these values on purpose changes the numerics
and must say so.
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


WEIGHTS_AND_TRACE = {
    "white-kl": {
        "gen.azw": "81461901d985145d794b4ad14448838a9539e963886eda7e27117d143310202e",
        "student.azw": "9f8f58bbd7e6e7a01ab9f8a4d63e6f9dbd4388e4954fa153e12cdb2d8c4bd34d",
        "trace.csv": "0b254375c893d9bd281263669948b253be0c59f6b8f93ed474e4a4a5e2f02dc9",
    },
    "black-mmd": {
        "gen.azw": "4fb094a6ec1d0f98b35648ba77a35e7cc21e2c08d341668642b11353e283a6b2",
        "student.azw": "0c311b20b80c05a8f253ac9f068031d3dab4084e66f5393ce169d67113614838",
        "trace.csv": "c63fa5ea65f9dddea7f8eeee595d1e1bf4a3b92da88e500ff2eb5e0182c47010",
    },
    "inductive-kl": {
        "gen.azw": "9b72e0f3c42122e42e42bfdba177eb442effa516f593d0e8e2e5079ff5a6ce3e",
        "student.azw": "8a56b39bdfcc7b0053ba7a9b7d7364f449d085d5daac63aa8bde32abdc1a79a1",
        "classifier.azw": "e905482f552cb1b84af97feba1ee85d8864966d6b0249ce9be5735d7a1867c90",
        "trace.csv": "b79c7b262fc46526b3c586bae74ef9bd4a16a9587c46044909870fff9c7c5743",
    },
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


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    """Each golden run, made once for the two pins that read it."""
    runs = {}

    def run(name):
        _require_pinned_build()
        if name not in runs:
            cfg = tiny_config(out=str(tmp_path_factory.mktemp(name)), **GOLDEN[name][0])
            runs[name] = run_experiment(cfg, outdir=cfg.out)
        return runs[name]

    return run


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest_and_report(name, golden_runs):
    _, digest, report_sha = GOLDEN[name]
    result = golden_runs(name)
    report = (result.outdir / "report_gzsl.txt").read_bytes()
    assert result.bundle.digest() == digest
    assert hashlib.sha256(report).hexdigest() == report_sha, report.decode()


@pytest.mark.parametrize("name", sorted(WEIGHTS_AND_TRACE))
def test_golden_weights_and_trace(name, golden_runs):
    outdir = golden_runs(name).outdir
    found = {f: hashlib.sha256((outdir / f).read_bytes()).hexdigest() for f in WEIGHTS_AND_TRACE[name]}
    assert found == WEIGHTS_AND_TRACE[name]
    assert (outdir / "classifier.azw").exists() == ("classifier.azw" in found)
