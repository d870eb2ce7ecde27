import glob
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from azsl import nn, wire
from azsl.config import ExperimentConfig
from azsl.data import Dataset, SyntheticSpec, make_synthetic, split_azsl

# filled by test_acceptance.report(); echoed after capture ends so the
# per-criterion lines survive any -v/-q run
ACCEPTANCE_LINES: list[str] = []
# filled by pytest_sessionfinish: what the test run left alive
LEAKS: list[str] = []
LEAK_GRACE_S = 2.0  # time a child that is already exiting gets to go


def _live_children() -> list[str]:
    """This process's children that have not exited, as "pid command line".

    Read from /proc/self/task/*/children; where /proc cannot list them the
    list is empty. A zombie (exited, not yet reaped) is not alive.
    """
    pids = set()
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            pids.update(Path(path).read_text().split())
        except OSError:
            continue
    live = []
    for pid in sorted(pids, key=int):
        try:
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
            cmd = Path(f"/proc/{pid}/cmdline").read_bytes().replace(b"\0", b" ").decode(errors="replace")
        except (OSError, IndexError):
            continue  # it exited meanwhile
        if state != "Z":
            live.append(f"child process {pid}: {cmd.strip()}")
    return live


def _live_threads() -> list[str]:
    main = threading.main_thread()
    return [f"non-daemon thread {t.name}" for t in threading.enumerate() if t is not main and not t.daemon and t.is_alive()]


def pytest_sessionfinish(session, exitstatus):
    """Fail the run if a child process or a non-daemon thread outlives it."""
    deadline = time.monotonic() + LEAK_GRACE_S
    while True:
        leaks = _live_children() + _live_threads()
        if not leaks or time.monotonic() > deadline:
            break
        time.sleep(0.1)
    if leaks:
        LEAKS.extend(leaks)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
    if LEAKS:
        terminalreporter.section("left running after the tests")
        for line in LEAKS:
            terminalreporter.write_line(f"LEAK {line}")


# Desk-scale settings shared by the slower protocol/experiment tests. The
# full-scale defaults (1024/512 nets, lr 1e-5) stay in config.py; these are
# small enough to train in seconds on the synthetic benchmark.
FAST = dict(
    regularizer="kl",
    alpha=1.0,
    t_g=500,
    t_s=200,
    per_class_count=150,
    lr=1e-3,
    teacher_epochs=40,
    teacher_hidden=(128, 64),
    generator_hidden=(256,),
)

TINY = dict(
    regularizer="kl",
    alpha=1.0,
    t_g=120,
    t_s=60,
    per_class_count=60,
    lr=1e-3,
    teacher_epochs=25,
    teacher_hidden=(64, 32),
    generator_hidden=(128,),
)


def fast_config(**overrides) -> ExperimentConfig:
    kw = dict(scenario="white", teacher_mode="transductive", synthetic=SyntheticSpec(), seed=7)
    kw.update(FAST)
    kw.update(overrides)
    return ExperimentConfig(**kw)


def tiny_config(**overrides) -> ExperimentConfig:
    kw = dict(
        scenario="white",
        teacher_mode="transductive",
        synthetic=SyntheticSpec(per_class=80),
        seed=5,
    )
    kw.update(TINY)
    kw.update(overrides)
    return ExperimentConfig(**kw)


@pytest.fixture(scope="session")
def toy_dataset():
    return make_synthetic(SyntheticSpec(n_classes=4, seen_count=3, d_x=8, d_a=5, per_class=40), seed=3)


@pytest.fixture(scope="session")
def toy_split(toy_dataset):
    return split_azsl(toy_dataset, "transductive", unseen=1, seed=3)


def peak_bytes(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak of the memory it allocated, in bytes), by tracemalloc.

    Only what is allocated during the call counts; arrays made before it,
    its inputs among them, do not.
    """
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def random_net(specs, role=nn.ROLE_TEACHER, seed=0):
    return nn.mlp_init([nn.LayerSpec(*s) if isinstance(s, tuple) else s for s in specs], role, seed)


def record_frames(channel):
    """Keep every (kind, payload) a channel sends and every reply it receives.

    Wraps this one channel's `_request`, the transport step under every
    channel call, so tests can compare raw frames across transports.
    """
    sent: list[tuple[int, bytes]] = []
    received: list[tuple[int, bytes]] = []
    request = channel._request

    def recording(kind, payload):
        sent.append((kind, payload))
        received.append(request(kind, payload))
        return received[-1]

    channel._request = recording
    return sent, received


def grad_check(params: nn.MlpParams, loss_closure, epsilon: float = 1e-5, n_samples: int = 200, seed: int = 0) -> float:
    """Max relative error between analytic grads and central finite differences.

    loss_closure(params) gives (loss value, nn.MlpGrads) and must be
    deterministic in params. Samples n_samples coordinates (or all of them
    when the net is smaller).
    """
    _, analytic = loss_closure(params)
    total = analytic.buffer.size
    rng = np.random.default_rng(seed)
    idx = np.arange(total) if total <= n_samples else rng.choice(total, size=n_samples, replace=False)

    work = params.copy()
    worst = 0.0
    for i in idx:
        orig = work.buffer[i]
        work.buffer[i] = orig + epsilon
        hi, _ = loss_closure(work)
        work.buffer[i] = orig - epsilon
        lo, _ = loss_closure(work)
        work.buffer[i] = orig
        numeric = (hi - lo) / (2.0 * epsilon)
        a = analytic.buffer[i]
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
        worst = max(worst, err)
    return worst


def params_allclose(a: nn.MlpParams, b: nn.MlpParams, rtol: float = 0.0, atol: float = 0.0) -> bool:
    return a.layers == b.layers and np.allclose(a.buffer, b.buffer, rtol=rtol, atol=atol)


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    return (
        a.features.shape == b.features.shape
        and np.array_equal(a.features, b.features)
        and np.array_equal(a.labels, b.labels)
        and np.array_equal(a.semantics.vectors, b.semantics.vectors)
    )


def params_blob_size(specs: list[nn.LayerSpec]) -> int:
    """Exact wire.encode_params size for a given layer chain."""
    n_params = sum(s.in_dim * s.out_dim + s.out_dim for s in specs)
    header = 4 + 8 + 4 + len(specs) * (4 + 4 + 4 + 8)
    per_layer_framing = len(specs) * (4 + 4 + 4)  # matrix rows/cols + bias count
    return header + per_layer_framing + 8 * n_params


def frame(kind: int, payload: bytes) -> bytes:
    """One wire frame as one bytes object (wire.send_frame sends a frame without building it)."""
    return wire._header(kind, len(payload)) + payload
