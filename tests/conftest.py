import glob
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

from azsl import nn
from azsl.config import ExperimentConfig
from azsl.data import SyntheticSpec, make_synthetic, split_azsl

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
