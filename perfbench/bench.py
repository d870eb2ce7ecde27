"""One benchmark run: set-up, the timed loop of pipeline calls, checks, metrics.

The loop is closed: one client in this process, one request in flight. It
repeats the workload's pipeline call, with the same config each time, until
the run's seconds are spent (at least MIN_CALLS calls). Timings are pooled
over the calls (total work over total time): the host's speed drifts in
phases of 10 to 60 seconds, and a median of a handful of calls jumps between
those phases where a pooled figure moves smoothly. Set-up is the exception:
it is repeated SETUP_REPEATS times and reported as a median. A traced run
alternates traced and untraced calls, so that the tracing overhead is the
difference of their mean wall times.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

from azsl import cli
from azsl.audit import UP, load_transcript
from azsl.config import emit_config, with_overrides
from azsl.experiment import build_dataset, build_server, build_split, resolve_data_seed, run_experiment
from azsl.seeding import derive_seed

import checks
import spans
from workloads import WORKLOADS, Workload

SETUP_REPEATS = 3
MIN_CALLS = 2
MIN_TRACED_CALLS = 2
SERVE_START_TIMEOUT_S = 120.0
SERVE_STOP_TIMEOUT_S = 30.0
# phases must cover the traced pipeline wall time to within this share
PHASE_COVERAGE_MARGIN = 0.03

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("feedback_rps", "req/s"),
    ("student_steps_per_s", "steps/s"),
    ("gzsl_h", "%"),
    ("channel_mb", "MB"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Call:
    """One pipeline call (a run_experiment, or a whole sweep), reduced to what
    the run reports, so that no call's arrays outlive it."""

    run_s: float
    traced: bool
    ok: bool = False
    digests: tuple[str, ...] = ()
    transcript_digests: tuple[str, ...] = ()
    requests: int = 0
    gzsl_h: float = 0.0
    channel_mb: float = 0.0
    generator_rounds: float = 0.0
    generator_s: float = 0.0
    student_steps: float = 0.0
    student_s: float = 0.0

    @classmethod
    def of(cls, run_s: float, traced: bool, results: list) -> "Call":
        if not results:
            return cls(run_s, traced)
        entries = [e for r in results for e in r.bundle.transcript.entries]
        return cls(
            run_s,
            traced,
            ok=True,
            digests=tuple(r.bundle.digest() for r in results),
            transcript_digests=tuple(r.bundle.transcript.digest() for r in results),
            requests=sum(e.direction == UP for e in entries),
            gzsl_h=statistics.fmean(r.report_gzsl.h for r in results),
            channel_mb=sum(e.size for e in entries) / 1e6,
        )


def _time(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _server_setup(cfg) -> None:
    dataset = build_dataset(cfg)
    build_server(cfg, dataset, build_split(cfg, dataset))


class InProcess:
    """run_experiment with the teacher in this process."""

    ops_per_call = 1

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.cfg = workload.config(seed, str(work / "run"))

    def setup(self) -> list[float]:
        return [_time(lambda: _server_setup(self.cfg)) for _ in range(SETUP_REPEATS)]

    def pipeline(self, tracer) -> list:
        return [run_experiment(self.cfg, outdir=self.cfg.out)]

    def close(self) -> list:
        return []


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class ServeProcess:
    """`azsl serve` in a child process; stop() sends SIGTERM and waits for it."""

    def __init__(self, root: Path, cfg, work: Path):
        self.root = root
        self.port = _free_port()
        self.cfg = replace(cfg, endpoint=("127.0.0.1", self.port), out=str(work / "server"))
        self.cfg_path = work / "serve.azsl"
        self.log_path = work / "serve.log"
        self.proc = None

    def start(self) -> float:
        """Launch and poll the port (not the ready line); seconds until it accepts."""
        self.cfg_path.write_text(emit_config(self.cfg))
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        t0 = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "azsl.cli", "serve", str(self.cfg_path)],
                cwd=self.root, env=env, stdout=log, stderr=subprocess.STDOUT,
            )
        while True:
            try:
                socket.create_connection(("127.0.0.1", self.port), timeout=1.0).close()
                return time.perf_counter() - t0
            except OSError:
                pass
            if self.proc.poll() is not None:
                raise RuntimeError(f"azsl serve exited with {self.proc.returncode}; see {self.log_path}")
            if time.perf_counter() - t0 > SERVE_START_TIMEOUT_S:
                raise RuntimeError(f"azsl serve did not open port {self.port} in {SERVE_START_TIMEOUT_S} s")
            time.sleep(0.005)

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=SERVE_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc = None

    def transcript_path(self) -> Path:
        return Path(self.cfg.out) / "server_transcript.json"


class Tcp:
    """run_experiment against `azsl serve` on a free loopback port."""

    ops_per_call = 1

    def __init__(self, workload: Workload, seed: int, work: Path, root: Path):
        self.cfg = workload.config(seed, str(work / "run"))
        self.work, self.root = work, root
        self.server: ServeProcess | None = None
        self.client_cfg = None

    def setup(self) -> list[float]:
        """Launch the server SETUP_REPEATS times; the last one stays up for the run."""
        times = []
        for i in range(SETUP_REPEATS):
            self.close()
            launch = self.work / f"serve{i}"
            launch.mkdir()
            self.server = ServeProcess(self.root, self.cfg, launch)
            times.append(self.server.start())
        self.client_cfg = replace(self.cfg, channel="tcp", endpoint=("127.0.0.1", self.server.port))
        return times

    def pipeline(self, tracer) -> list:
        return [run_experiment(self.client_cfg, outdir=self.client_cfg.out)]

    def close(self) -> list:
        """Stop the server; its transcript entries, when it wrote them."""
        if self.server is None:
            return []
        self.server.stop()
        path = self.server.transcript_path()
        self.server = None
        return load_transcript(path) if path.exists() else []


class Sweep:
    """`azsl sweep --param noise_dim` through the CLI entry point."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.cfg = workload.config(seed, str(work / "sweep"))
        self.values = workload.sweep_values
        self.ops_per_call = len(self.values)
        self.cfg_path = work / "sweep.azsl"
        self.cfg_path.write_text(emit_config(self.cfg))

    def setup(self) -> list[float]:
        """One server set-up per cell, seeded as the sweep seeds its cells."""
        data_seed = resolve_data_seed(self.cfg)
        cells = [with_overrides(self.cfg, seed=derive_seed(self.cfg.seed, "sweep", i), data_seed=data_seed)
                 for i in range(len(self.values))]
        return [_time(lambda c=c: _server_setup(c)) for c in cells]

    def pipeline(self, tracer) -> list:
        first = len(tracer.results)
        argv = ["sweep", str(self.cfg_path), "--param", "noise_dim", "--values", ",".join(map(str, self.values))]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != cli.EXIT_OK:
            raise RuntimeError(f"azsl sweep exited with {code}")
        return tracer.results[first:]

    def close(self) -> list:
        return []


def measure(runner, seconds: float, traced: bool):
    """The timed loop. Returns the calls, the RunResults of the last completed
    call, the tracer of the traced calls and the count of failed operations."""
    layer_tracer = spans.Tracer()
    calls: list[Call] = []
    last_results: list = []
    failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        trace_this = traced and len(calls) % 2 == 0
        tracer = layer_tracer if trace_this else spans.Tracer()
        targets = spans.layer_targets() if trace_this else spans.phase_targets()
        with spans.patched(tracer, targets):
            pipeline = tracer.wrap(runner.pipeline, "pipeline")
            t0 = time.perf_counter()
            try:
                results = pipeline(tracer)
            except Exception:
                traceback.print_exc()
                failed += runner.ops_per_call
                results = []
            run_s = time.perf_counter() - t0
        call = Call.of(run_s, trace_this, results)
        if results:
            last_results = results
        if results and not trace_this:
            call.generator_rounds = tracer.counts["generator.rounds"]
            call.generator_s = tracer.total("phase.generator")
            call.student_steps = tracer.counts["student.steps"]
            call.student_s = tracer.total("phase.student")
        for r in results if trace_this else ():
            for e in r.bundle.transcript.entries:
                tracer.counts["wire.bytes_up" if e.direction == UP else "wire.bytes_down"] += e.size
        calls.append(call)
        enough = len(calls) >= (2 * MIN_TRACED_CALLS if traced else MIN_CALLS)
        if enough and len(calls) % (2 if traced else 1) == 0 and time.perf_counter() + run_s > deadline:
            return calls, last_results, layer_tracer, failed


def output_checks(calls: list[Call], last_results: list, seed: int) -> list[str]:
    """Checks on the outputs of the last completed call, and across repeats."""
    failures = checks.check_regularizers(seed)
    if not last_results:
        return failures + ["no pipeline call completed"]
    digests = {c.digests for c in calls if c.ok}
    if len(digests) != 1:
        failures.append(f"repeats of the workload gave {len(digests)} different bundle digests")
    for r in last_results:
        out, ds, sp, tc = r.outdir, r.dataset, r.split, r.bundle.cfg
        failures += checks.check_reports(out, ds, sp)
        failures += checks.check_transcript(
            out / "transcript.json", tc.scenario, tc.t_g, tc.batch_size, ds.d_x, len(sp.teacher_classes)
        )
    # GZSL chance: uniform guessing scores 100/C per class on seen and unseen alike
    chance = 100.0 / last_results[0].dataset.n_classes
    h = statistics.fmean(r.report_gzsl.h for r in last_results)
    if h < 2.0 * chance:
        failures.append(f"gzsl_h {h:.2f} is below twice chance ({2 * chance:.2f})")
    return failures


def end_to_end(setup_times, calls: list[Call], peak_rss_mb: float) -> dict[str, float]:
    done = [c for c in calls if c.ok and not c.traced]
    total = lambda attr: sum(getattr(c, attr) for c in done)
    return {
        "setup_s": statistics.median(setup_times),
        "run_s": total("run_s") / len(done),
        "feedback_rps": total("generator_rounds") / total("generator_s"),
        "student_steps_per_s": total("student_steps") / total("student_s"),
        "gzsl_h": statistics.fmean(c.gzsl_h for c in done),
        "channel_mb": statistics.fmean(c.channel_mb for c in done),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(calls: list[Call], tracer, server_entries) -> tuple[dict[str, float], list[str]]:
    traced = [c for c in calls if c.traced and c.ok]
    untraced = [c.run_s for c in calls if not c.traced and c.ok]
    failures = []
    if server_entries:  # TCP: the server's own timestamps, paired with client round trips
        compute_all = spans.server_compute_us(server_entries)
        compute, offset = [], 0
        for c in calls:
            if c.traced:
                compute += compute_all[offset : offset + c.requests]
            offset += c.requests
        roundtrip = [d * 1e6 for d in tracer.durations("channel.roundtrip")]
        if len(roundtrip) != len(compute):
            failures.append(f"{len(roundtrip)} client round trips but {len(compute)} server timestamps")
        wait = [rt - sc for rt, sc in zip(roundtrip, compute)]
    else:
        compute = [t for s in tracer.servers for t in spans.server_compute_us(s.log.entries)]
        wait = []
    metrics = spans.layer_metrics(tracer, len(traced), statistics.fmean(untraced), compute, wait)
    if metrics["trace.phase_coverage"] < 1.0 - PHASE_COVERAGE_MARGIN:
        failures.append(f"phase spans cover {metrics['trace.phase_coverage']:.3f} of the traced run_s")
    return metrics, failures


def write_spans(path: Path, tracer) -> None:
    names = sorted({s[spans.NAME] for s in tracer.spans})
    body = {
        "columns": ["name", "start", "end", "parent", "round"],
        "spans": tracer.spans,
        "per_call_us": {n: spans.distribution([d * 1e6 for d in tracer.durations(n)]) for n in names},
    }
    path.write_text(json.dumps(body))


def run(workload_name: str, seed: int, seconds: float, traced: bool, root: Path) -> int:
    workload = WORKLOADS[workload_name]
    out_root = root / ".perfbench"
    work = out_root / f"{workload.name}-s{seed}-t{int(traced)}-{os.getpid()}"
    work.mkdir(parents=True)
    if workload.mode == "tcp":
        runner = Tcp(workload, seed, work, root)
    elif workload.mode == "sweep":
        runner = Sweep(workload, seed, work)
    else:
        runner = InProcess(workload, seed, work)
    try:
        setup_times = runner.setup()
        calls, last_results, tracer, failed = measure(runner, seconds, traced)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        server_entries = runner.close()
        attempted = runner.ops_per_call * len(calls)
        failures = output_checks(calls, last_results, seed)
        if workload.mode == "tcp":
            # the same config in-process must move the same bytes
            attempted += 1
            local = run_experiment(runner.cfg, outdir=str(work / "inproc"))
            if any(c.transcript_digests != (local.bundle.transcript.digest(),) for c in calls if c.ok):
                failures.append("TCP transcript digest differs from the in-process run of the same config")
        if traced:
            metrics, trace_failures = per_layer(calls, tracer, server_entries)
            failures += trace_failures
            units = dict(spans.PER_LAYER)
            write_spans(out_root / f"spans-{workload.name}-s{seed}.json", tracer)
        else:
            metrics = end_to_end(setup_times, calls, peak_rss_mb)
            units = dict(END_TO_END)
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0 if not failures else 1
