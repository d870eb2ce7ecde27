"""Span tracing of azsl from outside the program.

The tracer wraps azsl's public functions (and the two private regularizer
kernels the per-layer table names) by patching module and class attributes;
`patched` restores every attribute on exit, so nothing under src/ changes.
A span is [name, start, end, parent, round]: `parent` is the index of the
enclosing span (-1 at top level) and `round` numbers the feedback round trip
the span belongs to (0 outside any round). Spans stay in memory until the run
writes them out.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from azsl import audit, channel, cli, client, evaluate, experiment, nn, regularizers, server, wire

NAME, START, END, PARENT, ROUND = range(5)

PHASES = ("data", "teacher", "regfit", "generator", "quota", "student", "classifier", "eval", "save")
NN_OPS = ("forward", "backward", "adam")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.results: list = []  # RunResults of sweep cells
        self.servers: list = []  # in-process TeacherServers seen by the trace
        self._stack: list[int] = []
        self._round = 0
        self._rounds = 0

    def wrap(self, fn, name, round_start=False, observe=None):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            outer_round = self._round
            if round_start:
                self._rounds += 1
                self._round = self._rounds
            span = [label, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._round]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                self._stack.pop()
                self._round = outer_round
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def durations(self, name: str) -> list[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))


@contextmanager
def patched(tracer: Tracer, targets):
    """Install tracer wrappers on (owner, attribute, name, options) targets."""
    saved = []
    try:
        for owner, attr, name, opts in targets:
            had_own = attr in vars(owner)
            original = getattr(owner, attr)
            saved.append((owner, attr, had_own, original))
            setattr(owner, attr, tracer.wrap(original, name, **opts))
        yield tracer
    finally:
        for owner, attr, had_own, original in reversed(saved):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _count_rounds(tracer, args, kwargs, result):
    tracer.counts["generator.rounds"] += args[-1].t_g


def _count_steps(tracer, args, kwargs, result):
    _, verified, cfg = args
    tracer.counts["student.steps"] += cfg.t_s * -(-len(verified) // cfg.batch_size)


def _keep_cell(tracer, args, kwargs, result):
    tracer.results.append(result)


def phase_targets():
    """The few wrappers end-to-end runs keep on: one span per phase call."""
    return [
        (client, "train_generator_white", "phase.generator", dict(observe=_count_rounds)),
        (client, "train_black", "phase.generator", dict(observe=_count_rounds)),
        (client, "train_student", "phase.student", dict(observe=_count_steps)),
        (cli, "run_experiment", "sweep.cell", dict(observe=_keep_cell)),
    ]


def _by_role(op):
    return lambda params, *a, **k: f"nn.{op}.{params.role}"


def _count_hashed(tracer, args, kwargs, result):
    payload = args[6] if len(args) > 6 else kwargs.get("payload")
    if payload is not None:
        tracer.counts["audit.bytes_hashed"] += len(payload)


def _count_generated(tracer, args, kwargs, result):
    caller = tracer.spans[tracer._stack[-1]][NAME] if tracer._stack else ""
    tracer.counts[f"rows_generated.{caller}"] += len(result.features)


def _count_quota(tracer, args, kwargs, result):
    tracer.counts["client.quota.rounds"] += result.rounds
    tracer.counts["client.quota.kept"] += len(result.verified)


def _keep_server(tracer, args, kwargs, result):
    if not any(s is args[0] for s in tracer.servers):
        tracer.servers.append(args[0])


def layer_targets():
    """Every wrapper of the traced run: phases plus each layer's public calls."""
    none = {}
    return phase_targets() + [
        (experiment, "build_dataset", "phase.data", none),
        (experiment, "build_split", "phase.data", none),
        (experiment, "train_teacher", "phase.teacher", none),
        (experiment, "fit_regularizer", "phase.regfit", none),
        (client, "ensure_quota", "phase.quota", dict(observe=_count_quota)),
        (client, "train_inductive_classifier", "phase.classifier", none),
        (experiment, "eval_czsl", "phase.eval", none),
        (experiment, "eval_gzsl", "phase.eval", none),
        (client.ArtifactBundle, "save", "phase.save", none),
        (experiment, "save_report", "phase.save", none),
        (client, "generate", "client.generate", dict(observe=_count_generated)),
        (client, "verify", "client.verify", none),
        (nn, "mlp_forward", _by_role("forward"), none),
        (nn, "mlp_backward", _by_role("backward"), none),
        (nn, "adam_step", _by_role("adam"), none),
        (server, "reg_value_grad", "reg.value_grad", none),
        (regularizers, "_kl_class", "reg.kl_class", none),
        (regularizers, "_mmd_class", "reg.mmd_class", none),
        (server.TeacherServer, "handle_payload", "server.handle", dict(observe=_keep_server)),
        (server, "feedback", "server.feedback", none),
        (wire, "encode_feedback_request", "wire.encode_request", none),
        (wire, "decode_feedback_request", "wire.decode_request", none),
        (wire, "encode_feedback_response", "wire.encode_response", none),
        (wire, "decode_feedback_response", "wire.decode_response", none),
        (channel.BaseChannel, "feedback", "channel.feedback", dict(round_start=True)),
        (channel.InProcessChannel, "_request", "channel.roundtrip", none),
        (channel.TcpChannel, "_request", "channel.roundtrip", none),
        (audit.RiskLog, "append", "audit.append", dict(observe=_count_hashed)),
        (evaluate, "predict", "eval.predict", none),
    ]


def server_compute_us(entries) -> list[float]:
    """Server compute per feedback request, from RiskLog entry timestamps.

    The request entry is stamped after the request is decoded and hashed, the
    response entry after the answer is computed, encoded once and hashed.
    """
    out = []
    pending = None
    for e in entries:
        if e.kind == audit.KIND_FEEDBACK_REQUEST:
            pending = e.timestamp
        elif pending is not None and e.direction == audit.DOWN:
            out.append((e.timestamp - pending) * 1e6)
            pending = None
    return out


def percentile_tail(values) -> tuple[str, float] | None:
    """The highest of p90/p99/p99.9 that still has at least ten samples beyond it."""
    n = len(values)
    best = None
    for label, q in (("p90", 90.0), ("p99", 99.0), ("p99.9", 99.9)):
        if n * (1.0 - q / 100.0) >= 10:
            best = (label, float(np.percentile(values, q)))
    return best


def self_times(spans) -> dict[str, float]:
    """Seconds per layer (the span name's first part) not covered by child spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        out[s[NAME].split(".", 1)[0]] += s[END] - s[START] - child[i]
    return out


LAYER_SELF = ("pipeline", "sweep", "phase", "client", "nn", "reg", "server", "wire", "channel", "audit", "eval")

PER_LAYER = (
    [(f"phase.{p}_s", "s") for p in PHASES]
    + [(f"nn.{op}.{role}.{k}", u) for op in NN_OPS for role in nn.ROLES for k, u in (("us", "us"), ("calls", "count"))]
    + [
        ("reg.kl_class.us", "us"), ("reg.kl_class.calls", "count"),
        ("reg.mmd_class.us", "us"), ("reg.mmd_class.calls", "count"),
        ("reg.value_grad.us", "us"),
        ("server.feedback.us", "us"), ("server.handle.us", "us"),
        ("server.compute.p50_us", "us"), ("server.compute.p99_us", "us"),
        ("wire.encode_request.us", "us"), ("wire.decode_request.us", "us"),
        ("wire.encode_response.us", "us"), ("wire.decode_response.us", "us"),
        ("wire.bytes_up", "B"), ("wire.bytes_down", "B"),
        ("channel.roundtrip.p50_us", "us"), ("channel.roundtrip.p99_us", "us"),
        ("channel.roundtrip.count", "count"), ("channel.wait.p50_us", "us"),
        ("audit.append.us", "us"), ("audit.append.calls", "count"), ("audit.bytes_hashed", "B"),
        ("client.verify.kept_fraction", "ratio"), ("client.quota.rounds", "count"),
        ("client.quota.rows_generated", "count"),
        ("eval.predict.us", "us"),
        ("sweep.cell_s", "s"), ("sweep.cells", "count"),
    ]
    + [(f"self.{layer}_s", "s") for layer in LAYER_SELF]
    + [
        ("trace.run_s", "s"), ("trace.overhead_s", "s"),
        ("trace.phase_coverage", "ratio"), ("trace.spans", "count"),
    ]
)

# spans reported as a median per-call time (.us) and calls per pipeline call
_PER_CALL = (
    [f"nn.{op}.{role}" for op in NN_OPS for role in nn.ROLES]
    + ["reg.kl_class", "reg.mmd_class", "reg.value_grad", "server.feedback", "server.handle"]
    + [f"wire.{op}_{msg}" for op in ("encode", "decode") for msg in ("request", "response")]
    + ["audit.append", "eval.predict"]
)


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def distribution(values) -> dict:
    """Sample count, median and tail of one per-call timing, for the spans file."""
    out = {"n": len(values), "p50": _median(values)}
    tail = percentile_tail(values)
    if tail is not None:
        out[tail[0]] = tail[1]
    return out


def layer_metrics(tracer: Tracer, calls: int, untraced_run_s: float, compute_us, wait_us) -> dict[str, float]:
    """Per-layer metrics of `calls` traced pipeline calls recorded in one tracer.

    compute_us: server compute per feedback request of those calls, in order;
    wait_us: client round trip minus server compute, per request (TCP only).
    """
    m: dict[str, float] = {}
    for p in PHASES:
        m[f"phase.{p}_s"] = tracer.total(f"phase.{p}") / calls
    for name in _PER_CALL:
        d = tracer.durations(name)
        m[f"{name}.us"] = _median(d) * 1e6
        m[f"{name}.calls"] = len(d) / calls
    m["server.compute.p50_us"] = _median(compute_us)
    m["server.compute.p99_us"] = float(np.percentile(compute_us, 99)) if len(compute_us) else 0.0
    rt = np.asarray(tracer.durations("channel.roundtrip")) * 1e6
    m["channel.roundtrip.p50_us"] = _median(rt)
    m["channel.roundtrip.p99_us"] = float(np.percentile(rt, 99)) if rt.size else 0.0
    m["channel.roundtrip.count"] = rt.size / calls
    m["channel.wait.p50_us"] = _median(wait_us)
    m["wire.bytes_up"] = tracer.counts["wire.bytes_up"] / calls
    m["wire.bytes_down"] = tracer.counts["wire.bytes_down"] / calls
    m["audit.bytes_hashed"] = tracer.counts["audit.bytes_hashed"] / calls
    generated = tracer.counts["rows_generated.phase.quota"]
    m["client.verify.kept_fraction"] = tracer.counts["client.quota.kept"] / generated if generated else 0.0
    m["client.quota.rounds"] = tracer.counts["client.quota.rounds"] / calls
    m["client.quota.rows_generated"] = generated / calls
    cells = tracer.durations("sweep.cell")
    m["sweep.cell_s"] = _median(cells)
    m["sweep.cells"] = len(cells) / calls
    own = self_times(tracer.spans)
    for layer in LAYER_SELF:
        m[f"self.{layer}_s"] = own.get(layer, 0.0) / calls
    runs = tracer.durations("pipeline")
    m["trace.run_s"] = sum(runs) / calls
    m["trace.overhead_s"] = m["trace.run_s"] - untraced_run_s
    m["trace.phase_coverage"] = sum(tracer.total(f"phase.{p}") for p in PHASES) / sum(runs)
    m["trace.spans"] = len(tracer.spans) / calls
    names = {name for name, _ in PER_LAYER}
    return {k: v for k, v in m.items() if k in names}
