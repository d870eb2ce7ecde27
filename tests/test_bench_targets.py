"""The benchmark traces azsl by patching its functions by name (perfbench/spans.py).

A rename under src/ should fail here, not in the middle of a traced benchmark run.
"""
import importlib.util
import inspect
from pathlib import Path

import pytest

from azsl import audit, wire
from azsl.experiment import run_experiment

from conftest import tiny_config

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_attribute_exists():
    spans = _load_spans()
    targets = spans.phase_targets() + spans.layer_targets()
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _name, _opts in targets if not callable(getattr(owner, attr, None))
    ]
    assert len(targets) > 20
    assert missing == []


def test_audit_payload_is_append_sixth_argument():
    # the tracer counts audit.bytes_hashed from args[6] of RiskLog.append (args[0]
    # is self); a moved parameter would silently read zero hashed bytes
    params = list(inspect.signature(audit.RiskLog.append).parameters)
    assert params.index("self") == 0 and params.index("payload") == 6
    spans = _load_spans()
    tracer = spans.Tracer()
    with spans.patched(tracer, [(audit.RiskLog, "append", "audit.append", dict(observe=spans._count_hashed))]):
        audit.RiskLog().record(wire.KIND_FEEDBACK_REQUEST, b"x" * 37, wire.SCENARIO_BLACK)
    assert tracer.counts["audit.bytes_hashed"] == 37


@pytest.mark.parametrize("scenario", ["white", "black"])
def test_in_process_run_has_one_log_with_server_compute(scenario):
    # server.compute.* pairs the request and reply entries of the in-process
    # server log, which is also the run's transcript; a log that stopped
    # pairing up would report nothing
    spans = _load_spans()
    tracer = spans.Tracer()
    with spans.patched(tracer, spans.layer_targets()):
        result = run_experiment(tiny_config(scenario=scenario, t_g=8, t_s=4))
    (server,) = tracer.servers
    assert result.bundle.transcript is server.log
    compute = spans.server_compute_us(server.log.entries)
    assert len(compute) == len(tracer.durations("channel.feedback")) > 8
    assert min(compute) >= 0.0
