"""The benchmark traces azsl by patching its functions by name (perfbench/spans.py)
and calls some of them with fixed argument shapes (perfbench/checks.py).

A rename or a reorder under src/ should fail here, not in the middle of a
benchmark run.
"""
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from azsl import audit, cli, experiment, nn, wire
from azsl.config import emit_config, parse_config_text, validate
from azsl.data import Dataset, SplitBundle
from azsl.evaluate import EvalReport
from azsl.experiment import build_dataset, build_split, run_experiment
from azsl.regularizers import RegularizerState

from conftest import serving, tiny_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a module's dataclasses look it up there
    spec.loader.exec_module(module)
    return module


def _load_spans():
    return _load("spans")


@pytest.mark.parametrize("name", ["white-kl", "black-mmd", "black-kl-tcp", "inductive-sweep"])
def test_workload_configs_are_valid_and_reparse_equal(name, tmp_path):
    # the sweep and tcp workloads hand azsl an emitted config to parse back
    cfg = _load("workloads").WORKLOADS[name].config(seed=201, out=str(tmp_path))
    validate(cfg)
    assert parse_config_text(emit_config(cfg)) == cfg
    split = build_split(cfg, build_dataset(cfg))
    assert split.unseen_classes.size == cfg.synthetic.n_classes - cfg.synthetic.seen_count


@pytest.fixture
def bench(monkeypatch):
    """perfbench/bench.py, which imports its sibling modules by their bare names:
    perfbench/ is on sys.path, and those modules are loaded, for one test only."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield _load("bench")
    for path in PERFBENCH.glob("*.py"):
        sys.modules.pop(path.stem, None)


def test_server_setup_fits_one_teacher(bench, monkeypatch, tmp_path):
    # setup_s times bench._server_setup, which leans on build_server(cfg,
    # dataset, split) fitting the teacher when it is given none
    fits = []
    real = experiment.train_teacher
    monkeypatch.setattr(experiment, "train_teacher", lambda *a, **kw: fits.append(1) or real(*a, **kw))
    bench._server_setup(_load("workloads").WORKLOADS["white-kl"].config(seed=201, out=str(tmp_path)))
    assert len(fits) == 1


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


def test_regularizer_states_build_as_the_benchmark_builds_them():
    # perfbench/checks.py builds its states with kind and a weight as the two
    # positional fields; a reordered field should fail here, not mid-benchmark
    rng = np.random.default_rng(0)
    kl = RegularizerState("kl", 1.0, class_means={0: rng.standard_normal(3)}, class_vars={0: np.ones(3)})
    mmd = RegularizerState("mmd", 1.0, class_refs={0: rng.standard_normal((4, 3))}, bandwidth_sq=3.0)
    assert (kl.kind, mmd.kind) == ("kl", "mmd")
    assert _load("checks").check_regularizers(201) == []


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


@pytest.mark.parametrize("mode", ["transductive", "inductive"])
def test_every_fit_step_calls_nn_through_its_module(mode):
    # perfbench times forward, backward and Adam per role by patching nn's
    # module globals; a fit loop that inlined them would drop those spans
    spans = _load_spans()
    tracer = spans.Tracer()
    cfg = tiny_config(
        scenario="white", teacher_mode=mode, t_g=4, t_s=3, teacher_epochs=2, per_class_count=10,
        batch_size=16, teacher_batch=16,
    )
    with spans.patched(tracer, spans.layer_targets()):
        result = run_experiment(cfg)
    fits = {
        "teacher": ("phase.teacher", cfg.teacher_epochs, len(result.split.teacher_train), cfg.teacher_batch),
        "student": ("phase.student", cfg.t_s, int(tracer.counts["client.quota.kept"]), cfg.batch_size),
    }
    if mode == "inductive":
        n_classes = result.dataset.n_classes
        fits["classifier"] = ("phase.classifier", cfg.t_s, n_classes * cfg.per_class_count, cfg.batch_size)
    for role, (phase, epochs, rows, batch) in fits.items():
        steps = epochs * -(-rows // batch)
        assert steps > epochs
        for op in spans.NN_OPS:
            inside = [
                s for s in tracer.spans
                if s[spans.NAME] == f"nn.{op}.{role}" and tracer.spans[s[spans.PARENT]][spans.NAME] == phase
            ]
            assert len(inside) == steps, (role, op)


@pytest.mark.parametrize("mode", ["transductive", "inductive"])
def test_each_run_opens_one_generator_phase_and_two_eval_phases(mode):
    # phase.eval wraps experiment.eval_czsl and eval_gzsl, and eval.predict
    # wraps evaluate.predict; a run that reached the evaluation by another
    # route would leave its eval time outside every phase span
    spans = _load_spans()
    tracer = spans.Tracer()
    with spans.patched(tracer, spans.layer_targets()):
        run_experiment(tiny_config(scenario="white", teacher_mode=mode))
    names = [s[spans.NAME] for s in tracer.spans]
    evals = [i for i, name in enumerate(names) if name == "phase.eval"]
    predict_parents = [s[spans.PARENT] for s in tracer.spans if s[spans.NAME] == "eval.predict"]
    assert names.count("phase.generator") == 1
    assert len(evals) == 2 and predict_parents == evals


def test_each_black_round_times_the_student_once_per_op_by_role():
    # perfbench times nn per role by patching nn's module globals: a black
    # round's student forward pass runs in its own reply wait (inside
    # channel.roundtrip), its input chain through nn.mlp_backward right after
    # the reply, and its Adam step in the next round's wait (the last one
    # after the loop); the weight-gradient half is not a traced call
    spans = _load_spans()
    tracer = spans.Tracer()
    cfg = tiny_config(scenario="black", t_g=5, t_s=2)
    with spans.patched(tracer, spans.layer_targets()):
        run_experiment(cfg)
    names = [s[spans.NAME] for s in tracer.spans]
    (phase,) = [i for i, name in enumerate(names) if name == "phase.generator"]

    def inside_phase(span):
        while span[spans.PARENT] >= 0:
            if span[spans.PARENT] == phase:
                return True
            span = tracer.spans[span[spans.PARENT]]
        return False

    student = [
        (s[spans.NAME], s[spans.ROUND], names[s[spans.PARENT]])
        for s in tracer.spans if s[spans.NAME].endswith(".student") and inside_phase(s)
    ]
    forward, backward, adam = (f"nn.{op}.student" for op in spans.NN_OPS)
    want = [(forward, 1, "channel.roundtrip"), (backward, 0, "phase.generator")]
    for r in range(2, cfg.t_g + 1):
        want += [(adam, r, "channel.roundtrip"), (forward, r, "channel.roundtrip"), (backward, 0, "phase.generator")]
    want.append((adam, 0, "phase.generator"))
    assert student == want


@pytest.mark.parametrize("scenario", ["white", "black"])
def test_weight_gradients_are_computed_outside_every_backward_span(scenario, monkeypatch):
    # perfbench's nn.backward.<role> times nn.mlp_backward, the input half; a
    # fit or generator loop whose weight half ran inside it would fold
    # nn.backward_weights into that reading
    spans = _load_spans()
    tracer = spans.Tracer()
    real, seen = nn.backward_weights, []

    def recording(params, *args, **kwargs):
        seen.append((params.role, tracer.spans[tracer._stack[-1]][spans.NAME] if tracer._stack else ""))
        return real(params, *args, **kwargs)

    monkeypatch.setattr(nn, "backward_weights", recording)
    with spans.patched(tracer, spans.layer_targets()):
        run_experiment(tiny_config(scenario=scenario, t_g=4, t_s=2))
    roles = {"teacher", "generator", "student"}
    assert {role for role, _ in seen} == roles
    assert [(role, span) for role, span in seen if span.startswith("nn.backward.")] == []


@pytest.mark.parametrize("scenario", ["white", "black"])
def test_quota_and_student_counters_match_the_transcript(scenario):
    # the tracer reads client.quota.* off ensure_quota's result and student.steps
    # off train_student's arguments; the transcript counts the same work apart
    spans = _load_spans()
    tracer = spans.Tracer()
    cfg = tiny_config(scenario=scenario, t_g=8, t_s=4, min_verified=60, retry_cap=2)
    with spans.patched(tracer, spans.layer_targets()):
        result = run_experiment(cfg)
    requests = [e for e in result.bundle.transcript.entries if e.kind == audit.KIND_FEEDBACK_REQUEST]
    quota = requests[cfg.t_g :]  # each round fits one frame: 10 classes x 60 rows
    assert tracer.counts["client.quota.rounds"] == len(quota) > 1
    # a request frame is a 20-byte header, then per row d_x f64 features and one u32 label
    rows = sum((e.size - 20) / (8 * result.dataset.d_x + 4) for e in quota)
    generated = tracer.counts["rows_generated.phase.quota"]
    assert generated == rows
    assert tracer.counts["generator.rounds"] == cfg.t_g
    kept = tracer.counts["client.quota.kept"]
    assert 0 < kept <= generated
    assert tracer.counts["student.steps"] == cfg.t_s * -(-kept // cfg.batch_size)


@pytest.mark.parametrize("verify", [True, False])
def test_each_quota_round_verifies_through_client_verify(verify):
    # the client.verify span times verification; a quota that verified by
    # another route would leave that span empty
    spans = _load_spans()
    tracer = spans.Tracer()
    cfg = tiny_config(scenario="black", t_g=8, t_s=4, min_verified=60, retry_cap=2, verify=verify)
    with spans.patched(tracer, spans.layer_targets()):
        run_experiment(cfg)
    rounds = int(tracer.counts["client.quota.rounds"])
    parents = [tracer.spans[s[spans.PARENT]][spans.NAME] for s in tracer.spans if s[spans.NAME] == "client.verify"]
    if verify:
        assert rounds > 1
        assert parents == ["phase.quota"] * rounds
    else:
        assert parents == []


@pytest.mark.parametrize("scenario", ["white", "black"])
def test_transcript_check_reads_the_bundle_config(scenario, tmp_path):
    # the benchmark's output checks read scenario, t_g and batch_size off
    # bundle.cfg; a renamed attribute should fail here, not in a benchmark run
    result = run_experiment(tiny_config(scenario=scenario), outdir=tmp_path / "run")
    tc, d_x, n_head = result.bundle.cfg, result.dataset.d_x, len(result.split.teacher_classes)
    failures = _load("checks").check_transcript(
        result.outdir / "transcript.json", tc.scenario, tc.t_g, tc.batch_size, d_x, n_head
    )
    assert failures == []


def test_phase_targets_keep_one_cell_result_per_sweep_value(tmp_path):
    # the sweep workload reads every cell's RunResult off the sweep.cell
    # wrapper of cli.run_experiment; a sweep that ran its cells by another
    # route would leave the benchmark without results to check
    spans = _load_spans()
    tracer = spans.Tracer()
    cfg = tiny_config(scenario="black", teacher_mode="inductive", t_g=4, t_s=3, out=str(tmp_path / "sweep"))
    path = tmp_path / "sweep.azsl"
    path.write_text(emit_config(cfg))
    with spans.patched(tracer, spans.phase_targets()):
        code = cli.main(["sweep", str(path), "--param", "noise_dim", "--values", "4,6,8"])
    assert code == cli.EXIT_OK
    assert len(tracer.durations("sweep.cell")) == len(tracer.results) == 3
    assert [r.outdir.name for r in tracer.results] == ["cell_000", "cell_001", "cell_002"]
    assert all(r.dataset is tracer.results[0].dataset for r in tracer.results)


def test_tcp_run_result_carries_the_evaluation_data(tmp_path):
    # output_checks recomputes a TCP run's reports from RunResult.dataset and
    # .split, which the client builds after training; a client that left the
    # evaluation to the data owner would leave the benchmark nothing to check
    with serving(tiny_config(scenario="black", endpoint=("127.0.0.1", 0), out=str(tmp_path / "server"))) as port:
        result = run_experiment(
            tiny_config(scenario="black", channel="tcp", endpoint=("127.0.0.1", port)), outdir=tmp_path / "run"
        )
    assert isinstance(result.dataset, Dataset) and isinstance(result.split, SplitBundle)
    assert isinstance(result.report_czsl, EvalReport) and isinstance(result.report_gzsl, EvalReport)
    assert _load("checks").check_reports(result.outdir, result.dataset, result.split) == []
