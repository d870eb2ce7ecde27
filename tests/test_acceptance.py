"""Acceptance suite: one test per release criterion, each printing a PASS line.

The synthetic benchmark is the default spec (10 classes, 8 seen / 2 unseen,
d_x=64, d_a=16, 200 rows/class, separation/noise = 5). Seeded experiments use
five fixed seeds and gate on medians.
"""
import json
import time

import numpy as np
import pytest

from azsl import audit, cli, nn, wire
from azsl.channel import InProcessChannel, TcpChannel
from azsl.client import run_algorithm1
from azsl.evaluate import harmonic_mean, per_class_top1
from azsl.experiment import (
    build_dataset,
    build_server,
    build_side,
    build_split,
    run_experiment,
)
from azsl.regularizers import fit_regularizer, reg_value_grad
from azsl.server import serve, train_teacher

from conftest import fast_config, grad_check, record_frames, tiny_config, weight_grads

pytestmark = pytest.mark.acceptance  # skipped by `pytest -m "not acceptance"`

SEEDS = [101, 102, 103, 104, 105]
_timings: dict[str, float] = {}


def _timed_runs(name, sides=None, **overrides):
    start = time.time()
    runs = [run_experiment(fast_config(seed=s, **overrides), side=(sides or {}).get(s)) for s in SEEDS]
    _timings[name] = time.time() - start
    return runs


@pytest.fixture(scope="module")
def transductive_sides():
    """One teacher side per seed: the transductive arms of a seed build bit-identical ones."""
    start = time.time()
    sides = {s: build_side(fast_config(seed=s, teacher_mode="transductive")) for s in SEEDS}
    _timings["sides"] = time.time() - start
    return sides


@pytest.fixture(scope="module")
def white_runs(transductive_sides):
    return _timed_runs("white", transductive_sides, scenario="white", teacher_mode="transductive")


@pytest.fixture(scope="module")
def black_runs(transductive_sides):
    return _timed_runs("black", transductive_sides, scenario="black", teacher_mode="transductive")


@pytest.fixture(scope="module")
def black_noverify_runs(transductive_sides):
    return _timed_runs("noverify", transductive_sides, scenario="black", teacher_mode="transductive",
                       verify=False)


@pytest.fixture(scope="module")
def black_noreg_runs(transductive_sides):
    return _timed_runs("noreg", transductive_sides, scenario="black", teacher_mode="transductive",
                       regularizer="none", alpha=0.0)


@pytest.fixture(scope="module")
def inductive_runs():
    return _timed_runs("inductive", scenario="white", teacher_mode="inductive")


def teacher_eval_accuracy(result, unseen_only=False):
    split, ds = result.split, result.dataset
    rows = split.client_eval_unseen if unseen_only else np.concatenate(
        [split.client_eval_seen, split.client_eval_unseen]
    )
    logits, _ = nn.mlp_forward(result.teacher.params, ds.features[rows])
    preds = split.teacher_classes[logits.argmax(axis=1)]
    classes = split.unseen_classes if unseen_only else np.arange(ds.n_classes)
    return per_class_top1(preds, ds.labels[rows], classes)


def report(criterion, detail, elapsed):
    import conftest

    line = f"PASS criterion {criterion}: {detail} ({elapsed:.1f}s)"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


class TestCriterion1MetricFidelity:
    # reference GZSL triples (u, s, H printed to one decimal) for the
    # data-free protocol; transductive block first, then inductive
    TRANSDUCTIVE = [
        (33.5, 28.6, 30.9),
        (29.0, 25.3, 27.0),
        (30.2, 42.2, 35.2),
        (77.9, 81.8, 79.8),
        (79.0, 86.7, 82.7),
        (83.9, 85.7, 84.8),
    ]
    INDUCTIVE = [
        (4.1, 3.7, 3.9),
        (3.5, 3.7, 3.6),
        (6.8, 4.0, 5.1),
        (23.4, 34.3, 27.8),
        (27.3, 44.3, 33.7),
        (17.9, 52.5, 26.7),
    ]

    def test_metric_fidelity(self):
        start = time.time()
        for u, s, h_pub in self.TRANSDUCTIVE:
            assert abs(harmonic_mean(u, s) - h_pub) <= 0.05, (u, s, h_pub)
        # the named examples from the criterion, strict rounding tolerance
        assert harmonic_mean(83.9, 85.7) == pytest.approx(84.8, abs=0.05)
        assert harmonic_mean(79.0, 86.7) == pytest.approx(82.7, abs=0.05)
        for u, s, h_pub in self.INDUCTIVE:
            # the reference u, s are quoted to one decimal; the provable bound is
            # 0.05 output rounding + 0.05 * (dH/du + dH/ds) input propagation
            tol = 0.05 + 0.1 * (u * u + s * s) / (u + s) ** 2
            assert abs(harmonic_mean(u, s) - h_pub) <= tol, (u, s, h_pub)
        elapsed = time.time() - start
        assert elapsed < 1.0
        report(1, "harmonic mean reproduces all 12 reference triples", elapsed)


class TestCriterion2GradientCorrectness:
    def test_gradients(self, toy_env=None):
        start = time.time()
        from azsl.data import SyntheticSpec, make_synthetic, split_azsl

        ds = make_synthetic(
            SyntheticSpec(n_classes=4, seen_count=3, d_x=12, d_a=5, per_class=40), seed=51
        )
        split = split_azsl(ds, "transductive", unseen=1, seed=51)
        teacher = train_teacher(ds, split, epochs=15, batch_size=32, seed=2, hidden=(24, 12), lr=1e-3)
        rng = np.random.default_rng(7)

        def fd_over_batch(value_fn, grad, batch, n=200, eps=1e-5):
            worst = 0.0
            for _ in range(n):
                i, j = rng.integers(0, batch.shape[0]), rng.integers(0, batch.shape[1])
                hi = batch.copy()
                hi[i, j] += eps
                lo = batch.copy()
                lo[i, j] -= eps
                num = (value_fn(hi) - value_fn(lo)) / (2 * eps)
                worst = max(worst, abs(grad[i, j] - num) / max(abs(num), abs(grad[i, j]), 1e-6))
            return worst

        batch = np.abs(rng.normal(size=(20, 12))) + 0.1
        labels = rng.integers(0, 4, size=20)

        # 1) cross-entropy through the teacher network, gradient w.r.t. the batch
        def ce_value(b):
            logits, _ = nn.mlp_forward(teacher.params, b)
            return nn.loss_ce(nn.softmax(logits), labels)[0]

        logits, cache = nn.mlp_forward(teacher.params, batch)
        _, grad_logits = nn.loss_ce(nn.softmax(logits), labels)
        _, ce_grad = nn.mlp_backward(teacher.params, cache, grad_logits)
        err_ce = fd_over_batch(ce_value, ce_grad, batch)

        # 2) student probability-space MSE, gradient w.r.t. student parameters
        student = nn.mlp_init(
            [nn.LayerSpec(12, 24, nn.ACT_LEAKY_RELU), nn.LayerSpec(24, 4, nn.ACT_IDENTITY)],
            nn.ROLE_STUDENT, 3,
        )
        targets = nn.softmax(rng.normal(size=(20, 4)))

        def student_closure(s):
            lg, ch = nn.mlp_forward(s, batch)
            probs = nn.softmax(lg)
            mse, grad_probs = nn.loss_mse(probs, targets)
            return mse, weight_grads(s, ch, nn.softmax_vjp(probs, grad_probs))

        err_student = grad_check(student, student_closure, n_samples=200, seed=9)

        # 3) + 4) both regularizer kinds, gradient w.r.t. the batch
        errs_reg = {}
        for kind in ("kl", "mmd"):
            state = fit_regularizer(ds, split, kind)
            _, grad = reg_value_grad(state, batch, labels)
            errs_reg[kind] = fd_over_batch(
                lambda b, st=state: reg_value_grad(st, b, labels)[0], grad, batch
            )

        for name, err in [("ce", err_ce), ("student", err_student), ("kl", errs_reg["kl"]), ("mmd", errs_reg["mmd"])]:
            assert err < 1e-4, (name, err)
        elapsed = time.time() - start
        assert elapsed < 30.0
        report(2, f"all four gradient paths < 1e-4 vs finite differences", elapsed)


class TestCriterion3RegularizerIdentities:
    def test_identities(self):
        start = time.time()
        from azsl.data import SyntheticSpec, make_synthetic, split_azsl

        ds = make_synthetic(SyntheticSpec(n_classes=4, seen_count=3, d_x=10, d_a=4, per_class=50), seed=52)
        split = split_azsl(ds, "transductive", unseen=1, seed=52)

        kl = fit_regularizer(ds, split, "kl")
        for c in range(4):
            rows = split.teacher_train[ds.labels[split.teacher_train] == c]
            value, _ = reg_value_grad(kl, ds.features[rows], np.full(len(rows), c))
            assert abs(value) <= 1e-9

        mmd = fit_regularizer(ds, split, "mmd")
        for c in range(4):
            ref = mmd.class_refs[c]
            value, _ = reg_value_grad(mmd, ref, np.full(len(ref), c))
            assert abs(value) <= 1e-9
        rng = np.random.default_rng(4)
        for _ in range(50):
            batch = np.abs(rng.normal(size=(rng.integers(2, 12), 10)))
            lab = rng.integers(0, 4, size=len(batch))
            value, _ = reg_value_grad(mmd, batch, lab)
            assert value >= -1e-12
        elapsed = time.time() - start
        assert elapsed < 5.0
        report(3, "KL(p||p)=0, self-MMD=0, biased MMD never negative", elapsed)


class TestCriterion4ProtocolParity:
    def test_parity_and_determinism(self, tmp_path):
        start = time.time()
        cfg = tiny_config()
        ds = build_dataset(cfg)
        split = build_split(cfg, ds)
        server_a = build_server(cfg, ds, split)
        local = InProcessChannel(server_a)
        local_frames = record_frames(local)
        run_algorithm1(local, ds.semantics, cfg, ds.d_x, split.teacher_classes)

        import threading

        server_b = build_server(cfg, ds, split)
        stop, ready, bound = threading.Event(), threading.Event(), {}

        def on_ready(addr):
            bound["port"] = addr[1]
            ready.set()

        thread = threading.Thread(
            target=serve, args=(("127.0.0.1", 0), server_b),
            kwargs={"stop_event": stop, "ready": on_ready}, daemon=True,
        )
        thread.start()
        assert ready.wait(30)
        try:
            remote = TcpChannel("127.0.0.1", bound["port"])
            remote_frames = record_frames(remote)
            run_algorithm1(remote, ds.semantics, cfg, ds.d_x, split.teacher_classes)
            remote.close()
        finally:
            stop.set()
            thread.join(timeout=30)
        assert local_frames == remote_frames

        from azsl.config import emit_config

        for tag in ("a", "b"):
            cfg_path = tmp_path / f"{tag}.azsl"
            cfg_path.write_text(emit_config(tiny_config(out=str(tmp_path / tag))))
            assert cli.main(["run", str(cfg_path)]) == 0
        for name in ["report_czsl.txt", "report_gzsl.txt"]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        elapsed = time.time() - start
        assert elapsed < 120.0
        report(4, "tcp == in-process byte-for-byte; reruns byte-identical", elapsed)


class TestCriterion5PrivacyAudit:
    def test_black_clean_white_bounded(self, tmp_path, capsys):
        start = time.time()
        black = tiny_config(scenario="black", out=str(tmp_path / "black"))
        run_experiment(black, outdir=black.out)
        body = json.loads((tmp_path / "black" / "transcript.json").read_text())
        assert body["entries"]
        assert all(e["risk"] == "low" for e in body["entries"])
        assert all(e["kind"] != audit.KIND_WEIGHT_BLOB for e in body["entries"])
        assert cli.main(["audit", str(tmp_path / "black" / "transcript.json")]) == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "BLACKBOX-CLEAN"

        white = tiny_config(scenario="white", out=str(tmp_path / "white"))
        ds = build_dataset(white)
        split = build_split(white, ds)
        server = build_server(white, ds, split)
        channel = InProcessChannel(server)
        run_algorithm1(channel, ds.semantics, white, ds.d_x, split.teacher_classes)
        channel.fetch_weights()  # exercise the weight-blob disclosure path too
        mid_kinds = {e.kind for e in channel.transcript.entries if e.risk == audit.RISK_MID}
        assert mid_kinds == {audit.KIND_CE_GRAD, audit.KIND_WEIGHT_BLOB}
        elapsed = time.time() - start
        assert elapsed < 60.0
        report(5, "black transcripts clean; white mid-risk kinds bounded", elapsed)


class TestCriterion6EndToEndWhiteTransductive:
    def test_student_tracks_teacher(self, white_runs):
        start = time.time()
        teacher_overall = [teacher_eval_accuracy(r) for r in white_runs]
        teacher_unseen = [teacher_eval_accuracy(r, unseen_only=True) for r in white_runs]
        student_unseen = [r.report_czsl.u for r in white_runs]
        assert np.median(teacher_overall) >= 95.0
        assert np.median(student_unseen) >= 0.9 * np.median(teacher_unseen)
        elapsed = _timings["sides"] + _timings["white"] + time.time() - start
        assert elapsed < 300.0
        report(
            6,
            f"teacher {np.median(teacher_overall):.1f}%, student unseen "
            f"{np.median(student_unseen):.1f}% >= 0.9 x {np.median(teacher_unseen):.1f}%",
            elapsed,
        )


class TestCriterion7ScenarioOrdering:
    def test_white_geq_black_geq_chance(self, white_runs, black_runs):
        start = time.time()
        white_u = float(np.median([r.report_czsl.u for r in white_runs]))
        black_u = float(np.median([r.report_czsl.u for r in black_runs]))
        chance = 100.0 / 10  # transductive evaluation keeps all 10 classes in play
        assert white_u >= black_u
        assert black_u >= 2 * chance
        elapsed = _timings["sides"] + _timings["white"] + _timings["black"] + time.time() - start
        assert elapsed < 600.0
        report(7, f"white {white_u:.1f} >= black {black_u:.1f} >= {2 * chance:.0f} (2 x chance)", elapsed)


class TestCriterion8AblationDirections:
    def test_verification_and_regularizer_help(self, black_runs, black_noverify_runs, black_noreg_runs):
        start = time.time()
        full = float(np.median([r.report_gzsl.h for r in black_runs]))
        noverify = float(np.median([r.report_gzsl.h for r in black_noverify_runs]))
        noreg = float(np.median([r.report_gzsl.h for r in black_noreg_runs]))
        assert noverify <= full + 1.0  # verification direction
        assert noreg <= full + 1.0  # regularizer (distribution constraint) direction
        elapsed = (
            _timings["sides"] + _timings["black"] + _timings["noverify"] + _timings["noreg"] + time.time() - start
        )
        assert elapsed < 900.0
        report(8, f"H full {full:.1f} vs no-verify {noverify:.1f} / no-reg {noreg:.1f}", elapsed)


class TestCriterion9InductiveGeneralization:
    def test_unseen_classes_beyond_teacher(self, inductive_runs):
        start = time.time()
        czsl = [r.report_czsl.u for r in inductive_runs]
        median = float(np.median(czsl))
        assert median >= 50.0 + 15.0  # chance on 2 unseen classes is 50%
        elapsed = _timings["inductive"] + time.time() - start
        assert elapsed < 300.0
        report(9, f"inductive CZSL median {median:.1f}% >= 65% on unseen classes", elapsed)


class TestTrainingTraceShapes:
    # seeded-run oracles on the default benchmark, gated on the seed median

    def test_generator_loss_non_increasing(self, white_runs):
        traces = np.array(
            [[row["ce"] for row in r.bundle.traces if row["phase"] == "generator"] for r in white_runs]
        )
        med = np.median(traces, axis=0)
        k = 25
        smoothed = np.convolve(med, np.ones(k) / k, mode="valid")
        assert smoothed[-1] < smoothed[0]
        assert np.all(smoothed[1:] <= smoothed[:-1] * 1.05)  # transient upticks only

    def test_student_loss_strictly_decreasing_early(self, white_runs):
        traces = np.array(
            [[row["mse"] for row in r.bundle.traces if row["phase"] == "student"] for r in white_runs]
        )
        med = np.median(traces, axis=0)
        assert all(b < a for a, b in zip(med[:10], med[1:11]))


class TestCriterion10EvaluationOracles:
    def test_metric_oracles(self, white_runs):
        start = time.time()
        rng = np.random.default_rng(123)
        for _ in range(1000):
            n_classes = int(rng.integers(2, 8))
            n = int(rng.integers(1, 50))
            labels = rng.integers(0, n_classes, size=n)
            preds = rng.integers(0, n_classes, size=n)
            accs = []
            for c in range(n_classes):
                hits = total = 0
                for p, l in zip(preds, labels):
                    if l == c:
                        total += 1
                        hits += int(p == c)
                if total:
                    accs.append(hits / total)
            expected = (sum(accs) / len(accs)) * 100.0
            assert per_class_top1(preds, labels, range(n_classes)) == expected

        for result in white_runs[:2]:
            rep = result.report_gzsl
            u2 = np.mean(
                [rep.confusion[c, c] / rep.confusion[c].sum() for c in result.split.unseen_classes]
            ) * 100
            s2 = np.mean(
                [rep.confusion[c, c] / rep.confusion[c].sum() for c in result.split.seen_classes]
            ) * 100
            assert abs(rep.u - u2) < 1e-9
            assert abs(rep.s - s2) < 1e-9
        elapsed = time.time() - start
        assert elapsed < 10.0
        report(10, "per-class top-1 matches brute force; reports self-consistent", elapsed)
