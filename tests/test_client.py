from pathlib import Path

import numpy as np
import pytest

from azsl import client as client_mod
from azsl import audit, nn, wire
from azsl.channel import InProcessChannel
from azsl.client import (
    GenerationBatch,
    QuotaResult,
    VerifiedBatch,
    black_batch_grads,
    ensure_quota,
    generate,
    generator_specs,
    run_algorithm1,
    train_black,
    train_generator_white,
    train_inductive_classifier,
    train_student,
    verify,
)
from azsl.config import ExperimentConfig
from azsl.data import SemanticTable, SyntheticSpec, make_synthetic, split_azsl
from azsl.regularizers import fit_regularizer, reg_value_grad
from azsl.seeding import derive_seed, rng_for
from azsl.server import TeacherServer, train_teacher
from conftest import grad_check, params_allclose, peak_bytes


D_X, D_A, NZ = 10, 4, 6


def tiny_generator(seed=0, hidden=(16,)):
    return nn.mlp_init(generator_specs(NZ, D_A, D_X, hidden), nn.ROLE_GENERATOR, seed)


def client_cfg(**kw):
    """A run config for the tiny generator; its client and noise seeds derive from `seed`."""
    return ExperimentConfig(noise_dim=NZ, **kw)


def semantics(n_classes=4):
    rng = np.random.default_rng(77)
    return SemanticTable(rng.normal(size=(n_classes, D_A)))


@pytest.fixture(scope="module")
def teacher_env():
    ds = make_synthetic(
        SyntheticSpec(n_classes=4, seen_count=3, d_x=D_X, d_a=D_A, per_class=60, separation=5.0, noise=1.0),
        seed=31,
    )
    split = split_azsl(ds, "transductive", unseen=1, seed=31)
    teacher = train_teacher(ds, split, epochs=40, batch_size=32, seed=1, hidden=(32, 16), lr=1e-3)
    reg = fit_regularizer(ds, split, "kl", alpha=1.0)
    return ds, split, teacher, reg


def make_channel(teacher_env, scenario=wire.SCENARIO_WHITE):
    _, _, teacher, reg = teacher_env
    return InProcessChannel(TeacherServer(teacher, reg, scenario))


class TestGenerate:
    def test_zero_generator_outputs_zero(self):
        gen = tiny_generator()
        for w in gen.weights:
            w[:] = 0.0
        batch = generate(gen, semantics(), classes=[0, 1], count_per_class=5, noise_seed=0)
        assert (batch.features == 0).all()  # ReLU(0) = 0

    def test_row_count_follows_request(self):
        gen = tiny_generator()
        batch = generate(gen, semantics(10), classes=range(10), count_per_class=400, noise_seed=1)
        assert batch.features.shape == (4000, D_X)
        assert all((batch.cond_labels == c).sum() == 400 for c in range(10))

    def test_identical_semantics_shared_noise_identical_blocks(self):
        gen = tiny_generator(seed=3)
        table = SemanticTable(np.vstack([np.ones((1, D_A)), np.ones((1, D_A)) * 2, np.ones((1, D_A))]), source="attribute")
        a = generate(gen, table, classes=[0], count_per_class=7, noise_seed=5)
        b = generate(gen, table, classes=[2], count_per_class=7, noise_seed=5)
        assert np.array_equal(a.features, b.features)

    def test_deterministic_per_seed(self):
        gen = tiny_generator(seed=4)
        a = generate(gen, semantics(), [0, 1, 2], 6, 9)
        b = generate(gen, semantics(), [0, 1, 2], 6, 9)
        c = generate(gen, semantics(), [0, 1, 2], 6, 10)
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)

    def test_outputs_nonnegative(self):
        gen = tiny_generator(seed=5)
        batch = generate(gen, semantics(), [0, 1, 2, 3], 20, 2)
        assert batch.features.min() >= 0.0

    def test_missing_semantic_row(self):
        gen = tiny_generator()
        from azsl.data import DataError

        with pytest.raises(DataError):
            generate(gen, semantics(2), classes=[5], count_per_class=3, noise_seed=0)

    @pytest.mark.parametrize("in_dim", [D_A, D_A - 1])
    def test_no_room_for_noise_rejected_before_any_forward(self, monkeypatch, in_dim):
        gen = nn.mlp_init([nn.LayerSpec(in_dim, D_X, nn.ACT_RELU)], nn.ROLE_GENERATOR, 0)
        monkeypatch.setattr(nn, "mlp_forward", lambda *a, **k: pytest.fail("the generator ran"))
        with pytest.raises(ValueError, match=f"{in_dim} inputs, no more than the {D_A} semantic columns"):
            generate(gen, semantics(), [0], 2, 0)

    def test_wrong_role_rejected(self):
        not_gen = nn.mlp_init([nn.LayerSpec(NZ + D_A, D_X, nn.ACT_RELU)], nn.ROLE_STUDENT, 0)
        with pytest.raises(ValueError, match="generator"):
            generate(not_gen, semantics(), [0], 2, 0)

    def test_noise_is_seeded_by_rank_in_the_request(self):
        # class 2 is rank 1 of [1, 2] but rank 0 of [2] and [2, 3]: its block
        # follows its rank, not its id
        gen = tiny_generator(seed=6)
        pair = generate(gen, semantics(), [1, 2], 5, 3)
        alone = generate(gen, semantics(), [2], 5, 3)
        first = generate(gen, semantics(), [2, 3], 5, 3)
        assert not np.array_equal(pair.features[pair.cond_labels == 2], alone.features)
        assert np.array_equal(first.features[first.cond_labels == 2], alone.features)


class TestVerify:
    def make_batch(self, labels):
        labels = np.asarray(labels)
        return GenerationBatch(features=np.arange(len(labels) * 2, dtype=float).reshape(-1, 2), cond_labels=labels)

    def test_all_correct(self):
        keep = verify(self.make_batch([0, 1, 2]), np.eye(3), range(3))
        assert keep.dtype == bool and keep.tolist() == [True, True, True]

    def test_all_misclassified(self):
        softmax = np.tile([0.1, 0.9, 0.0], (3, 1))
        assert not verify(self.make_batch([0, 0, 0]), softmax, range(3)).any()

    def test_mixed_fixture_hand_enumerated(self):
        # rows 0, 2, 4 agree with their conditioning class
        batch = self.make_batch([0, 1, 2, 0, 1])
        softmax = np.array(
            [
                [0.8, 0.1, 0.1],  # -> 0 == 0 keep
                [0.7, 0.2, 0.1],  # -> 0 != 1 drop
                [0.1, 0.2, 0.7],  # -> 2 == 2 keep
                [0.2, 0.5, 0.3],  # -> 1 != 0 drop
                [0.3, 0.4, 0.3],  # -> 1 == 1 keep
            ]
        )
        assert verify(batch, softmax, range(3)).tolist() == [True, False, True, False, True]

    def test_tie_breaks_to_lowest_class(self):
        softmax = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
        assert verify(self.make_batch([0, 1]), softmax, range(3)).tolist() == [True, False]  # both argmax -> 0

    def test_head_mapping_for_partial_class_space(self):
        softmax = np.array([[0.9, 0.1], [0.2, 0.8]])  # head columns are classes [5, 7]
        assert verify(self.make_batch([5, 7]), softmax, class_space=[5, 7]).all()
        assert not verify(self.make_batch([0, 1]), softmax, class_space=[5, 7]).any()

    def test_misaligned_softmax_rejected(self):
        with pytest.raises(ValueError, match="align"):
            verify(self.make_batch([0, 1]), np.eye(3), range(3))


class TestWhiteTraining:
    def test_zero_gradient_when_teacher_satisfied_and_alpha_zero(self, teacher_env):
        _, _, teacher, _ = teacher_env
        gen = tiny_generator(seed=6)
        z = np.random.default_rng(0).standard_normal((8, NZ))
        sem_rows = semantics().rows_for([0] * 8)
        features, cache = client_mod._forward_generator(gen, z, sem_rows)
        # synthetic response: a perfectly-satisfied teacher sends a zero gradient
        resp = wire.FeedbackResponse(
            softmax=None, reg_value=0.0, reg_grad=np.ones_like(features),
            ce_value=0.0, ce_grad=np.zeros_like(features),
        )
        grads = client_mod.white_batch_grads(gen, cache, resp, alpha=0.0)
        assert max(np.abs(g).max() for g in grads.weights + grads.biases) == 0.0

    def test_generator_gradient_matches_finite_differences(self, teacher_env):
        ds, _, teacher, reg = teacher_env
        channel = make_channel(teacher_env)
        gen = tiny_generator(seed=7)
        rng = np.random.default_rng(1)
        z = rng.standard_normal((6, NZ))
        labels = np.array([0, 1, 2, 3, 0, 1])
        sem = semantics()
        sem_rows = sem.rows_for(labels)
        alpha = 0.7

        def closure(g):
            x, cache = client_mod._forward_generator(g, z, sem_rows)
            resp = channel.feedback(wire.FeedbackRequest(wire.SCENARIO_WHITE, x, labels))
            grads = client_mod.white_batch_grads(g, cache, resp, alpha)
            # local recomputation of the objective for the finite-difference side
            logits, _ = nn.mlp_forward(teacher.params, x)
            ce = nn.loss_ce(nn.softmax(logits), teacher.head_index(labels))[0]
            r = reg_value_grad(reg, x, labels)[0]
            return ce + alpha * r, grads

        assert grad_check(gen, closure, n_samples=200, seed=5) < 1e-4

    def test_loss_trace_decreases(self, teacher_env):
        channel = make_channel(teacher_env)
        gen = tiny_generator(seed=8, hidden=(32,))
        cfg = client_cfg(t_g=150, batch_size=32, alpha=1.0, lr=1e-3, seed=3)
        gen, trace = train_generator_white(gen, channel, semantics(), [0, 1, 2, 3], cfg)
        ce = np.array([row["ce"] for row in trace])
        k = 20
        smoothed = np.convolve(ce, np.ones(k) / k, mode="valid")
        assert smoothed[-1] < smoothed[0]
        assert np.all(smoothed[1:] <= smoothed[:-1] * 1.05)


class TestBlackTraining:
    def test_zero_updates_when_student_matches_targets(self, teacher_env):
        gen = tiny_generator(seed=9)
        student = nn.mlp_init(nn.classifier_specs(D_X, 4, (16, 8)), nn.ROLE_STUDENT, 3)
        z = np.random.default_rng(2).standard_normal((5, NZ))
        sem_rows = semantics().rows_for([0] * 5)
        features, cache = client_mod._forward_generator(gen, z, sem_rows)
        logits, _ = nn.mlp_forward(student, features)
        targets = nn.softmax(logits)  # student already reproduces the targets exactly
        mse, gen_grads, stu_grads = black_batch_grads(
            gen, cache, student, features, targets, np.zeros_like(features), alpha=0.0
        )
        assert mse == 0.0
        assert max(np.abs(g).max() for g in gen_grads.weights + stu_grads.weights) == 0.0

    def test_joint_gradient_matches_finite_differences(self, teacher_env):
        ds, _, teacher, reg = teacher_env
        channel = make_channel(teacher_env, wire.SCENARIO_BLACK)
        gen = tiny_generator(seed=10)
        student = nn.mlp_init(nn.classifier_specs(D_X, 4, (12,)), nn.ROLE_STUDENT, 4)
        rng = np.random.default_rng(3)
        z = rng.standard_normal((6, NZ))
        labels = np.array([0, 1, 2, 3, 1, 2])
        sem = semantics()
        sem_rows = sem.rows_for(labels)
        alpha = 0.5

        x0, _ = client_mod._forward_generator(gen, z, sem_rows)
        resp0 = channel.feedback(wire.FeedbackRequest(wire.SCENARIO_BLACK, x0, labels))
        frozen_targets = resp0.softmax.copy()  # teacher held constant per batch

        def gen_closure(g):
            x, cache = client_mod._forward_generator(g, z, sem_rows)
            mse, gen_grads, _ = black_batch_grads(
                g, cache, student, x, frozen_targets, reg_value_grad(reg, x, labels)[1], alpha
            )
            value = mse + alpha * reg_value_grad(reg, x, labels)[0]
            return value, gen_grads

        assert grad_check(gen, gen_closure, n_samples=150, seed=6) < 1e-4

        def student_closure(s):
            x, cache = client_mod._forward_generator(gen, z, sem_rows)
            mse, _, stu_grads = black_batch_grads(
                gen, cache, s, x, frozen_targets, np.zeros_like(x), alpha=0.0
            )
            return mse, stu_grads

        assert grad_check(student, student_closure, n_samples=150, seed=7) < 1e-4

    def test_teacher_outputs_used_only_as_constants(self, teacher_env):
        channel = make_channel(teacher_env, wire.SCENARIO_BLACK)
        gen = tiny_generator(seed=11)
        student = nn.mlp_init(nn.classifier_specs(D_X, 4, (12,)), nn.ROLE_STUDENT, 5)
        z = np.random.default_rng(4).standard_normal((4, NZ))
        labels = np.array([0, 1, 2, 3])
        sem_rows = semantics().rows_for(labels)
        x, cache = client_mod._forward_generator(gen, z, sem_rows)
        resp = channel.feedback(wire.FeedbackRequest(wire.SCENARIO_BLACK, x, labels))

        out_a = black_batch_grads(gen, cache, student, x, resp.softmax, resp.reg_grad, 0.3)
        literal = np.array(resp.softmax.tolist())  # equal literal values, fresh object
        out_b = black_batch_grads(gen, cache, student, x, literal, resp.reg_grad, 0.3)
        assert out_a[0] == out_b[0]
        for ga, gb in zip(out_a[1].weights + out_a[2].weights, out_b[1].weights + out_b[2].weights):
            assert np.array_equal(ga, gb)

    def test_black_transcript_is_all_low_risk(self, teacher_env):
        channel = make_channel(teacher_env, wire.SCENARIO_BLACK)
        gen = tiny_generator(seed=12, hidden=(16,))
        student = nn.mlp_init(nn.classifier_specs(D_X, 4, (16, 8)), nn.ROLE_STUDENT, 6)
        cfg = client_cfg(t_g=20, batch_size=16, alpha=1.0, lr=1e-3, seed=4, scenario=wire.SCENARIO_BLACK)
        train_black(gen, student, channel, semantics(), [0, 1, 2, 3], cfg)
        assert all(e.risk == audit.RISK_LOW for e in channel.transcript.entries)


def sequential_rounds(gen, student, channel, sem, classes, cfg):
    """The generator loop of either scenario as it ran before rounds overlapped:
    draw, forward, round trip, then every update of the round, in that order."""
    classes = np.asarray(sorted(classes), dtype=np.int64)
    black = cfg.scenario == wire.SCENARIO_BLACK
    gen_state = nn.AdamState.for_params(gen, lr=cfg.lr)
    stu_state = nn.AdamState.for_params(student, lr=cfg.lr)
    trace = []
    for epoch in range(cfg.t_g):
        rng = rng_for(cfg.client_seed, f"{cfg.scenario}-epoch", epoch)
        labels = classes[rng.integers(0, len(classes), size=cfg.batch_size)]
        z = rng.standard_normal((cfg.batch_size, cfg.noise_dim))
        features, cache = client_mod._forward_generator(gen, z, sem.rows_for(labels))
        resp = channel.feedback(wire.FeedbackRequest(cfg.scenario, features, labels, want_softmax=black))
        if black:
            mse, gen_grads, stu_grads = black_batch_grads(
                gen, cache, student, features, resp.softmax, resp.reg_grad, cfg.alpha
            )
            nn.adam_step(gen, gen_grads, gen_state)
            nn.adam_step(student, stu_grads, stu_state)
            values = {"mse": mse}
        else:
            nn.adam_step(gen, client_mod.white_batch_grads(gen, cache, resp, cfg.alpha), gen_state)
            values = {"ce": resp.ce_value}
        trace.append({"phase": "generator", "epoch": epoch, **values, "reg": resp.reg_value})
    return gen, student, trace


class TestOverlappedRounds:
    """The last round's student step and the next round's draws run while a reply is in flight, bit for bit."""

    def nets(self):
        return tiny_generator(seed=13), nn.mlp_init(nn.classifier_specs(D_X, 4, (16, 8)), nn.ROLE_STUDENT, 7)

    def train(self, channel, cfg, gen, student):
        if cfg.scenario == wire.SCENARIO_BLACK:
            return train_black(gen, student, channel, semantics(), [0, 1, 2, 3], cfg)
        gen, trace = train_generator_white(gen, channel, semantics(), [0, 1, 2, 3], cfg)
        return gen, student, trace

    @pytest.mark.parametrize("scenario", [wire.SCENARIO_WHITE, wire.SCENARIO_BLACK])
    @pytest.mark.parametrize("t_g", [0, 1, 2, 7])
    def test_same_as_the_sequential_loop(self, teacher_env, scenario, t_g):
        cfg = client_cfg(t_g=t_g, batch_size=16, alpha=1.0, lr=1e-3, seed=5, scenario=scenario)
        got_channel, want_channel = make_channel(teacher_env, scenario), make_channel(teacher_env, scenario)
        gen, student, trace = self.train(got_channel, cfg, *self.nets())
        want_gen, want_student, want_trace = sequential_rounds(
            *self.nets(), want_channel, semantics(), [0, 1, 2, 3], cfg
        )
        assert np.array_equal(gen.buffer, want_gen.buffer)
        assert np.array_equal(student.buffer, want_student.buffer)
        assert trace == want_trace
        assert got_channel.transcript.digest() == want_channel.transcript.digest()

    def test_no_round_draws_nothing_and_leaves_no_step(self, teacher_env, monkeypatch):
        calls = []
        monkeypatch.setattr(client_mod, "rng_for", lambda *a: calls.append(("draw", *a)) or rng_for(*a))
        monkeypatch.setattr(nn, "adam_step", lambda params, *a: calls.append(("adam", params.role)))
        gen, student = self.nets()
        before = student.buffer.copy()
        cfg = client_cfg(t_g=0, scenario=wire.SCENARIO_BLACK)
        _, student, trace = train_black(gen, student, make_channel(teacher_env, cfg.scenario), semantics(), [0, 1], cfg)
        assert calls == [] and trace == []
        assert np.array_equal(student.buffer, before)


class TestQuota:
    def test_perfect_generator_single_round(self, teacher_env):
        channel = make_channel(teacher_env, wire.SCENARIO_BLACK)
        gen = trained_generator(teacher_env)
        cfg = client_cfg(per_class_count=30, min_verified=5, retry_cap=3, seed=5)
        quota = ensure_quota(gen, channel, semantics(), [0, 1, 2, 3], cfg)
        assert quota.rounds == 1
        assert quota.shortfall == {}

    def test_hopeless_class_reported_not_padded(self, teacher_env):
        channel = make_channel(teacher_env, wire.SCENARIO_BLACK)
        gen = tiny_generator(seed=13)
        for w in gen.weights:
            w[:] = 0.0  # all-zero features: teacher argmax is one fixed class
        cfg = client_cfg(per_class_count=10, min_verified=5, retry_cap=2, seed=6)
        quota = ensure_quota(gen, channel, semantics(), [0, 1, 2, 3], cfg)
        assert quota.rounds == 3  # initial + two retries
        assert len(quota.shortfall) >= 3  # only the argmax class can ever verify
        assert all(count < 5 for count in quota.shortfall.values())

    def test_a_retried_round_holds_only_its_kept_rows(self, teacher_env):
        # All-zero features: the first round keeps its 2000 rows of one class
        # and retries the other three classes (6000 rows a round) in vain.
        # Every round keeps only its verified rows, so the retries add at most
        # the kept rows (2000 x (10 + 4) f64, 224 KB) to the one-round peak;
        # measured no more than the one round on x86-64. Holding every whole
        # round added 1.3 MB at two retries.
        gen = tiny_generator(seed=13)
        for w in gen.weights:
            w[:] = 0.0

        def quota(retry_cap):
            channel = make_channel(teacher_env, wire.SCENARIO_BLACK)
            cfg = client_cfg(per_class_count=2000, min_verified=5, retry_cap=retry_cap, seed=6)
            return peak_bytes(ensure_quota, gen, channel, semantics(), [0, 1, 2, 3], cfg)

        (one, one_peak), (three, three_peak) = quota(0), quota(2)
        assert (one.rounds, three.rounds) == (1, 3)
        assert len(three.verified) == 2000
        kept_bytes = three.verified.features.nbytes + three.verified.teacher_softmax.nbytes
        assert three_peak < one_peak + kept_bytes

    @pytest.mark.parametrize("verify_rows", [True, False])
    def test_one_round_peak_is_generate_plus_twice_the_kept_rows(self, teacher_env, verify_rows):
        # The benchmark workloads' shape: one round of 8000 rows that keeps
        # about half of them (all with verification off). Beyond generate's own
        # peak, which holds the whole batch, the quota makes at most two more
        # copies of the kept rows; measured 1.23x (verified) and 0.56x (all
        # kept) the kept bytes above generate's peak on x86-64.
        gen = trained_generator(teacher_env)
        cfg = client_cfg(per_class_count=2000, min_verified=5, retry_cap=3, verify=verify_rows, seed=17)
        channel = make_channel(teacher_env, wire.SCENARIO_BLACK)
        quota, peak = peak_bytes(ensure_quota, gen, channel, semantics(), [0, 1, 2, 3], cfg)
        noise_seed = derive_seed(cfg.noise_seed, "quota-round", 0)
        _, generate_peak = peak_bytes(generate, gen, semantics(), [0, 1, 2, 3], cfg.per_class_count, noise_seed)
        assert quota.rounds == 1
        assert (0.4 <= quota.verified.kept_fraction < 1.0) if verify_rows else quota.verified.kept_fraction == 1.0
        kept_bytes = quota.verified.features.nbytes + quota.verified.teacher_softmax.nbytes
        assert peak <= generate_peak + 2 * kept_bytes

    def test_retry_cap_zero_is_single_pass(self, teacher_env):
        channel = make_channel(teacher_env, wire.SCENARIO_BLACK)
        gen = tiny_generator(seed=14)
        cfg = client_cfg(per_class_count=8, min_verified=8, retry_cap=0, seed=7)
        quota = ensure_quota(gen, channel, semantics(), [0, 1, 2, 3], cfg)
        assert quota.rounds == 1

    def test_verification_disabled_keeps_everything(self, teacher_env):
        channel = make_channel(teacher_env, wire.SCENARIO_BLACK)
        gen = tiny_generator(seed=15)
        cfg = client_cfg(per_class_count=9, verify=False, seed=8, min_verified=1, retry_cap=2)
        quota = ensure_quota(gen, channel, semantics(), [0, 1, 2, 3], cfg)
        assert len(quota.verified) == 36
        assert quota.verified.kept_fraction == 1.0


def list_tally_quota(gen, channel, semantics, classes, cfg, class_space):
    """The earlier ensure_quota: a list of kept blocks per class, re-summed at every check."""
    classes = np.asarray(sorted(classes), dtype=np.int64)
    kept: dict[int, list] = {int(c): [] for c in classes}
    pending = list(classes)
    rounds = 0
    total_generated = 0
    while pending and rounds <= cfg.retry_cap:
        noise_seed = derive_seed(cfg.noise_seed, "quota-round", rounds)
        batch = generate(gen, semantics, pending, cfg.per_class_count, noise_seed)
        total_generated += len(batch.features)
        softmax = client_mod._request_softmax(channel, batch.features, batch.cond_labels)
        if cfg.verify:
            keep = verify(batch, softmax, class_space)
            vb = VerifiedBatch(batch.features[keep], batch.cond_labels[keep], softmax[keep], float(keep.mean()))
        else:
            vb = VerifiedBatch(batch.features, batch.cond_labels, softmax, 1.0)
        for c in pending:
            mask = vb.labels == c
            if mask.any():
                kept[int(c)].append((vb.features[mask], vb.teacher_softmax[mask]))
        rounds += 1
        pending = [
            c for c in pending
            if sum(len(f) for f, _ in kept[int(c)]) < cfg.min_verified
        ]

    features, labels, softmaxes = [], [], []
    for c in classes:
        for f, s in kept[int(c)]:
            features.append(f)
            labels.append(np.full(len(f), c, dtype=np.int64))
            softmaxes.append(s)
    n_kept = sum(len(f) for f in features)
    verified = VerifiedBatch(
        features=np.concatenate(features) if features else np.zeros((0, gen.out_dim)),
        labels=np.concatenate(labels) if labels else np.zeros(0, dtype=np.int64),
        teacher_softmax=np.concatenate(softmaxes) if softmaxes else np.zeros((0, 0)),
        kept_fraction=n_kept / total_generated if total_generated else 0.0,
    )
    shortfall = {
        int(c): sum(len(f) for f, _ in kept[int(c)])
        for c in classes
        if sum(len(f) for f, _ in kept[int(c)]) < cfg.min_verified
    }
    return QuotaResult(verified=verified, shortfall=shortfall, rounds=rounds)


class TestQuotaTally:
    # A weak (untrained) generator, so that retries and shortfalls occur; and a
    # trained one whose single round keeps about half its rows under
    # verification, the shape of every benchmark workload's quota.
    @pytest.mark.parametrize("verify_rows", [True, False])
    @pytest.mark.parametrize(
        "min_verified,retry_cap,trained",
        [(1, 2, False), (15, 3, False), (40, 1, False), (0, 0, False), (2, 3, True)],
        ids=["1-2", "15-3", "40-1", "0-0", "trained"],
    )
    def test_matches_list_tally(self, teacher_env, verify_rows, min_verified, retry_cap, trained):
        cfg = client_cfg(per_class_count=10, min_verified=min_verified, retry_cap=retry_cap,
                         verify=verify_rows, seed=17)
        gen = trained_generator(teacher_env) if trained else tiny_generator(seed=18)

        def run(tally, **kw):
            channel = make_channel(teacher_env, wire.SCENARIO_BLACK)
            result = tally(gen, channel, semantics(), [3, 1, 0, 2], cfg, **kw)
            return result, channel.transcript.digest()

        (got, got_digest), (want, want_digest) = run(ensure_quota), run(list_tally_quota, class_space=np.arange(4))
        for field_name in ("features", "labels", "teacher_softmax"):
            a, b = getattr(got.verified, field_name), getattr(want.verified, field_name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field_name
        assert got.verified.kept_fraction == want.verified.kept_fraction
        assert (got.shortfall, got.rounds) == (want.shortfall, want.rounds)
        assert got_digest == want_digest
        if min_verified == 15:
            assert got.rounds > 1  # the retry path ran
        if min_verified == 40:
            assert got.shortfall  # the shortfall path ran
        if trained:
            assert got.rounds == 1 and 0.4 <= got.verified.kept_fraction <= 1.0
            assert (got.verified.kept_fraction < 1.0) == verify_rows

    def test_empty_class_list_rejected(self, teacher_env):
        channel = make_channel(teacher_env, wire.SCENARIO_BLACK)
        with pytest.raises(ValueError, match="empty"):
            ensure_quota(tiny_generator(), channel, semantics(), [], client_cfg())


def trained_generator(teacher_env, seed=20):
    channel = make_channel(teacher_env)
    gen = tiny_generator(seed=seed, hidden=(32,))
    cfg = client_cfg(t_g=200, batch_size=32, alpha=1.0, lr=1e-3, seed=9)
    gen, _ = train_generator_white(gen, channel, semantics(), [0, 1, 2, 3], cfg)
    return gen


class TestStudentTraining:
    def test_zero_loss_zero_updates_at_optimum(self):
        student = nn.mlp_init(nn.classifier_specs(D_X, 4, (8,)), nn.ROLE_STUDENT, 7)
        x = np.abs(np.random.default_rng(5).normal(size=(12, D_X)))
        logits, _ = nn.mlp_forward(student, x)
        vb = VerifiedBatch(x, np.zeros(12, dtype=np.int64), nn.softmax(logits), 1.0)
        before = student.copy()
        trained, trace = train_student(student, vb, client_cfg(t_s=3, batch_size=12, lr=1e-3, seed=1))
        assert trace[0]["mse"] == pytest.approx(0.0, abs=1e-30)
        assert params_allclose(trained, before)

    def test_loss_decreases_early(self, teacher_env):
        channel = make_channel(teacher_env, wire.SCENARIO_BLACK)
        gen = trained_generator(teacher_env, seed=21)
        cfg = client_cfg(per_class_count=40, t_s=12, batch_size=160, lr=1e-3, seed=10)
        quota = ensure_quota(gen, channel, semantics(), [0, 1, 2, 3], cfg)
        student = nn.mlp_init(nn.classifier_specs(D_X, 4, (16, 8)), nn.ROLE_STUDENT, 8)
        _, trace = train_student(student, quota.verified, cfg)
        mse = [row["mse"] for row in trace]
        assert all(b < a for a, b in zip(mse[:10], mse[1:11]))

    def test_grads_match_finite_differences(self):
        student = nn.mlp_init(nn.classifier_specs(D_X, 4, (8,)), nn.ROLE_STUDENT, 9)
        rng = np.random.default_rng(6)
        x = np.abs(rng.normal(size=(10, D_X)))
        targets = nn.softmax(rng.normal(size=(10, 4)))

        def closure(s):
            logits, cache = nn.mlp_forward(s, x)
            probs = nn.softmax(logits)
            mse, grad_probs = nn.loss_mse(probs, targets)
            grads, _ = nn.mlp_backward(s, cache, nn.softmax_vjp(probs, grad_probs))
            return mse, grads

        assert grad_check(student, closure, n_samples=200, seed=8) < 1e-4

    def test_empty_verified_batch_rejected(self):
        student = nn.mlp_init(nn.classifier_specs(D_X, 4, (8,)), nn.ROLE_STUDENT, 10)
        empty = VerifiedBatch(np.zeros((0, D_X)), np.zeros(0, dtype=np.int64), np.zeros((0, 4)), 0.0)
        with pytest.raises(ValueError, match="empty"):
            train_student(student, empty, client_cfg())


class TestInductiveClassifier:
    def test_head_sizes(self, teacher_env):
        gen = trained_generator(teacher_env, seed=22)
        cfg = client_cfg(per_class_count=20, t_s=5, batch_size=32, lr=1e-3, seed=11)
        assert train_inductive_classifier(gen, semantics(), cfg).out_dim == 4
        assert train_inductive_classifier(gen, semantics(6), cfg).out_dim == 6

    def test_separated_clusters_reach_high_train_accuracy(self):
        # hand-built generator: semantics dominate, noise barely perturbs, so the
        # per-class outputs form tight well-separated clusters
        rng = np.random.default_rng(40)
        gen = tiny_generator(seed=24, hidden=(16,))
        gen.weights[0][:NZ, :] = 0.01 * rng.normal(size=(NZ, 16))
        gen.weights[0][NZ:, :] = 2.0 * rng.normal(size=(D_A, 16))
        gen.weights[1][:] = rng.normal(size=(16, D_X))
        table = SemanticTable(8.0 * np.eye(4), source="attribute")
        cfg = client_cfg(per_class_count=60, t_s=150, batch_size=60, lr=1e-2, seed=12)
        params = train_inductive_classifier(gen, table, cfg)
        batch = generate(gen, table, range(4), 60, derive_check_seed())
        # centroid oracle on the same generated set confirms the clusters separate
        cents = np.stack([batch.features[batch.cond_labels == c].mean(axis=0) for c in range(4)])
        d2 = ((batch.features[:, None, :] - cents[None]) ** 2).sum(axis=2)
        assert (d2.argmin(axis=1) == batch.cond_labels).mean() >= 0.99
        logits, _ = nn.mlp_forward(params, batch.features)
        assert (logits.argmax(axis=1) == batch.cond_labels).mean() >= 0.99  # column c is class c


def derive_check_seed():
    from azsl.seeding import derive_seed

    return derive_seed(999, "holdout")


class TestRunAlgorithm1:
    def run(self, teacher_env, scenario, seed=40):
        channel = make_channel(teacher_env, scenario)
        cfg = client_cfg(
            t_g=60, t_s=30, batch_size=32, per_class_count=30, alpha=1.0,
            scenario=scenario, teacher_mode="transductive", lr=1e-3, seed=seed,
            min_verified=1, retry_cap=1, generator_hidden=(32,), teacher_hidden=(32, 16),
        )
        return run_algorithm1(channel, semantics(), cfg, D_X, np.arange(4))

    def test_black_transcript_digest_only_low_kinds(self, teacher_env):
        bundle = self.run(teacher_env, wire.SCENARIO_BLACK)
        assert all(e.risk == audit.RISK_LOW for e in bundle.transcript.entries)

    def test_deterministic_bundle_digest(self, teacher_env):
        a = self.run(teacher_env, wire.SCENARIO_WHITE, seed=41)
        b = self.run(teacher_env, wire.SCENARIO_WHITE, seed=41)
        c = self.run(teacher_env, wire.SCENARIO_WHITE, seed=42)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_save_layout(self, teacher_env, tmp_path):
        bundle = self.run(teacher_env, wire.SCENARIO_WHITE)
        bundle.save(tmp_path)
        assert (tmp_path / "gen.azw").exists()
        assert (tmp_path / "student.azw").exists()
        assert (tmp_path / "trace.csv").exists()
        assert (tmp_path / "transcript.json").exists()
        back = wire.decode_params((tmp_path / "gen.azw").read_bytes())
        assert params_allclose(back, bundle.gen)
        header = (tmp_path / "trace.csv").read_text().splitlines()[0]
        assert header == "phase,epoch,ce,reg,mse"


class TestClientIsolation:
    def test_client_module_never_touches_dataset_features(self):
        # by construction the client sees semantics, labels, noise, and channel
        # responses only; its import surface must not reach feature containers
        import ast

        tree = ast.parse(Path(client_mod.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
        assert "Dataset" not in imported
        assert "load_features" not in imported
        assert "SemanticTable" in imported
