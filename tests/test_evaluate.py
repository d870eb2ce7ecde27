import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from azsl import evaluate, nn
from azsl.audit import RiskLog
from azsl.client import ArtifactBundle
from azsl.config import ExperimentConfig
from azsl.data import Dataset, SemanticTable, SplitBundle, SyntheticSpec, make_synthetic, split_azsl
from azsl.evaluate import (
    eval_czsl,
    eval_gzsl,
    harmonic_mean,
    per_class_top1,
    predict,
    render_report,
)


def linear_model(weights, biases=None, role=nn.ROLE_STUDENT):
    w = np.asarray(weights, dtype=np.float64)
    params = nn.mlp_init([nn.LayerSpec(w.shape[0], w.shape[1], nn.ACT_IDENTITY)], role, 0)
    params.weights[0][...] = w
    params.biases[0][...] = 0.0 if biases is None else biases
    return params


def centroid_model(dataset, classes, role=nn.ROLE_STUDENT):
    # exact nearest-centroid classifier as a linear layer:
    # argmax(x . mu_c - |mu_c|^2 / 2) == argmin |x - mu_c|^2
    cents = np.stack([dataset.features[dataset.labels == c].mean(axis=0) for c in classes])
    return linear_model(cents.T, -0.5 * (cents**2).sum(axis=1), role)


class TestPredict:
    def test_one_hot_logits(self):
        model = linear_model(np.eye(4))
        x = np.eye(4)[[2, 0, 3]]
        assert predict(model, x, range(4)).tolist() == [2, 0, 3]

    def test_exact_tie_prefers_lowest_class(self):
        model = linear_model(np.eye(6))
        x = np.zeros((1, 6))
        x[0, 2] = 1.0
        x[0, 5] = 1.0
        assert predict(model, x, range(6)).tolist() == [2]

    def test_masking_restricts_argmax(self):
        model = linear_model(np.eye(5))
        x = np.array([[9.0, 0.0, 1.0, 0.5, 0.0]])  # global argmax is class 0 (seen)
        assert predict(model, x, class_space=[2, 3]).tolist() == [2]

    def test_singleton_class_space(self):
        model = linear_model(np.random.default_rng(0).normal(size=(3, 4)))
        x = np.random.default_rng(1).normal(size=(7, 3))
        assert predict(model, x, class_space=[3]).tolist() == [3] * 7

    def test_space_outside_head_rejected(self):
        model = linear_model(np.eye(3))
        with pytest.raises(ValueError, match="head"):
            predict(model, np.zeros((1, 3)), class_space=[5])


class TestPerClassTop1:
    def test_simple_average(self):
        assert per_class_top1([0, 1, 1], [0, 0, 1], [0, 1]) == pytest.approx(75.0)

    def test_all_correct(self):
        assert per_class_top1([1, 0, 2], [1, 0, 2], [0, 1, 2]) == pytest.approx(100.0)

    def test_macro_not_micro(self):
        # 9/10 right in class A, 0/1 in class B: macro 45%, micro would be 81.8%
        preds = [0] * 9 + [1] + [0]
        labels = [0] * 10 + [1]
        assert per_class_top1(preds, labels, [0, 1]) == pytest.approx(45.0)

    def test_absent_classes_excluded(self):
        assert per_class_top1([0, 0], [0, 0], [0, 5]) == pytest.approx(100.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            per_class_top1([], [], [0])

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            per_class_top1([0, -1], [0, 1], [0, 1])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5), st.integers(2, 5))
    def test_duplication_invariance(self, k, n_classes):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, n_classes, size=20)
        preds = rng.integers(0, n_classes, size=20)
        base = per_class_top1(preds, labels, range(n_classes))
        dup = per_class_top1(np.tile(preds, k), np.tile(labels, k), range(n_classes))
        assert dup == pytest.approx(base)

    def test_brute_force_oracle_many_fixtures(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n_classes = int(rng.integers(2, 8))
            n = int(rng.integers(1, 40))
            labels = rng.integers(0, n_classes, size=n)
            preds = rng.integers(0, n_classes, size=n)
            # brute force: explicit per-class tally
            accs = []
            for c in range(n_classes):
                hits = total = 0
                for p, l in zip(preds, labels):
                    if l == c:
                        total += 1
                        hits += int(p == c)
                if total:
                    accs.append(hits / total)
            expected = 100.0 * sum(accs) / len(accs)
            assert per_class_top1(preds, labels, range(n_classes)) == pytest.approx(expected)


class TestHarmonicMean:
    # reference generalised-task triples: (u, s, H as printed to one decimal)
    PUBLISHED = [
        (33.5, 28.6, 30.9),
        (29.0, 25.3, 27.0),
        (30.2, 42.2, 35.2),
        (77.9, 81.8, 79.8),
        (79.0, 86.7, 82.7),
        (83.9, 85.7, 84.8),
    ]

    @pytest.mark.parametrize("u,s,h", PUBLISHED)
    def test_reference_triples(self, u, s, h):
        assert harmonic_mean(u, s) == pytest.approx(h, abs=0.05)

    def test_degenerate_cases(self):
        assert harmonic_mean(42.0, 42.0) == pytest.approx(42.0)
        assert harmonic_mean(0.0, 88.0) == 0.0
        assert harmonic_mean(0.0, 0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            harmonic_mean(-1.0, 5.0)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0, 100), st.floats(0, 100))
    def test_bounds(self, u, s):
        h = harmonic_mean(u, s)
        assert h <= (u + s) / 2 + 1e-9
        assert h <= 2 * min(u, s) + 1e-9
        assert h >= 0


@pytest.fixture(scope="module")
def eval_env():
    ds = make_synthetic(
        SyntheticSpec(n_classes=5, seen_count=4, d_x=8, d_a=4, per_class=50, separation=8.0, noise=0.5),
        seed=13,
    )
    split = split_azsl(ds, "transductive", unseen=1, seed=13)
    return ds, split


def make_bundle(model, split, scenario="white", classifier=None):
    gen = nn.mlp_init([nn.LayerSpec(3, 8, nn.ACT_RELU)], nn.ROLE_GENERATOR, 0)
    return ArtifactBundle(
        gen=gen,
        student=model,
        classifier=classifier,
        traces=[],
        transcript=RiskLog(),
        shortfall={},
        cfg=ExperimentConfig(scenario=scenario, teacher_mode=split.teacher_mode),
    )


# The report arithmetic as it was before one confusion matrix fed every figure:
# test-local copies of the old per_class_top1 and _per_class_from_confusion.
def parent_per_class_top1(preds, labels, classes):
    accs = []
    for c in np.asarray(sorted(classes), dtype=np.int64):
        mask = labels == c
        if mask.any():
            accs.append((preds[mask] == c).mean())
    return float(np.mean(accs) * 100.0)


def parent_per_class_from_confusion(confusion, classes):
    out = {}
    for c in classes:
        row = confusion[c]
        total = row.sum()
        if total:
            out[int(c)] = float(row[c] / total * 100.0)
    return out


class TestOneConfusionPerReport:
    def test_reports_equal_the_old_arithmetic(self, monkeypatch):
        rng = np.random.default_rng(11)
        calls = []

        def fake_predict(params, features, class_space):
            # each row's one feature is its label; right 60% of the time where the space allows
            space = np.asarray(sorted(class_space), dtype=np.int64)
            true = features[:, 0].astype(np.int64)
            guess = space[rng.integers(0, len(space), size=len(true))]
            preds = np.where((rng.random(len(true)) < 0.6) & np.isin(true, space), true, guess)
            calls.append(preds)
            return preds

        monkeypatch.setattr(evaluate, "predict", fake_predict)
        checked = rowless = 0
        while checked < 500:
            n_classes = int(rng.integers(2, 13))
            labels = np.repeat(np.arange(n_classes), rng.integers(0, 7, size=n_classes))
            unseen = rng.choice(n_classes, size=int(rng.integers(1, n_classes)), replace=False)
            is_unseen = np.isin(labels, unseen)
            evaluated = rng.random(len(labels)) < 0.7
            split = SplitBundle(
                seen_classes=np.setdiff1d(np.arange(n_classes), unseen),
                unseen_classes=unseen,
                teacher_train=np.flatnonzero(~evaluated),
                client_eval_seen=np.flatnonzero(evaluated & ~is_unseen),
                client_eval_unseen=np.flatnonzero(evaluated & is_unseen),
                teacher_mode=("transductive", "inductive")[checked % 2],
                train_ratio=0.8,
                seed=0,
            )
            if split.client_eval_seen.size == 0 or split.client_eval_unseen.size == 0:
                continue
            ds = Dataset(labels[:, None].astype(np.float64), labels, SemanticTable(np.eye(n_classes)))
            model = linear_model(np.zeros((1, n_classes)))
            bundle = make_bundle(model, split, classifier=model)

            czsl = eval_czsl(bundle, split, ds)
            preds, y = calls[-1], labels[split.client_eval_unseen]
            confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
            np.add.at(confusion, (y, preds), 1)
            assert np.array_equal(czsl.confusion, confusion)
            assert czsl.u == parent_per_class_top1(preds, y, split.unseen_classes)
            assert czsl.per_class == parent_per_class_from_confusion(confusion, split.unseen_classes)
            assert czsl.s is None and czsl.h is None

            gzsl = eval_gzsl(bundle, split, ds)
            preds = calls[-1]
            y = labels[np.concatenate([split.client_eval_seen, split.client_eval_unseen])]
            n_seen = len(split.client_eval_seen)
            s = parent_per_class_top1(preds[:n_seen], y[:n_seen], split.seen_classes)
            u = parent_per_class_top1(preds[n_seen:], y[n_seen:], split.unseen_classes)
            confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
            np.add.at(confusion, (y, preds), 1)
            assert np.array_equal(gzsl.confusion, confusion)
            assert (gzsl.u, gzsl.s, gzsl.h) == (u, s, harmonic_mean(u, s))
            assert gzsl.per_class == parent_per_class_from_confusion(confusion, sorted(set(y.tolist())))
            rowless += len(np.unique(y)) < n_classes
            checked += 1
        assert rowless > 100  # classes without evaluation rows were covered


class TestEvalProtocols:
    def test_oracle_student_scores_100(self, eval_env):
        ds, split = eval_env
        bundle = make_bundle(centroid_model(ds, range(5)), split)
        assert eval_czsl(bundle, split, ds).u == pytest.approx(100.0)
        report = eval_gzsl(bundle, split, ds)
        assert (report.u, report.s, report.h) == (pytest.approx(100.0),) * 3

    def test_random_predictor_near_chance_over_seeds(self, eval_env):
        ds, split = eval_env
        accs = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n = len(split.client_eval_unseen)
            preds = rng.choice([int(split.unseen_classes[0]), int(split.seen_classes[0])], size=n)
            labels = ds.labels[split.client_eval_unseen]
            accs.append(per_class_top1(preds, labels, split.unseen_classes))
        assert abs(np.mean(accs) - 50.0) <= 5.0  # binomial expectation over a 2-way choice

    def test_transductive_czsl_keeps_seen_classes_in_play(self, eval_env):
        ds, split = eval_env
        # a student that dumps every row into a fixed seen class scores 0
        biased = linear_model(np.zeros((8, 5)), biases=np.eye(5)[int(split.seen_classes[0])] * 10.0)
        bundle = make_bundle(biased, split)
        assert eval_czsl(bundle, split, ds).u == 0.0

    def test_fixed_seen_predictor_zeroes_u_and_h(self, eval_env):
        ds, split = eval_env
        biased = linear_model(np.zeros((8, 5)), biases=np.eye(5)[int(split.seen_classes[0])] * 10.0)
        report = eval_gzsl(make_bundle(biased, split), split, ds)
        assert report.u == 0.0 and report.h == 0.0

    def test_report_consistent_with_confusion(self, eval_env):
        ds, split = eval_env
        noisy = centroid_model(ds, range(5))
        noisy.weights[0][...] += np.random.default_rng(3).normal(size=noisy.weights[0].shape) * 0.5
        report = eval_gzsl(make_bundle(noisy, split), split, ds)
        u2 = np.mean([report.confusion[c, c] / report.confusion[c].sum() for c in split.unseen_classes]) * 100
        s2 = np.mean([report.confusion[c, c] / report.confusion[c].sum() for c in split.seen_classes]) * 100
        assert abs(report.u - u2) < 1e-9
        assert abs(report.s - s2) < 1e-9
        assert abs(report.h - harmonic_mean(u2, s2)) < 1e-9

    def test_confusion_row_sums_match_eval_counts(self, eval_env):
        ds, split = eval_env
        report = eval_gzsl(make_bundle(centroid_model(ds, range(5)), split), split, ds)
        rows = np.concatenate([split.client_eval_seen, split.client_eval_unseen])
        for c in range(5):
            assert report.confusion[c].sum() == (ds.labels[rows] == c).sum()

    def test_inductive_needs_classifier(self, eval_env):
        ds, _ = eval_env
        split = split_azsl(ds, "inductive", unseen=1, seed=13)
        bundle = make_bundle(centroid_model(ds, range(5)), split)
        with pytest.raises(ValueError, match="classifier"):
            eval_czsl(bundle, split, ds)

    def test_inductive_uses_classifier_masked_to_unseen(self, eval_env):
        ds, _ = eval_env
        split = split_azsl(ds, "inductive", unseen=1, seed=13)
        clf = centroid_model(ds, range(5), role=nn.ROLE_CLASSIFIER)
        bundle = make_bundle(centroid_model(ds, range(5)), split, classifier=clf)
        assert eval_czsl(bundle, split, ds).u == pytest.approx(100.0)

    def test_render_is_deterministic_and_parseable(self, eval_env):
        ds, split = eval_env
        report = eval_gzsl(make_bundle(centroid_model(ds, range(5)), split), split, ds)
        report.seeds = [7]
        text = render_report(report)
        assert text == render_report(report)
        assert "u: 100.00" in text and "[confusion]" in text

