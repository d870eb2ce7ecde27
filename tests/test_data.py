import struct

import numpy as np
import pytest

from azsl.data import (
    AZB_MAGIC,
    DataError,
    Dataset,
    SemanticTable,
    SyntheticSpec,
    load_features,
    make_synthetic,
    save_features,
    split_azsl,
)
from azsl.seeding import rng_for
from conftest import datasets_equal, peak_bytes


class TestSynthetic:
    def test_zero_noise_collapses_to_class_mean(self):
        spec = SyntheticSpec(n_classes=3, seen_count=2, d_x=6, d_a=4, per_class=10, noise=0.0)
        ds = make_synthetic(spec, seed=1)
        for c in range(3):
            rows = ds.features[ds.labels == c]
            assert np.all(rows == rows[0])

    def test_deterministic(self):
        spec = SyntheticSpec(n_classes=4, seen_count=3, d_x=8, d_a=4, per_class=12)
        assert datasets_equal(make_synthetic(spec, seed=9), make_synthetic(spec, seed=9))
        assert not datasets_equal(make_synthetic(spec, seed=9), make_synthetic(spec, seed=10))

    def test_features_nonnegative_and_semantics_distinct(self):
        ds = make_synthetic(SyntheticSpec(per_class=20), seed=2)
        assert ds.features.min() >= 0.0
        assert len(np.unique(ds.semantics.vectors, axis=0)) == ds.n_classes

    def test_nearest_centroid_oracle(self):
        # separation/noise = 10: held-out rows classified >= 99% by centroids
        spec = SyntheticSpec(n_classes=6, seen_count=4, d_x=24, d_a=8, per_class=60, separation=10.0, noise=1.0)
        ds = make_synthetic(spec, seed=4)
        rng = np.random.default_rng(0)
        idx = rng.permutation(ds.n)
        train, test = idx[: ds.n // 2], idx[ds.n // 2 :]
        centroids = np.stack([ds.features[train][ds.labels[train] == c].mean(axis=0) for c in range(6)])
        d2 = ((ds.features[test][:, None, :] - centroids[None]) ** 2).sum(axis=2)
        acc = (d2.argmin(axis=1) == ds.labels[test]).mean()
        assert acc >= 0.99

    @pytest.mark.parametrize(
        "spec",
        [
            SyntheticSpec(),
            SyntheticSpec(n_classes=20, seen_count=15, separation=1.0),
            SyntheticSpec(noise=0.0),
            SyntheticSpec(per_class=1),
            SyntheticSpec(n_classes=2, seen_count=1, d_x=12, d_a=6, per_class=80, separation=6.0),
        ],
        ids=["default", "hard", "noise0", "per_class1", "two_class"],
    )
    def test_features_are_the_three_line_formula_bit_for_bit(self, spec):
        # the formula as it was written before the features were built in place
        seed = 11
        linkage = np.random.default_rng(spec.link_seed).standard_normal((spec.d_a, spec.d_x)) / np.sqrt(spec.d_a)
        rng = rng_for(seed, "synthetic")
        means = spec.separation * np.maximum(rng.standard_normal((spec.n_classes, spec.d_a)) @ linkage, 0.0)
        labels = np.repeat(np.arange(spec.n_classes), spec.per_class)
        noise = rng.standard_normal((spec.n_classes * spec.per_class, spec.d_x)) * spec.noise
        features = np.maximum(means[labels] + noise, 0.0)
        ds = make_synthetic(spec, seed)
        assert ds.features.tobytes() == features.tobytes()
        assert np.array_equal(ds.labels, labels)

    def test_hard_spec_built_in_place(self):
        # the features are drawn once and scaled, shifted and clamped in that
        # array; the bound is 1.5x their 2.0 MB (measured 1.15x on x86-64;
        # the noise, the gathered means and their sum took it to 3x)
        spec = SyntheticSpec(n_classes=20, seen_count=15, separation=1.0)
        ds, peak = peak_bytes(make_synthetic, spec, seed=3)
        assert peak < 1.5 * ds.features.nbytes

    def test_spec_validation(self):
        with pytest.raises(DataError):
            SyntheticSpec(n_classes=3, seen_count=3)
        with pytest.raises(DataError):
            SyntheticSpec(separation=0.0)


class TestSplit:
    def make(self, per_class=100):
        return make_synthetic(
            SyntheticSpec(n_classes=10, seen_count=8, d_x=4, d_a=3, per_class=per_class), seed=7
        )

    def test_inductive_excludes_unseen_from_teacher(self):
        ds = self.make()
        split = split_azsl(ds, "inductive", unseen=2, seed=1)
        train_labels = set(ds.labels[split.teacher_train].tolist())
        assert train_labels == set(split.seen_classes.tolist())
        assert len(split.client_eval_unseen) == 2 * 100  # every unseen row evaluates

    def test_transductive_ratio_80_20(self):
        ds = self.make(per_class=100)
        split = split_azsl(ds, "transductive", unseen=2, seed=1)
        for c in split.unseen_classes:
            n_train = (ds.labels[split.teacher_train] == c).sum()
            n_eval = (ds.labels[split.client_eval_unseen] == c).sum()
            assert (n_train, n_eval) == (80, 20)

    def test_floor_on_eval_side(self):
        # 101 rows at 4:1 -> eval floor(101 * 0.2) = 20, teacher 81
        ds = self.make(per_class=101)
        split = split_azsl(ds, "transductive", unseen=2, seed=0)
        c = split.unseen_classes[0]
        assert (ds.labels[split.client_eval_unseen] == c).sum() == 20
        assert (ds.labels[split.teacher_train] == c).sum() == 81

    def test_partition_property(self):
        ds = self.make(per_class=37)
        for mode in ("inductive", "transductive"):
            split = split_azsl(ds, mode, unseen=3, seed=5)
            pooled = np.concatenate([split.teacher_train, split.client_eval_seen, split.client_eval_unseen])
            assert len(np.unique(pooled)) == len(pooled) == ds.n

    def test_explicit_unseen_classes(self):
        ds = self.make(per_class=10)
        split = split_azsl(ds, "inductive", unseen=[8, 9], seed=0)
        assert split.unseen_classes.tolist() == [8, 9]

    def test_transductive_needs_two_rows(self):
        ds = Dataset(
            features=np.ones((3, 2)),
            labels=np.array([0, 0, 1]),
            semantics=SemanticTable(np.arange(4.0).reshape(2, 2)),
        )
        with pytest.raises(DataError, match="cannot split"):
            split_azsl(ds, "transductive", unseen=[1], seed=0)

    def test_benchmark_scale_ratio_arithmetic(self):
        # benchmark-scale counts (6333 teacher / 1591 eval rows in the unseen
        # pool) follow from the ratio parameter at that pool size
        n_unseen = 6333 + 1591
        ds = Dataset(
            features=np.ones((10 + n_unseen, 2)),
            labels=np.array([0] * 10 + [1] * n_unseen),
            semantics=SemanticTable(np.arange(4.0).reshape(2, 2)),
        )
        split = split_azsl(ds, "transductive", unseen=[1], unseen_train_ratio=6333 / n_unseen, seed=0)
        assert (ds.labels[split.teacher_train] == 1).sum() == 6333
        assert (ds.labels[split.client_eval_unseen] == 1).sum() == 1591

    def test_deterministic_and_recorded(self):
        ds = self.make()
        a = split_azsl(ds, "transductive", unseen=2, seed=3)
        b = split_azsl(ds, "transductive", unseen=2, seed=3)
        assert np.array_equal(a.teacher_train, b.teacher_train)
        assert a.seed == 3 and a.train_ratio == 0.8

    def test_teacher_classes_property(self):
        ds = self.make(per_class=10)
        ind = split_azsl(ds, "inductive", unseen=2, seed=1)
        trans = split_azsl(ds, "transductive", unseen=2, seed=1)
        assert np.array_equal(ind.teacher_classes, ind.seen_classes)
        assert np.array_equal(trans.teacher_classes, np.arange(10))


class TestFileFormats:
    def small(self):
        return make_synthetic(SyntheticSpec(n_classes=3, seen_count=2, d_x=5, d_a=4, per_class=6), seed=11)

    def test_azb_round_trip_bit_exact(self, tmp_path):
        ds = self.small()
        path = tmp_path / "toy.azb"
        save_features(ds, path)
        back = load_features(path)
        assert datasets_equal(ds, back)
        assert np.array_equal(ds.features, back.features)  # bitwise, not just close

    def test_azb_preserves_class_means(self, tmp_path):
        ds = self.small()
        path = tmp_path / "toy.azb"
        save_features(ds, path)
        back = load_features(path)
        for c in range(ds.n_classes):
            before = ds.features[ds.labels == c].mean(axis=0)
            after = back.features[back.labels == c].mean(axis=0)
            assert np.allclose(before, after, atol=1e-12, rtol=0)

    def test_csv_round_trip(self, tmp_path):
        ds = self.small()
        path = tmp_path / "toy.csv"
        save_features(ds, path)
        back = load_features(path)
        assert datasets_equal(ds, back)

    def test_csv_single_row(self, tmp_path):
        ds = Dataset(
            features=np.array([[1.5, -2.25]]),
            labels=np.array([0]),
            semantics=SemanticTable(np.array([[0.5]])),
        )
        path = tmp_path / "one.csv"
        save_features(ds, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "label,f0,f1"
        assert len(lines) == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("label,f0\n")
        with pytest.raises(DataError, match="no rows"):
            load_features(path)

    def test_csv_fixture_shape(self, tmp_path):
        (tmp_path / "fix.csv").write_text(
            "label,f0,f1,f2,f3\n" "a,1,2,3,4\n" "b,5,6,7,8\n" "a,0,0,1,1\n"
        )
        (tmp_path / "fix.sem.csv").write_text("class,s0,s1\n" "a,0.1,0.2\n" "b,0.3,0.4\n")
        ds = load_features(tmp_path / "fix.csv")
        assert (ds.n, ds.d_x, ds.n_classes, ds.d_a) == (3, 4, 2, 2)
        assert ds.class_names == ["a", "b"]
        assert ds.labels.tolist() == [0, 1, 0]

    def test_dimension_error_reports_row(self, tmp_path):
        (tmp_path / "bad.csv").write_text("label,f0,f1\n0,1,2\n0,1\n")
        (tmp_path / "bad.sem.csv").write_text("class,s0\n0,0.5\n")
        with pytest.raises(DataError, match=":3"):
            load_features(tmp_path / "bad.csv")

    def test_unknown_class_id(self, tmp_path):
        (tmp_path / "bad.sem.csv").write_text("class,s0\n0,0.5\n")
        # the error names the id's own line, blank lines included
        for text, line in [("label,f0\n0,1\n7,2\n", 3), ("label,f0\n0,1\n\n7,2\n", 4)]:
            (tmp_path / "bad.csv").write_text(text)
            with pytest.raises(DataError, match=rf"bad\.csv:{line}: unknown class id '7'"):
                load_features(tmp_path / "bad.csv")

    def test_semantic_csv_without_value_columns(self, tmp_path):
        (tmp_path / "bare.csv").write_text("label,f0\n0,1\n1,2\n")
        (tmp_path / "bare.sem.csv").write_text("class\n0\n1\n")
        with pytest.raises(DataError, match=r"bare\.sem\.csv:1: header needs an id column"):
            load_features(tmp_path / "bare.csv")

    def test_azb_without_semantic_columns(self, tmp_path):
        path = tmp_path / "bare.azb"
        feats, labels = np.ones((4, 2)), np.arange(4)
        path.write_bytes(
            AZB_MAGIC + struct.pack("<4I", 4, 2, 4, 0) + feats.astype("<f8").tobytes() + labels.astype("<u4").tobytes()
        )
        with pytest.raises(DataError, match="at least one column"):
            load_features(path)

    def test_azb_without_feature_columns(self, tmp_path):
        # d_x = 0 used to load and fail only when the teacher was built
        path = tmp_path / "nofeat.azb"
        labels, sem = np.arange(4) % 2, np.eye(2)
        path.write_bytes(
            AZB_MAGIC + struct.pack("<4I", 4, 0, 2, 2) + labels.astype("<u4").tobytes() + sem.astype("<f8").tobytes()
        )
        with pytest.raises(DataError, match="features need at least one column"):
            load_features(path)
        with pytest.raises(DataError, match="features need at least one column"):
            Dataset(features=np.zeros((4, 0)), labels=labels, semantics=SemanticTable(sem))

    def test_azb_size_mismatch_names_both_sizes(self, tmp_path):
        ds = Dataset(features=np.ones((1, 2)), labels=np.array([0]), semantics=SemanticTable(np.array([[0.5, 1.0]])))
        path = tmp_path / "one.azb"
        save_features(ds, path)
        blob = path.read_bytes()
        assert len(blob) == 56
        path.write_bytes(blob + b"\x00\x00")
        with pytest.raises(DataError, match=r"too long \(expected 56 bytes, got 58\)") as exc:
            load_features(path)
        assert "truncated" not in str(exc.value)
        path.write_bytes(blob[:-2])
        with pytest.raises(DataError, match=r"truncated \(expected 56 bytes, got 54\)"):
            load_features(path)

    def test_semantic_table_without_columns(self):
        with pytest.raises(DataError, match="at least one column"):
            SemanticTable(np.zeros((4, 0)))

    def test_duplicate_semantic_class_id(self, tmp_path):
        # a repeated id would leave another class's semantic row unset
        (tmp_path / "dup.csv").write_text("label,f0\n0,1\n1,2\n")
        (tmp_path / "dup.sem.csv").write_text("class,s0\n0,0.5\n1,0.25\n0,0.75\n")
        with pytest.raises(DataError, match=r"dup\.sem\.csv:4: duplicate class id '0'"):
            load_features(tmp_path / "dup.csv")

    def test_non_finite_rejected(self, tmp_path):
        (tmp_path / "bad.csv").write_text("label,f0\n0,nan\n")
        (tmp_path / "bad.sem.csv").write_text("class,s0\n0,0.5\n")
        with pytest.raises(DataError, match="non-finite"):
            load_features(tmp_path / "bad.csv")

    def test_azb_magic_check(self, tmp_path):
        path = tmp_path / "junk.azb"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DataError, match="not an azb"):
            load_features(path)

    def test_missing_file(self):
        with pytest.raises(DataError, match="no such file"):
            load_features("/definitely/not/here.azb")
