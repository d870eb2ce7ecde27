import dataclasses

import numpy as np
import pytest

from azsl import regularizers
from azsl.data import Dataset, SemanticTable, SyntheticSpec, make_synthetic, split_azsl
from azsl.regularizers import (
    MMD_REF_CAP,
    VAR_FLOOR,
    RegularizerState,
    _pairwise_sq_dists,
    fit_regularizer,
    reg_value_grad,
)
from conftest import peak_bytes


def fixture_dataset():
    feats = np.array(
        [
            [1.0, 2.0],
            [3.0, 4.0],
            [5.0, 0.0],
            [2.0, 2.0],
            [4.0, 6.0],
            [0.5, 0.5],
            [0.5, 0.5],
        ]
    )
    labels = np.array([0, 0, 0, 0, 0, 1, 1])
    sem = SemanticTable(np.array([[0.0], [1.0]]))
    return Dataset(features=feats, labels=labels, semantics=sem)


def identity_split(dataset):
    # everything is teacher training data; nothing held out
    return split_azsl(dataset, "transductive", unseen=[1], unseen_train_ratio=0.99, seed=0)


def full_train_split(dataset):
    from azsl.data import SplitBundle

    return SplitBundle(
        seen_classes=np.array([0]),
        unseen_classes=np.array([1]),
        teacher_train=np.arange(dataset.n),
        client_eval_seen=np.array([], dtype=np.int64),
        client_eval_unseen=np.array([], dtype=np.int64),
        teacher_mode="transductive",
        train_ratio=1.0,
        seed=0,
    )


class TestFit:
    def test_kl_stats_match_hand_computation(self):
        ds = fixture_dataset()
        state = fit_regularizer(ds, full_train_split(ds), "kl")
        rows = ds.features[:5]
        # plain-python mean/population-variance oracle
        mean = [sum(rows[:, d]) / 5 for d in range(2)]
        var = [sum((rows[:, d] - mean[d]) ** 2) / 5 for d in range(2)]
        assert np.allclose(state.class_means[0], mean, atol=1e-12, rtol=0)
        assert np.allclose(state.class_vars[0], var, atol=1e-12, rtol=0)

    def test_identical_rows_floor_variance(self):
        ds = fixture_dataset()
        state = fit_regularizer(ds, full_train_split(ds), "kl")
        assert np.all(state.class_vars[1] == VAR_FLOOR)

    def test_small_class_falls_back_to_global(self):
        feats = np.vstack([np.random.default_rng(0).normal(size=(6, 3)), [[9.0, 9.0, 9.0]]])
        ds = Dataset(
            features=np.abs(feats),
            labels=np.array([0, 0, 0, 0, 0, 0, 1]),
            semantics=SemanticTable(np.array([[0.0], [1.0]])),
        )
        state = fit_regularizer(ds, full_train_split(ds), "kl")
        assert 1 not in state.class_means  # single row: no per-class stats
        value, grad = reg_value_grad(state, np.ones((3, 3)), [1, 1, 1])
        assert np.isfinite(value) and np.isfinite(grad).all()

    def test_mmd_reference_capped_and_bandwidth_positive(self):
        ds = make_synthetic(SyntheticSpec(n_classes=3, seen_count=2, d_x=4, d_a=3, per_class=300), seed=0)
        state = fit_regularizer(ds, full_train_split_all(ds), "mmd")
        assert all(len(ref) <= MMD_REF_CAP for ref in state.class_refs.values())
        assert state.bandwidth_sq > 0

    def test_unknown_kind(self):
        ds = fixture_dataset()
        with pytest.raises(ValueError, match="kind"):
            fit_regularizer(ds, full_train_split(ds), "wasserstein")


def old_fit(dataset, split, kind):
    """fit_regularizer's statistics as it computed them from one copy of all training rows."""
    rows = split.teacher_train
    feats = dataset.features[rows]
    labels = dataset.labels[rows]
    if kind == "kl":
        means, variances = {}, {}
        for c in np.unique(labels):
            cls = feats[labels == c]
            if len(cls) < 2:
                continue
            means[int(c)] = cls.mean(axis=0)
            variances[int(c)] = np.maximum(cls.var(axis=0), VAR_FLOOR)
        return means, variances, feats.mean(axis=0), np.maximum(feats.var(axis=0), VAR_FLOOR)
    refs = {int(c): feats[labels == c][:MMD_REF_CAP].copy() for c in np.unique(labels)}
    pooled = np.concatenate(list(refs.values()))[: regularizers.MMD_POOL_CAP]
    sq = _pairwise_sq_dists(pooled, pooled)
    off_diag = sq[~np.eye(len(pooled), dtype=bool)]
    bandwidth_sq = float(max(np.median(off_diag), 1e-12)) if off_diag.size else 1.0
    return refs, feats[:MMD_REF_CAP].copy(), bandwidth_sq


def hard_spec_split(mode="transductive"):
    """The benchmark's 20-class spec, split as its workloads split it."""
    ds = make_synthetic(SyntheticSpec(n_classes=20, seen_count=15, separation=1.0), seed=3)
    return ds, split_azsl(ds, mode, unseen=5, seed=3)


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFitHoldsEachRowOnce:
    @pytest.mark.parametrize(
        "case",
        ["hard-transductive", "hard-inductive", "one-column", "single-row-class", "over-the-caps"],
    )
    def test_fit_is_the_old_fit_bit_for_bit(self, case):
        if case.startswith("hard"):
            ds, split = hard_spec_split(case.split("-")[1])
        elif case == "one-column":
            ds = make_synthetic(SyntheticSpec(n_classes=4, seen_count=3, d_x=1, d_a=3, per_class=50), seed=4)
            split = split_azsl(ds, "transductive", unseen=1, seed=4)
        elif case == "single-row-class":
            feats = np.abs(np.random.default_rng(5).normal(size=(9, 3)))
            ds = Dataset(feats, np.array([0, 0, 0, 0, 1, 0, 0, 0, 0]), SemanticTable(np.eye(2)))
            split = full_train_split(ds)
        else:
            # more rows per class than MMD_REF_CAP, more pooled than MMD_POOL_CAP
            ds = make_synthetic(SyntheticSpec(n_classes=3, seen_count=2, d_x=4, d_a=3, per_class=300), seed=0)
            split = full_train_split_all(ds)
        means, variances, global_mean, global_var = old_fit(ds, split, "kl")
        kl = fit_regularizer(ds, split, "kl")
        assert list(kl.class_means) == list(means) and list(kl.class_vars) == list(variances)
        assert all(same_bytes(kl.class_means[c], means[c]) for c in means)
        assert all(same_bytes(kl.class_vars[c], variances[c]) for c in variances)
        assert same_bytes(kl.global_mean, global_mean) and same_bytes(kl.global_var, global_var)
        refs, global_ref, bandwidth_sq = old_fit(ds, split, "mmd")
        mmd = fit_regularizer(ds, split, "mmd")
        assert mmd.bandwidth_sq.hex() == bandwidth_sq.hex()
        assert list(mmd.class_refs) == list(refs)
        assert all(same_bytes(mmd.class_refs[c], refs[c]) for c in refs)
        assert same_bytes(mmd.global_ref, global_ref)
        # the state owns its arrays: the dataset can change after the fit
        assert not any(np.shares_memory(a, ds.features) for a in [*mmd.class_refs.values(), mmd.global_ref])

    def test_mmd_fit_copies_no_training_rows_twice(self):
        # 3200 training rows of 64 columns (1.6 MB). The fit gathers the
        # references (all 3200 rows here: 160 a class) and the 512 pooled
        # rows from the dataset, then holds the 512 x 512 distances (2 MB),
        # the off-diagonal (2 MB) and its mask until the distances go; the
        # median partitions the off-diagonal in place. Measured 6.4 MB on
        # x86-64; the bound is 7.8 MB, about 20% over that. A copy of all the
        # rows, a second distance matrix or a copy for the median would each
        # cross it (with all three the peak was 11.4 MB).
        ds, split = hard_spec_split()
        assert len(split.teacher_train) == 3200
        state, peak = peak_bytes(fit_regularizer, ds, split, "mmd")
        assert sum(len(r) for r in state.class_refs.values()) == 3200
        assert peak < 7.8e6


def full_train_split_all(dataset):
    from azsl.data import SplitBundle

    classes = np.arange(dataset.n_classes)
    return SplitBundle(
        seen_classes=classes[:-1],
        unseen_classes=classes[-1:],
        teacher_train=np.arange(dataset.n),
        client_eval_seen=np.array([], dtype=np.int64),
        client_eval_unseen=np.array([], dtype=np.int64),
        teacher_mode="transductive",
        train_ratio=1.0,
        seed=0,
    )


class TestKl:
    def setup_method(self):
        self.ds = make_synthetic(
            SyntheticSpec(n_classes=3, seen_count=2, d_x=5, d_a=3, per_class=40), seed=1
        )
        self.state = fit_regularizer(self.ds, full_train_split_all(self.ds), "kl")

    def test_identity_on_matching_statistics(self):
        # the fitted rows themselves have exactly the fitted statistics
        for c in range(3):
            batch = self.ds.features[self.ds.labels == c]
            value, _ = reg_value_grad(self.state, batch, np.full(len(batch), c))
            assert abs(value) <= 1e-9

    def test_positive_when_shifted(self):
        batch = self.ds.features[self.ds.labels == 0] + 3.0
        value, _ = reg_value_grad(self.state, batch, np.zeros(len(batch), dtype=int))
        assert value > 0.1

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(3)
        batch = np.abs(rng.normal(size=(12, 5))) + 0.5
        labels = rng.integers(0, 3, size=12)
        _, grad = reg_value_grad(self.state, batch, labels)
        eps = 1e-5
        worst = 0.0
        for _ in range(200):
            i, j = rng.integers(0, 12), rng.integers(0, 5)
            hi = batch.copy()
            hi[i, j] += eps
            lo = batch.copy()
            lo[i, j] -= eps
            num = (
                reg_value_grad(self.state, hi, labels)[0] - reg_value_grad(self.state, lo, labels)[0]
            ) / (2 * eps)
            worst = max(worst, abs(grad[i, j] - num) / max(abs(num), abs(grad[i, j]), 1e-6))
        assert worst < 1e-4

    def test_single_row_class_stays_finite(self):
        value, grad = reg_value_grad(self.state, np.ones((1, 5)), [0])
        assert np.isfinite(value) and np.isfinite(grad).all()


class TestMmd:
    def setup_method(self):
        self.ds = make_synthetic(
            SyntheticSpec(n_classes=3, seen_count=2, d_x=5, d_a=3, per_class=30), seed=2
        )
        self.state = fit_regularizer(self.ds, full_train_split_all(self.ds), "mmd")

    def test_self_mmd_is_zero(self):
        ref = self.state.class_refs[0]
        value, _ = reg_value_grad(self.state, ref, np.zeros(len(ref), dtype=int))
        assert abs(value) <= 1e-9

    def test_never_meaningfully_negative(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            batch = np.abs(rng.normal(size=(rng.integers(2, 15), 5)))
            labels = rng.integers(0, 3, size=len(batch))
            value, _ = reg_value_grad(self.state, batch, labels)
            assert value >= -1e-12

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(5)
        batch = np.abs(rng.normal(size=(10, 5))) + 0.2
        labels = rng.integers(0, 3, size=10)
        _, grad = reg_value_grad(self.state, batch, labels)
        eps = 1e-5
        worst = 0.0
        for _ in range(200):
            i, j = rng.integers(0, 10), rng.integers(0, 5)
            hi = batch.copy()
            hi[i, j] += eps
            lo = batch.copy()
            lo[i, j] -= eps
            num = (
                reg_value_grad(self.state, hi, labels)[0] - reg_value_grad(self.state, lo, labels)[0]
            ) / (2 * eps)
            worst = max(worst, abs(grad[i, j] - num) / max(abs(num), abs(grad[i, j]), 1e-6))
        assert worst < 1e-4


def uncached_mmd_class(rows, ref, h2):
    """_mmd_class as it was before the self-kernel mean was cached."""
    n, m = len(rows), len(ref)
    k_xx = np.exp(-_pairwise_sq_dists(rows, rows) / h2)
    k_yy = np.exp(-_pairwise_sq_dists(ref, ref) / h2)
    k_xy = np.exp(-_pairwise_sq_dists(rows, ref) / h2)
    value = k_xx.mean() + k_yy.mean() - 2.0 * k_xy.mean()
    grad = (-4.0 / (n * n * h2)) * (k_xx.sum(axis=1, keepdims=True) * rows - k_xx @ rows)
    grad += (4.0 / (n * m * h2)) * (k_xy.sum(axis=1, keepdims=True) * rows - k_xy @ ref)
    return float(value), grad


def uncached_value_grad(state, batch, labels):
    """reg_value_grad's MMD branch built on uncached_mmd_class."""
    grad = np.zeros_like(batch)
    classes = np.unique(labels)
    total = 0.0
    for c in classes:
        mask = labels == c
        ref = state.class_refs.get(int(c), state.global_ref)
        value_c, grad_c = uncached_mmd_class(batch[mask], ref, state.bandwidth_sq)
        total += value_c
        grad[mask] = grad_c
    return total / len(classes), grad / len(classes)


class TestMmdCache:
    """The cached mean k(ref, ref) changes no bit of any value or gradient."""

    def setup_method(self):
        self.ds = make_synthetic(
            SyntheticSpec(n_classes=4, seen_count=3, d_x=6, d_a=3, per_class=50), seed=6
        )
        # class 3 has no training rows, so requests for it use global_ref
        self.split = dataclasses.replace(
            full_train_split_all(self.ds), teacher_train=np.flatnonzero(self.ds.labels != 3)
        )
        rng = np.random.default_rng(7)
        self.batch = np.abs(rng.normal(size=(24, 6)))
        self.labels = np.repeat(np.arange(4), 6)

    def assert_matches_uncached(self, state):
        value, grad = reg_value_grad(state, self.batch, self.labels)
        ref_value, ref_grad = uncached_value_grad(state, self.batch, self.labels)
        assert value == ref_value
        assert (grad == ref_grad).all()

    def test_fitted_state_with_global_fallback(self):
        state = fit_regularizer(self.ds, self.split, "mmd")
        assert 3 not in state.class_refs and state.global_ref is not None
        self.assert_matches_uncached(state)

    def test_directly_constructed_state(self):
        rng = np.random.default_rng(8)
        refs = {c: rng.standard_normal((9, 6)) for c in range(3)}
        state = RegularizerState("mmd", class_refs=refs, global_ref=rng.standard_normal((11, 6)), bandwidth_sq=4.0)
        self.assert_matches_uncached(state)
        without_fallback = RegularizerState("mmd", class_refs=refs, bandwidth_sq=4.0)
        with pytest.raises(ValueError, match="no reference rows for class 3"):
            reg_value_grad(without_fallback, self.batch, self.labels)

    def test_reference_kernel_built_once_per_set(self, monkeypatch):
        pairs, normed = [], []
        kernel, sq_norms = regularizers._kernel, regularizers._sq_norms

        def recording_kernel(a, a_sq, b, b_sq, h2):
            pairs.append((a, b))
            return kernel(a, a_sq, b, b_sq, h2)

        def recording_norms(a):
            normed.append(a)
            return sq_norms(a)

        monkeypatch.setattr(regularizers, "_kernel", recording_kernel)
        monkeypatch.setattr(regularizers, "_sq_norms", recording_norms)
        state = fit_regularizer(self.ds, self.split, "mmd")
        refs = [*state.class_refs.values(), state.global_ref]

        def ref_self_kernels():
            return sum(1 for a, b in pairs if a is b and any(a is r for r in refs))

        def ref_norms():
            return sum(1 for a in normed if any(a is r for r in refs))

        assert ref_self_kernels() == len(refs)
        assert ref_norms() == len(refs)
        fitted_pairs, fitted_norms = len(pairs), len(normed)
        for _ in range(3):
            reg_value_grad(state, self.batch, self.labels)
        assert len(pairs) == fitted_pairs + 3 * 2 * 4  # k_xx and k_xy per class per request
        assert len(normed) == fitted_norms + 3  # the whole batch once per request
        assert ref_self_kernels() == len(refs)
        assert ref_norms() == len(refs)


def looped_sq_dists(a, b):
    """_pairwise_sq_dists as it was, before it ran in place."""
    aa = (a * a).sum(axis=1)[:, None]
    bb = (b * b).sum(axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * (a @ b.T), 0.0)


def looped_mmd_value_grad(state, batch, labels, k_yy_means):
    """reg_value_grad's MMD branch as the per-class loop it was, with a mask per class.

    k_yy_means maps each class to mean k(ref, ref) of the reference set it uses.
    """
    h2 = state.bandwidth_sq
    grad = np.zeros_like(batch)
    classes = np.unique(labels)
    total = 0.0
    for c in classes.tolist():
        mask = labels == c
        rows = batch[mask]
        ref = state.class_refs.get(c, state.global_ref)
        n, m = len(rows), len(ref)
        k_xx = np.exp(-looped_sq_dists(rows, rows) / h2)
        k_xy = np.exp(-looped_sq_dists(rows, ref) / h2)
        value = k_xx.mean() + k_yy_means[c] - 2.0 * k_xy.mean()
        grad_c = (-4.0 / (n * n * h2)) * (k_xx.sum(axis=1, keepdims=True) * rows - k_xx @ rows)
        grad_c += (4.0 / (n * m * h2)) * (k_xy.sum(axis=1, keepdims=True) * rows - k_xy @ ref)
        total += float(value)
        grad[mask] = grad_c
    grad /= len(classes)
    return total / len(classes), grad


class TestSortedMmd:
    """Class slices of one sorted batch, cached norms and in-place kernels change no bit."""

    REF_SIZES = (256, 100, 37, 7, 2, 1)

    def state(self, d, rng, n_classes):
        """Per-class refs of mixed sizes up to MMD_REF_CAP; the last class falls back to global_ref."""
        refs = {
            c: np.maximum(rng.normal(size=(self.REF_SIZES[c % len(self.REF_SIZES)], d)), 0.0)
            for c in range(n_classes - 1)
        }
        global_ref = np.maximum(rng.normal(size=(MMD_REF_CAP, d)), 0.0)
        state = RegularizerState("mmd", class_refs=refs, global_ref=global_ref,
                                 bandwidth_sq=float(rng.uniform(0.2, 2.0) * d))
        k_yy_means = {
            c: np.exp(-looped_sq_dists(r, r) / state.bandwidth_sq).mean()
            for c, r in [*refs.items(), (n_classes - 1, global_ref)]
        }
        return state, k_yy_means

    def assert_matches_loop(self, state, k_yy_means, batch, labels):
        value, grad = reg_value_grad(state, batch, labels)
        loop_value, loop_grad = looped_mmd_value_grad(state, batch, labels, k_yy_means)
        assert value == loop_value
        assert (grad == loop_grad).all()
        assert (np.signbit(grad) == np.signbit(loop_grad)).all()

    def test_random_batches(self):
        rng = np.random.default_rng(11)
        states = [(d, n_classes, *self.state(d, rng, n_classes))
                  for d, n_classes in [(2, 4), (5, 9), (16, 20), (64, 20)]]
        for trial in range(1000):
            d, n_classes, state, k_yy_means = states[trial % len(states)]
            # 1 to 2000 rows, log-uniform: mostly feedback-sized, some quota-sized
            n = 2000 if trial % 100 == 0 else int(np.exp(rng.uniform(0.0, np.log(2000))))
            batch = np.maximum(rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0), 0.0)  # ReLU zeros
            labels = rng.integers(0, n_classes, size=n)
            if n > 1 and trial % 3 == 0:  # the fallback class as a single-row class
                labels[labels == n_classes - 1] = rng.integers(0, n_classes - 1)
                labels[rng.integers(n)] = n_classes - 1
            self.assert_matches_loop(state, k_yy_means, batch, labels)

    def test_single_row_classes_and_all_zero_rows(self):
        rng = np.random.default_rng(12)
        state, k_yy_means = self.state(6, rng, 5)
        batch = np.maximum(rng.normal(size=(5, 6)), 0.0)
        batch[2] = 0.0
        self.assert_matches_loop(state, k_yy_means, batch, np.array([4, 0, 3, 1, 2]))
        self.assert_matches_loop(state, k_yy_means, np.zeros((3, 6)), np.array([1, 1, 4]))

    def test_fitted_state(self):
        ds = make_synthetic(SyntheticSpec(n_classes=4, seen_count=3, d_x=6, d_a=3, per_class=300), seed=6)
        split = dataclasses.replace(full_train_split_all(ds), teacher_train=np.flatnonzero(ds.labels != 3))
        state = fit_regularizer(ds, split, "mmd")
        assert all(len(r) == MMD_REF_CAP for r in state.class_refs.values())
        k_yy_means = {c: np.exp(-looped_sq_dists(r, r) / state.bandwidth_sq).mean()
                      for c, r in [*state.class_refs.items(), (3, state.global_ref)]}
        rng = np.random.default_rng(13)
        batch = np.maximum(rng.normal(size=(64, 6)) * 5.0, 0.0)
        self.assert_matches_loop(state, k_yy_means, batch, rng.integers(0, 4, size=64))


class TestNoneKind:
    def test_zero_value_and_grad(self):
        state = RegularizerState(kind="none")
        value, grad = reg_value_grad(state, np.ones((4, 3)), [0, 1, 0, 1])
        assert value == 0.0
        assert (grad == 0).all()


def looped_kl_class(rows, mu, var):
    """_kl_class as it was for one class at a time, before the classes were batched."""
    n = len(rows)
    m = rows.mean(axis=0)
    v_raw = rows.var(axis=0)
    v = np.maximum(v_raw, VAR_FLOOR)
    value = 0.5 * np.sum(np.log(var / v) + (v + (m - mu) ** 2) / var - 1.0)
    dv = 0.5 * (1.0 / var - 1.0 / v) * (v_raw > VAR_FLOOR)
    dm = (m - mu) / var
    grad = (dm + (rows - m) * (2.0 * dv)) / n
    return float(value), grad


def looped_kl_value_grad(state, batch, labels):
    """reg_value_grad's KL branch as the per-class loop it was."""
    grad = np.zeros_like(batch)
    classes = np.unique(labels)
    total = 0.0
    for c in classes:
        mask = labels == c
        mu = state.class_means.get(int(c), state.global_mean)
        var = state.class_vars.get(int(c), state.global_var)
        if mu is None:
            raise ValueError(f"no statistics for class {c} and no global fallback")
        value_c, grad_c = looped_kl_class(batch[mask], mu, var)
        total += value_c
        grad[mask] = grad_c
    return total / len(classes), grad / len(classes)


class TestBatchedKl:
    """All classes of a request at once change no bit of the value or the gradient."""

    D = 6

    def state(self, classes=range(5), seed=0):
        rng = np.random.default_rng(seed)
        return RegularizerState(
            "kl",
            class_means={c: rng.normal(size=self.D) for c in classes},
            class_vars={c: rng.uniform(0.05, 2.0, size=self.D) for c in classes},
            global_mean=rng.normal(size=self.D),
            global_var=rng.uniform(0.05, 2.0, size=self.D),
        )

    def assert_matches_loop(self, state, batch, labels):
        value, grad = reg_value_grad(state, batch, labels)
        loop_value, loop_grad = looped_kl_value_grad(state, batch, np.asarray(labels))
        assert value == loop_value
        assert (grad == loop_grad).all()
        # the -0.0 padding keeps even the sign of zero
        assert (np.signbit(grad) == np.signbit(loop_grad)).all()

    def test_relu_like_rows_of_uneven_classes(self):
        rng = np.random.default_rng(1)
        batch = np.maximum(rng.normal(size=(64, self.D)), 0.0)
        self.assert_matches_loop(self.state(), batch, rng.integers(0, 5, size=64))

    def test_single_row_classes(self):
        rng = np.random.default_rng(2)
        batch = np.abs(rng.normal(size=(5, self.D)))
        self.assert_matches_loop(self.state(), batch, [4, 0, 3, 1, 2])
        # one single-row class next to a large one
        self.assert_matches_loop(self.state(), np.abs(rng.normal(size=(9, self.D))), [0] * 8 + [3])

    def test_class_missing_from_statistics_uses_global_fallback(self):
        rng = np.random.default_rng(3)
        batch = np.abs(rng.normal(size=(30, self.D)))
        labels = rng.integers(0, 8, size=30)  # classes 5..7 have no statistics of their own
        assert {5, 6, 7} & set(labels.tolist())
        self.assert_matches_loop(self.state(), batch, labels)

    def test_no_fallback_is_an_error(self):
        state = dataclasses.replace(self.state(), global_mean=None, global_var=None)
        with pytest.raises(ValueError, match="no statistics for class 7 and no global fallback"):
            reg_value_grad(state, np.ones((3, self.D)), [0, 7, 1])

    def test_constant_columns_hit_the_floor(self):
        rng = np.random.default_rng(4)
        batch = np.abs(rng.normal(size=(40, self.D)))
        batch[:, 0] = 2.5
        batch[:, 3] = -0.0
        self.assert_matches_loop(self.state(), batch, rng.integers(0, 5, size=40))

    def test_quota_sized_batch(self):
        rng = np.random.default_rng(5)
        batch = np.maximum(rng.normal(size=(2000, self.D)) * 3.0, 0.0)
        labels = np.sort(rng.integers(0, 15, size=2000))
        self.assert_matches_loop(self.state(classes=range(12)), batch, labels)

    def test_fitted_state(self):
        ds = make_synthetic(SyntheticSpec(n_classes=4, seen_count=3, d_x=6, d_a=3, per_class=50), seed=6)
        state = fit_regularizer(ds, full_train_split_all(ds), "kl")
        rng = np.random.default_rng(6)
        self.assert_matches_loop(state, np.abs(rng.normal(size=(64, 6))), rng.integers(0, 4, size=64))


class TestEmptyBatch:
    @pytest.mark.parametrize("kind", ["kl", "mmd"])
    def test_zero_rows_is_a_clear_error(self, kind):
        ds = make_synthetic(SyntheticSpec(n_classes=3, seen_count=2, d_x=4, d_a=3, per_class=30), seed=0)
        state = fit_regularizer(ds, full_train_split_all(ds), kind)
        with pytest.raises(ValueError, match="empty batch"):
            reg_value_grad(state, np.zeros((0, 4)), np.zeros(0, dtype=np.int64))
