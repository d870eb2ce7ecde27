"""Distribution regularizers the server evaluates on uploaded batches.

Both kinds compare generated rows against statistics of the real features,
per conditioning class, and return an analytic gradient w.r.t. the batch.
Real rows themselves never leave this module: KL keeps only mean/variance,
MMD keeps a reference subsample plus its precomputed self-kernel mean
(mean k(ref, ref)), both used server-side only. That term does not depend on
the uploaded batch, so it is computed once per reference set when the state is
built, not on every request.

KL is evaluated for all classes of a request at once: the rows are scattered
into one (classes, max rows, d) block padded with -0.0, whose sums over the row
axis are each class's own sums bit for bit, so the value and the gradient are
those of a loop over the classes. (For d = 1 numpy sums a single column
pairwise, so there they can differ from such a loop in the last bit.) MMD
still loops over the classes, because a batched kernel would sum in a
different order.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, SplitBundle

REG_NONE = "none"
REG_KL = "kl"
REG_MMD = "mmd"
REG_KINDS = (REG_NONE, REG_KL, REG_MMD)

VAR_FLOOR = 1e-6
MMD_REF_CAP = 256  # rows kept per class
MMD_POOL_CAP = 512  # rows used for the bandwidth median


@dataclass
class RegularizerState:
    """Frozen per-class statistics of the real features plus the weight alpha."""

    kind: str
    alpha: float
    # kl
    class_means: dict[int, np.ndarray] = field(default_factory=dict)
    class_vars: dict[int, np.ndarray] = field(default_factory=dict)
    global_mean: np.ndarray | None = None
    global_var: np.ndarray | None = None
    # mmd
    class_refs: dict[int, np.ndarray] = field(default_factory=dict)
    global_ref: np.ndarray | None = None
    bandwidth_sq: float = 1.0
    # mean k(ref, ref) of each reference set above, filled by __post_init__
    class_ref_kmeans: dict[int, float] = field(init=False, repr=False, compare=False)
    global_ref_kmean: float | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h2 = self.bandwidth_sq
        self.class_ref_kmeans = {c: _self_kernel_mean(ref, h2) for c, ref in self.class_refs.items()}
        self.global_ref_kmean = None if self.global_ref is None else _self_kernel_mean(self.global_ref, h2)


def fit_regularizer(dataset: Dataset, split: SplitBundle, kind: str, alpha: float) -> RegularizerState:
    """Fit per-class statistics over the teacher training rows."""
    if kind not in REG_KINDS:
        raise ValueError(f"unknown regularizer kind {kind!r}")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if kind == REG_NONE:
        return RegularizerState(kind=kind, alpha=alpha)
    rows = split.teacher_train
    if rows.size == 0:
        raise ValueError("empty teacher training set")
    feats = dataset.features[rows]
    labels = dataset.labels[rows]

    if kind == REG_KL:
        state = RegularizerState(kind=kind, alpha=alpha)
        state.global_mean = feats.mean(axis=0)
        state.global_var = np.maximum(feats.var(axis=0), VAR_FLOOR)
        for c in np.unique(labels):
            cls = feats[labels == c]
            if len(cls) < 2:
                continue  # global stats act as the fallback
            state.class_means[int(c)] = cls.mean(axis=0)
            state.class_vars[int(c)] = np.maximum(cls.var(axis=0), VAR_FLOOR)
        return state

    # mmd: teacher_train row order is already a seeded shuffle, take heads.
    # Refs and bandwidth are final before the state (and its cache) is built.
    class_refs = {int(c): feats[labels == c][:MMD_REF_CAP].copy() for c in np.unique(labels)}
    pooled = np.concatenate(list(class_refs.values()))[:MMD_POOL_CAP]
    sq = _pairwise_sq_dists(pooled, pooled)
    off_diag = sq[~np.eye(len(pooled), dtype=bool)]
    return RegularizerState(
        kind=kind,
        alpha=alpha,
        class_refs=class_refs,
        global_ref=feats[:MMD_REF_CAP].copy(),
        bandwidth_sq=float(max(np.median(off_diag), 1e-12)) if off_diag.size else 1.0,
    )


def _pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aa = (a * a).sum(axis=1)[:, None]
    bb = (b * b).sum(axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * (a @ b.T), 0.0)


def _kl_class(
    batch: np.ndarray, inverse: np.ndarray, counts: np.ndarray, mu: np.ndarray, var: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """KL( N(batch stats) || N(real stats) ) with diagonal covariances, every class at once.

    Row r belongs to class inverse[r]; class k has counts[k] rows and real
    statistics mu[k], var[k]. Returns each class's value and, per row, the
    gradient of its class's value.
    """
    n = counts.astype(np.float64)[:, None]
    # Each class's rows, in batch order, in one block padded with -0.0. Summing
    # over axis 1 then adds every class's rows in the order rows.sum(axis=0)
    # does, and x + -0.0 == x for every x, so the padding changes no bit.
    order = np.argsort(inverse, kind="stable")
    pos = np.empty_like(inverse)
    pos[order] = np.arange(len(inverse)) - np.repeat(np.cumsum(counts) - counts, counts)
    block = np.full((len(counts), counts.max(), batch.shape[1]), -0.0)
    block[inverse, pos] = batch
    m = block.sum(axis=1) / n
    # np.var's second pass, in the block: squared deviations, padding reset to -0.0
    block -= m[:, None, :]
    block *= block
    block[np.arange(block.shape[1]) >= counts[:, None]] = -0.0
    v_raw = block.sum(axis=1) / n
    del block  # the gradient below needs two batch-sized arrays; a quota batch is megabytes
    v = np.maximum(v_raw, VAR_FLOOR)
    values = 0.5 * np.sum(np.log(var / v) + (v + (m - mu) ** 2) / var - 1.0, axis=1)
    # d value / dv vanishes where the floor is active
    dv = 0.5 * (1.0 / var - 1.0 / v) * (v_raw > VAR_FLOOR)
    dm = (m - mu) / var
    # per row (dm + (rows - m) * 2 dv) / n, in place (+ and * commute exactly)
    work = m.take(inverse, axis=0)
    np.subtract(batch, work, out=work)
    grad = (2.0 * dv).take(inverse, axis=0)
    grad *= work
    grad += dm.take(inverse, axis=0, out=work, mode="clip")  # valid indices; "raise" would buffer out
    grad /= n[inverse]
    return values, grad


def _self_kernel_mean(ref: np.ndarray, h2: float) -> float:
    """mean k(ref, ref): the MMD term that depends on the reference rows only."""
    return np.exp(-_pairwise_sq_dists(ref, ref) / h2).mean()


def _mmd_class(rows: np.ndarray, ref: np.ndarray, h2: float, k_yy_mean: float) -> tuple[float, np.ndarray]:
    """Biased (V-statistic) squared MMD with k(x,y)=exp(-||x-y||^2/h2); always >= 0.

    k_yy_mean is _self_kernel_mean(ref, h2), precomputed by RegularizerState.
    """
    n, m = len(rows), len(ref)
    k_xx = np.exp(-_pairwise_sq_dists(rows, rows) / h2)
    k_xy = np.exp(-_pairwise_sq_dists(rows, ref) / h2)
    value = k_xx.mean() + k_yy_mean - 2.0 * k_xy.mean()

    # d/dx_i of sum_ab k(x_a,x_b): both index slots hit row i, so
    # grad_i = -4/h2 [ (sum_j k_ij) x_i - (K rows)_i ] / n^2, likewise for K_xy
    grad = (-4.0 / (n * n * h2)) * (k_xx.sum(axis=1, keepdims=True) * rows - k_xx @ rows)
    grad += (4.0 / (n * m * h2)) * (k_xy.sum(axis=1, keepdims=True) * rows - k_xy @ ref)
    return float(value), grad


def reg_value_grad(
    state: RegularizerState, batch: np.ndarray, cond_labels
) -> tuple[float, np.ndarray]:
    """Regularizer value (averaged over classes present) and gradient w.r.t. batch."""
    batch = np.asarray(batch, dtype=np.float64)
    labels = np.asarray(cond_labels, dtype=np.int64)
    if batch.ndim != 2 or labels.shape != (batch.shape[0],):
        raise ValueError("batch rows and conditioning labels must align")
    if state.kind == REG_NONE:
        return 0.0, np.zeros_like(batch)

    if labels.size == 0:
        raise ValueError("empty batch: the regularizer averages over the classes present")

    classes, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    if state.kind == REG_KL:
        mus, variances = [], []
        for c in classes.tolist():
            mu = state.class_means.get(c, state.global_mean)
            if mu is None:
                raise ValueError(f"no statistics for class {c} and no global fallback")
            mus.append(mu)
            variances.append(state.class_vars.get(c, state.global_var))
        values, grad = _kl_class(batch, inverse, counts, np.stack(mus), np.stack(variances))
        values = values.tolist()
    else:
        grad = np.zeros_like(batch)
        values = []
        for c in classes.tolist():
            mask = labels == c
            if c in state.class_refs:
                ref, k_yy_mean = state.class_refs[c], state.class_ref_kmeans[c]
            elif state.global_ref is not None:
                ref, k_yy_mean = state.global_ref, state.global_ref_kmean
            else:
                raise ValueError(f"no reference rows for class {c} and no global fallback")
            value_c, grad_c = _mmd_class(batch[mask], ref, state.bandwidth_sq, k_yy_mean)
            values.append(value_c)
            grad[mask] = grad_c
    total = 0.0
    for value_c in values:  # class order, as Python floats
        total += value_c
    k = len(classes)
    grad /= k
    return total / k, grad
