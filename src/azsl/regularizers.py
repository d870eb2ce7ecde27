"""Distribution regularizers the server evaluates on uploaded batches.

Both kinds compare generated rows against statistics of the real features,
per conditioning class, and return an analytic gradient w.r.t. the batch.
Real rows themselves never leave this module: KL keeps only mean/variance,
MMD keeps a reference subsample, both used server-side only. Whatever does not
depend on the uploaded batch is computed once, when the state is built: KL's
per-class statistics stacked into one table (global fallback row last), and
for every MMD reference set its squared row norms and its self-kernel mean
(mean k(ref, ref)).

KL is evaluated for all classes of a request at once: the rows are scattered
into one (classes, max rows, d) block padded with -0.0, whose sums over the row
axis are each class's own sums bit for bit, so the value and the gradient are
those of a loop over the classes. (For d = 1 numpy sums a single column
pairwise, so there they can differ from such a loop in the last bit.)

MMD sorts the batch by class once and takes the squared row norms of all rows
at once (each row's sum is its own, so a class's slice holds the same bits).
The kernel matmuls stay per class with the operands rows @ rows.T and
rows @ ref.T, because a kernel batched across classes would make the BLAS sum
in a different order; the elementwise steps around them run in place in the
same order, so every value and gradient bit is the per-class loop's.
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
    """Frozen per-class statistics of the real features."""

    kind: str
    alpha: float = 1.0  # unread: perfbench/checks.py still passes it positionally, as the second field
    # kl
    class_means: dict[int, np.ndarray] = field(default_factory=dict)
    class_vars: dict[int, np.ndarray] = field(default_factory=dict)
    global_mean: np.ndarray | None = None
    global_var: np.ndarray | None = None
    # mmd
    class_refs: dict[int, np.ndarray] = field(default_factory=dict)
    global_ref: np.ndarray | None = None
    bandwidth_sq: float = 1.0
    # Filled by __post_init__ from the fields above, which must not change afterwards.
    # kl: class_means/class_vars stacked, the global fallback as the last row
    kl_rows: dict[int, int] = field(init=False, repr=False, compare=False)
    kl_fallback_row: int | None = field(init=False, repr=False, compare=False)
    kl_mu: np.ndarray | None = field(init=False, repr=False, compare=False)
    kl_var: np.ndarray | None = field(init=False, repr=False, compare=False)
    # mmd: (ref, squared row norms as a row, mean k(ref, ref)) per reference set
    class_ref_cache: dict[int, tuple] = field(init=False, repr=False, compare=False)
    global_ref_cache: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.kl_rows = {c: i for i, c in enumerate(self.class_means)}
        mus = list(self.class_means.values())
        variances = [self.class_vars.get(c, self.global_var) for c in self.class_means]
        self.kl_fallback_row = None
        if self.global_mean is not None:
            self.kl_fallback_row = len(mus)
            mus.append(self.global_mean)
            variances.append(self.global_var)
        self.kl_mu = np.stack(mus) if mus else None
        self.kl_var = np.stack(variances) if mus else None

        h2 = self.bandwidth_sq
        self.class_ref_cache = {c: _ref_cache(ref, h2) for c, ref in self.class_refs.items()}
        self.global_ref_cache = None if self.global_ref is None else _ref_cache(self.global_ref, h2)


def fit_regularizer(dataset: Dataset, split: SplitBundle, kind: str) -> RegularizerState:
    """Fit per-class statistics over the teacher training rows."""
    if kind not in REG_KINDS:
        raise ValueError(f"unknown regularizer kind {kind!r}")
    if kind == REG_NONE:
        return RegularizerState(kind=kind)
    rows = split.teacher_train
    if rows.size == 0:
        raise ValueError("empty teacher training set")
    labels = dataset.labels[rows]
    # Each class's rows, in teacher_train order, as indices into dataset.features:
    # every array below is gathered from there once, with no copy of all the rows.
    class_rows = {int(c): rows[labels == c] for c in np.unique(labels)}

    # Statistics and refs are final before the state (and its cache) is built.
    if kind == REG_KL:
        class_means, class_vars = {}, {}
        for c, idx in class_rows.items():
            if len(idx) < 2:
                continue  # global stats act as the fallback
            cls = dataset.features[idx]
            class_means[c] = cls.mean(axis=0)
            class_vars[c] = np.maximum(cls.var(axis=0), VAR_FLOOR)
        train = dataset.features[rows]
        return RegularizerState(
            kind=kind,
            class_means=class_means,
            class_vars=class_vars,
            global_mean=train.mean(axis=0),
            global_var=np.maximum(train.var(axis=0), VAR_FLOOR),
        )

    # mmd: teacher_train row order is already a seeded shuffle, take heads.
    heads = {c: idx[:MMD_REF_CAP] for c, idx in class_rows.items()}
    class_refs = {c: dataset.features[idx] for c, idx in heads.items()}
    pooled = dataset.features[np.concatenate(list(heads.values()))[:MMD_POOL_CAP]]
    sq = _pairwise_sq_dists(pooled, pooled)
    off_diag = sq[~np.eye(len(pooled), dtype=bool)]
    del sq
    # the median of the pairs is the same value whatever order partitioning leaves them in
    bandwidth_sq = float(max(np.median(off_diag, overwrite_input=True), 1e-12)) if off_diag.size else 1.0
    return RegularizerState(
        kind=kind,
        class_refs=class_refs,
        global_ref=dataset.features[rows[:MMD_REF_CAP]],
        bandwidth_sq=bandwidth_sq,
    )


def _sq_norms(a: np.ndarray) -> np.ndarray:
    return (a * a).sum(axis=1)


def _sq_dists(a: np.ndarray, a_sq: np.ndarray, b: np.ndarray, b_sq: np.ndarray) -> np.ndarray:
    """max(||a_i||^2 + ||b_j||^2 - 2 a_i.b_j, 0) in one buffer; a_sq is a column, b_sq a row.

    The steps are those of max(a_sq + b_sq - 2.0 * (a @ b.T), 0.0), in that
    order (2.0 * x == x * 2.0), so the result is the same bit for bit.
    """
    sq = a @ b.T
    sq *= 2.0
    np.subtract(a_sq + b_sq, sq, out=sq)
    return np.maximum(sq, 0.0, out=sq)


def _pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _sq_dists(a, _sq_norms(a)[:, None], b, _sq_norms(b)[None, :])


def _kernel(a: np.ndarray, a_sq: np.ndarray, b: np.ndarray, b_sq: np.ndarray, h2: float) -> np.ndarray:
    """k(a_i, b_j) = exp(-||a_i - b_j||^2 / h2), bit for bit np.exp(-sq / h2), in place.

    sq / -h2 == -sq / h2 exactly: IEEE division rounds symmetrically in sign.
    """
    k = _sq_dists(a, a_sq, b, b_sq)
    k /= -h2
    return np.exp(k, out=k)


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


def _ref_cache(ref: np.ndarray, h2: float) -> tuple[np.ndarray, np.ndarray, np.float64]:
    """What MMD needs of a reference set on every request: (ref, row norms as a row, mean k(ref, ref))."""
    ref_sq = _sq_norms(ref)[None, :]
    return ref, ref_sq, _kernel(ref, ref_sq.T, ref, ref_sq, h2).mean()


def _mmd_class(
    rows: np.ndarray, rows_sq: np.ndarray, ref: np.ndarray, ref_sq: np.ndarray, h2: float, k_yy_mean: float
) -> float:
    """Biased (V-statistic) squared MMD with k(x,y)=exp(-||x-y||^2/h2); always >= 0.

    rows_sq holds the squared norms of rows; ref_sq and k_yy_mean come from
    _ref_cache(ref, h2). Returns the value and overwrites rows with its
    gradient w.r.t. rows, so a batch needs no second buffer for it.
    """
    n, m = len(rows), len(ref)
    rows_sq_col = rows_sq[:, None]
    k_xx = _kernel(rows, rows_sq_col, rows, rows_sq[None, :], h2)
    k_xy = _kernel(rows, rows_sq_col, ref, ref_sq, h2)
    # k.sum() / k.size is what k.mean() computes
    value = k_xx.sum() / k_xx.size + k_yy_mean - 2.0 * (k_xy.sum() / k_xy.size)

    # d/dx_i of sum_ab k(x_a,x_b): both index slots hit row i, so
    # grad_i = -4/h2 [ (sum_j k_ij) x_i - (K rows)_i ] / n^2, likewise for K_xy.
    # Everything that reads rows runs before rows is overwritten.
    cross = k_xy.sum(axis=1, keepdims=True) * rows
    cross -= k_xy @ ref
    cross *= 4.0 / (n * m * h2)
    k_rows = k_xx @ rows
    grad = np.multiply(k_xx.sum(axis=1, keepdims=True), rows, out=rows)
    grad -= k_rows
    grad *= -4.0 / (n * n * h2)
    grad += cross
    return float(value)


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
        table_rows = []
        for c in classes.tolist():
            row = state.kl_rows.get(c, state.kl_fallback_row)
            if row is None:
                raise ValueError(f"no statistics for class {c} and no global fallback")
            table_rows.append(row)
        values, grad = _kl_class(batch, inverse, counts, state.kl_mu[table_rows], state.kl_var[table_rows])
        values = values.tolist()
    else:
        # each class's rows as one contiguous slice, in batch order;
        # _mmd_class turns each slice into that class's gradient
        order = np.argsort(inverse, kind="stable")
        rows = batch[order]
        rows_sq = _sq_norms(rows)
        ends = np.cumsum(counts).tolist()
        values = []
        for c, start, end in zip(classes.tolist(), [0, *ends], ends):
            cache = state.class_ref_cache.get(c, state.global_ref_cache)
            if cache is None:
                raise ValueError(f"no reference rows for class {c} and no global fallback")
            ref, ref_sq, k_yy_mean = cache
            values.append(_mmd_class(rows[start:end], rows_sq[start:end], ref, ref_sq, state.bandwidth_sq, k_yy_mean))
        grad = np.empty_like(batch)
        grad[order] = rows
    total = 0.0
    for value_c in values:  # class order, as Python floats
        total += value_c
    k = len(classes)
    grad /= k
    return total / k, grad
