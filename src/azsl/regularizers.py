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

MMD takes the squared row norms of the whole batch once (each row's sum is its
own) and evaluates the classes in blocks: sorted by reference-set size, then
row count, then id, each block of one reference size and at most
MMD_BLOCK_ROWS rows (a larger class is a block alone), so a quota-sized batch
holds the kernels of one block at a time. Only rows @ ref.T and k_xy @ ref stay
per class, written with out= into slices of the block's buffers. Classes of
one size form a stack, and rows @ rows.T, k_xx @ rows and the row sums and
totals of its kernels are one call per stack: numpy makes each slice's own
BLAS call and pairwise sum, so nothing is padded and no sum changes order
(padding classes to one shape would). The elementwise steps run once per block
in the per-class order, and the values are added in class order, so every
value and gradient bit is the per-class loop's.
"""
from __future__ import annotations

import itertools
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
MMD_BLOCK_ROWS = 256  # rows of classes evaluated at once; a larger class is a block alone


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


def _sq_dists(prod: np.ndarray, norm_sums: np.ndarray) -> np.ndarray:
    """max(a_sq + b_sq - 2.0 * (a @ b.T), 0.0) in place over prod = a @ b.T; norm_sums holds a_sq + b_sq.

    The steps are the expression's, in its order (2.0 * x == x * 2.0), one
    entry at a time, so the result is the same bit for bit however the entries
    are laid out: one matrix, a stack of them or one flat buffer of several.
    """
    prod *= 2.0
    np.subtract(norm_sums, prod, out=prod)
    return np.maximum(prod, 0.0, out=prod)


def _kernel(sq: np.ndarray, h2: float) -> np.ndarray:
    """k = exp(-sq / h2) in place over squared distances, bit for bit np.exp(-sq / h2).

    sq / -h2 == -sq / h2 exactly: IEEE division rounds symmetrically in sign.
    """
    sq /= -h2
    return np.exp(sq, out=sq)


def _pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _sq_dists(a @ b.T, _sq_norms(a)[:, None] + _sq_norms(b)[None, :])


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
    return ref, ref_sq, _kernel(_sq_dists(ref @ ref.T, ref_sq.T + ref_sq), h2).mean()


def _mmd_blocks(sizes: list[int], counts: list[int]):
    """(first, end) class ranges of one reference size and at most MMD_BLOCK_ROWS rows, in order."""
    first, rows = 0, 0
    for i, (m, n) in enumerate(zip(sizes, counts)):
        if i > first and (m != sizes[first] or rows + n > MMD_BLOCK_ROWS):
            yield first, i
            first, rows = i, 0
        rows += n
    yield first, len(counts)


def _mmd_class(
    rows: np.ndarray, rows_sq: np.ndarray, counts: list[int], caches: list[tuple], h2: float
) -> np.ndarray:
    """Biased (V-statistic) squared MMD of every class in one block, k(x,y)=exp(-||x-y||^2/h2); each >= 0.

    rows holds the block's classes one after another, counts[i] rows of class
    i, with equal counts adjacent; rows_sq holds their squared norms. caches[i]
    is _ref_cache(ref, h2) of class i's reference set, and all of them have
    the same size m. Returns each class's value and overwrites rows with the
    gradient of its class's value w.r.t. its rows, so a batch needs no second
    buffer for it.
    """
    n_rows, d, m = *rows.shape, len(caches[0][0])
    n = np.array(counts)
    ends = np.cumsum(n).tolist()
    starts = [0, *ends[:-1]]
    n_xx = int((n * n).sum())
    size = n_xx + n_rows * m
    # One buffer per block: every class's k_xx, then the block's k_xy as one
    # (rows, m) matrix, then their norm sums. As one allocation it stays in the
    # heap from call to call; two halves went back to the OS and faulted in anew.
    work = np.empty(size + max(size, 2 * n_rows * d))
    k, norm_sums = work[:size], work[size:2 * size]
    k_xy, norms_xy = k[n_xx:].reshape(n_rows, m), norm_sums[n_xx:].reshape(n_rows, m)
    for (ref, _, _), start, end in zip(caches, starts, ends):
        np.matmul(rows[start:end], ref.T, out=k_xy[start:end])
    ref_sq = np.stack([ref_sq for _, ref_sq, _ in caches])  # (classes, 1, m)
    # the g classes of one size c as a stack: (first class, their rows' span, rows (g, c, d), k_xx (g, c, c))
    stacks, first, at = [], 0, 0
    for c, run in itertools.groupby(counts):
        g = len(list(run))
        span, kernels = slice(starts[first], starts[first] + g * c), slice(at, at + g * c * c)
        x, k_xx = rows[span].reshape(g, c, d), k[kernels].reshape(g, c, c)
        np.matmul(x, x.transpose(0, 2, 1), out=k_xx)
        x_sq = rows_sq[span].reshape(g, c, 1)
        np.add(x_sq, x_sq.transpose(0, 2, 1), out=norm_sums[kernels].reshape(g, c, c))
        np.add(x_sq, ref_sq[first:first + g], out=norms_xy[span].reshape(g, c, m))
        stacks.append((first, span, x, k_xx))
        first, at = first + g, at + g * c * c
    _kernel(_sq_dists(k, norm_sums), h2)

    # each row's k_xx sum, each class's k_xx and k_xy totals (k.sum() / k.size
    # is what k.mean() computes)
    xx_rows, xx_sums, xy_sums = np.empty(n_rows), np.empty(len(counts)), np.empty(len(counts))
    for first, span, _, k_xx in stacks:
        g, c = k_xx.shape[:2]
        k_xx.sum(axis=2, out=xx_rows[span].reshape(g, c))
        k_xx.reshape(g, c * c).sum(axis=1, out=xx_sums[first:first + g])
        k_xy[span].reshape(g, c * m).sum(axis=1, out=xy_sums[first:first + g])
    k_yy_mean = np.array([k_yy_mean for _, _, k_yy_mean in caches])
    values = xx_sums / (n * n) + k_yy_mean - 2.0 * (xy_sums / (n * m))

    # d/dx_i of sum_ab k(x_a,x_b): both index slots hit row i, so
    # grad_i = -4/h2 [ (sum_j k_ij) x_i - (K rows)_i ] / n^2, likewise for K_xy.
    # Everything that reads rows runs before rows is overwritten. The norm sums
    # are spent, and their space holds the gradient's two (rows, d) terms.
    products, cross = work[size:size + 2 * n_rows * d].reshape(2, n_rows, d)
    for (ref, _, _), start, end in zip(caches, starts, ends):
        np.matmul(k_xy[start:end], ref, out=products[start:end])
    np.multiply(k_xy.sum(axis=1, keepdims=True), rows, out=cross)
    cross -= products
    cross *= np.repeat(4.0 / (n * m * h2), counts)[:, None]
    for _, span, x, k_xx in stacks:
        np.matmul(k_xx, x, out=products[span].reshape(x.shape))
    grad = np.multiply(xx_rows[:, None], rows, out=rows)
    grad -= products
    grad *= np.repeat(-4.0 / (n * n * h2), counts)[:, None]
    grad += cross
    return values


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
    else:
        caches = []
        for c in classes.tolist():
            cache = state.class_ref_cache.get(c, state.global_ref_cache)
            if cache is None:
                raise ValueError(f"no reference rows for class {c} and no global fallback")
            caches.append(cache)
        sizes = np.array([len(ref) for ref, _, _ in caches])
        # classes by reference size, then row count, then id; each class's rows
        # one contiguous run of that order, in batch order
        by_size = np.lexsort((classes, counts, sizes))
        rank = np.empty_like(by_size)
        rank[by_size] = np.arange(len(by_size))
        order = np.argsort(rank[inverse], kind="stable")
        batch_sq = _sq_norms(batch)
        sizes, counts = sizes[by_size].tolist(), counts[by_size].tolist()
        by_size = by_size.tolist()
        values = np.empty(len(classes))
        grad = np.empty_like(batch)
        row = 0
        for first, end in _mmd_blocks(sizes, counts):
            idx = order[row:row + sum(counts[first:end])]
            rows = batch[idx]
            block_classes = by_size[first:end]
            values[block_classes] = _mmd_class(
                rows, batch_sq[idx], counts[first:end], [caches[i] for i in block_classes], state.bandwidth_sq
            )
            grad[idx] = rows
            row += len(idx)
    total = 0.0
    for value_c in values.tolist():  # class order, as Python floats
        total += value_c
    k = len(classes)
    grad /= k
    return total / k, grad
