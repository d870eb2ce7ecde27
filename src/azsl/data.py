"""Datasets: feature/semantic containers, teacher splits, synthetic benchmarks, file I/O.

The synthetic generator links class semantics to feature-cluster means through
a fixed random linear map + ReLU, so semantic similarity implies feature
similarity — without that link, transfer to unseen classes would be impossible
and every synthetic experiment vacuous.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .seeding import rng_for

SEM_ATTRIBUTE = "attribute"
SEM_SYNTHETIC = "synthetic"

MODE_INDUCTIVE = "inductive"
MODE_TRANSDUCTIVE = "transductive"
TEACHER_MODES = (MODE_INDUCTIVE, MODE_TRANSDUCTIVE)

AZB_MAGIC = b"AZB1"


class DataError(Exception):
    """Raised on malformed dataset files or inconsistent dataset contents."""


@dataclass
class SemanticTable:
    """Per-class semantic embedding rows (C x d_a)."""

    vectors: np.ndarray
    source: str = SEM_SYNTHETIC

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise DataError(f"semantic table must be 2-D, got shape {self.vectors.shape}")
        if self.vectors.shape[1] < 1:
            raise DataError("semantic table needs at least one column")
        if not np.isfinite(self.vectors).all():
            raise DataError("semantic table contains non-finite values")
        if self.source == SEM_SYNTHETIC and len(self.vectors) > 1:
            uniq = np.unique(self.vectors, axis=0)
            if len(uniq) != len(self.vectors):
                raise DataError("synthetic semantics must be distinct per class")

    @property
    def n_classes(self) -> int:
        return self.vectors.shape[0]

    @property
    def d_a(self) -> int:
        return self.vectors.shape[1]

    def rows_for(self, labels) -> np.ndarray:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise DataError("class without a semantic row")
        return self.vectors[labels]


@dataclass
class Dataset:
    """Immutable bundle of features (N x d_x), labels (N), and class semantics."""

    features: np.ndarray
    labels: np.ndarray
    semantics: SemanticTable
    class_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise DataError("features must be 2-D")
        if self.features.shape[1] < 1:
            raise DataError("features need at least one column")
        if self.labels.shape != (self.features.shape[0],):
            raise DataError("one label per feature row required")
        if not np.isfinite(self.features).all():
            raise DataError("features contain non-finite values")
        if not self.class_names:
            self.class_names = [str(c) for c in range(self.semantics.n_classes)]
        if len(self.class_names) != self.semantics.n_classes:
            raise DataError("one class name per semantic row required")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise DataError("label outside the semantic table")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d_x(self) -> int:
        return self.features.shape[1]

    @property
    def d_a(self) -> int:
        return self.semantics.d_a

    @property
    def n_classes(self) -> int:
        return self.semantics.n_classes

    def rows_of_class(self, c: int) -> np.ndarray:
        return np.flatnonzero(self.labels == c)


@dataclass
class SplitBundle:
    """Row/class partition for one teacher mode; all randomness seeded + recorded."""

    seen_classes: np.ndarray
    unseen_classes: np.ndarray
    teacher_train: np.ndarray
    client_eval_seen: np.ndarray
    client_eval_unseen: np.ndarray
    teacher_mode: str
    train_ratio: float
    seed: int

    def __post_init__(self):
        self.seen_classes = np.asarray(sorted(self.seen_classes), dtype=np.int64)
        self.unseen_classes = np.asarray(sorted(self.unseen_classes), dtype=np.int64)
        if np.intersect1d(self.seen_classes, self.unseen_classes).size:
            raise DataError("seen and unseen classes must be disjoint")
        lists = [self.teacher_train, self.client_eval_seen, self.client_eval_unseen]
        pooled = np.concatenate([np.asarray(l, dtype=np.int64) for l in lists])
        if len(np.unique(pooled)) != len(pooled):
            raise DataError("split index lists overlap")

    @property
    def teacher_classes(self) -> np.ndarray:
        """Sorted class ids the teacher is trained over (head column order)."""
        return teacher_classes(self.teacher_mode, self.seen_classes, self.unseen_classes)


def teacher_classes(teacher_mode: str, seen: np.ndarray, unseen: np.ndarray) -> np.ndarray:
    """The sorted class ids a teacher of this mode is trained over, from sorted seen and unseen ids."""
    if teacher_mode == MODE_INDUCTIVE:
        return seen
    return np.sort(np.concatenate([seen, unseen]))


@dataclass
class SyntheticSpec:
    """Desk-scale stand-in for precomputed visual-feature benchmarks."""

    n_classes: int = 10
    seen_count: int = 8
    d_x: int = 64
    d_a: int = 16
    per_class: int = 200
    separation: float = 5.0
    noise: float = 1.0
    link_seed: int = 0

    def __post_init__(self):
        if not 1 <= self.seen_count < self.n_classes:
            raise DataError("seen_count must be in [1, n_classes)")
        if min(self.n_classes, self.d_x, self.d_a, self.per_class) < 1:
            raise DataError("all counts must be >= 1")
        if self.separation <= 0 or self.noise < 0:
            raise DataError("separation must be > 0 and noise >= 0")


def make_synthetic(spec: SyntheticSpec, seed: int) -> Dataset:
    """Gaussian class clusters whose means are ReLU(linkage @ embedding).

    The linkage map depends only on spec.link_seed; embeddings and noise on
    the run seed, so re-running with one seed reproduces the dataset exactly.
    """
    link_rng = np.random.default_rng(spec.link_seed)
    linkage = link_rng.standard_normal((spec.d_a, spec.d_x)) / np.sqrt(spec.d_a)

    semantics, rng = synthetic_semantics(spec, seed)
    means = spec.separation * np.maximum(semantics.vectors @ linkage, 0.0)

    n = spec.n_classes * spec.per_class
    labels = np.repeat(np.arange(spec.n_classes), spec.per_class)
    # max(mean[label] + noise * spec.noise, 0) in place: rows come in one
    # contiguous block per class, and a sum is the same in either order
    features = rng.standard_normal((n, spec.d_x))
    features *= spec.noise
    blocks = features.reshape(spec.n_classes, spec.per_class, spec.d_x)
    blocks += means[:, None, :]
    np.maximum(features, 0.0, out=features)
    return Dataset(features=features, labels=labels, semantics=semantics)


def synthetic_semantics(spec: SyntheticSpec, seed: int) -> tuple[SemanticTable, np.random.Generator]:
    """The class embeddings of make_synthetic(spec, seed), the first draw of its stream, and that stream."""
    rng = rng_for(seed, "synthetic")
    return SemanticTable(rng.standard_normal((spec.n_classes, spec.d_a)), source=SEM_SYNTHETIC), rng


def class_split(
    n_classes: int, unseen: int | list[int], seed: int
) -> tuple[np.ndarray, np.ndarray, np.random.Generator]:
    """The sorted seen and unseen class ids of split_azsl, and its `split` stream after them.

    A count of unseen classes is the stream's first draw; an explicit list draws nothing.
    """
    if n_classes < 2:
        raise DataError("need at least 2 classes to split")
    rng = rng_for(seed, "split")
    if isinstance(unseen, (int, np.integer)):
        if not 1 <= unseen < n_classes:
            raise DataError("unseen count must be in [1, n_classes)")
        unseen_classes = np.sort(rng.choice(n_classes, size=int(unseen), replace=False))
    else:
        unseen_classes = np.unique(np.asarray(unseen, dtype=np.int64))
        if unseen_classes.size == 0 or unseen_classes.min() < 0 or unseen_classes.max() >= n_classes:
            raise DataError("unseen class list out of range")
        if unseen_classes.size >= n_classes:
            raise DataError("at least one class must stay seen")
    return np.setdiff1d(np.arange(n_classes), unseen_classes), unseen_classes, rng


def _split_rows(rows: np.ndarray, train_ratio: float, rng: np.random.Generator):
    """Shuffle one class's rows; eval side gets floor(n * (1 - ratio))."""
    perm = rng.permutation(rows)
    # guard the floor against fp dust (100 * 0.2 is 19.999...)
    n_eval = int(np.floor(len(rows) * (1.0 - train_ratio) + 1e-9))
    return perm[: len(rows) - n_eval], perm[len(rows) - n_eval :]


def split_azsl(
    dataset: Dataset,
    teacher_mode: str,
    unseen: int | list[int] = 2,
    unseen_train_ratio: float = 0.8,
    seed: int = 0,
) -> SplitBundle:
    """Partition rows for a teacher mode.

    Seen rows always split train_ratio : rest into teacher_train / eval.
    Unseen rows: inductive -> all to eval; transductive -> same ratio split.
    `unseen` is either an explicit class list or a count drawn at random.
    """
    if teacher_mode not in TEACHER_MODES:
        raise DataError(f"unknown teacher mode {teacher_mode!r}")
    if not 0.0 < unseen_train_ratio < 1.0:
        raise DataError("train ratio must be in (0, 1)")
    seen_classes, unseen_classes, rng = class_split(dataset.n_classes, unseen, seed)

    teacher_train, eval_seen, eval_unseen = [], [], []
    for c in seen_classes:
        tr, ev = _split_rows(dataset.rows_of_class(int(c)), unseen_train_ratio, rng)
        teacher_train.append(tr)
        eval_seen.append(ev)
    for c in unseen_classes:
        rows = dataset.rows_of_class(int(c))
        if teacher_mode == MODE_TRANSDUCTIVE:
            if len(rows) < 2:
                raise DataError(f"class {c} has {len(rows)} rows; cannot split transductively")
            tr, ev = _split_rows(rows, unseen_train_ratio, rng)
            teacher_train.append(tr)
            eval_unseen.append(ev)
        else:
            eval_unseen.append(rows)

    cat = lambda parts: np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
    return SplitBundle(
        seen_classes=seen_classes,
        unseen_classes=unseen_classes,
        teacher_train=cat(teacher_train),
        client_eval_seen=cat(eval_seen),
        client_eval_unseen=cat(eval_unseen),
        teacher_mode=teacher_mode,
        train_ratio=unseen_train_ratio,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# File formats. csv: `label,f0,f1,...` plus a sibling `<stem>.sem.csv` with
# `class,s0,s1,...`. azb: magic "AZB1", u32 LE {N, d_x, C, d_a}, then features
# (N*d_x f64), labels (N u32), semantics (C*d_a f64) — bit-exact round trip.
# The file name decides the format: a name ending in .azb is azb, any other csv.
# ---------------------------------------------------------------------------


def _sem_path(path: Path) -> Path:
    return path.with_name(path.stem + ".sem.csv")


def save_features(dataset: Dataset, path: str | Path) -> None:
    path = Path(path)
    if path.suffix == ".azb":
        payload = bytearray()
        payload += AZB_MAGIC
        payload += struct.pack("<4I", dataset.n, dataset.d_x, dataset.n_classes, dataset.d_a)
        payload += dataset.features.astype("<f8").tobytes()
        payload += dataset.labels.astype("<u4").tobytes()
        payload += dataset.semantics.vectors.astype("<f8").tobytes()
        path.write_bytes(bytes(payload))
        return
    with path.open("w") as fh:
        fh.write("label," + ",".join(f"f{i}" for i in range(dataset.d_x)) + "\n")
        for row, lab in zip(dataset.features, dataset.labels):
            fh.write(dataset.class_names[lab] + "," + ",".join(repr(float(v)) for v in row) + "\n")
    with _sem_path(path).open("w") as fh:
        fh.write("class," + ",".join(f"s{i}" for i in range(dataset.d_a)) + "\n")
        for name, row in zip(dataset.class_names, dataset.semantics.vectors):
            fh.write(name + "," + ",".join(repr(float(v)) for v in row) + "\n")


def _parse_float(token: str, path: Path, line_no: int) -> float:
    try:
        v = float(token)
    except ValueError:
        raise DataError(f"{path}:{line_no}: not a number: {token!r}") from None
    if not np.isfinite(v):
        raise DataError(f"{path}:{line_no}: non-finite value {token!r}")
    return v


def _read_table(path: Path) -> list[tuple[int, str, list[float]]]:
    """(line number, id, values) for every non-blank row of an `id,v0,v1,...` file."""
    lines = path.read_text().splitlines()
    width = len(lines[0].split(",")) if lines else 0
    if width == 1:
        raise DataError(f"{path}:1: header needs an id column and at least one value column")
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise DataError(f"{path}:{line_no}: expected {width} columns, got {len(parts)}")
        rows.append((line_no, parts[0].strip(), [_parse_float(t, path, line_no) for t in parts[1:]]))
    if not rows:
        raise DataError(f"{path}: no rows")
    return rows


def _load_csv(path: Path) -> Dataset:
    rows = _read_table(path)
    sem_path = _sem_path(path)
    if not sem_path.exists():
        raise DataError(f"{sem_path}: semantic sidecar file missing")
    sem_rows: dict[str, list[float]] = {}
    for line_no, cid, values in _read_table(sem_path):
        if cid in sem_rows:
            raise DataError(f"{sem_path}:{line_no}: duplicate class id {cid!r}")
        sem_rows[cid] = values

    # dense 0..C-1 remap; original ids kept as class names
    try:
        order = sorted(sem_rows, key=int)
    except ValueError:
        order = sorted(sem_rows)
    remap = {cid: i for i, cid in enumerate(order)}
    for line_no, cid, _ in rows:
        if cid not in remap:
            raise DataError(f"{path}:{line_no}: unknown class id {cid!r}")
    return Dataset(
        features=np.asarray([values for _, _, values in rows]),
        labels=np.asarray([remap[cid] for _, cid, _ in rows]),
        semantics=SemanticTable([sem_rows[cid] for cid in order], source=SEM_ATTRIBUTE),
        class_names=order,
    )


def _load_azb(path: Path) -> Dataset:
    blob = path.read_bytes()
    if len(blob) < 20 or blob[:4] != AZB_MAGIC:
        raise DataError(f"{path}: not an azb file")
    n, d_x, c, d_a = struct.unpack("<4I", blob[4:20])
    need = 20 + 8 * n * d_x + 4 * n + 8 * c * d_a
    if len(blob) != need:
        what = "truncated" if len(blob) < need else "too long"
        raise DataError(f"{path}: {what} (expected {need} bytes, got {len(blob)})")
    off = 20
    feats = np.frombuffer(blob, dtype="<f8", count=n * d_x, offset=off).reshape(n, d_x).copy()
    off += 8 * n * d_x
    labels = np.frombuffer(blob, dtype="<u4", count=n, offset=off).astype(np.int64)
    off += 4 * n
    sem = np.frombuffer(blob, dtype="<f8", count=c * d_a, offset=off).reshape(c, d_a).copy()
    if n == 0:
        raise DataError(f"{path}: no rows")
    if not np.isfinite(feats).all() or not np.isfinite(sem).all():
        raise DataError(f"{path}: non-finite values")
    if labels.size and labels.max() >= c:
        raise DataError(f"{path}: unknown class id {labels.max()}")
    return Dataset(features=feats, labels=labels, semantics=SemanticTable(sem, source=SEM_ATTRIBUTE))


def load_features(path: str | Path) -> Dataset:
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path}: no such file")
    return _load_azb(path) if path.suffix == ".azb" else _load_csv(path)
