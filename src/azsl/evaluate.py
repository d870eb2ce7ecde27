"""Classification protocols and metrics: per-class top-1, harmonic mean, reports.

Transductive runs evaluate the student over the full class space (even for the
conventional task); inductive runs evaluate the generated-feature classifier.
Either head covers every class, and its column c is class c. Accuracies are
macro-averaged per class and reported in percent.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nn
from .client import ArtifactBundle
from .data import Dataset, SplitBundle, MODE_TRANSDUCTIVE

TASK_CZSL = "czsl"
TASK_GZSL = "gzsl"


@dataclass
class EvalReport:
    task: str
    teacher_mode: str
    scenario: str
    u: float
    s: float | None
    h: float | None
    per_class: dict[int, float]
    confusion: np.ndarray
    seeds: list[int] = field(default_factory=list)
    transcript_digest: str = ""


def predict(params: nn.MlpParams, features: np.ndarray, class_space) -> np.ndarray:
    """Argmax over the head columns of class_space (column c is class c); ties -> lowest id."""
    class_space = np.asarray(sorted(class_space), dtype=np.int64)
    if class_space.size == 0 or class_space[0] < 0 or class_space[-1] >= params.out_dim:
        raise ValueError("class space not covered by the model head")
    logits, _ = nn.mlp_forward(params, features, cache=False)
    return class_space[logits[:, class_space].argmax(axis=1)]


def per_class_top1(preds, labels, classes) -> float:
    """Macro top-1 in percent over the classes present in the evaluation set."""
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape:
        raise ValueError("predictions and labels must align")
    if labels.size == 0:
        raise ValueError("empty evaluation set")
    if min(preds.min(), labels.min()) < 0:
        raise ValueError("class ids must be >= 0")
    return _macro(_accuracy(_confusion(preds, labels, max(preds.max(), labels.max()) + 1)), classes)


def harmonic_mean(u: float, s: float) -> float:
    if u < 0 or s < 0:
        raise ValueError("accuracies must be >= 0")
    if u + s == 0:
        return 0.0
    return 2.0 * u * s / (u + s)


def _confusion(preds, labels, n_classes: int) -> np.ndarray:
    m = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(m, (labels, preds), 1)
    return m


def _accuracy(confusion: np.ndarray) -> dict[int, float]:
    """Top-1 fraction k/n of each class (confusion row) that has rows."""
    totals = confusion.sum(axis=1)
    has = np.flatnonzero(totals)
    return dict(zip(has.tolist(), (confusion[has, has] / totals[has]).tolist()))


def _macro(accuracy: dict[int, float], classes) -> float:
    """Mean accuracy in percent over those of classes that have rows."""
    accs = [accuracy[c] for c in sorted(int(c) for c in classes) if c in accuracy]
    if not accs:
        raise ValueError("no requested class appears in the evaluation set")
    return float(np.mean(accs) * 100.0)


def _evaluate(task: str, bundle: ArtifactBundle, split: SplitBundle, dataset: Dataset, rows, space) -> EvalReport:
    """Predict `rows` over `space` with the evaluated head; u, and for GZSL s
    and H, plus the per-class table, all from one confusion matrix."""
    model = bundle.student if split.teacher_mode == MODE_TRANSDUCTIVE else bundle.classifier
    if model is None:
        raise ValueError("inductive evaluation needs the generated-feature classifier")
    preds = predict(model, dataset.features[rows], space)
    confusion = _confusion(preds, dataset.labels[rows], dataset.n_classes)
    accuracy = _accuracy(confusion)
    u = _macro(accuracy, split.unseen_classes)
    s = _macro(accuracy, split.seen_classes) if task == TASK_GZSL else None
    return EvalReport(
        task=task,
        teacher_mode=split.teacher_mode,
        scenario=bundle.cfg.scenario,
        u=u,
        s=s,
        h=None if s is None else harmonic_mean(u, s),
        per_class={c: a * 100.0 for c, a in accuracy.items()},
        confusion=confusion,
        transcript_digest=bundle.transcript.digest(),
    )


def eval_czsl(bundle: ArtifactBundle, split: SplitBundle, dataset: Dataset) -> EvalReport:
    """Unseen-row evaluation: transductive over the full class space, inductive over the unseen classes."""
    if split.client_eval_unseen.size == 0:
        raise ValueError("no unseen evaluation rows")
    space = np.arange(dataset.n_classes) if split.teacher_mode == MODE_TRANSDUCTIVE else split.unseen_classes
    return _evaluate(TASK_CZSL, bundle, split, dataset, split.client_eval_unseen, space)


def eval_gzsl(bundle: ArtifactBundle, split: SplitBundle, dataset: Dataset) -> EvalReport:
    """Seen + unseen evaluation over the full class space; reports u, s, H."""
    if split.client_eval_seen.size == 0 or split.client_eval_unseen.size == 0:
        raise ValueError("generalised evaluation needs both seen and unseen rows")
    rows = np.concatenate([split.client_eval_seen, split.client_eval_unseen])
    return _evaluate(TASK_GZSL, bundle, split, dataset, rows, np.arange(dataset.n_classes))


def render_report(report: EvalReport) -> str:
    """Deterministic text form: key/value header plus a csv confusion block."""
    lines = [
        f"task: {report.task}",
        f"teacher_mode: {report.teacher_mode}",
        f"scenario: {report.scenario}",
        f"seeds: {','.join(str(s) for s in report.seeds)}",
        f"transcript: {report.transcript_digest}",
        f"u: {report.u:.2f}",
    ]
    if report.s is not None:
        lines.append(f"s: {report.s:.2f}")
        lines.append(f"H: {report.h:.2f}")
    lines.append("")
    lines.append("[per_class]")
    lines.append("class,accuracy")
    for c in sorted(report.per_class):
        lines.append(f"{c},{report.per_class[c]:.2f}")
    lines.append("")
    lines.append("[confusion]")
    lines.append("true\\pred," + ",".join(str(c) for c in range(report.confusion.shape[1])))
    for c, row in enumerate(report.confusion):
        lines.append(f"{c}," + ",".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def save_report(report: EvalReport, path: str | Path) -> None:
    Path(path).write_text(render_report(report))


def export_projection(features: np.ndarray, labels, path: str | Path) -> None:
    """Top-2 PCA projection written as `label,pc1,pc2` csv for external plotting."""
    x = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if x.ndim != 2 or len(x) < 2:
        raise ValueError("need at least 2 feature rows")
    centered = x - x.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    if svals[0] <= 1e-12:
        raise ValueError("data has rank 0; nothing to project")
    comps = vt[:2]
    if comps.shape[0] < 2:  # single feature column: pad a zero direction
        comps = np.vstack([comps, np.zeros_like(comps[0])])
    for i in range(2):
        j = np.argmax(np.abs(comps[i]))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    proj = centered @ comps.T
    lines = ["label,pc1,pc2"]
    for lab, (a, b) in zip(labels, proj):
        lines.append(f"{lab},{float(a)!r},{float(b)!r}")
    Path(path).write_text("\n".join(lines) + "\n")
