"""Data-free client: conditional generator, student, and the two training scenarios.

This module never touches real feature rows — its only inputs are the semantic
table, class ids, noise, and channel responses. (Deliberately, nothing here
imports the Dataset container.)
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nn, wire
from .audit import RiskLog
from .data import SemanticTable
from .seeding import derive_seed, rng_for

MAX_UPLOAD_ROWS = 2048  # keeps every request frame far below the payload cap

TRACE_COLUMNS = ("phase", "epoch", "ce", "reg", "mse")


@dataclass
class NoiseSpec:
    """Standard-normal conditioning noise."""

    dim: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("noise dim must be >= 1")


@dataclass
class GenerationBatch:
    features: np.ndarray
    cond_labels: np.ndarray


@dataclass
class VerifiedBatch:
    """Rows whose teacher-predicted class matches their conditioning class."""

    features: np.ndarray
    labels: np.ndarray
    teacher_softmax: np.ndarray
    kept_fraction: float

    def __len__(self) -> int:
        return len(self.features)


@dataclass
class QuotaResult:
    verified: VerifiedBatch
    shortfall: dict[int, int]
    rounds: int


@dataclass
class TrainConfig:
    """Client-side training knobs; scenario/teacher-mode ride along for replay."""

    t_g: int = 2000
    t_s: int = 2000
    batch_size: int = 64
    per_class_count: int = 400
    alpha: float = 0.5
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    scenario: str = wire.SCENARIO_WHITE
    teacher_mode: str = "transductive"
    min_verified_per_class: int = 1
    regen_retry_cap: int = 2
    verify: bool = True
    lr: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        if min(self.t_g, self.t_s, self.batch_size, self.per_class_count) < 1:
            raise ValueError("epoch caps, batch size, and per-class count must be >= 1")
        if self.regen_retry_cap < 0 or self.min_verified_per_class < 0:
            raise ValueError("retry cap and verified quota must be >= 0")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")


@dataclass
class ClientSetup:
    """Out-of-band protocol metadata: feature width, class spaces, architectures."""

    d_x: int
    teacher_classes: np.ndarray
    all_classes: np.ndarray
    generator_hidden: tuple = (4096,)
    student_hidden: tuple = (1024, 512)

    def __post_init__(self):
        self.teacher_classes = np.asarray(sorted(self.teacher_classes), dtype=np.int64)
        self.all_classes = np.asarray(sorted(self.all_classes), dtype=np.int64)


def generator_specs(noise_dim: int, d_a: int, d_x: int, hidden=(4096,)) -> list[nn.LayerSpec]:
    """Conditional generator: concat(z, a) -> leaky-ReLU hidden -> ReLU feature output."""
    dims = [noise_dim + d_a, *hidden]
    specs = [nn.LayerSpec(a, b, nn.ACT_LEAKY_RELU) for a, b in zip(dims[:-1], dims[1:])]
    specs.append(nn.LayerSpec(dims[-1], d_x, nn.ACT_RELU))
    return specs


def _forward_generator(gen: nn.MlpParams, z: np.ndarray, sem_rows: np.ndarray):
    if gen.role != nn.ROLE_GENERATOR:
        raise ValueError(f"expected a generator net, got role {gen.role!r}")
    batch = np.hstack([z, sem_rows])
    return nn.mlp_forward(gen, batch)


def generate(
    gen: nn.MlpParams,
    semantics: SemanticTable,
    classes,
    count_per_class: int,
    noise: NoiseSpec,
) -> GenerationBatch:
    """count_per_class draws per class, assembled in fixed (sorted) class order.

    Noise streams are seeded per class position, so per-class blocks are
    reproducible independently of which other classes are requested.
    """
    classes = np.asarray(sorted(set(int(c) for c in np.asarray(classes).ravel())), dtype=np.int64)
    if gen.in_dim != noise.dim + semantics.d_a:
        raise ValueError(
            f"generator expects {gen.in_dim} inputs, got noise {noise.dim} + semantics {semantics.d_a}"
        )
    feats, labels = [], []
    for pos, c in enumerate(classes):
        rng = rng_for(noise.seed, "noise", pos)
        z = rng.standard_normal((count_per_class, noise.dim))
        sem_rows = np.tile(semantics.rows_for([c]), (count_per_class, 1))
        x, _ = _forward_generator(gen, z, sem_rows)
        feats.append(x)
        labels.append(np.full(count_per_class, c, dtype=np.int64))
    return GenerationBatch(features=np.concatenate(feats), cond_labels=np.concatenate(labels))


def _sample_conditioning(rng: np.random.Generator, classes: np.ndarray, batch_size: int, noise_dim: int):
    labels = classes[rng.integers(0, len(classes), size=batch_size)]
    z = rng.standard_normal((batch_size, noise_dim))
    return labels, z


def white_batch_grads(
    gen: nn.MlpParams, gen_cache: nn.ForwardCache, resp: wire.FeedbackResponse, alpha: float
) -> nn.MlpGrads:
    """Generator gradient for one white-box round: backprop ce_grad + alpha*reg_grad."""
    if resp.ce_grad is None:
        raise wire.ProtocolError("white-box training needs the ce gradient in the response")
    feature_grad = resp.ce_grad + alpha * resp.reg_grad
    grads, _ = nn.mlp_backward(gen, gen_cache, feature_grad, input_grad=False)
    return grads


def black_batch_grads(
    gen: nn.MlpParams,
    gen_cache: nn.ForwardCache,
    student: nn.MlpParams,
    features: np.ndarray,
    targets: np.ndarray,
    reg_grad: np.ndarray,
    alpha: float,
) -> tuple[float, nn.MlpGrads, nn.MlpGrads]:
    """Joint gradient for one black-box round.

    The teacher softmax is a constant target: gradient reaches the features
    only through the student's input gradient and the regularizer.
    """
    logits, cache = nn.mlp_forward(student, features)
    probs = nn.softmax(logits)
    mse, grad_probs = nn.loss_mse(probs, targets)
    grad_logits = nn.softmax_vjp(probs, grad_probs)
    student_grads, input_grad = nn.mlp_backward(student, cache, grad_logits)
    feature_grad = input_grad + alpha * reg_grad
    gen_grads, _ = nn.mlp_backward(gen, gen_cache, feature_grad, input_grad=False)
    return mse, gen_grads, student_grads


def train_generator_white(
    gen: nn.MlpParams, channel, semantics: SemanticTable, classes, cfg: TrainConfig
) -> tuple[nn.MlpParams, list[dict]]:
    """White-box loop: upload a generated batch, download gradients, step the generator."""
    classes = np.asarray(sorted(classes), dtype=np.int64)
    state = nn.AdamState.for_params(gen, lr=cfg.lr)
    trace = []
    for epoch in range(cfg.t_g):
        rng = rng_for(cfg.seed, "white-epoch", epoch)
        labels, z = _sample_conditioning(rng, classes, cfg.batch_size, cfg.noise.dim)
        sem_rows = semantics.rows_for(labels)
        features, cache = _forward_generator(gen, z, sem_rows)
        resp = channel.feedback(
            wire.FeedbackRequest(wire.SCENARIO_WHITE, features, labels, want_softmax=False)
        )
        grads = white_batch_grads(gen, cache, resp, cfg.alpha)
        nn.adam_step(gen, grads, state)
        trace.append({"phase": "generator", "epoch": epoch, "ce": resp.ce_value, "reg": resp.reg_value})
    return gen, trace


def train_black(
    gen: nn.MlpParams,
    student: nn.MlpParams,
    channel,
    semantics: SemanticTable,
    classes,
    cfg: TrainConfig,
) -> tuple[nn.MlpParams, nn.MlpParams, list[dict]]:
    """Black-box loop: only softmax + regularizer feedback; generator and student
    update jointly with the teacher held out of backprop."""
    classes = np.asarray(sorted(classes), dtype=np.int64)
    gen_state = nn.AdamState.for_params(gen, lr=cfg.lr)
    stu_state = nn.AdamState.for_params(student, lr=cfg.lr)
    trace = []
    for epoch in range(cfg.t_g):
        rng = rng_for(cfg.seed, "black-epoch", epoch)
        labels, z = _sample_conditioning(rng, classes, cfg.batch_size, cfg.noise.dim)
        sem_rows = semantics.rows_for(labels)
        features, cache = _forward_generator(gen, z, sem_rows)
        resp = channel.feedback(
            wire.FeedbackRequest(wire.SCENARIO_BLACK, features, labels, want_softmax=True)
        )
        mse, gen_grads, stu_grads = black_batch_grads(
            gen, cache, student, features, resp.softmax, resp.reg_grad, cfg.alpha
        )
        nn.adam_step(gen, gen_grads, gen_state)
        nn.adam_step(student, stu_grads, stu_state)
        trace.append({"phase": "generator", "epoch": epoch, "mse": mse, "reg": resp.reg_value})
    return gen, student, trace


def verify(batch: GenerationBatch, softmax: np.ndarray, class_space=None) -> VerifiedBatch:
    """Keep rows whose teacher argmax equals the conditioning class.

    class_space maps softmax columns back to global class ids when the teacher
    head does not cover the full label space (inductive teacher).
    """
    probs = np.asarray(softmax, dtype=np.float64)
    if probs.shape[0] != len(batch.cond_labels):
        raise ValueError("softmax rows must align with the generated batch")
    head = probs.argmax(axis=1)  # ties resolve to the lowest index
    pred = head if class_space is None else np.asarray(class_space, dtype=np.int64)[head]
    keep = pred == batch.cond_labels
    return VerifiedBatch(
        features=batch.features[keep],
        labels=batch.cond_labels[keep],
        teacher_softmax=probs[keep],
        kept_fraction=float(keep.mean()) if len(keep) else 0.0,
    )


def _request_softmax(channel, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Softmax-only (low risk) upload, chunked to keep frames small."""
    rows = []
    for start in range(0, len(features), MAX_UPLOAD_ROWS):
        stop = start + MAX_UPLOAD_ROWS
        resp = channel.feedback(
            wire.FeedbackRequest(wire.SCENARIO_BLACK, features[start:stop], labels[start:stop])
        )
        rows.append(resp.softmax)
    return np.concatenate(rows)


def ensure_quota(gen: nn.MlpParams, channel, semantics: SemanticTable, classes, cfg: TrainConfig) -> QuotaResult:
    """Generate per_class_count rows per class, verify, and retry decimated classes.

    The teacher head's columns are the sorted classes. Kept rows come out class
    by class, round by round within a class. Classes still under quota after
    the retry cap are reported, never padded.
    """
    classes = np.unique(np.asarray(classes, dtype=np.int64))
    if classes.size == 0:
        raise ValueError("empty class space")
    kept = np.zeros(len(classes), dtype=np.int64)
    rounds: list[VerifiedBatch] = []
    generated = 0
    pending = classes
    while pending.size and len(rounds) <= cfg.regen_retry_cap:
        noise = NoiseSpec(cfg.noise.dim, derive_seed(cfg.noise.seed, "quota-round", len(rounds)))
        batch = generate(gen, semantics, pending, cfg.per_class_count, noise)
        generated += len(batch.features)
        softmax = _request_softmax(channel, batch.features, batch.cond_labels)
        if cfg.verify:
            vb = verify(batch, softmax, classes)
        else:
            vb = VerifiedBatch(batch.features, batch.cond_labels, softmax, 1.0)
        rounds.append(vb)
        kept += np.bincount(np.searchsorted(classes, vb.labels), minlength=len(classes))
        pending = classes[kept < cfg.min_verified_per_class]

    labels = np.concatenate([vb.labels for vb in rounds])
    order = np.argsort(labels, kind="stable")
    verified = VerifiedBatch(
        features=np.concatenate([vb.features for vb in rounds])[order],
        labels=labels[order],
        teacher_softmax=np.concatenate([vb.teacher_softmax for vb in rounds])[order],
        kept_fraction=len(labels) / generated,
    )
    short = kept < cfg.min_verified_per_class
    shortfall = dict(zip(classes[short].tolist(), kept[short].tolist()))
    return QuotaResult(verified=verified, shortfall=shortfall, rounds=len(rounds))


def train_student(
    student: nn.MlpParams, verified: VerifiedBatch, cfg: TrainConfig
) -> tuple[nn.MlpParams, list[dict]]:
    """Distill the stored teacher softmax into the student (probability-space MSE)."""
    if len(verified) == 0:
        raise ValueError("verified batch is empty; nothing to distill")

    def loss(logits, idx):
        probs = nn.softmax(logits)
        mse, grad_probs = nn.loss_mse(probs, verified.teacher_softmax[idx])
        return mse, nn.softmax_vjp(probs, grad_probs)

    history = nn.fit_minibatch(
        student, verified.features, loss, cfg.t_s, cfg.batch_size,
        lambda epoch: rng_for(cfg.seed, "student-epoch", epoch).permutation(len(verified)), cfg.lr,
    )
    return student, [{"phase": "student", "epoch": epoch, "mse": mse} for epoch, mse in enumerate(history)]


def train_inductive_classifier(
    gen: nn.MlpParams,
    semantics: SemanticTable,
    class_space,
    cfg: TrainConfig,
    d_x: int,
) -> tuple[nn.MlpParams, np.ndarray]:
    """Softmax classifier (single linear layer) trained on generated features."""
    classes = np.asarray(sorted(class_space), dtype=np.int64)
    if classes.size == 0:
        raise ValueError("empty class space")
    noise = NoiseSpec(cfg.noise.dim, derive_seed(cfg.noise.seed, "classifier-noise"))
    batch = generate(gen, semantics, classes, cfg.per_class_count, noise)
    head_labels = np.searchsorted(classes, batch.cond_labels)

    params = nn.mlp_init(
        nn.classifier_specs(d_x, len(classes), hidden=()),
        nn.ROLE_CLASSIFIER,
        derive_seed(cfg.seed, "classifier-init"),
    )
    nn.fit_minibatch(
        params, batch.features, nn.ce_loss_on(head_labels, len(classes)), cfg.t_s, cfg.batch_size,
        lambda epoch: rng_for(cfg.seed, "classifier-epoch", epoch).permutation(len(batch.features)), cfg.lr,
    )
    return params, classes


@dataclass
class ArtifactBundle:
    """Everything a run produces client-side; serializes to a directory."""

    gen: nn.MlpParams
    student: nn.MlpParams
    student_classes: np.ndarray
    classifier: nn.MlpParams | None
    classifier_classes: np.ndarray | None
    traces: list[dict]
    transcript: RiskLog
    shortfall: dict[int, int]
    cfg: TrainConfig

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(wire.encode_params(self.gen))
        h.update(wire.encode_params(self.student))
        if self.classifier is not None:
            h.update(wire.encode_params(self.classifier))
        h.update(trace_csv(self.traces).encode())
        h.update(self.transcript.digest().encode())
        return h.hexdigest()

    def save(self, outdir: str | Path) -> None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "gen.azw").write_bytes(wire.encode_params(self.gen))
        (outdir / "student.azw").write_bytes(wire.encode_params(self.student))
        if self.classifier is not None:
            (outdir / "classifier.azw").write_bytes(wire.encode_params(self.classifier))
        (outdir / "trace.csv").write_text(trace_csv(self.traces))
        self.transcript.save(outdir / "transcript.json")


def trace_csv(traces: list[dict]) -> str:
    def cell(value):
        if value is None:
            return ""
        return repr(float(value)) if isinstance(value, float) else str(value)

    lines = [",".join(TRACE_COLUMNS)]
    for row in traces:
        lines.append(",".join(cell(row.get(col)) for col in TRACE_COLUMNS))
    return "\n".join(lines) + "\n"


def run_algorithm1(channel, semantics: SemanticTable, cfg: TrainConfig, setup: ClientSetup) -> ArtifactBundle:
    """Full client-side training procedure for either scenario.

    White-box: generator against gradient feedback, then verification, then
    student distillation. Black-box: joint generator+student against output
    feedback, then verification and student refinement. An inductive teacher
    additionally yields a classifier trained purely on generated features.
    """
    gen = nn.mlp_init(
        generator_specs(cfg.noise.dim, semantics.d_a, setup.d_x, setup.generator_hidden),
        nn.ROLE_GENERATOR,
        derive_seed(cfg.seed, "gen-init"),
    )
    student = nn.mlp_init(
        nn.classifier_specs(setup.d_x, len(setup.teacher_classes), setup.student_hidden),
        nn.ROLE_STUDENT,
        derive_seed(cfg.seed, "student-init"),
    )
    if cfg.scenario == wire.SCENARIO_WHITE:
        gen, gen_trace = train_generator_white(gen, channel, semantics, setup.teacher_classes, cfg)
    else:
        gen, student, gen_trace = train_black(gen, student, channel, semantics, setup.teacher_classes, cfg)

    quota = ensure_quota(gen, channel, semantics, setup.teacher_classes, cfg)
    student, student_trace = train_student(student, quota.verified, cfg)

    classifier = classifier_classes = None
    if cfg.teacher_mode == "inductive":
        classifier, classifier_classes = train_inductive_classifier(
            gen, semantics, setup.all_classes, cfg, setup.d_x
        )
    return ArtifactBundle(
        gen=gen,
        student=student,
        student_classes=setup.teacher_classes,
        classifier=classifier,
        classifier_classes=classifier_classes,
        traces=gen_trace + student_trace,
        transcript=channel.transcript,
        shortfall=quota.shortfall,
        cfg=cfg,
    )
