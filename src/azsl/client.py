"""Data-free client: conditional generator, student, and the two training scenarios.

This module never touches real feature rows — its only inputs are the semantic
table, class ids, noise, and channel responses. (Deliberately, nothing here
imports the Dataset container.)
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn, wire
from .audit import RiskLog
from .config import ExperimentConfig
from .data import SemanticTable
from .seeding import derive_seed, rng_for

MAX_UPLOAD_ROWS = 2048  # keeps every request frame far below the payload cap

TRACE_COLUMNS = ("phase", "epoch", "ce", "reg", "mse")


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


def generator_specs(noise_dim: int, d_a: int, d_x: int, hidden=(4096,)) -> list[nn.LayerSpec]:
    """Conditional generator: concat(z, a) -> leaky-ReLU hidden -> ReLU feature output."""
    dims = [noise_dim + d_a, *hidden]
    specs = [nn.LayerSpec(a, b, nn.ACT_LEAKY_RELU) for a, b in zip(dims[:-1], dims[1:])]
    specs.append(nn.LayerSpec(dims[-1], d_x, nn.ACT_RELU))
    return specs


def _forward_generator(gen: nn.MlpParams, z: np.ndarray, sem_rows: np.ndarray, cache: bool = True):
    if gen.role != nn.ROLE_GENERATOR:
        raise ValueError(f"expected a generator net, got role {gen.role!r}")
    batch = np.hstack([z, sem_rows])
    return nn.mlp_forward(gen, batch, cache=cache)


def generate(
    gen: nn.MlpParams,
    semantics: SemanticTable,
    classes,
    count_per_class: int,
    noise_seed: int,
) -> GenerationBatch:
    """count_per_class draws per class, assembled in fixed (sorted) class order.

    The noise fills the generator inputs that the semantic row leaves over.
    Each class's noise is seeded by its rank in the sorted request, so its
    block depends on the other classes requested ([1, 2] vs [2] for class 2).
    """
    classes = np.asarray(sorted(set(int(c) for c in np.asarray(classes).ravel())), dtype=np.int64)
    noise_dim = gen.in_dim - semantics.d_a
    if noise_dim < 1:
        raise ValueError(f"generator has {gen.in_dim} inputs, no more than the {semantics.d_a} semantic columns")
    feats = np.empty((len(classes) * count_per_class, gen.out_dim))
    for pos, c in enumerate(classes):
        rng = rng_for(noise_seed, "noise", pos)
        z = rng.standard_normal((count_per_class, noise_dim))
        sem_rows = np.tile(semantics.rows_for([c]), (count_per_class, 1))
        x, _ = _forward_generator(gen, z, sem_rows, cache=False)
        feats[pos * count_per_class : (pos + 1) * count_per_class] = x
    return GenerationBatch(features=feats, cond_labels=np.repeat(classes, count_per_class))


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


def _generator_rounds(
    gen: nn.MlpParams, channel, semantics: SemanticTable, classes, cfg: ExperimentConfig, scenario: str, step
) -> list[dict]:
    """The t_g feedback rounds of either scenario; `step(features, cache, resp)`
    applies one round's response and returns its trace values and the work it
    leaves for the next round's reply wait (or None). That wait also draws the
    round after; neither touches what its round sent."""
    classes = np.asarray(sorted(classes), dtype=np.int64)

    def draw(epoch):
        rng = rng_for(cfg.client_seed, f"{scenario}-epoch", epoch)
        labels = classes[rng.integers(0, len(classes), size=cfg.batch_size)]
        z = rng.standard_normal((cfg.batch_size, cfg.noise_dim))
        return labels, z, semantics.rows_for(labels)

    trace, left, drawn = [], None, draw(0) if cfg.t_g else None
    for epoch in range(cfg.t_g):
        labels, z, sem_rows = drawn
        features, cache = _forward_generator(gen, z, sem_rows)

        def meanwhile(epoch=epoch, left=left):
            nonlocal drawn
            if left is not None:
                left()
            drawn = draw(epoch + 1) if epoch + 1 < cfg.t_g else None

        resp = channel.feedback(
            wire.FeedbackRequest(scenario, features, labels, want_softmax=scenario == wire.SCENARIO_BLACK), meanwhile
        )
        values, left = step(features, cache, resp)
        trace.append({"phase": "generator", "epoch": epoch, **values, "reg": resp.reg_value})
    if left is not None:
        left()
    return trace


def train_generator_white(
    gen: nn.MlpParams, channel, semantics: SemanticTable, classes, cfg: ExperimentConfig
) -> tuple[nn.MlpParams, list[dict]]:
    """White-box loop: upload a generated batch, download gradients, step the generator."""
    state = nn.AdamState.for_params(gen, lr=cfg.lr)

    def step(features, cache, resp):
        nn.adam_step(gen, white_batch_grads(gen, cache, resp, cfg.alpha), state)
        return {"ce": resp.ce_value}, None

    return gen, _generator_rounds(gen, channel, semantics, classes, cfg, wire.SCENARIO_WHITE, step)


def train_black(
    gen: nn.MlpParams,
    student: nn.MlpParams,
    channel,
    semantics: SemanticTable,
    classes,
    cfg: ExperimentConfig,
) -> tuple[nn.MlpParams, nn.MlpParams, list[dict]]:
    """Black-box loop: only softmax + regularizer feedback; generator and student
    update jointly with the teacher held out of backprop. A round's student step
    runs in the next reply wait, as that request needs only the generator; the
    last runs before this returns."""
    gen_state = nn.AdamState.for_params(gen, lr=cfg.lr)
    stu_state = nn.AdamState.for_params(student, lr=cfg.lr)

    def step(features, cache, resp):
        mse, gen_grads, stu_grads = black_batch_grads(
            gen, cache, student, features, resp.softmax, resp.reg_grad, cfg.alpha
        )
        nn.adam_step(gen, gen_grads, gen_state)
        return {"mse": mse}, lambda: nn.adam_step(student, stu_grads, stu_state)

    return gen, student, _generator_rounds(gen, channel, semantics, classes, cfg, wire.SCENARIO_BLACK, step)


def verify(batch: GenerationBatch, softmax: np.ndarray, class_space) -> np.ndarray:
    """The keep mask: the rows whose teacher argmax equals their conditioning class.

    class_space maps softmax columns back to global class ids: the teacher head
    covers only the seen classes under an inductive teacher.
    """
    if softmax.shape[0] != len(batch.cond_labels):
        raise ValueError("softmax rows must align with the generated batch")
    head = softmax.argmax(axis=1)  # ties resolve to the lowest index
    pred = np.asarray(class_space, dtype=np.int64)[head]
    return pred == batch.cond_labels


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


def ensure_quota(gen: nn.MlpParams, channel, semantics: SemanticTable, classes, cfg: ExperimentConfig) -> QuotaResult:
    """Generate per_class_count rows per class, verify, and retry decimated classes.

    The teacher head's columns are the sorted classes. Kept rows come out class
    by class, round by round within a class. Classes still under quota after
    the retry cap are reported, never padded.
    """
    classes = np.unique(np.asarray(classes, dtype=np.int64))
    if classes.size == 0:
        raise ValueError("empty class space")
    kept = np.zeros(len(classes), dtype=np.int64)
    # per round: its generated features and softmax, the indices of its
    # verified rows in them and those rows' labels
    rounds: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    generated = 0
    pending = classes

    def another_round() -> bool:
        return bool(pending.size) and len(rounds) <= cfg.retry_cap

    while another_round():
        noise_seed = derive_seed(cfg.noise_seed, "quota-round", len(rounds))
        batch = generate(gen, semantics, pending, cfg.per_class_count, noise_seed)
        generated += len(batch.features)
        softmax = _request_softmax(channel, batch.features, batch.cond_labels)
        if cfg.verify:
            rows = np.flatnonzero(verify(batch, softmax, classes))
        else:
            rows = np.arange(len(batch.features))
        labels = batch.cond_labels[rows]
        rounds.append((batch.features, softmax, rows, labels))
        kept += np.bincount(np.searchsorted(classes, labels), minlength=len(classes))
        pending = classes[kept < cfg.min_verified]
        if another_round():
            # a retry follows: hold this round's verified rows only
            rounds[-1] = (batch.features[rows], softmax[rows], np.arange(len(rows)), labels)
        del batch, softmax  # a cut round's whole batch goes before the next is generated

    # Kept rows class by class, round by round within a class: the class order
    # composed with each round's kept indices picks every output row's source,
    # and each output array is gathered once from the generated rows.
    labels = np.concatenate([round_labels for *_, round_labels in rounds])
    order = np.argsort(labels, kind="stable")
    src_round = np.repeat(np.arange(len(rounds)), [len(rows) for _, _, rows, _ in rounds])[order]
    src_row = np.concatenate([rows for _, _, rows, _ in rounds])[order]
    verified = VerifiedBatch(
        features=_gather([features for features, _, _, _ in rounds], src_round, src_row),
        labels=labels[order],
        teacher_softmax=_gather([softmax for _, softmax, _, _ in rounds], src_round, src_row),
        kept_fraction=len(labels) / generated,
    )
    short = kept < cfg.min_verified
    shortfall = dict(zip(classes[short].tolist(), kept[short].tolist()))
    return QuotaResult(verified=verified, shortfall=shortfall, rounds=len(rounds))


def _gather(parts: list[np.ndarray], src_part: np.ndarray, src_row: np.ndarray) -> np.ndarray:
    """Row i is parts[src_part[i]][src_row[i]], each row copied once."""
    if len(parts) == 1:
        return parts[0][src_row]
    out = np.empty((len(src_row), parts[0].shape[1]))
    for p, part in enumerate(parts):
        dest = np.flatnonzero(src_part == p)
        out[dest] = part[src_row[dest]]
    return out


def train_student(
    student: nn.MlpParams, verified: VerifiedBatch, cfg: ExperimentConfig
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
        lambda epoch: rng_for(cfg.client_seed, "student-epoch", epoch).permutation(len(verified)), cfg.lr,
    )
    return student, [{"phase": "student", "epoch": epoch, "mse": mse} for epoch, mse in enumerate(history)]


def train_inductive_classifier(gen: nn.MlpParams, semantics: SemanticTable, cfg: ExperimentConfig) -> nn.MlpParams:
    """Softmax classifier (single linear layer) trained on generated features
    of every class; head column c is class c."""
    n_classes = semantics.n_classes
    noise_seed = derive_seed(cfg.noise_seed, "classifier-noise")
    batch = generate(gen, semantics, range(n_classes), cfg.per_class_count, noise_seed)
    params = nn.mlp_init(
        nn.classifier_specs(gen.out_dim, n_classes, hidden=()),
        nn.ROLE_CLASSIFIER,
        derive_seed(cfg.client_seed, "classifier-init"),
    )
    nn.fit_minibatch(
        params, batch.features, nn.ce_loss_on(batch.cond_labels, n_classes), cfg.t_s, cfg.batch_size,
        lambda epoch: rng_for(cfg.client_seed, "classifier-epoch", epoch).permutation(len(batch.features)), cfg.lr,
    )
    return params


@dataclass
class ArtifactBundle:
    """Everything a run produces client-side; serializes to a directory.

    The evaluated head covers every class, and its column c is class c: the
    student's under a transductive teacher, whose classes are all of them, and
    the classifier's under an inductive one.
    """

    gen: nn.MlpParams
    student: nn.MlpParams
    classifier: nn.MlpParams | None
    traces: list[dict]
    transcript: RiskLog
    shortfall: dict[int, int]
    cfg: ExperimentConfig

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


def run_algorithm1(
    channel, semantics: SemanticTable, cfg: ExperimentConfig, d_x: int, teacher_classes
) -> ArtifactBundle:
    """Full client-side training procedure for either scenario.

    White-box: generator against gradient feedback, then verification, then
    student distillation. Black-box: joint generator+student against output
    feedback, then verification and student refinement. An inductive teacher
    additionally yields a classifier trained purely on generated features.
    """
    teacher_classes = np.asarray(sorted(teacher_classes), dtype=np.int64)
    gen = nn.mlp_init(
        generator_specs(cfg.noise_dim, semantics.d_a, d_x, cfg.generator_hidden),
        nn.ROLE_GENERATOR,
        derive_seed(cfg.client_seed, "gen-init"),
    )
    student = nn.mlp_init(
        nn.classifier_specs(d_x, len(teacher_classes), cfg.teacher_hidden),
        nn.ROLE_STUDENT,
        derive_seed(cfg.client_seed, "student-init"),
    )
    if cfg.scenario == wire.SCENARIO_WHITE:
        gen, gen_trace = train_generator_white(gen, channel, semantics, teacher_classes, cfg)
    else:
        gen, student, gen_trace = train_black(gen, student, channel, semantics, teacher_classes, cfg)

    quota = ensure_quota(gen, channel, semantics, teacher_classes, cfg)
    student, student_trace = train_student(student, quota.verified, cfg)

    classifier = train_inductive_classifier(gen, semantics, cfg) if cfg.teacher_mode == "inductive" else None
    return ArtifactBundle(
        gen=gen,
        student=student,
        classifier=classifier,
        traces=gen_trace + student_trace,
        transcript=channel.transcript,
        shortfall=quota.shortfall,
        cfg=cfg,
    )
