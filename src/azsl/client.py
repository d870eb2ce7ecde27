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
    """The quota's kept rows: generated features, their conditioning labels and
    teacher softmax. Under verification these are the rows whose teacher argmax
    matched their label; with it off, every generated row."""

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
    gen: nn.MlpParams, gen_cache: nn.ForwardCache, resp: wire.FeedbackResponse, alpha: float, out=None
) -> nn.MlpGrads:
    """Generator gradient for one white-box round: backprop ce_grad + alpha*reg_grad (into out, if given)."""
    if resp.ce_grad is None:
        raise wire.ProtocolError("white-box training needs the ce gradient in the response")
    feature_grad = resp.ce_grad + alpha * resp.reg_grad
    layer_grads, _ = nn.mlp_backward(gen, gen_cache, feature_grad, input_grad=False)
    return nn.backward_weights(gen, gen_cache, layer_grads, out=out)


def black_batch_grads(
    gen: nn.MlpParams,
    gen_cache: nn.ForwardCache,
    student: nn.MlpParams,
    student_cache: nn.ForwardCache,
    probs: np.ndarray,
    targets: np.ndarray,
    reg_grad: np.ndarray,
    alpha: float,
    out: nn.MlpGrads | None = None,
) -> tuple[float, nn.MlpGrads, list[np.ndarray]]:
    """One black-box round's MSE, generator grads (into out, if given) and the
    student's per-layer gradients from nn.mlp_backward, which nn.backward_weights
    turns into its weight grads; probs is the student's softmax of the round's
    features, from the forward pass that left student_cache.

    The teacher softmax is a constant target: gradient reaches the features
    only through the student's input gradient and the regularizer.
    """
    mse, grad_probs = nn.loss_mse(probs, targets)
    layer_grads, input_grad = nn.mlp_backward(student, student_cache, nn.softmax_vjp(probs, grad_probs))
    gen_layer_grads, _ = nn.mlp_backward(gen, gen_cache, input_grad + alpha * reg_grad, input_grad=False)
    return mse, nn.backward_weights(gen, gen_cache, gen_layer_grads, out=out), layer_grads


def _generator_rounds(
    gen: nn.MlpParams, channel, semantics: SemanticTable, classes, cfg: ExperimentConfig, scenario: str, step,
    wait=None,
) -> list[dict]:
    """The t_g feedback rounds of either scenario; `step(cache, resp)` applies one
    round's response, given the generator's forward cache, and returns its trace
    values. While a reply is in flight the client draws the next round, then
    runs `wait(features)`, if given, on the features just sent (read only)."""
    classes = np.asarray(sorted(classes), dtype=np.int64)

    def draw(epoch):
        rng = rng_for(cfg.client_seed, f"{scenario}-epoch", epoch)
        labels = classes[rng.integers(0, len(classes), size=cfg.batch_size)]
        z = rng.standard_normal((cfg.batch_size, cfg.noise_dim))
        return labels, z, semantics.rows_for(labels)

    trace, drawn = [], draw(0) if cfg.t_g else None
    for epoch in range(cfg.t_g):
        labels, z, sem_rows = drawn
        features, cache = _forward_generator(gen, z, sem_rows)

        def meanwhile(epoch=epoch, features=features):
            nonlocal drawn
            drawn = draw(epoch + 1) if epoch + 1 < cfg.t_g else None
            if wait is not None:
                wait(features)

        resp = channel.feedback(
            wire.FeedbackRequest(scenario, features, labels, want_softmax=scenario == wire.SCENARIO_BLACK), meanwhile
        )
        trace.append({"phase": "generator", "epoch": epoch, **step(cache, resp), "reg": resp.reg_value})
    return trace


def train_generator_white(
    gen: nn.MlpParams, channel, semantics: SemanticTable, classes, cfg: ExperimentConfig
) -> tuple[nn.MlpParams, list[dict]]:
    """White-box loop: upload a generated batch, download gradients, step the generator."""
    state = nn.AdamState.for_params(gen, lr=cfg.lr)
    grads = nn.MlpGrads.empty_like(gen)  # rewritten by every round

    def step(cache, resp):
        nn.adam_step(gen, white_batch_grads(gen, cache, resp, cfg.alpha, out=grads), state)
        return {"ce": resp.ce_value}

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
    update jointly with the teacher held out of backprop. Between a reply and
    the next request the client runs only what that request needs: the
    student's loss gradient and input-gradient chain, the generator's backward
    pass and Adam step, and the next generator forward pass. The next reply
    wait turns that chain's per-layer gradients into the student's weight
    gradients (nn.backward_weights), steps the student, and runs it on the
    features just sent, as a sequential loop would; the last student step runs
    before this returns."""
    gen_state = nn.AdamState.for_params(gen, lr=cfg.lr)
    stu_state = nn.AdamState.for_params(student, lr=cfg.lr)
    gen_grads, stu_grads = nn.MlpGrads.empty_like(gen), nn.MlpGrads.empty_like(student)  # rewritten by every round
    stu_cache = probs = layer_grads = None

    def step_student():
        nonlocal stu_cache, layer_grads
        if layer_grads is not None:
            nn.adam_step(student, nn.backward_weights(student, stu_cache, layer_grads, out=stu_grads), stu_state)
        stu_cache = layer_grads = None

    def wait(features):
        nonlocal stu_cache, probs
        step_student()
        logits, stu_cache = nn.mlp_forward(student, features)
        probs = nn.softmax(logits)

    def step(cache, resp):
        nonlocal layer_grads
        mse, grads, layer_grads = black_batch_grads(
            gen, cache, student, stu_cache, probs, resp.softmax, resp.reg_grad, cfg.alpha, out=gen_grads
        )
        nn.adam_step(gen, grads, gen_state)
        return {"mse": mse}

    trace = _generator_rounds(gen, channel, semantics, classes, cfg, wire.SCENARIO_BLACK, step, wait)
    step_student()
    return gen, student, trace


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

    A round generates rows for the classes still under quota and asks the
    teacher for their softmax; it keeps its verified rows (every row when
    cfg.verify is off) with their softmax and labels, and drops the rest before
    the next round. The teacher head's columns are the sorted classes. Kept rows
    come out class by class, round by round within a class. Classes still under
    quota after the retry cap are reported, never padded.
    """
    classes = np.unique(np.asarray(classes, dtype=np.int64))
    if classes.size == 0:
        raise ValueError("empty class space")
    kept = np.zeros(len(classes), dtype=np.int64)
    features, softmaxes, labels = [], [], []
    generated = rounds = 0
    pending = classes
    while pending.size and rounds <= cfg.retry_cap:
        noise_seed = derive_seed(cfg.noise_seed, "quota-round", rounds)
        batch = generate(gen, semantics, pending, cfg.per_class_count, noise_seed)
        softmax = _request_softmax(channel, batch.features, batch.cond_labels)
        keep = verify(batch, softmax, classes) if cfg.verify else slice(None)
        features.append(batch.features[keep])
        softmaxes.append(softmax[keep])
        labels.append(batch.cond_labels[keep])
        generated += len(batch.features)
        del batch, softmax  # the round's unverified rows go before the next is generated
        kept += np.bincount(np.searchsorted(classes, labels[-1]), minlength=len(classes))
        pending = classes[kept < cfg.min_verified]
        rounds += 1

    labels = np.concatenate(labels)
    order = np.argsort(labels, kind="stable")
    verified = VerifiedBatch(
        features=np.concatenate(features)[order],
        labels=labels[order],
        teacher_softmax=np.concatenate(softmaxes)[order],
        kept_fraction=len(labels) / generated,
    )
    short = kept < cfg.min_verified
    shortfall = dict(zip(classes[short].tolist(), kept[short].tolist()))
    return QuotaResult(verified=verified, shortfall=shortfall, rounds=rounds)


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
