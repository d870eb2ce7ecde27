"""Output checks computed apart from the program.

None of these compares against a stored copy of earlier output. Each one
recomputes a result with code of its own (a weight decoder and forward pass,
the frame layout from wire.py's docstring, textbook regularizer formulas and
finite differences) or tests a property the method must have. Every check
returns a list of failure messages, empty when it holds.
"""
from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

# .azw layout (wire.encode_params): u32 role, u64 seed, u32 n_layers, per layer
# u32 in, u32 out, u32 activation, f64 slope; then per layer a matrix
# (u32 rows, u32 cols, f64 row-major) and a bias (u32 n, f64 values).
ACTIVATION = {1: "leaky_relu", 2: "relu", 3: "identity"}

TOL_PERCENT = 0.01
MAX_UPLOAD_ROWS = 2048


def decode_azw(blob: bytes) -> list[tuple[np.ndarray, np.ndarray, str, float]]:
    off = 4 + 8
    (n_layers,) = struct.unpack_from("<I", blob, off)
    off += 4
    specs = []
    for _ in range(n_layers):
        d_in, d_out, act = struct.unpack_from("<3I", blob, off)
        (slope,) = struct.unpack_from("<d", blob, off + 12)
        specs.append((d_in, d_out, ACTIVATION[act], slope))
        off += 20
    layers = []
    for d_in, d_out, act, slope in specs:
        rows, cols = struct.unpack_from("<2I", blob, off)
        off += 8
        if (rows, cols) != (d_in, d_out):
            raise ValueError(f"weight block {rows}x{cols} does not match layer {d_in}x{d_out}")
        w = np.frombuffer(blob, "<f8", rows * cols, off).reshape(rows, cols)
        off += 8 * rows * cols
        (n_bias,) = struct.unpack_from("<I", blob, off)
        off += 4
        b = np.frombuffer(blob, "<f8", n_bias, off)
        off += 8 * n_bias
        layers.append((w, b, act, slope))
    if off != len(blob):
        raise ValueError("trailing bytes in weight file")
    return layers


def forward(layers, x: np.ndarray) -> np.ndarray:
    for w, b, act, slope in layers:
        z = x @ w + b
        if act == "leaky_relu":
            x = np.where(z > 0.0, z, slope * z)
        elif act == "relu":
            x = np.maximum(z, 0.0)
        else:
            x = z
    return x


def macro_top1(preds: np.ndarray, labels: np.ndarray, classes) -> float:
    accs = [np.mean(preds[labels == c] == c) for c in classes if np.any(labels == c)]
    return 100.0 * float(np.mean(accs))


def read_report(path: Path) -> dict[str, float]:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(": ")
        if sep and key in ("u", "s", "H"):
            out[key] = float(value)
    return out


def check_reports(outdir: Path, dataset, split) -> list[str]:
    """Recompute CZSL u and GZSL u, s, H from the saved weights."""
    inductive = split.teacher_mode == "inductive"
    layers = decode_azw((outdir / ("classifier.azw" if inductive else "student.azw")).read_bytes())
    all_classes = np.arange(dataset.n_classes)
    # both heads cover the sorted class space they were trained on
    head = all_classes if inductive else np.sort(split.teacher_classes)
    unseen = np.sort(split.unseen_classes)

    def predict(rows, space):
        cols = np.searchsorted(head, space)
        return space[forward(layers, dataset.features[rows])[:, cols].argmax(axis=1)]

    rows_u, rows_s = split.client_eval_unseen, split.client_eval_seen
    czsl_u = macro_top1(predict(rows_u, unseen if inductive else head), dataset.labels[rows_u], unseen)
    space = all_classes if inductive else head
    g_u = macro_top1(predict(rows_u, space), dataset.labels[rows_u], unseen)
    g_s = macro_top1(predict(rows_s, space), dataset.labels[rows_s], np.sort(split.seen_classes))
    g_h = 2.0 * g_u * g_s / (g_u + g_s) if g_u + g_s else 0.0

    failures = []
    czsl = read_report(outdir / "report_czsl.txt")
    gzsl = read_report(outdir / "report_gzsl.txt")
    for label, mine, theirs in (
        ("czsl u", czsl_u, czsl.get("u")),
        ("gzsl u", g_u, gzsl.get("u")),
        ("gzsl s", g_s, gzsl.get("s")),
        ("gzsl H", g_h, gzsl.get("H")),
    ):
        if theirs is None or abs(mine - theirs) > TOL_PERCENT:
            failures.append(f"{outdir.name}: {label} recomputed {mine:.4f}, report says {theirs}")
    return failures


def request_rows(size: int, d_x: int) -> int | None:
    """Rows of a feedback request payload: u32 scenario, u32 want_softmax,
    matrix (u32 rows, u32 cols, f64 data), u32 label count, u32 labels."""
    rows, rem = divmod(size - 20, 8 * d_x + 4)
    return rows if rem == 0 and 1 <= rows <= MAX_UPLOAD_ROWS else None


def response_size(rows: int, d_x: int, n_head: int, white_round: bool) -> int:
    """matrix softmax (empty 0x0 when not asked for), f64 reg value, matrix reg
    grad, u32 ce flag and, in white-box rounds, f64 ce value and matrix ce grad."""
    if white_round:
        return 8 + 8 + (8 + 8 * rows * d_x) + 4 + 8 + (8 + 8 * rows * d_x)
    return (8 + 8 * rows * n_head) + 8 + (8 + 8 * rows * d_x) + 4


def check_transcript(path: Path, scenario: str, t_g: int, batch_size: int, d_x: int, n_head: int) -> list[str]:
    """Risk tags and payload sizes of a client transcript."""
    entries = json.loads(path.read_text())["entries"]
    name = path.parent.name
    failures = []
    mid = [e for e in entries if e["risk"] == "mid"]
    if scenario == "black":
        if mid or any(e["kind"] == "weight_blob" for e in entries):
            failures.append(f"{name}: black-box transcript holds mid-risk entries or weight blobs")
    elif len(mid) != t_g or any(e["kind"] != "ce_grad" for e in mid):
        failures.append(f"{name}: white-box transcript has {len(mid)} mid-risk entries, expected {t_g} ce_grad")
    if len(entries) % 2 or len(entries) < 2 * t_g:
        return failures + [f"{name}: {len(entries)} transcript entries do not pair up into feedback rounds"]
    for i in range(0, len(entries), 2):
        up, down = entries[i], entries[i + 1]
        gen_round = i // 2 < t_g
        rows = request_rows(up["size"], d_x)
        if up["direction"] != "up" or down["direction"] != "down" or rows is None:
            failures.append(f"{name}: entry {i} is not a well-formed feedback request ({up['size']} bytes)")
            break
        if gen_round and rows != batch_size:
            failures.append(f"{name}: generator round {i // 2} uploaded {rows} rows, not {batch_size}")
            break
        expect = response_size(rows, d_x, n_head, gen_round and scenario == "white")
        if down["size"] != expect:
            failures.append(f"{name}: response {i + 1} is {down['size']} bytes, layout gives {expect}")
            break
    return failures


def _kl_reference(means, variances, batch, labels) -> float:
    """KL(N(m, v) || N(mu, s)) for diagonal Gaussians, averaged over classes."""
    total = 0.0
    classes = np.unique(labels)
    for c in classes:
        x = batch[labels == c]
        m = x.mean(axis=0)
        v = np.maximum(((x - m) ** 2).mean(axis=0), 1e-6)
        mu, s = means[c], variances[c]
        total += 0.5 * np.sum(np.log(s / v) + (v + (m - mu) ** 2) / s - 1.0)
    return total / len(classes)


def _mmd_reference(refs, h2, batch, labels) -> float:
    """Biased squared MMD with an RBF kernel, from explicit pairwise differences."""

    def k_mean(a, b):
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        return np.exp(-d2 / h2).mean()

    total = 0.0
    classes = np.unique(labels)
    for c in classes:
        x, y = batch[labels == c], refs[c]
        total += k_mean(x, x) + k_mean(y, y) - 2.0 * k_mean(x, y)
    return total / len(classes)


def check_regularizers(seed: int) -> list[str]:
    """reg_value_grad against the formulas above and central finite differences."""
    from azsl.regularizers import RegularizerState, reg_value_grad

    rng = np.random.default_rng(seed)
    n_classes, rows_per_class, d = 3, 4, 5
    labels = np.tile(np.arange(n_classes), rows_per_class)
    batch = rng.standard_normal((len(labels), d)) + 1.0
    means = {c: rng.standard_normal(d) for c in range(n_classes)}
    variances = {c: rng.uniform(0.5, 2.0, d) for c in range(n_classes)}
    refs = {c: rng.standard_normal((7, d)) for c in range(n_classes)}
    h2 = float(d)
    cases = (
        ("kl", RegularizerState("kl", 1.0, class_means=means, class_vars=variances),
         lambda b: _kl_reference(means, variances, b, labels)),
        ("mmd", RegularizerState("mmd", 1.0, class_refs=refs, bandwidth_sq=h2),
         lambda b: _mmd_reference(refs, h2, b, labels)),
    )
    failures = []
    eps = 1e-6
    for kind, state, reference in cases:
        value, grad = reg_value_grad(state, batch, labels)
        expect = reference(batch)
        if not np.isclose(value, expect, rtol=1e-9, atol=1e-12):
            failures.append(f"{kind}: value {value!r} differs from the formula {expect!r}")
        numeric = np.zeros_like(batch)
        for idx in np.ndindex(*batch.shape):
            hi, lo = batch.copy(), batch.copy()
            hi[idx] += eps
            lo[idx] -= eps
            numeric[idx] = (reference(hi) - reference(lo)) / (2 * eps)
        err = np.max(np.abs(grad - numeric)) / max(np.max(np.abs(numeric)), 1e-8)
        if err > 1e-5:
            failures.append(f"{kind}: gradient differs from finite differences (relative error {err:.2e})")
    return failures
