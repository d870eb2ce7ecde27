"""Data-owner side: teacher training, feedback answering, serving.

Real feature rows never leave this module: responses contain only softmax rows,
scalars, and batch-shaped gradients. White-box requests additionally get the
cross-entropy gradient *through* the teacher (weights stay server-side) and
that is the only mid-risk feedback kind. `TeacherServer.handle_payload` alone
applies the scenario policy and logs what crosses the server's end.
"""
from __future__ import annotations

import select
import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from . import audit, nn, wire
from .data import Dataset, SplitBundle
from .regularizers import RegularizerState, reg_value_grad
from .seeding import rng_for

IDLE_TIMEOUT_S = 300.0  # a connection silent this long is dropped


@dataclass
class TeacherModel:
    """Trained teacher plus the ordered class ids its head columns map to."""

    params: nn.MlpParams
    class_space: np.ndarray
    loss_trace: list[float] = field(default_factory=list)

    def __post_init__(self):
        self.class_space = np.asarray(sorted(self.class_space), dtype=np.int64)
        if self.params.out_dim != len(self.class_space):
            raise ValueError("teacher head size must match its class space")

    def head_index(self, labels) -> np.ndarray:
        labels = np.asarray(labels, dtype=np.int64)
        idx = np.searchsorted(self.class_space, labels)
        bad = (idx >= len(self.class_space)) | (self.class_space[np.minimum(idx, len(self.class_space) - 1)] != labels)
        if bad.any():
            raise wire.ProtocolError(f"labels outside teacher class space: {np.unique(labels[bad])}")
        return idx


def train_teacher(
    dataset: Dataset,
    split: SplitBundle,
    epochs: int = 200,
    batch_size: int = 64,
    seed: int = 0,
    hidden=(1024, 512),
    lr: float = 1e-5,
) -> TeacherModel:
    """Cross-entropy + Adam on the teacher_train rows; fully seeded."""
    rows = split.teacher_train
    if rows.size == 0:
        raise ValueError("empty teacher training set")
    class_space = split.teacher_classes
    labels = dataset.labels[rows]

    params = nn.mlp_init(nn.classifier_specs(dataset.d_x, len(class_space), hidden), nn.ROLE_TEACHER, seed)
    model = TeacherModel(params=params, class_space=class_space)
    head_labels = model.head_index(labels)

    # head labels by dataset row id, so each minibatch is gathered from
    # dataset.features by its row ids as it is needed
    head_by_row = np.zeros(len(dataset.labels), dtype=np.int64)
    head_by_row[rows] = head_labels

    rng = rng_for(seed, "teacher-batches")  # one stream across all epochs
    model.loss_trace = nn.fit_minibatch(
        params, dataset.features, nn.ce_loss_on(head_by_row, len(class_space)), epochs, batch_size,
        lambda _epoch: rows[rng.permutation(len(rows))], lr,
    )
    return model


def feedback(
    teacher: TeacherModel, reg_state: RegularizerState, request: wire.FeedbackRequest
) -> wire.FeedbackResponse:
    """Answer one uploaded batch as asked; the caller applies the policy, encodes and logs."""
    if request.batch.shape[1] != teacher.params.in_dim:
        raise wire.ProtocolError(
            f"batch has {request.batch.shape[1]} columns, teacher expects {teacher.params.in_dim}"
        )
    if not np.isfinite(request.batch).all():
        raise wire.ProtocolError("uploaded batch contains non-finite values")
    head_labels = teacher.head_index(request.cond_labels)

    white = request.scenario == wire.SCENARIO_WHITE
    # only a white-box answer backpropagates through the teacher
    logits, cache = nn.mlp_forward(teacher.params, request.batch, cache=white)
    probs = nn.softmax(logits)
    reg_value, reg_grad = reg_value_grad(reg_state, request.batch, request.cond_labels)

    ce_value = ce_grad = None
    if white:
        ce_value, grad_logits = nn.loss_ce(probs, head_labels)
        _, ce_grad = nn.mlp_backward(teacher.params, cache, grad_logits, param_grads=False)

    return wire.FeedbackResponse(
        softmax=probs if request.want_softmax else None,
        reg_value=reg_value,
        reg_grad=reg_grad,
        ce_value=ce_value,
        ce_grad=ce_grad,
    )


class TeacherServer:
    """Stateful request handler shared by the in-process channel and the TCP loop."""

    def __init__(self, teacher: TeacherModel, reg_state: RegularizerState, scenario: str):
        if scenario not in wire.SCENARIOS:
            raise ValueError(f"unknown scenario {scenario!r}")
        self.teacher = teacher
        self.reg_state = reg_state
        self.scenario = scenario
        self.log = audit.RiskLog()

    def handle_payload(self, kind: int, payload: bytes) -> tuple[int, bytes]:
        """Decode one request payload, apply the scenario policy, answer it; log the request and the reply.

        Every entry of a decoded request's exchange, error replies included,
        carries the request's scenario, as the client logs it; a payload that
        does not decode gets the server's own.
        """
        scenario = self.scenario
        try:
            if kind == wire.KIND_FEEDBACK_REQUEST:
                request = wire.decode_feedback_request(payload)
                scenario = request.scenario
                self.log.record(kind, payload, scenario)
                if self.scenario == wire.SCENARIO_BLACK and scenario == wire.SCENARIO_WHITE:
                    raise wire.ProtocolError("white-box feedback refused: server is black-box only")
                resp = feedback(self.teacher, self.reg_state, request)
                reply = wire.KIND_FEEDBACK_RESPONSE, wire.encode_feedback_response(resp)
            elif kind == wire.KIND_WEIGHT_REQUEST:
                scenario = wire.decode_weight_request(payload)
                self.log.record(kind, payload, scenario)
                if wire.SCENARIO_BLACK in (self.scenario, scenario):
                    raise wire.ProtocolError("weight export refused outside the white-box scenario")
                reply = wire.KIND_WEIGHT_BLOB, wire.encode_params(self.teacher.params)
            else:
                raise wire.ProtocolError(f"unsupported message kind {kind}", code=wire.ERR_BAD_KIND)
        except wire.ProtocolError as exc:
            reply = wire.KIND_ERROR, wire.encode_error(exc.code, str(exc))
        except Exception as exc:  # keep the loop alive; leak no internals
            reply = wire.KIND_ERROR, wire.encode_error(wire.ERR_SERVER, f"server error: {exc}")
        self.log.record(*reply, scenario)
        return reply


def serve(
    endpoint: tuple[str, int],
    server: TeacherServer,
    stop_event: threading.Event | None = None,
    ready: "callable | None" = None,
) -> None:
    """Answer framed requests until stop_event is set; one request at a time."""
    if stop_event is None:
        stop_event = threading.Event()
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind(endpoint)
    sock.listen(4)
    sock.settimeout(0.2)
    if ready is not None:
        ready(sock.getsockname())
    try:
        while not stop_event.is_set():
            try:
                conn, _ = sock.accept()
            except socket.timeout:
                continue
            with conn:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # no Nagle wait on a reply's tail
                # generous idle timeout: clients legitimately go quiet during
                # local training phases between requests
                conn.settimeout(IDLE_TIMEOUT_S)
                last_frame = time.monotonic()
                while True:
                    # wait for a frame's first byte in short ticks, so that stop is seen while a client idles
                    if not select.select([conn], [], [], 0.2)[0]:
                        if stop_event.is_set() or time.monotonic() - last_frame > IDLE_TIMEOUT_S:
                            break
                        continue
                    try:
                        frame = wire.recv_frame(conn)
                    except wire.ProtocolError as exc:
                        err = wire.encode_error(exc.code, str(exc))
                        server.log.record(wire.KIND_ERROR, err, server.scenario)
                        try:
                            wire.send_frame(conn, wire.KIND_ERROR, err)
                        except OSError:
                            pass
                        break  # malformed framing: close the connection
                    except OSError:
                        break  # a frame stalled past the timeout, or a reset: drop this connection only
                    if frame is None:
                        break  # the client closed between frames
                    out_kind, out_payload = server.handle_payload(*frame)
                    try:
                        wire.send_frame(conn, out_kind, out_payload)
                    except OSError:
                        break  # client went away; next connection
                    last_frame = time.monotonic()
    finally:
        sock.close()
