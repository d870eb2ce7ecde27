"""Framed wire protocol and canonical message serialization.

Frame layout: magic "AZSP", version u8=1, kind u8, payload length u32 LE,
payload. Payload scalars are u32/f64 little-endian; matrices are row-major
f64 preceded by (rows u32, cols u32). The in-process channel routes through
exactly these encoders, so transport never changes a byte.
"""
from __future__ import annotations

import socket
import struct
from dataclasses import dataclass

import numpy as np

from . import nn

MAGIC = b"AZSP"
VERSION = 1
MAX_PAYLOAD = 64 * 1024 * 1024

KIND_FEEDBACK_REQUEST = 1
KIND_FEEDBACK_RESPONSE = 2
KIND_WEIGHT_REQUEST = 3
KIND_WEIGHT_BLOB = 4
KIND_ERROR = 255

ERR_BAD_FRAME = 1
ERR_BAD_VERSION = 2
ERR_BAD_KIND = 3
ERR_PROTOCOL = 4
ERR_SERVER = 5

SCENARIO_WHITE = "white"
SCENARIO_BLACK = "black"
SCENARIOS = (SCENARIO_WHITE, SCENARIO_BLACK)
_SCENARIO_CODE = {SCENARIO_WHITE: 1, SCENARIO_BLACK: 2}
_SCENARIO_NAME = {v: k for k, v in _SCENARIO_CODE.items()}


class ProtocolError(Exception):
    """Wire or policy violation; `code` maps onto the error-frame code."""

    def __init__(self, message: str, code: int = ERR_PROTOCOL):
        super().__init__(message)
        self.code = code


@dataclass
class FeedbackRequest:
    """One uploaded batch of generated rows plus its conditioning classes."""

    scenario: str
    batch: np.ndarray
    cond_labels: np.ndarray
    want_softmax: bool = True

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ProtocolError(f"unknown scenario {self.scenario!r}")
        self.batch = np.asarray(self.batch, dtype=np.float64)
        self.cond_labels = np.asarray(self.cond_labels, dtype=np.int64)
        if self.batch.ndim != 2 or self.cond_labels.shape != (self.batch.shape[0],):
            raise ProtocolError("batch rows and conditioning labels must align")
        if self.batch.shape[0] == 0:
            raise ProtocolError("feedback request has no rows")
        if self.cond_labels.min() < 0:
            raise ProtocolError("conditioning labels must be non-negative")


@dataclass(slots=True)
class FeedbackResponse:
    """Teacher feedback; ce fields are present only for white-box requests."""

    softmax: np.ndarray | None
    reg_value: float
    reg_grad: np.ndarray
    ce_value: float | None = None
    ce_grad: np.ndarray | None = None


class _Writer:
    def __init__(self):
        self.parts: list = []  # bytes and contiguous little-endian arrays

    def u16(self, v: int):
        self.parts.append(struct.pack("<H", v))

    def u32(self, v: int):
        self.parts.append(struct.pack("<I", v))

    def u64(self, v: int):
        self.parts.append(struct.pack("<Q", v))

    def f64(self, v: float):
        self.parts.append(struct.pack("<d", v))

    def matrix(self, m: np.ndarray | None):
        if m is None:
            m = np.zeros((0, 0))
        m = np.ascontiguousarray(m, dtype="<f8")
        self.u32(m.shape[0])
        self.u32(m.shape[1])
        self.parts.append(m)  # joined as it is: getvalue makes the one copy

    def u32_list(self, values):
        values = np.asarray(values, dtype=np.int64)
        self.u32(len(values))
        self.parts.append(values.astype("<u4"))

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    __slots__ = ("data", "off")

    def __init__(self, data: bytes | bytearray):
        # taking a slice copies nothing, and every view of it is read-only, a bytearray's too
        self.data = memoryview(data).toreadonly()
        self.off = 0

    def _skip(self, n: int) -> int:
        """Move past the next n bytes; returns where they start."""
        if self.off + n > len(self.data):
            raise ProtocolError("truncated payload", code=ERR_BAD_FRAME)
        self.off += n
        return self.off - n

    def _take(self, n: int) -> memoryview:
        start = self._skip(n)
        return self.data[start : start + n]

    def u32(self) -> int:
        return struct.unpack_from("<I", self.data, self._skip(4))[0]

    def u64(self) -> int:
        return struct.unpack_from("<Q", self.data, self._skip(8))[0]

    def f64(self) -> float:
        return struct.unpack_from("<d", self.data, self._skip(8))[0]

    def matrix(self) -> np.ndarray:
        """The next matrix, as a read-only view of the payload.

        The view copies nothing and keeps the payload alive as long as it
        lives; writing to it raises ValueError.
        """
        rows, cols = self.u32(), self.u32()
        if rows * cols * 8 > MAX_PAYLOAD:
            raise ProtocolError("matrix exceeds payload cap", code=ERR_BAD_FRAME)
        # one array object straight on the payload: no memoryview slice, no 1-D array to reshape
        return np.ndarray((rows, cols), dtype="<f8", buffer=self.data, offset=self._skip(rows * cols * 8))

    def u32_list(self) -> np.ndarray:
        n = self.u32()
        return np.frombuffer(self._take(4 * n), dtype="<u4").astype(np.int64)

    def f64_view(self, n: int) -> np.ndarray:
        """The next n f64 values, as a read-only view of the payload."""
        return np.frombuffer(self._take(8 * n), dtype="<f8")

    def done(self):
        if self.off != len(self.data):
            raise ProtocolError("trailing bytes in payload", code=ERR_BAD_FRAME)


def encode_feedback_request(req: FeedbackRequest) -> bytes:
    w = _Writer()
    w.u32(_SCENARIO_CODE[req.scenario])
    w.u32(1 if req.want_softmax else 0)
    w.matrix(req.batch)
    w.u32_list(req.cond_labels)
    return w.getvalue()


def decode_feedback_request(payload: bytes | bytearray) -> FeedbackRequest:
    """The request of a payload; its batch is a read-only view of the payload, its labels an array of their own."""
    r = _Reader(payload)
    code = r.u32()
    if code not in _SCENARIO_NAME:
        raise ProtocolError(f"unknown scenario code {code}")
    want = r.u32() != 0
    batch = r.matrix()
    labels = r.u32_list()
    r.done()
    return FeedbackRequest(scenario=_SCENARIO_NAME[code], batch=batch, cond_labels=labels, want_softmax=want)


def encode_feedback_response(resp: FeedbackResponse) -> bytes:
    w = _Writer()
    w.matrix(resp.softmax)
    w.f64(resp.reg_value)
    w.matrix(resp.reg_grad)
    w.u32(1 if resp.ce_grad is not None else 0)
    if resp.ce_grad is not None:
        w.f64(resp.ce_value)
        w.matrix(resp.ce_grad)
    return w.getvalue()


def _response_head(r: _Reader) -> tuple[np.ndarray, float, np.ndarray, bool]:
    """A feedback response's softmax, regularizer value and gradient (views), and its gradient flag."""
    softmax = r.matrix()
    reg_value = r.f64()
    reg_grad = r.matrix()
    return softmax, reg_value, reg_grad, r.u32() != 0


def decode_feedback_response(payload: bytes | bytearray) -> FeedbackResponse:
    """The response of a payload; its matrices are read-only views of the payload."""
    r = _Reader(payload)
    softmax, reg_value, reg_grad, has_ce = _response_head(r)
    ce_value, ce_grad = (r.f64(), r.matrix()) if has_ce else (None, None)
    r.done()
    return FeedbackResponse(
        softmax=softmax if softmax.size else None,
        reg_value=reg_value,
        reg_grad=reg_grad,
        ce_value=ce_value,
        ce_grad=ce_grad,
    )


def carries_ce_grad(payload: bytes) -> bool:
    """Whether a feedback-response payload carries the white-box gradient; reads the head only, copies no matrix."""
    return _response_head(_Reader(payload))[3]


def encode_weight_request(scenario: str) -> bytes:
    w = _Writer()
    w.u32(_SCENARIO_CODE[scenario])
    return w.getvalue()


def decode_weight_request(payload: bytes) -> str:
    r = _Reader(payload)
    code = r.u32()
    r.done()
    if code not in _SCENARIO_NAME:
        raise ProtocolError(f"unknown scenario code {code}")
    return _SCENARIO_NAME[code]


_ACT_CODE = {a: i + 1 for i, a in enumerate(nn.ACTIVATIONS)}
_ACT_NAME = {v: k for k, v in _ACT_CODE.items()}
_ROLE_CODE = {r: i + 1 for i, r in enumerate(nn.ROLES)}
_ROLE_NAME = {v: k for k, v in _ROLE_CODE.items()}


def encode_params(params: nn.MlpParams) -> bytes:
    """Canonical weight blob; also the on-disk .azw format."""
    w = _Writer()
    w.u32(_ROLE_CODE[params.role])
    w.u64(params.seed)
    w.u32(len(params.layers))
    for spec in params.layers:
        w.u32(spec.in_dim)
        w.u32(spec.out_dim)
        w.u32(_ACT_CODE[spec.activation])
        w.f64(spec.slope)
    for weight, bias in zip(params.weights, params.biases):
        w.matrix(weight)
        w.u32(len(bias))
        w.parts.append(np.ascontiguousarray(bias, dtype="<f8"))
    return w.getvalue()


def decode_params(payload: bytes) -> nn.MlpParams:
    """The net of an encode_params blob. Its arrays are read as views of the
    payload, which MlpParams copies into its one buffer: each net is held once."""
    r = _Reader(payload)
    role = _ROLE_NAME.get(r.u32())
    if role is None:
        raise ProtocolError("unknown role code")
    seed = r.u64()
    n_layers = r.u32()
    specs = []
    for _ in range(n_layers):
        in_dim, out_dim, act = r.u32(), r.u32(), r.u32()
        slope = r.f64()
        if act not in _ACT_NAME:
            raise ProtocolError("unknown activation code")
        specs.append(nn.LayerSpec(in_dim, out_dim, _ACT_NAME[act], slope))
    weights, biases = [], []
    for spec in specs:
        weights.append(r.matrix())
        biases.append(r.f64_view(r.u32()))
    r.done()
    return nn.MlpParams(role=role, layers=specs, weights=weights, biases=biases, seed=seed)


def encode_error(code: int, message: str) -> bytes:
    w = _Writer()
    w.u16(code)
    w.parts.append(message.encode("utf-8"))
    return w.getvalue()


def decode_error(payload: bytes) -> tuple[int, str]:
    if len(payload) < 2:
        raise ProtocolError("truncated error payload", code=ERR_BAD_FRAME)
    code = struct.unpack("<H", payload[:2])[0]
    return code, payload[2:].decode("utf-8", errors="replace")


def _header(kind: int, length: int) -> bytes:
    if length > MAX_PAYLOAD:
        raise ProtocolError(f"payload of {length} bytes exceeds cap", code=ERR_BAD_FRAME)
    return MAGIC + bytes([VERSION, kind]) + struct.pack("<I", length)


def send_frame(sock: socket.socket, kind: int, payload: bytes | bytearray) -> None:
    """Send one frame as header and payload by scatter-gather, copying neither.

    An oversized payload is refused before any byte is sent. sendmsg may take
    only part of what it is given; the rest is sent from where it stopped.
    """
    parts = [memoryview(_header(kind, len(payload))), memoryview(payload)]
    while parts:
        sent = sock.sendmsg(parts)
        while parts and sent >= len(parts[0]):
            sent -= len(parts[0])
            parts.pop(0)
        if parts:
            parts[0] = parts[0][sent:]


def read_frame(read_exact) -> tuple[int, bytes]:
    """Read one frame via read_exact(n) -> n bytes; validates magic/version/size."""
    header = read_exact(10)
    if header[:4] != MAGIC:
        raise ProtocolError("bad magic", code=ERR_BAD_FRAME)
    if header[4] != VERSION:
        raise ProtocolError(f"unsupported version {header[4]}", code=ERR_BAD_VERSION)
    kind = header[5]
    (length,) = struct.unpack("<I", header[6:10])
    if length > MAX_PAYLOAD:
        raise ProtocolError(f"payload of {length} bytes exceeds cap", code=ERR_BAD_FRAME)
    return kind, read_exact(length)


def recv_frame(sock: socket.socket) -> tuple[int, bytearray] | None:
    """Read one frame from a socket; None if the peer closed before its first byte.

    The payload is received straight into one buffer of its size, which is
    returned. A close anywhere later in the frame raises ERR_BAD_FRAME.
    """

    def read_exact(n: int) -> bytearray:
        buf = bytearray(n)
        with memoryview(buf) as view:
            got = 0
            while got < n:
                k = sock.recv_into(view[got:])
                if not k:
                    raise ProtocolError("connection closed mid-frame", code=ERR_BAD_FRAME)
                got += k
        return buf

    if not sock.recv(1, socket.MSG_PEEK):
        return None
    return read_frame(read_exact)
