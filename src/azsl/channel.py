"""Client-side transports for the feedback protocol.

Both channels move the same canonical payload bytes; the in-process channel
literally encodes/decodes through the wire codecs so a TCP session and a local
session are byte-for-byte interchangeable. Every message is recorded in a
client-side transcript with the same risk tagging the server applies.
"""
from __future__ import annotations

import socket

from . import audit, nn, wire
from .server import TeacherServer


class BaseChannel:
    """Shared bookkeeping: transcript entries and optional payload recording."""

    def __init__(self, record_payloads: bool = False):
        self.transcript = audit.RiskLog()
        self.record_payloads = record_payloads
        self.sent: list[tuple[int, bytes]] = []
        self.received: list[tuple[int, bytes]] = []

    def _request(self, kind: int, payload: bytes) -> tuple[int, bytes]:
        raise NotImplementedError

    def _roundtrip(self, kind: int, payload: bytes, scenario: str) -> tuple[int, bytes]:
        if self.record_payloads:
            self.sent.append((kind, payload))
        up_kind = (
            audit.KIND_WEIGHT_REQUEST if kind == wire.KIND_WEIGHT_REQUEST else audit.KIND_FEEDBACK_REQUEST
        )
        self.transcript.append(up_kind, len(payload), wire.RISK_LOW, scenario, audit.UP, payload)
        out_kind, out_payload = self._request(kind, payload)
        if self.record_payloads:
            self.received.append((out_kind, out_payload))
        return out_kind, out_payload

    def feedback(self, request: wire.FeedbackRequest) -> wire.FeedbackResponse:
        payload = wire.encode_feedback_request(request)
        out_kind, out_payload = self._roundtrip(wire.KIND_FEEDBACK_REQUEST, payload, request.scenario)
        if out_kind == wire.KIND_ERROR:
            code, message = wire.decode_error(out_payload)
            self.transcript.append(audit.KIND_ERROR, len(out_payload), wire.RISK_LOW, request.scenario, audit.DOWN, out_payload)
            raise wire.ProtocolError(message, code=code)
        if out_kind != wire.KIND_FEEDBACK_RESPONSE:
            raise wire.ProtocolError(f"unexpected response kind {out_kind}", code=wire.ERR_BAD_KIND)
        resp = wire.decode_feedback_response(out_payload)
        down_kind = audit.KIND_CE_GRAD if resp.ce_grad is not None else audit.KIND_FEEDBACK_RESPONSE
        self.transcript.append(down_kind, len(out_payload), resp.risk, request.scenario, audit.DOWN, out_payload)
        return resp

    def fetch_weights(self, scenario: str = wire.SCENARIO_WHITE) -> nn.MlpParams:
        payload = wire.encode_weight_request(scenario)
        out_kind, out_payload = self._roundtrip(wire.KIND_WEIGHT_REQUEST, payload, scenario)
        if out_kind == wire.KIND_ERROR:
            code, message = wire.decode_error(out_payload)
            self.transcript.append(audit.KIND_ERROR, len(out_payload), wire.RISK_LOW, scenario, audit.DOWN, out_payload)
            raise wire.ProtocolError(message, code=code)
        if out_kind != wire.KIND_WEIGHT_BLOB:
            raise wire.ProtocolError(f"unexpected response kind {out_kind}", code=wire.ERR_BAD_KIND)
        self.transcript.append(audit.KIND_WEIGHT_BLOB, len(out_payload), wire.RISK_MID, scenario, audit.DOWN, out_payload)
        return wire.decode_params(out_payload)

    def close(self) -> None:
        pass


class InProcessChannel(BaseChannel):
    """Directly invokes a TeacherServer through the canonical byte path."""

    def __init__(self, server: TeacherServer, record_payloads: bool = False):
        super().__init__(record_payloads)
        self.server = server

    def _request(self, kind: int, payload: bytes) -> tuple[int, bytes]:
        return self.server.handle_payload(kind, payload)


class TcpChannel(BaseChannel):
    """Framed requests over a TCP connection to a serving teacher."""

    def __init__(self, host: str, port: int, record_payloads: bool = False, timeout: float = 60.0):
        super().__init__(record_payloads)
        self.sock = socket.create_connection((host, port), timeout=timeout)

    def _request(self, kind: int, payload: bytes) -> tuple[int, bytes]:
        self.sock.sendall(wire.frame(kind, payload))
        reply = wire.recv_frame(self.sock)
        if reply is None:
            raise wire.ProtocolError("server closed the connection", code=wire.ERR_BAD_FRAME)
        return reply

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass
