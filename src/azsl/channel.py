"""Client-side transports for the feedback protocol.

Both channels move the same canonical payload bytes; the in-process channel
literally encodes/decodes through the wire codecs so a TCP session and a local
session are byte-for-byte interchangeable. Each end of a wire logs every
message that crosses it, once: `BaseChannel._call` sends a request, then logs
it and runs the caller's deferred work while the reply is in flight (a
generator round draws the next round there; a black-box one also steps the
student and runs its forward pass on the features just sent), and logs the
reply as it arrives, before anything decodes it. A TCP client keeps its own
transcript, tagged from the same bytes as the server's log; an in-process run
has only the server's end, so its transcript is the server's log.
"""
from __future__ import annotations

import socket
from typing import Callable

from . import audit, nn, wire
from .server import TeacherServer


class BaseChannel:
    """Shared request path: every message sent and received is logged by `_call`."""

    def __init__(self, transcript: audit.RiskLog):
        self.transcript = transcript

    def _request(self, kind: int, payload: bytes, meanwhile: Callable[[], None]) -> tuple[int, bytes]:
        """Send one request, run `meanwhile` while its reply is in flight, return the reply frame."""
        raise NotImplementedError

    def _log(self, kind: int, payload: bytes, scenario: str) -> None:
        self.transcript.record(kind, payload, scenario)

    def _call(self, kind: int, payload: bytes, scenario: str, reply_kind: int, work=None) -> bytes:
        """Send one request, and log it and run `work` while its reply is in flight;
        log the reply, then raise on an error frame or return the payload."""

        def meanwhile():
            self._log(kind, payload, scenario)
            if work is not None:
                work()

        out_kind, out_payload = self._request(kind, payload, meanwhile)
        if out_kind not in (reply_kind, wire.KIND_ERROR):
            raise wire.ProtocolError(f"unexpected response kind {out_kind}", code=wire.ERR_BAD_KIND)
        self._log(out_kind, out_payload, scenario)
        if out_kind == wire.KIND_ERROR:
            code, message = wire.decode_error(out_payload)
            raise wire.ProtocolError(message, code=code)
        return out_payload

    def feedback(self, request: wire.FeedbackRequest, work: Callable[[], None] | None = None) -> wire.FeedbackResponse:
        payload = wire.encode_feedback_request(request)
        reply = self._call(wire.KIND_FEEDBACK_REQUEST, payload, request.scenario, wire.KIND_FEEDBACK_RESPONSE, work)
        return wire.decode_feedback_response(reply)

    def fetch_weights(self, scenario: str = wire.SCENARIO_WHITE) -> nn.MlpParams:
        payload = wire.encode_weight_request(scenario)
        return wire.decode_params(self._call(wire.KIND_WEIGHT_REQUEST, payload, scenario, wire.KIND_WEIGHT_BLOB))

    def close(self) -> None:
        pass


class InProcessChannel(BaseChannel):
    """Directly invokes a TeacherServer through the canonical byte path."""

    def __init__(self, server: TeacherServer):
        super().__init__(server.log)
        self.server = server

    def _request(self, kind: int, payload: bytes, meanwhile: Callable[[], None]) -> tuple[int, bytes]:
        reply = self.server.handle_payload(kind, payload)
        meanwhile()
        return reply

    def _log(self, kind: int, payload: bytes, scenario: str) -> None:
        pass  # the server logs every in-process message in the shared transcript


class TcpChannel(BaseChannel):
    """Framed requests over a TCP connection to a serving teacher."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        super().__init__(audit.RiskLog())
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # no Nagle wait on a request's tail

    def _request(self, kind: int, payload: bytes, meanwhile: Callable[[], None]) -> tuple[int, bytes]:
        wire.send_frame(self.sock, kind, payload)
        meanwhile()  # the server decodes and computes meanwhile
        wire.poll_readable(self.sock)
        reply = wire.recv_frame(self.sock)
        if reply is None:
            raise wire.ProtocolError("server closed the connection", code=wire.ERR_BAD_FRAME)
        return reply

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass
