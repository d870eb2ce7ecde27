import socket
import threading
import time

import numpy as np
import pytest

from azsl import nn, wire
from conftest import frame, params_blob_size, peak_bytes


def sample_params():
    specs = [nn.LayerSpec(4, 6, nn.ACT_LEAKY_RELU, 0.2), nn.LayerSpec(6, 3, nn.ACT_RELU)]
    return nn.mlp_init(specs, nn.ROLE_GENERATOR, seed=123456789012)


class TestMessageRoundTrips:
    def test_feedback_request(self):
        rng = np.random.default_rng(0)
        req = wire.FeedbackRequest(
            scenario=wire.SCENARIO_WHITE,
            batch=rng.normal(size=(5, 7)),
            cond_labels=rng.integers(0, 4, size=5),
            want_softmax=False,
        )
        back = wire.decode_feedback_request(wire.encode_feedback_request(req))
        assert back.scenario == req.scenario
        assert back.want_softmax is False
        assert np.array_equal(back.batch, req.batch)
        assert np.array_equal(back.cond_labels, req.cond_labels)

    def test_feedback_response_white(self):
        rng = np.random.default_rng(1)
        resp = wire.FeedbackResponse(
            softmax=rng.random((4, 3)),
            reg_value=0.125,
            reg_grad=rng.normal(size=(4, 7)),
            ce_value=2.5,
            ce_grad=rng.normal(size=(4, 7)),
        )
        back = wire.decode_feedback_response(wire.encode_feedback_response(resp))
        assert np.array_equal(back.softmax, resp.softmax)
        assert back.reg_value == resp.reg_value
        assert back.ce_value == resp.ce_value
        assert np.array_equal(back.ce_grad, resp.ce_grad)

    def test_feedback_response_black_has_no_ce(self):
        resp = wire.FeedbackResponse(softmax=np.ones((2, 2)) / 2, reg_value=0.0, reg_grad=np.zeros((2, 3)))
        back = wire.decode_feedback_response(wire.encode_feedback_response(resp))
        assert back.ce_value is None and back.ce_grad is None
        assert np.array_equal(back.softmax, resp.softmax) and np.array_equal(back.reg_grad, resp.reg_grad)

    def test_omitted_softmax(self):
        resp = wire.FeedbackResponse(softmax=None, reg_value=1.0, reg_grad=np.zeros((2, 3)))
        back = wire.decode_feedback_response(wire.encode_feedback_response(resp))
        assert back.softmax is None

    def test_params_round_trip_identical_forward(self):
        params = sample_params()
        back = wire.decode_params(wire.encode_params(params))
        assert back.role == params.role
        assert back.seed == params.seed
        assert back.layers == params.layers
        x = np.random.default_rng(2).normal(size=(3, 4))
        assert np.array_equal(nn.mlp_forward(params, x)[0], nn.mlp_forward(back, x)[0])

    def test_params_blob_size_formula(self):
        params = sample_params()
        blob = wire.encode_params(params)
        assert len(blob) == params_blob_size(params.layers)
        n_params = params.n_params()
        header = len(blob) - 8 * n_params
        assert len(blob) == header + 8 * n_params  # every weight is one f64

    def test_decode_params_holds_the_net_once(self):
        # the arrays are read as views of the blob and copied once, into the
        # buffer; a reader that copied them first would peak near twice that
        specs = nn.classifier_specs(64, 15, hidden=(128, 64))
        params = nn.mlp_init(specs, nn.ROLE_TEACHER, seed=3)
        blob = wire.encode_params(params)
        back, peak = peak_bytes(wire.decode_params, blob)
        assert back.buffer.nbytes == params.buffer.nbytes == 8 * 17_551
        assert peak < 1.5 * back.buffer.nbytes
        assert np.array_equal(back.buffer, params.buffer)
        back.weights[0][0, 0] = 1.0  # the net owns a writable buffer, apart from the blob
        assert back.buffer.flags.writeable and back.buffer.flags.owndata

    @pytest.mark.parametrize("buffer", [bytes, bytearray])
    def test_decoded_feedback_matrices_are_read_only_views_of_the_payload(self, buffer):
        # every reader of a decoded matrix only reads it, so decoding copies
        # none: each one is a read-only view that keeps the payload alive
        rng = np.random.default_rng(4)
        req = wire.FeedbackRequest(wire.SCENARIO_WHITE, rng.normal(size=(3, 5)), [0, 1, 2])
        resp = wire.FeedbackResponse(rng.random((3, 2)), 0.5, rng.normal(size=(3, 5)), 1.5, rng.normal(size=(3, 5)))
        req_payload = buffer(wire.encode_feedback_request(req))
        resp_payload = buffer(wire.encode_feedback_response(resp))
        back_req = wire.decode_feedback_request(req_payload)
        back = wire.decode_feedback_response(resp_payload)
        views = [(back_req.batch, req_payload)] + [(a, resp_payload) for a in (back.softmax, back.reg_grad, back.ce_grad)]
        for a, payload in views:
            assert not a.flags.writeable and not a.flags.owndata
            assert np.shares_memory(a, np.frombuffer(payload, dtype=np.uint8))
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 1.0
        assert np.array_equal(back_req.batch, req.batch) and np.array_equal(back.ce_grad, resp.ce_grad)
        labels = back_req.cond_labels
        assert labels.dtype == np.int64 and labels.flags.owndata and labels.flags.writeable
        assert not np.shares_memory(labels, np.frombuffer(req_payload, dtype=np.uint8))

    def test_decoding_a_response_copies_no_matrix(self):
        # a 2000-row white-box response carries 2.4 MB of matrices; decoding
        # it builds a few small objects around three views: 808 bytes on
        # x86-64, where a copy of the softmax alone would be 320 KB. The first
        # decode of a process also fills interpreter caches, so one runs first.
        rng = np.random.default_rng(7)
        resp = wire.FeedbackResponse(rng.random((2000, 20)), 0.5, rng.normal(size=(2000, 64)), 1.5, rng.normal(size=(2000, 64)))
        payload = wire.encode_feedback_response(resp)
        wire.decode_feedback_response(payload)
        back, peak = peak_bytes(wire.decode_feedback_response, payload)
        assert peak < 1024
        assert back.reg_grad.tobytes() == resp.reg_grad.tobytes()

    def test_encoded_response_is_copied_once(self):
        # the matrices go to the join as they are, so the payload is the one
        # copy: the bound is 1.1x it (measured 1.0005x on x86-64; converting
        # each matrix to bytes first peaked at 2x)
        rng = np.random.default_rng(6)
        resp = wire.FeedbackResponse(rng.random((2000, 20)), 0.5, rng.normal(size=(2000, 64)))
        payload, peak = peak_bytes(wire.encode_feedback_response, resp)
        assert len(payload) > 8 * 2000 * 84
        assert peak < 1.1 * len(payload)
        assert wire.decode_feedback_response(payload).reg_grad.tobytes() == resp.reg_grad.astype("<f8").tobytes()

    @pytest.mark.parametrize("softmax", [True, False])
    def test_carries_ce_grad_reads_the_flag_and_copies_nothing(self, softmax):
        rng = np.random.default_rng(5)
        probs = rng.random((64, 20)) if softmax else None
        black = wire.encode_feedback_response(wire.FeedbackResponse(probs, 0.5, rng.normal(size=(64, 64))))
        white = wire.encode_feedback_response(
            wire.FeedbackResponse(probs, 0.5, rng.normal(size=(64, 64)), 1.5, rng.normal(size=(64, 64)))
        )
        assert (wire.carries_ce_grad(black), wire.carries_ce_grad(white)) == (False, True)
        _, peak = peak_bytes(wire.carries_ce_grad, white)
        assert peak < 1024  # a copy of any matrix would be 10 KB or more
        flag_at = len(black) - 4  # the flag is the last field of a black-box response
        for cut in (0, 3, 9, flag_at - 1, flag_at + 3):
            with pytest.raises(wire.ProtocolError, match="truncated") as exc:
                wire.carries_ce_grad(white[:cut])
            assert exc.value.code == wire.ERR_BAD_FRAME

    def test_error_round_trip(self):
        code, msg = wire.decode_error(wire.encode_error(wire.ERR_PROTOCOL, "nope"))
        assert (code, msg) == (wire.ERR_PROTOCOL, "nope")


class TestFraming:
    def read_from(self, blob: bytes):
        view = {"off": 0}

        def read_exact(n):
            out = blob[view["off"] : view["off"] + n]
            view["off"] += n
            return out

        return read_exact

    def test_frame_round_trip(self):
        payload = b"hello payload"
        kind, back = wire.read_frame(self.read_from(frame(wire.KIND_ERROR, payload)))
        assert kind == wire.KIND_ERROR
        assert back == payload

    def test_bad_magic(self):
        blob = b"XXXX" + bytes([1, 1]) + (0).to_bytes(4, "little")
        with pytest.raises(wire.ProtocolError) as exc:
            wire.read_frame(self.read_from(blob))
        assert exc.value.code == wire.ERR_BAD_FRAME

    def test_bad_version(self):
        blob = wire.MAGIC + bytes([9, 1]) + (0).to_bytes(4, "little")
        with pytest.raises(wire.ProtocolError) as exc:
            wire.read_frame(self.read_from(blob))
        assert exc.value.code == wire.ERR_BAD_VERSION

    def test_oversized_payload_rejected(self):
        blob = wire.MAGIC + bytes([1, 1]) + (wire.MAX_PAYLOAD + 1).to_bytes(4, "little")
        with pytest.raises(wire.ProtocolError) as exc:
            wire.read_frame(self.read_from(blob))
        assert exc.value.code == wire.ERR_BAD_FRAME
        with pytest.raises(wire.ProtocolError):
            frame(wire.KIND_ERROR, b"\x00" * (wire.MAX_PAYLOAD + 1))

    def test_trailing_bytes_rejected(self):
        payload = wire.encode_weight_request(wire.SCENARIO_WHITE) + b"junk"
        with pytest.raises(wire.ProtocolError, match="trailing"):
            wire.decode_weight_request(payload)

    def test_truncated_payload_rejected(self):
        payload = wire.encode_feedback_request(
            wire.FeedbackRequest(wire.SCENARIO_BLACK, np.ones((2, 2)), [0, 1])
        )
        with pytest.raises(wire.ProtocolError):
            wire.decode_feedback_request(payload[:-3])

    def test_zero_row_request_rejected(self):
        with pytest.raises(wire.ProtocolError, match="no rows") as exc:
            wire.FeedbackRequest(wire.SCENARIO_BLACK, np.zeros((0, 3)), [])
        assert exc.value.code == wire.ERR_PROTOCOL


class TestRecvFrame:
    def pair(self):
        a, b = socket.socketpair()
        a.settimeout(10)
        return a, b

    def test_clean_close_returns_none(self):
        a, b = self.pair()
        b.close()
        assert wire.recv_frame(a) is None
        a.close()

    @pytest.mark.parametrize("cut", [5, 13], ids=["in-header", "in-payload"])
    def test_close_mid_frame_is_bad_frame(self, cut):
        a, b = self.pair()
        b.sendall(frame(wire.KIND_ERROR, b"0123456789")[:cut])
        b.close()
        with pytest.raises(wire.ProtocolError) as exc:
            wire.recv_frame(a)
        assert exc.value.code == wire.ERR_BAD_FRAME
        a.close()

    def test_frame_sent_one_byte_at_a_time(self):
        a, b = self.pair()
        blob = frame(wire.KIND_FEEDBACK_REQUEST, bytes(range(40)))

        def drip():
            for i in range(len(blob)):
                b.sendall(blob[i : i + 1])
                time.sleep(0.001)

        sender = threading.Thread(target=drip)
        sender.start()
        try:
            assert wire.recv_frame(a) == (wire.KIND_FEEDBACK_REQUEST, bytes(range(40)))
        finally:
            sender.join()
            a.close()
            b.close()

    def test_back_to_back_frames_then_close(self):
        a, b = self.pair()
        b.sendall(frame(wire.KIND_ERROR, b"one") + frame(wire.KIND_WEIGHT_REQUEST, b""))
        b.close()
        assert wire.recv_frame(a) == (wire.KIND_ERROR, b"one")
        assert wire.recv_frame(a) == (wire.KIND_WEIGHT_REQUEST, b"")
        assert wire.recv_frame(a) is None
        a.close()

    def test_large_frame_is_received_into_one_buffer(self):
        # the payload arrives in one buffer of its size, filled in place; a
        # reader that collected chunks and joined them peaked near twice it
        a, b = self.pair()
        payload = np.random.default_rng(8).bytes(1 << 20)
        blob = frame(wire.KIND_FEEDBACK_RESPONSE, payload)
        sender = threading.Thread(target=b.sendall, args=(blob,))
        sender.start()
        try:
            (kind, back), peak = peak_bytes(wire.recv_frame, a)
        finally:
            sender.join(timeout=10)
            a.close()
            b.close()
        assert not sender.is_alive()
        assert kind == wire.KIND_FEEDBACK_RESPONSE and back == payload
        assert peak < 1.1 * len(payload)

    def test_frame_written_in_seven_byte_pieces(self):
        a, b = self.pair()
        rng = np.random.default_rng(9)
        req = wire.FeedbackRequest(wire.SCENARIO_BLACK, rng.normal(size=(10, 8)), np.arange(10) % 3)
        payload = wire.encode_feedback_request(req)
        blob = frame(wire.KIND_FEEDBACK_REQUEST, payload)

        def pieces():
            for i in range(0, len(blob), 7):
                b.sendall(blob[i : i + 7])
                time.sleep(0.0005)

        sender = threading.Thread(target=pieces)
        sender.start()
        try:
            kind, back = wire.recv_frame(a)
        finally:
            sender.join(timeout=10)
            a.close()
            b.close()
        assert not sender.is_alive()
        assert kind == wire.KIND_FEEDBACK_REQUEST and bytes(back) == payload
        assert wire.decode_feedback_request(back).batch.tobytes() == req.batch.tobytes()

    def test_close_mid_payload_of_a_large_frame_is_bad_frame(self):
        a, b = self.pair()
        blob = frame(wire.KIND_FEEDBACK_RESPONSE, bytes(100_000))
        sender = threading.Thread(target=lambda: (b.sendall(blob[:60_000]), b.close()))
        sender.start()
        try:
            with pytest.raises(wire.ProtocolError, match="mid-frame") as exc:
                wire.recv_frame(a)
        finally:
            sender.join(timeout=10)
            a.close()
        assert not sender.is_alive()
        assert exc.value.code == wire.ERR_BAD_FRAME


class CountingSocket(socket.socket):
    """A socket that counts its sendmsg calls and the bytes each one took."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sent: list[int] = []

    def sendmsg(self, buffers, *args):
        n = super().sendmsg(buffers, *args)
        self.sent.append(n)
        return n


class TestSendFrame:
    def test_small_frame_is_one_sendmsg(self):
        a, b = socket.socketpair()
        with a, CountingSocket(fileno=b.detach()) as sender:
            wire.send_frame(sender, wire.KIND_ERROR, b"hello")
            sender.close()
            assert wire.recv_frame(a) == (wire.KIND_ERROR, b"hello")
            assert sender.sent == [10 + 5]
            assert wire.recv_frame(a) is None

    def test_empty_payload(self):
        a, b = socket.socketpair()
        with a, b:
            wire.send_frame(b, wire.KIND_WEIGHT_REQUEST, b"")
            b.close()
            assert wire.recv_frame(a) == (wire.KIND_WEIGHT_REQUEST, b"")

    def test_partial_sends_to_a_slow_reader_deliver_the_exact_frame(self):
        # a small send buffer and a reader that takes 4 KB at a time, with
        # pauses: sendmsg takes the frame in pieces, and each next call starts
        # where the last one stopped, in the header or in the payload
        a, b = socket.socketpair()
        payload = np.random.default_rng(10).bytes(300_000)
        got = bytearray()
        with a, CountingSocket(fileno=b.detach()) as sender:
            sender.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            a.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sender.settimeout(10)  # as TcpChannel and serve set theirs: sendmsg may return short
            a.settimeout(10)

            def slow_reader():
                while True:
                    chunk = a.recv(4096)
                    if not chunk:
                        return
                    got.extend(chunk)
                    time.sleep(0.0002)

            reader = threading.Thread(target=slow_reader)
            reader.start()
            try:
                wire.send_frame(sender, wire.KIND_FEEDBACK_REQUEST, bytearray(payload))
            finally:
                sender.shutdown(socket.SHUT_WR)
                reader.join(timeout=10)
        assert not reader.is_alive()
        assert len(sender.sent) > 1 and sum(sender.sent) == 10 + len(payload)
        assert bytes(got) == frame(wire.KIND_FEEDBACK_REQUEST, payload)

    def test_oversized_payload_is_refused_before_any_byte_is_sent(self):
        a, b = socket.socketpair()
        with a, b:
            with pytest.raises(wire.ProtocolError, match="exceeds cap") as exc:
                wire.send_frame(b, wire.KIND_FEEDBACK_RESPONSE, bytearray(wire.MAX_PAYLOAD + 1))
            assert exc.value.code == wire.ERR_BAD_FRAME
            a.setblocking(False)
            with pytest.raises(BlockingIOError):
                a.recv(1)  # nothing arrived
