import socket
import threading
import time
import tracemalloc

import numpy as np
import pytest

from azsl import nn, wire


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
        assert len(blob) == wire.params_blob_size(params.layers)
        n_params = params.n_params()
        header = len(blob) - 8 * n_params
        assert len(blob) == header + 8 * n_params  # every weight is one f64

    def test_decode_params_holds_the_net_once(self):
        # the arrays are read as views of the blob and copied once, into the
        # buffer; a reader that copied them first would peak near twice that
        specs = nn.classifier_specs(64, 15, hidden=(128, 64))
        params = nn.mlp_init(specs, nn.ROLE_TEACHER, seed=3)
        blob = wire.encode_params(params)
        tracemalloc.start()
        try:
            back = wire.decode_params(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.buffer.nbytes == params.buffer.nbytes == 8 * 17_551
        assert peak < 1.5 * back.buffer.nbytes
        assert np.array_equal(back.buffer, params.buffer)
        back.weights[0][0, 0] = 1.0  # the net owns a writable buffer, apart from the blob
        assert back.buffer.flags.writeable and back.buffer.flags.owndata

    def test_decoded_feedback_arrays_are_writable_copies(self):
        rng = np.random.default_rng(4)
        req = wire.FeedbackRequest(wire.SCENARIO_WHITE, rng.normal(size=(3, 5)), [0, 1, 2])
        resp = wire.FeedbackResponse(rng.random((3, 2)), 0.5, rng.normal(size=(3, 5)), 1.5, rng.normal(size=(3, 5)))
        back_req = wire.decode_feedback_request(wire.encode_feedback_request(req))
        back = wire.decode_feedback_response(wire.encode_feedback_response(resp))
        for a in (back_req.batch, back_req.cond_labels, back.softmax, back.reg_grad, back.ce_grad):
            assert a.flags.writeable and a.flags.owndata

    @pytest.mark.parametrize("softmax", [True, False])
    def test_carries_ce_grad_reads_the_flag_and_copies_nothing(self, softmax):
        rng = np.random.default_rng(5)
        probs = rng.random((64, 20)) if softmax else None
        black = wire.encode_feedback_response(wire.FeedbackResponse(probs, 0.5, rng.normal(size=(64, 64))))
        white = wire.encode_feedback_response(
            wire.FeedbackResponse(probs, 0.5, rng.normal(size=(64, 64)), 1.5, rng.normal(size=(64, 64)))
        )
        assert (wire.carries_ce_grad(black), wire.carries_ce_grad(white)) == (False, True)
        tracemalloc.start()
        try:
            wire.carries_ce_grad(white)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
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
        kind, back = wire.read_frame(self.read_from(wire.frame(wire.KIND_ERROR, payload)))
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
            wire.frame(wire.KIND_ERROR, b"\x00" * (wire.MAX_PAYLOAD + 1))

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
        b.sendall(wire.frame(wire.KIND_ERROR, b"0123456789")[:cut])
        b.close()
        with pytest.raises(wire.ProtocolError) as exc:
            wire.recv_frame(a)
        assert exc.value.code == wire.ERR_BAD_FRAME
        a.close()

    def test_frame_sent_one_byte_at_a_time(self):
        a, b = self.pair()
        blob = wire.frame(wire.KIND_FEEDBACK_REQUEST, bytes(range(40)))

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
        b.sendall(wire.frame(wire.KIND_ERROR, b"one") + wire.frame(wire.KIND_WEIGHT_REQUEST, b""))
        b.close()
        assert wire.recv_frame(a) == (wire.KIND_ERROR, b"one")
        assert wire.recv_frame(a) == (wire.KIND_WEIGHT_REQUEST, b"")
        assert wire.recv_frame(a) is None
        a.close()
