import dataclasses
import hashlib
import json
import struct
import socket
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from azsl import audit, client, nn, server as server_mod, wire
from azsl.channel import BaseChannel, InProcessChannel, TcpChannel
from azsl.config import ExperimentConfig
from azsl.data import SemanticTable, SyntheticSpec, make_synthetic, split_azsl
from azsl.regularizers import fit_regularizer
from azsl.server import TeacherModel, TeacherServer, feedback, serve, train_teacher
from conftest import frame, params_allclose, params_blob_size, peak_bytes, record_frames


@pytest.fixture(scope="module")
def trained():
    ds = make_synthetic(
        SyntheticSpec(n_classes=4, seen_count=3, d_x=10, d_a=4, per_class=60, separation=5.0, noise=1.0),
        seed=21,
    )
    split = split_azsl(ds, "transductive", unseen=1, seed=21)
    teacher = train_teacher(ds, split, epochs=30, batch_size=32, seed=1, hidden=(32, 16), lr=1e-3)
    reg = fit_regularizer(ds, split, "kl")
    return ds, split, teacher, reg


@pytest.fixture(scope="module")
def hard():
    """The benchmark's 20-class spec, split as its transductive workloads split it."""
    ds = make_synthetic(SyntheticSpec(n_classes=20, seen_count=15, separation=1.0), seed=3)
    return ds, split_azsl(ds, "transductive", unseen=5, seed=3)


def _sha(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:16]


def _rows(log):
    return [(e.direction, e.kind, e.size, e.risk, e.scenario, e.payload_sha) for e in log.entries]


def _has_peer(sock) -> bool:
    try:
        sock.getpeername()
    except OSError:
        return False  # a listening socket
    return True


def _moving_average(xs, k=10):
    xs = np.asarray(xs)
    if len(xs) < k:
        return xs
    return np.convolve(xs, np.ones(k) / k, mode="valid")


class TestTrainTeacher:
    def logistic_oracle(self, x, y, epochs=2000, lr=1.0):
        # independent oracle: plain batch gradient descent on logistic regression
        w = np.zeros(x.shape[1])
        b = 0.0
        for _ in range(epochs):
            p = 1.0 / (1.0 + np.exp(-(x @ w + b)))
            g = p - y
            w -= lr * x.T @ g / len(x)
            b -= lr * g.mean()
        return ((x @ w + b > 0).astype(int) == y).mean()

    def test_separable_two_class_toy(self):
        ds = make_synthetic(
            SyntheticSpec(n_classes=2, seen_count=1, d_x=12, d_a=6, per_class=80, separation=6.0, noise=1.0),
            seed=2,
        )
        split = split_azsl(ds, "transductive", unseen=1, seed=2)
        x = ds.features[split.teacher_train]
        y = ds.labels[split.teacher_train]
        assert self.logistic_oracle(x, y) >= 0.99  # the toy is genuinely separable
        teacher = train_teacher(ds, split, epochs=200, batch_size=32, seed=0, hidden=(16, 8), lr=1e-3)
        logits, _ = nn.mlp_forward(teacher.params, x)
        assert (logits.argmax(axis=1) == teacher.head_index(y)).mean() >= 0.99

    def test_fit_keeps_no_pass_over_all_rows(self, hard):
        # white-kl-sized split: 3200 training rows, hidden (128, 64). The fit
        # gathers one minibatch at a time from the dataset and holds no copy
        # of the rows; any forward over all rows, cached or not, would add
        # at least one first-layer activation of them, so the bound is one
        # such activation, about 2.3x the 1.4 MB measured on x86-64 (a copy
        # of the rows took it to 3.1 MB, a final train-accuracy pass to 12.2 MB)
        ds, split = hard
        rows = len(split.teacher_train)
        assert rows == 3200
        _, peak = peak_bytes(train_teacher, ds, split, epochs=1, batch_size=64, seed=0, hidden=(128, 64), lr=1e-3)
        assert peak < 8 * rows * 128

    def test_inductive_head_size(self, trained):
        ds, _, _, _ = trained
        split = split_azsl(ds, "inductive", unseen=1, seed=21)
        teacher = train_teacher(ds, split, epochs=2, batch_size=32, seed=0, hidden=(8,), lr=1e-3)
        assert teacher.params.out_dim == len(split.seen_classes) == 3

    def test_deterministic(self, trained):
        ds, split, _, _ = trained
        a = train_teacher(ds, split, epochs=3, batch_size=32, seed=9, hidden=(8,), lr=1e-3)
        b = train_teacher(ds, split, epochs=3, batch_size=32, seed=9, hidden=(8,), lr=1e-3)
        assert params_allclose(a.params, b.params)

    def test_loss_trace_non_increasing(self, trained):
        _, _, teacher, _ = trained
        ma = _moving_average(teacher.loss_trace, k=5)
        assert np.all(ma[1:] <= ma[:-1] * 1.05)
        assert ma[-1] < ma[0]

    def test_empty_train_set_rejected(self, trained):
        ds, split, _, _ = trained
        empty = dataclasses.replace(split, teacher_train=np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="empty"):
            train_teacher(ds, empty, epochs=1, batch_size=8, seed=0)


class TestFeedback:
    def test_black_response_fields_and_tags(self, trained):
        _, _, teacher, reg = trained
        req = wire.FeedbackRequest(wire.SCENARIO_BLACK, np.ones((3, 10)), [0, 1, 2])
        resp = feedback(teacher, reg, req)
        assert resp.ce_value is None and resp.ce_grad is None
        assert resp.softmax.shape == (3, 4)
        assert resp.reg_grad.shape == (3, 10)
        log = audit.RiskLog()
        log.record(wire.KIND_FEEDBACK_RESPONSE, wire.encode_feedback_response(resp), req.scenario)
        assert (log.entries[0].kind, log.entries[0].risk) == (audit.KIND_FEEDBACK_RESPONSE, audit.RISK_LOW)

    def test_black_answer_keeps_no_backward_cache(self, hard):
        # a 2000-row, 20-class quota request to a (128, 64) teacher: with no
        # backward pass to feed, the forward writes each activation over its
        # pre-activation and holds one layer's input and output at a time,
        # 2.0 + 1.0 MB for the widest, plus one block of the leaky ReLU; the
        # bound adds 10% to that (measured 3.2 MB on x86-64; a separate
        # activation array per layer took 4.1 MB, a cached pass 6.0 MB)
        reg = fit_regularizer(*hard, "kl")
        teacher = TeacherModel(nn.mlp_init(nn.classifier_specs(64, 20, (128, 64)), nn.ROLE_TEACHER, 0), np.arange(20))
        rng = np.random.default_rng(0)
        rows = 2000
        req = wire.FeedbackRequest(wire.SCENARIO_BLACK, np.abs(rng.normal(size=(rows, 64))), np.arange(rows) % 20)
        resp, peak = peak_bytes(feedback, teacher, reg, req)
        assert resp.softmax.shape == (rows, 20) and resp.ce_grad is None
        assert peak < 1.1 * (8 * rows * (128 + 64) + 8 * nn.ACTIVATE_BLOCK_ROWS * 128)

    def test_white_on_perfectly_classified_batch(self, trained):
        # saturate the head so the batch sits at the cross-entropy minimum
        ds, split, teacher, reg = trained
        sharp = teacher.params.copy()
        sharp.weights[-1][...] *= 30.0
        sharp.biases[-1][...] *= 30.0
        sharp_teacher = TeacherModel(sharp, teacher.class_space)
        batch = np.abs(np.random.default_rng(3).normal(size=(32, 10))) * 2.0
        logits, _ = nn.mlp_forward(sharp, batch)
        top2 = np.sort(logits, axis=1)[:, -2:]
        batch = batch[top2[:, 1] - top2[:, 0] > 10.0]  # keep confidently-classified rows
        assert len(batch) >= 4
        logits, _ = nn.mlp_forward(sharp, batch)
        cond = sharp_teacher.class_space[logits.argmax(axis=1)]  # labels the teacher agrees with
        resp = feedback(sharp_teacher, reg, wire.FeedbackRequest(wire.SCENARIO_WHITE, batch, cond))
        assert resp.ce_value < 1e-3
        assert np.abs(resp.ce_grad).max() < 1e-3

    def test_white_ce_grad_matches_finite_differences(self, trained):
        _, _, teacher, reg = trained
        rng = np.random.default_rng(8)
        batch = np.abs(rng.normal(size=(6, 10)))
        labels = rng.integers(0, 4, size=6)
        req = wire.FeedbackRequest(wire.SCENARIO_WHITE, batch, labels)
        resp = feedback(teacher, reg, req)

        def ce_of(b):
            logits, _ = nn.mlp_forward(teacher.params, b)
            return nn.loss_ce(nn.softmax(logits), teacher.head_index(labels))[0]

        eps = 1e-5
        worst = 0.0
        for _ in range(200):
            i, j = rng.integers(0, 6), rng.integers(0, 10)
            hi = batch.copy()
            hi[i, j] += eps
            lo = batch.copy()
            lo[i, j] -= eps
            num = (ce_of(hi) - ce_of(lo)) / (2 * eps)
            worst = max(worst, abs(resp.ce_grad[i, j] - num) / max(abs(num), abs(resp.ce_grad[i, j]), 1e-6))
        assert worst < 1e-4

    def test_blackbox_server_refuses_white_requests(self, trained):
        _, _, teacher, reg = trained
        req = wire.FeedbackRequest(wire.SCENARIO_WHITE, np.ones((2, 10)), [0, 1])
        assert feedback(teacher, reg, req).ce_grad is not None  # feedback answers as asked
        server = TeacherServer(teacher, reg, wire.SCENARIO_BLACK)
        kind, out = server.handle_payload(wire.KIND_FEEDBACK_REQUEST, wire.encode_feedback_request(req))
        assert kind == wire.KIND_ERROR
        assert wire.decode_error(out) == (wire.ERR_PROTOCOL, "white-box feedback refused: server is black-box only")

    def test_validation_errors(self, trained):
        _, _, teacher, reg = trained
        with pytest.raises(wire.ProtocolError, match="columns"):
            feedback(teacher, reg, wire.FeedbackRequest(wire.SCENARIO_BLACK, np.ones((2, 3)), [0, 1]))
        bad = np.ones((2, 10))
        bad[0, 0] = np.nan
        with pytest.raises(wire.ProtocolError, match="non-finite"):
            feedback(teacher, reg, wire.FeedbackRequest(wire.SCENARIO_BLACK, bad, [0, 1]))
        with pytest.raises(wire.ProtocolError, match="class space"):
            feedback(teacher, reg, wire.FeedbackRequest(wire.SCENARIO_BLACK, np.ones((1, 10)), [99]))

    @pytest.mark.parametrize("scenario", [wire.SCENARIO_WHITE, wire.SCENARIO_BLACK])
    def test_zero_row_request_is_a_protocol_error(self, trained, scenario):
        _, _, teacher, reg = trained
        server = TeacherServer(teacher, reg, scenario)
        # scenario, want_softmax, a 0 x 10 batch, no conditioning labels
        payload = struct.pack("<5I", wire._SCENARIO_CODE[scenario], 1, 0, 10, 0)
        kind, out = server.handle_payload(wire.KIND_FEEDBACK_REQUEST, payload)
        assert kind == wire.KIND_ERROR
        code, message = wire.decode_error(out)
        assert code == wire.ERR_PROTOCOL and "no rows" in message

    def test_deterministic_bytes(self, trained):
        _, _, teacher, reg = trained
        req = wire.FeedbackRequest(wire.SCENARIO_WHITE, np.full((2, 10), 0.25), [1, 2])
        a = wire.encode_feedback_response(feedback(teacher, reg, req))
        b = wire.encode_feedback_response(feedback(teacher, reg, req))
        assert a == b

    def test_reports_a_positive_regularizer_value_unweighted(self, trained):
        # the server never weights its regularizer; only the client applies alpha
        _, _, teacher, reg = trained
        req = wire.FeedbackRequest(wire.SCENARIO_BLACK, np.ones((2, 10)) * 3.0, [0, 0])
        resp = feedback(teacher, reg, req)
        value, grad = server_mod.reg_value_grad(reg, req.batch, req.cond_labels)
        assert resp.reg_value == value > 0
        assert np.array_equal(resp.reg_grad, grad)

    def test_no_real_row_leaks_into_response_bytes(self, trained):
        ds, _, teacher, reg = trained
        req = wire.FeedbackRequest(wire.SCENARIO_WHITE, np.abs(np.random.default_rng(0).normal(size=(4, 10))), [0, 1, 2, 3])
        payload = wire.encode_feedback_response(feedback(teacher, reg, req))
        for row in ds.features[:50]:
            assert row.astype("<f8").tobytes() not in payload


class TestExportWeights:
    @pytest.mark.parametrize("server_scenario", [wire.SCENARIO_WHITE, wire.SCENARIO_BLACK])
    def test_refused_under_blackbox_and_logged(self, trained, server_scenario):
        _, _, teacher, reg = trained
        server = TeacherServer(teacher, reg, server_scenario)
        # a black-box server refuses every weight request; a white-box one refuses a black-box request
        asks = [wire.SCENARIO_BLACK] if server_scenario == wire.SCENARIO_WHITE else list(wire.SCENARIOS)
        for ask in asks:
            kind, out = server.handle_payload(wire.KIND_WEIGHT_REQUEST, wire.encode_weight_request(ask))
            assert kind == wire.KIND_ERROR
            assert wire.decode_error(out) == (wire.ERR_PROTOCOL, "weight export refused outside the white-box scenario")
        # the error frame is the refusal's record, tagged with the request's scenario
        rows = [(e.kind, e.scenario) for e in server.log.entries]
        assert rows == [row for ask in asks for row in [(audit.KIND_WEIGHT_REQUEST, ask), (audit.KIND_ERROR, ask)]]

    def test_round_trip_and_size(self, trained):
        _, _, teacher, reg = trained
        server = TeacherServer(teacher, reg, wire.SCENARIO_WHITE)
        kind, blob = server.handle_payload(wire.KIND_WEIGHT_REQUEST, wire.encode_weight_request(wire.SCENARIO_WHITE))
        assert (kind, blob) == (wire.KIND_WEIGHT_BLOB, wire.encode_params(teacher.params))
        assert len(blob) == params_blob_size(teacher.params.layers)
        back = wire.decode_params(blob)
        x = np.abs(np.random.default_rng(1).normal(size=(3, 10)))
        assert np.array_equal(nn.mlp_forward(back, x)[0], nn.mlp_forward(teacher.params, x)[0])
        assert server.log.entries[-1].kind == audit.KIND_WEIGHT_BLOB
        assert server.log.entries[-1].risk == audit.RISK_MID


class TestRiskLog:
    def run_session(self, trained, scenario, n=100):
        _, _, teacher, reg = trained
        server = TeacherServer(teacher, reg, scenario)
        channel = InProcessChannel(server)
        rng = np.random.default_rng(0)
        for _ in range(n):
            channel.feedback(
                wire.FeedbackRequest(scenario, np.abs(rng.normal(size=(2, 10))), rng.integers(0, 4, 2))
            )
        return server, channel

    def test_hundred_requests_two_hundred_entries(self, trained):
        server, channel = self.run_session(trained, wire.SCENARIO_BLACK, n=100)
        assert len(server.log.entries) == 200
        ups = [e for e in server.log.entries if e.direction == audit.UP]
        downs = [e for e in server.log.entries if e.direction == audit.DOWN]
        assert len(ups) == 100 and len(downs) == 100
        assert len(channel.transcript.entries) == 200

    @pytest.mark.parametrize("scenario", [wire.SCENARIO_WHITE, wire.SCENARIO_BLACK])
    def test_response_encoded_once_and_logged_as_sent(self, trained, scenario, monkeypatch):
        _, _, teacher, reg = trained
        server = TeacherServer(teacher, reg, scenario)
        encoded = []
        real = wire.encode_feedback_response

        def recording(resp):
            encoded.append(real(resp))
            return encoded[-1]

        monkeypatch.setattr(wire, "encode_feedback_response", recording)
        req = wire.encode_feedback_request(wire.FeedbackRequest(scenario, np.full((3, 10), 0.5), [0, 1, 2]))
        kind, payload = server.handle_payload(wire.KIND_FEEDBACK_REQUEST, req)
        assert kind == wire.KIND_FEEDBACK_RESPONSE and encoded == [payload]
        down = server.log.entries[-1]
        expect_kind = audit.KIND_CE_GRAD if scenario == wire.SCENARIO_WHITE else audit.KIND_FEEDBACK_RESPONSE
        assert (down.direction, down.kind, down.size) == (audit.DOWN, expect_kind, len(payload))
        assert down.risk == (audit.RISK_MID if scenario == wire.SCENARIO_WHITE else audit.RISK_LOW)
        assert down.payload_sha == hashlib.sha256(payload).hexdigest()[:16]

    @pytest.mark.parametrize("scenario", [wire.SCENARIO_WHITE, wire.SCENARIO_BLACK])
    def test_in_process_payloads_hashed_once(self, trained, scenario, monkeypatch):
        hashed = []
        real = hashlib.sha256

        def recording(data=b""):
            hashed.append(bytes(data))
            return real(data)

        monkeypatch.setattr(audit.hashlib, "sha256", recording)
        server, channel = self.run_session(trained, scenario, n=20)
        assert channel.transcript is server.log  # one log per in-process run
        assert len(hashed) == 2 * 20  # one hash per payload: request and response
        assert [e.payload_sha for e in server.log.entries] == [real(p).hexdigest()[:16] for p in hashed]

    def test_black_transcript_has_no_mid_entries(self, trained):
        server, channel = self.run_session(trained, wire.SCENARIO_BLACK, n=20)
        assert all(e.risk == audit.RISK_LOW for e in channel.transcript.entries)

    def test_white_mid_entries_only_ce_grad_or_blob(self, trained):
        server, channel = self.run_session(trained, wire.SCENARIO_WHITE, n=20)
        channel.fetch_weights()
        mids = [e.kind for e in server.log.entries if e.risk == audit.RISK_MID]
        assert mids and set(mids) <= {audit.KIND_CE_GRAD, audit.KIND_WEIGHT_BLOB}

    def test_record_tags_by_wire_kind(self):
        # a feedback response is tagged from its bytes: whether they carry the gradient
        plain = wire.encode_feedback_response(wire.FeedbackResponse(None, 0.5, np.ones((1, 2))))
        grad = np.ones((1, 2))
        with_grad = wire.encode_feedback_response(wire.FeedbackResponse(None, 0.5, grad, 1.0, grad))
        log = audit.RiskLog()
        for kind in (wire.KIND_FEEDBACK_REQUEST, wire.KIND_WEIGHT_REQUEST, wire.KIND_WEIGHT_BLOB, wire.KIND_ERROR):
            log.record(kind, b"abc", wire.SCENARIO_WHITE)
        for payload in (plain, with_grad):
            log.record(wire.KIND_FEEDBACK_RESPONSE, payload, wire.SCENARIO_WHITE)
        assert [(e.direction, e.kind, e.risk, e.size, e.payload_sha) for e in log.entries] == [
            ("up", "feedback_request", "low", 3, _sha(b"abc")),
            ("up", "weight_request", "low", 3, _sha(b"abc")),
            ("down", "weight_blob", "mid", 3, _sha(b"abc")),
            ("down", "error", "low", 3, _sha(b"abc")),
            ("down", "feedback_response", "low", len(plain), _sha(plain)),
            ("down", "ce_grad", "mid", len(with_grad), _sha(with_grad)),
        ]
        with pytest.raises(KeyError):
            log.record(77, b"", wire.SCENARIO_WHITE)
        with pytest.raises(wire.ProtocolError, match="truncated"):
            log.record(wire.KIND_FEEDBACK_RESPONSE, with_grad[:10], wire.SCENARIO_WHITE)
        assert len(log.entries) == 6  # a response too short to tag is not logged

    def test_to_json_is_the_asdict_form(self, trained, tmp_path):
        server, channel = self.run_session(trained, wire.SCENARIO_WHITE, n=2)
        channel.fetch_weights()
        server.handle_payload(99, b"")
        log = server.log
        log.record(wire.KIND_FEEDBACK_RESPONSE, wire.encode_feedback_response(
            wire.FeedbackResponse(None, 0.5, np.ones((1, 2)))), wire.SCENARIO_BLACK)
        kinds = {e.kind for e in log.entries}
        assert kinds == {audit.KIND_FEEDBACK_REQUEST, audit.KIND_FEEDBACK_RESPONSE, audit.KIND_CE_GRAD,
                         audit.KIND_WEIGHT_REQUEST, audit.KIND_WEIGHT_BLOB, audit.KIND_ERROR}
        body = {"digest": log.digest(), "entries": [dataclasses.asdict(e) for e in log.entries]}
        log.save(tmp_path / "t.json")
        assert (tmp_path / "t.json").read_text() == json.dumps(body, indent=2, sort_keys=True) + "\n"

    def test_save_replaces_the_file_only_once_the_new_one_is_whole(self, tmp_path, monkeypatch):
        # a save cut short (a second signal during `azsl serve`'s final flush)
        # must leave the old transcript, not a truncated one
        path = tmp_path / "t.json"
        log = audit.RiskLog()
        log.record(wire.KIND_FEEDBACK_REQUEST, b"old", wire.SCENARIO_BLACK)
        log.save(path)
        old = path.read_bytes()
        log.record(wire.KIND_FEEDBACK_REQUEST, b"new", wire.SCENARIO_BLACK)

        def cut_short(obj, fh, **kw):
            fh.write(json.dumps(obj, **kw)[:40])
            raise KeyboardInterrupt

        monkeypatch.setattr(audit.json, "dump", cut_short)
        with pytest.raises(KeyboardInterrupt):
            log.save(path)
        assert path.read_bytes() == old
        assert len(audit.load_transcript(path)) == 1

        replaced = []
        real_replace = audit.os.replace

        def replace(src, dst):
            replaced.append((Path(src).name, Path(src).read_text()))
            real_replace(src, dst)

        monkeypatch.undo()
        monkeypatch.setattr(audit.os, "replace", replace)
        log.save(path)
        assert replaced == [("t.json.tmp", path.read_text())]
        assert len(audit.load_transcript(path)) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.json"]

    def test_save_streams_the_json(self, tmp_path):
        # 1 200 entries, as a black-kl-tcp client's transcript: json.dumps of
        # the log built about 2 MB of chunk strings and the whole text at once
        log = audit.RiskLog()
        for i in range(600):
            log.record(wire.KIND_FEEDBACK_REQUEST, i.to_bytes(4, "little") * 10, wire.SCENARIO_BLACK)
            log.record(wire.KIND_ERROR, i.to_bytes(4, "little"), wire.SCENARIO_BLACK)
        _, peak = peak_bytes(log.save, tmp_path / "t.json")
        assert len(audit.load_transcript(tmp_path / "t.json")) == 1200
        assert peak < 1_000_000

    def test_digest_ignores_timestamps(self, trained):
        server, _ = self.run_session(trained, wire.SCENARIO_BLACK, n=3)
        entries = server.log.entries
        log2 = audit.RiskLog()
        for e in entries:
            log2.append(e.kind, e.size, e.risk, e.scenario, e.direction, b"")
            log2._entries[-1] = audit.RiskEntry(
                timestamp=0.0, kind=e.kind, size=e.size, risk=e.risk,
                scenario=e.scenario, direction=e.direction, payload_sha=e.payload_sha,
            )
        assert server.log.digest() == log2.digest()


class _Scripted(BaseChannel):
    """A channel whose every request gets one fixed reply frame."""

    def __init__(self, reply):
        super().__init__(audit.RiskLog())
        self.reply = reply

    def _request(self, kind, payload, meanwhile):
        meanwhile()
        return self.reply


class TestClientLogging:
    REQ = wire.FeedbackRequest(wire.SCENARIO_BLACK, np.ones((1, 10)), [0])

    def test_reply_is_logged_before_it_is_decoded(self):
        channel = _Scripted((wire.KIND_ERROR, b"x"))  # too short for an error code
        with pytest.raises(wire.ProtocolError, match="truncated error payload"):
            channel.feedback(self.REQ)
        assert [(e.kind, e.size) for e in channel.transcript.entries] == [
            (audit.KIND_FEEDBACK_REQUEST, len(wire.encode_feedback_request(self.REQ))), (audit.KIND_ERROR, 1),
        ]

    def test_reply_of_an_unexpected_kind_is_refused_unlogged(self):
        blob = wire.encode_params(nn.mlp_init([nn.LayerSpec(2, 2, nn.ACT_RELU)], nn.ROLE_TEACHER, 0))
        channel = _Scripted((wire.KIND_WEIGHT_BLOB, blob))
        with pytest.raises(wire.ProtocolError, match="unexpected response kind") as exc:
            channel.feedback(self.REQ)
        assert exc.value.code == wire.ERR_BAD_KIND
        assert [e.kind for e in channel.transcript.entries] == [audit.KIND_FEEDBACK_REQUEST]

    def test_gradient_sent_to_a_black_box_client_is_logged_mid(self):
        # the tag follows the reply's bytes, not the scenario the client asked for
        grad = np.zeros((1, 10))
        reply = wire.encode_feedback_response(wire.FeedbackResponse(None, 0.0, grad, 0.0, grad))
        channel = _Scripted((wire.KIND_FEEDBACK_RESPONSE, reply))
        assert channel.feedback(self.REQ).ce_grad is not None
        down = channel.transcript.entries[-1]
        assert (down.kind, down.risk, down.scenario) == (audit.KIND_CE_GRAD, audit.RISK_MID, wire.SCENARIO_BLACK)


W, B = wire.SCENARIO_WHITE, wire.SCENARIO_BLACK
UP, DOWN = audit.UP, audit.DOWN
FB_REQ, FB_RESP, CE = audit.KIND_FEEDBACK_REQUEST, audit.KIND_FEEDBACK_RESPONSE, audit.KIND_CE_GRAD
W_REQ, BLOB, ERR = audit.KIND_WEIGHT_REQUEST, audit.KIND_WEIGHT_BLOB, audit.KIND_ERROR
LOW, MID = "low", "mid"

# request and error payloads are fixed bytes; their hashes are literal
SHA_WHITE_REQ, SHA_BLACK_REQ = "5014daba5ca507b4", "81a0d704e15e4bb3"
SHA_WEIGHTS_WHITE, SHA_WEIGHTS_BLACK = "67abdd721024f0ff", "26b25d457597a7b0"
SHA_NARROW_REQ, SHA_FOREIGN_REQ = "594b30f46aa9601e", "edca25f547c25259"
SHA_WHITE_REFUSED, SHA_EXPORT_REFUSED = "7f0d80da15929a3f", "2b5b6fb1d9785cf7"
SHA_COLUMNS, SHA_CLASS_SPACE = "be892c609849663d", "04361d47df3299ff"
SHA_TRUNCATED, SHA_BAD_KIND = "ff97f2de0e36208d", "6fee82fb4f8b9550"


class TestReplyBeforeLog:
    """`handle_payload` hands the reply to `send` first, then logs the exchange's entries."""

    def test_reply_is_sent_before_either_entry_is_logged(self, trained):
        _, _, teacher, reg = trained
        server = TeacherServer(teacher, reg, wire.SCENARIO_BLACK)
        seen = []
        req = wire.encode_feedback_request(wire.FeedbackRequest(B, np.full((2, 10), 0.5), [0, 1]))
        kind, payload = server.handle_payload(
            wire.KIND_FEEDBACK_REQUEST, req, send=lambda k, p: seen.append((k, p, len(server.log.entries)))
        )
        assert seen == [(kind, payload, 0)]
        assert _rows(server.log) == [
            (UP, FB_REQ, len(req), LOW, B, _sha(req)), (DOWN, FB_RESP, len(payload), LOW, B, _sha(payload)),
        ]

    def test_failed_send_still_logs_request_then_reply(self, trained):
        _, _, teacher, reg = trained
        server = TeacherServer(teacher, reg, wire.SCENARIO_BLACK)

        def send(kind, payload):
            raise BrokenPipeError("peer gone")

        with pytest.raises(OSError, match="peer gone"):
            server.handle_payload(wire.KIND_WEIGHT_REQUEST, wire.encode_weight_request(W), send=send)
        assert [(e.direction, e.kind, e.scenario) for e in server.log.entries] == [(UP, W_REQ, W), (DOWN, ERR, W)]

    @pytest.mark.parametrize("scenario", [W, B])
    def test_undecodable_payload_logs_only_its_error_reply(self, trained, scenario):
        _, _, teacher, reg = trained
        server = TeacherServer(teacher, reg, scenario)
        sent = []
        truncated = wire.encode_feedback_request(wire.FeedbackRequest(W, np.ones((1, 10)), [0]))[:-3]
        reply = server.handle_payload(wire.KIND_FEEDBACK_REQUEST, truncated, send=lambda *f: sent.append(f))
        assert sent == [reply] and reply[0] == wire.KIND_ERROR
        assert _rows(server.log) == [(DOWN, ERR, 19, LOW, scenario, SHA_TRUNCATED)]


def _channel_calls(channel) -> list[int]:
    """Every kind of channel call the disclosure pins cover; each one's error code, 0 for a reply."""
    calls = [
        lambda: channel.feedback(wire.FeedbackRequest(W, np.full((3, 10), 0.5), [0, 1, 2])),
        lambda: channel.feedback(wire.FeedbackRequest(B, np.full((2, 10), 0.25), [1, 2])),
        lambda: channel.fetch_weights(W),
        lambda: channel.fetch_weights(B),
        lambda: channel.feedback(wire.FeedbackRequest(B, np.ones((2, 3)), [0, 1])),  # wrong column count
        lambda: channel.feedback(wire.FeedbackRequest(B, np.ones((1, 10)), [99])),  # outside the class space
    ]
    codes = []
    for call in calls:
        try:
            call()
            codes.append(0)
        except wire.ProtocolError as exc:
            codes.append(exc.code)
    return codes


class TestDisclosurePins:
    """Every entry of an in-process run's one log, per message kind.

    Replies computed from the teacher's weights are hashed from the frames the
    client received, so these pins hold on any numpy/BLAS build; every other
    field is literal.
    """

    def exchange(self, trained, scenario):
        _, _, teacher, reg = trained
        server = TeacherServer(teacher, reg, scenario)
        channel = InProcessChannel(server)
        assert channel.transcript is server.log
        _, received = record_frames(channel)
        codes = _channel_calls(channel)
        truncated = wire.encode_feedback_request(wire.FeedbackRequest(B, np.ones((1, 10)), [0]))[:-3]
        raw = [server.handle_payload(wire.KIND_FEEDBACK_REQUEST, truncated), server.handle_payload(77, b"")]
        assert raw == [
            (wire.KIND_ERROR, wire.encode_error(wire.ERR_BAD_FRAME, "truncated payload")),
            (wire.KIND_ERROR, wire.encode_error(wire.ERR_BAD_KIND, "unsupported message kind 77")),
        ]
        return server, codes, [_sha(p) for _, p in received]

    def test_white_server(self, trained):
        server, codes, replies = self.exchange(trained, W)
        assert codes == [0, 0, 0, wire.ERR_PROTOCOL, wire.ERR_PROTOCOL, wire.ERR_PROTOCOL]
        # an exchange carries its request's scenario; only raw frames that do not
        # decode carry the server's
        assert _rows(server.log) == [
            (UP, FB_REQ, 272, LOW, W, SHA_WHITE_REQ),
            (DOWN, CE, 620, MID, W, replies[0]),
            (UP, FB_REQ, 188, LOW, B, SHA_BLACK_REQ),
            (DOWN, FB_RESP, 252, LOW, B, replies[1]),
            (UP, W_REQ, 4, LOW, W, SHA_WEIGHTS_WHITE),
            (DOWN, BLOB, 7696, MID, W, replies[2]),
            (UP, W_REQ, 4, LOW, B, SHA_WEIGHTS_BLACK),
            (DOWN, ERR, 54, LOW, B, SHA_EXPORT_REFUSED),
            (UP, FB_REQ, 76, LOW, B, SHA_NARROW_REQ),
            (DOWN, ERR, 41, LOW, B, SHA_COLUMNS),
            (UP, FB_REQ, 104, LOW, B, SHA_FOREIGN_REQ),
            (DOWN, ERR, 42, LOW, B, SHA_CLASS_SPACE),
            (DOWN, ERR, 19, LOW, W, SHA_TRUNCATED),
            (DOWN, ERR, 29, LOW, W, SHA_BAD_KIND),
        ]

    def test_black_server(self, trained):
        server, codes, replies = self.exchange(trained, B)
        assert codes == [wire.ERR_PROTOCOL, 0] + [wire.ERR_PROTOCOL] * 4
        assert replies[0] == SHA_WHITE_REFUSED
        assert _rows(server.log) == [
            (UP, FB_REQ, 272, LOW, W, SHA_WHITE_REQ),
            (DOWN, ERR, 54, LOW, W, SHA_WHITE_REFUSED),
            (UP, FB_REQ, 188, LOW, B, SHA_BLACK_REQ),
            (DOWN, FB_RESP, 252, LOW, B, replies[1]),
            (UP, W_REQ, 4, LOW, W, SHA_WEIGHTS_WHITE),
            (DOWN, ERR, 54, LOW, W, SHA_EXPORT_REFUSED),  # refused: server policy wins
            (UP, W_REQ, 4, LOW, B, SHA_WEIGHTS_BLACK),
            (DOWN, ERR, 54, LOW, B, SHA_EXPORT_REFUSED),
            (UP, FB_REQ, 76, LOW, B, SHA_NARROW_REQ),
            (DOWN, ERR, 41, LOW, B, SHA_COLUMNS),
            (UP, FB_REQ, 104, LOW, B, SHA_FOREIGN_REQ),
            (DOWN, ERR, 42, LOW, B, SHA_CLASS_SPACE),
            (DOWN, ERR, 19, LOW, B, SHA_TRUNCATED),
            (DOWN, ERR, 29, LOW, B, SHA_BAD_KIND),
        ]


class TestServeLoop:
    def start(self, trained, scenario=wire.SCENARIO_WHITE):
        _, _, teacher, reg = trained
        server = TeacherServer(teacher, reg, scenario)
        stop = threading.Event()
        ready = threading.Event()
        addr = {}

        def on_ready(bound):
            addr["port"] = bound[1]
            ready.set()

        thread = threading.Thread(
            target=serve, args=(("127.0.0.1", 0), server), kwargs={"stop_event": stop, "ready": on_ready}, daemon=True
        )
        thread.start()
        assert ready.wait(10)
        return server, stop, thread, addr["port"]

    def request_sequence(self, rng):
        reqs = []
        for _ in range(6):
            reqs.append(
                wire.FeedbackRequest(
                    wire.SCENARIO_WHITE, np.abs(rng.normal(size=(3, 10))), rng.integers(0, 4, 3)
                )
            )
        return reqs

    def test_tcp_matches_in_process_byte_for_byte(self, trained):
        _, _, teacher, reg = trained
        reqs = self.request_sequence(np.random.default_rng(11))

        local = InProcessChannel(TeacherServer(teacher, reg, wire.SCENARIO_WHITE))
        local_frames = record_frames(local)
        for req in reqs:
            local.feedback(req)

        server, stop, thread, port = self.start(trained)
        try:
            remote = TcpChannel("127.0.0.1", port)
            remote_frames = record_frames(remote)
            for req in reqs:
                remote.feedback(req)
            remote.close()
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert local_frames == remote_frames
        assert local.transcript.digest() == remote.transcript.digest()

    def test_each_end_polls_before_each_frame_it_awaits(self, trained, monkeypatch):
        # the client after each request it sends, the server after each reply
        waits, poll = [], wire.poll_readable
        monkeypatch.setattr(wire, "poll_readable", lambda sock: waits.append(sock.getsockname()[1]) or poll(sock))
        server, stop, thread, port = self.start(trained)
        try:
            remote = TcpChannel("127.0.0.1", port)
            for req in self.request_sequence(np.random.default_rng(12)):
                remote.feedback(req)
            remote.close()
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(waits) == 12 and waits.count(port) == 6  # the server's end is bound to port

    def test_each_round_works_while_its_reply_is_in_flight(self, trained, monkeypatch):
        # per black-box round: send, log the request, the next round's draws,
        # the last round's student weight gradients and Adam step, this
        # round's student forward pass, poll, log the reply; then only the
        # generator's critical path: the student's input chain, the generator's
        # backward pass and Adam step, the next generator forward pass
        main, events = threading.get_ident(), []

        def wrap(owner, name, label):
            real = getattr(owner, name)

            def recording(*a, **kw):
                if threading.get_ident() == main:  # the serving thread calls the same wire functions
                    events.append(label(*a))
                return real(*a, **kw)

            monkeypatch.setattr(owner, name, recording)

        wrap(wire, "send_frame", lambda sock, kind, payload: "send")
        wrap(wire, "poll_readable", lambda sock: "poll")
        wrap(client, "rng_for", lambda seed, tag, epoch: f"draw {epoch}")
        for op, name in (("adam", "adam_step"), ("forward", "mlp_forward"), ("backward", "mlp_backward"),
                         ("weights", "backward_weights")):
            wrap(nn, name, lambda params, *a, op=op: f"{op} {params.role}")
        gen = nn.mlp_init(client.generator_specs(6, 4, 10, (16,)), nn.ROLE_GENERATOR, 0)
        student = nn.mlp_init(nn.classifier_specs(10, 4, (8,)), nn.ROLE_STUDENT, 1)
        cfg = ExperimentConfig(noise_dim=6, t_g=3, batch_size=8, scenario=B)
        _, stop, thread, port = self.start(trained, B)
        try:
            remote = TcpChannel("127.0.0.1", port)
            wrap(remote.transcript, "record", lambda kind, payload, scenario: f"log {kind}")
            client.train_black(gen, student, remote, SemanticTable(np.eye(4)), range(4), cfg)
            remote.close()
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        req, resp = f"log {wire.KIND_FEEDBACK_REQUEST}", f"log {wire.KIND_FEEDBACK_RESPONSE}"
        critical = ["backward student", "backward generator", "weights generator", "adam generator"]
        student_step = ["weights student", "adam student"]
        assert events == [
            "draw 0", "forward generator",
            "send", req, "draw 1", "forward student", "poll", resp, *critical, "forward generator",
            "send", req, "draw 2", *student_step, "forward student", "poll", resp, *critical, "forward generator",
            "send", req, *student_step, "forward student", "poll", resp, *critical,
            *student_step,
        ]

    def test_entries_are_stamped_when_frames_cross(self, trained, monkeypatch):
        # a slow answer shows as the gap between the request's and the reply's stamp, at both ends
        slow = 0.02
        real = server_mod.feedback
        monkeypatch.setattr(server_mod, "feedback", lambda *a: time.sleep(slow) or real(*a))
        server, stop, thread, port = self.start(trained, B)
        try:
            remote = TcpChannel("127.0.0.1", port)
            remote.feedback(wire.FeedbackRequest(B, np.ones((2, 10)), [0, 1]))
            remote.close()
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        for log in (server.log, remote.transcript):
            up, down = log.entries
            assert (up.kind, down.kind) == (FB_REQ, FB_RESP)
            assert down.timestamp - up.timestamp >= slow

    def test_failed_reply_send_logs_request_then_reply(self, trained, monkeypatch):
        main, real = threading.get_ident(), wire.send_frame

        def send_frame(sock, kind, payload):
            if threading.get_ident() != main:  # the serving thread's reply
                raise ConnectionResetError("peer gone")
            real(sock, kind, payload)

        monkeypatch.setattr(wire, "send_frame", send_frame)
        server, stop, thread, port = self.start(trained, B)
        req = wire.FeedbackRequest(B, np.ones((1, 10)), [0])
        try:
            remote = TcpChannel("127.0.0.1", port)
            with pytest.raises(wire.ProtocolError, match="closed"):
                remote.feedback(req)
            remote.close()
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert [(e.direction, e.kind, e.scenario) for e in server.log.entries] == [(UP, FB_REQ, B), (DOWN, FB_RESP, B)]
        assert server.log.entries[0].payload_sha == _sha(wire.encode_feedback_request(req))

    @pytest.mark.parametrize("scenario", [W, B])
    def test_both_ends_log_every_exchange_alike(self, trained, scenario):
        server, stop, thread, port = self.start(trained, scenario)
        try:
            remote = TcpChannel("127.0.0.1", port)
            codes = _channel_calls(remote)
            remote.close()
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert codes.count(0) == (3 if scenario == W else 1)
        assert len(remote.transcript.entries) == 2 * len(codes)
        assert _rows(remote.transcript) == _rows(server.log)

    def test_malformed_magic_gets_error_frame_then_close(self, trained):
        _, stop, thread, port = self.start(trained)
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=10)
            sock.sendall(b"GARBAGE890")  # ten bytes: a full bogus header
            header = sock.recv(10)
            assert header[:4] == wire.MAGIC and header[5] == wire.KIND_ERROR
            length = int.from_bytes(header[6:10], "little")
            payload = sock.recv(length)
            code, _ = wire.decode_error(payload)
            assert code == wire.ERR_BAD_FRAME
            assert sock.recv(1) == b""  # server closed the connection
            sock.close()
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_bad_version_gets_error_frame_then_close(self, trained):
        _, stop, thread, port = self.start(trained)
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=10)
            sock.sendall(wire.MAGIC + bytes([wire.VERSION + 1, wire.KIND_FEEDBACK_REQUEST]) + struct.pack("<I", 0))
            kind, payload = wire.recv_frame(sock)
            assert kind == wire.KIND_ERROR
            code, _ = wire.decode_error(payload)
            assert code == wire.ERR_BAD_VERSION
            assert wire.recv_frame(sock) is None  # server closed the connection
            sock.close()
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    @pytest.mark.parametrize("scenario", [W, B])
    def test_framing_errors_pinned_in_server_log(self, trained, scenario):
        server, stop, thread, port = self.start(trained, scenario)
        try:
            for bad in (b"GARBAGE890", wire.MAGIC + bytes([wire.VERSION + 1, 1]) + struct.pack("<I", 0)):
                with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                    sock.sendall(bad)
                    assert wire.recv_frame(sock)[0] == wire.KIND_ERROR
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert _rows(server.log) == [
            (DOWN, ERR, 11, LOW, scenario, "ba8a4c794372f2ff"),  # bad magic
            (DOWN, ERR, 23, LOW, scenario, "7004f630b94606df"),  # unsupported version 2
        ]

    def test_channel_raises_when_server_closes_without_reply(self):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        got = {}

        def read_then_hang_up():
            conn, _ = listener.accept()
            with conn:
                got["frame"] = wire.recv_frame(conn)

        thread = threading.Thread(target=read_then_hang_up, daemon=True)
        thread.start()
        try:
            remote = TcpChannel("127.0.0.1", port, timeout=10)
            req = wire.FeedbackRequest(wire.SCENARIO_BLACK, np.ones((1, 10)), [0])
            with pytest.raises(wire.ProtocolError, match="closed") as exc:
                remote.feedback(req)
            assert exc.value.code == wire.ERR_BAD_FRAME
            remote.close()
        finally:
            thread.join(timeout=10)
            listener.close()
        assert not thread.is_alive()
        assert got["frame"] == (wire.KIND_FEEDBACK_REQUEST, wire.encode_feedback_request(req))

    def test_oversized_frame_rejected(self, trained):
        _, stop, thread, port = self.start(trained)
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=10)
            huge = wire.MAGIC + bytes([wire.VERSION, wire.KIND_FEEDBACK_REQUEST])
            huge += struct.pack("<I", wire.MAX_PAYLOAD + 1)
            sock.sendall(huge)
            header = sock.recv(10)
            assert header[5] == wire.KIND_ERROR
            sock.close()
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_both_ends_of_a_connection_disable_nagle(self, trained, monkeypatch):
        # without TCP_NODELAY a large reply's last partial segment waits for
        # the peer's delayed ACK (40 ms or more on Linux)
        made = []

        class Recorded(socket.socket):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(socket, "socket", Recorded)  # accept() builds its socket from this name too
        _, stop, thread, port = self.start(trained)
        try:
            remote = TcpChannel("127.0.0.1", port)
            remote.feedback(wire.FeedbackRequest(wire.SCENARIO_WHITE, np.ones((1, 10)), [0]))
            connected = [s for s in made if s.fileno() != -1 and _has_peer(s)]
            ends = {s.getsockname() for s in connected} | {s.getpeername() for s in connected}
            nodelay = [s.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) for s in connected]
            remote.close()
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert remote.sock in connected and len(connected) == 2 and len(ends) == 2  # the client's and the server's end
        assert all(nodelay)

    def test_weight_request_over_tcp(self, trained):
        _, _, teacher, _ = trained
        server, stop, thread, port = self.start(trained, scenario=wire.SCENARIO_WHITE)
        try:
            remote = TcpChannel("127.0.0.1", port)
            params = remote.fetch_weights()
            assert params_allclose(params, teacher.params)
            remote.close()
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_weight_request_refused_on_black_server(self, trained):
        server, stop, thread, port = self.start(trained, scenario=wire.SCENARIO_BLACK)
        try:
            remote = TcpChannel("127.0.0.1", port)
            with pytest.raises(wire.ProtocolError, match="refused"):
                remote.fetch_weights()
            remote.close()
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_survives_abrupt_disconnect_then_serves_next_client(self, trained):
        _, _, teacher, _ = trained
        _, stop, thread, port = self.start(trained)
        try:
            # half a frame, then vanish
            rude = socket.create_connection(("127.0.0.1", port), timeout=10)
            rude.sendall(wire.MAGIC + bytes([wire.VERSION]))
            rude.close()
            polite = TcpChannel("127.0.0.1", port)
            req = wire.FeedbackRequest(wire.SCENARIO_BLACK, np.ones((1, 10)), [0])
            resp = polite.feedback(req)
            assert resp.softmax.shape == (1, 4)
            polite.close()
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_stop_ends_serve_while_a_client_idles(self, trained):
        _, stop, thread, port = self.start(trained)
        with socket.create_connection(("127.0.0.1", port), timeout=10) as idle:
            req = wire.FeedbackRequest(wire.SCENARIO_BLACK, np.ones((1, 10)), [0])
            idle.sendall(frame(wire.KIND_FEEDBACK_REQUEST, wire.encode_feedback_request(req)))
            assert wire.recv_frame(idle)[0] == wire.KIND_FEEDBACK_RESPONSE  # accepted, now between frames
            stop.set()
            thread.join(2)
            assert not thread.is_alive()
            assert wire.recv_frame(idle) is None  # the server closed the idle connection
