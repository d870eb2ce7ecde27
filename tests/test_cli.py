import json
import os
import socket
import subprocess
import sys
import threading

import pytest

from azsl import audit, cli, experiment
from azsl.config import ConfigError, emit_config, parse_config, with_overrides
from azsl.data import load_features
from azsl.experiment import run_experiment, serve_experiment

from conftest import record_frames, tiny_config

RUN_FILES = [
    "config.azsl",
    "gen.azw",
    "student.azw",
    "trace.csv",
    "transcript.json",
    "report_czsl.txt",
    "report_gzsl.txt",
]


def serve_cmd(path):
    """`azsl serve path` in a child process that imports this same azsl package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen(
        [sys.executable, "-m", "azsl.cli", "serve", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env,
    )


def write_config(tmp_path, cfg, name="exp.azsl"):
    path = tmp_path / name
    path.write_text(emit_config(cfg))
    return path


@pytest.fixture(scope="module")
def black_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("blackrun")
    cfg = tiny_config(scenario="black", out=str(out / "run"))
    path = out / "exp.azsl"
    path.write_text(emit_config(cfg))
    assert cli.main(["run", str(path)]) == cli.EXIT_OK
    return out / "run"


class TestRun:
    def test_outputs_present(self, black_run):
        for name in RUN_FILES:
            assert (black_run / name).exists(), name

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_a = tiny_config(out=str(tmp_path / "a"))
        cfg_b = tiny_config(out=str(tmp_path / "b"))
        assert cli.main(["run", str(write_config(tmp_path, cfg_a, "a.azsl"))]) == 0
        assert cli.main(["run", str(write_config(tmp_path, cfg_b, "b.azsl"))]) == 0
        for name in ["report_czsl.txt", "report_gzsl.txt", "gen.azw", "student.azw", "trace.csv"]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_rerun_from_stored_canonical_config(self, black_run, tmp_path):
        stored = black_run / "config.azsl"
        rerun_cfg = with_overrides(
            __import__("azsl.config", fromlist=["parse_config"]).parse_config(stored),
            out=str(tmp_path / "rerun"),
        )
        result = run_experiment(rerun_cfg, outdir=rerun_cfg.out)
        for name in ["report_czsl.txt", "report_gzsl.txt"]:
            assert (tmp_path / "rerun" / name).read_bytes() == (black_run / name).read_bytes()

    def test_black_transcript_has_no_mid_entries(self, black_run):
        body = json.loads((black_run / "transcript.json").read_text())
        assert body["entries"], "transcript must not be empty"
        assert all(e["risk"] == "low" for e in body["entries"])

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg_a = tiny_config(seed=1, out=str(tmp_path / "a"))
        cfg_b = tiny_config(seed=2, out=str(tmp_path / "b"))
        monkeypatch.setenv("AZSL_SEED", "777")
        assert cli.main(["run", str(write_config(tmp_path, cfg_a, "a.azsl"))]) == 0
        assert cli.main(["run", str(write_config(tmp_path, cfg_b, "b.azsl"))]) == 0
        assert (tmp_path / "a" / "report_gzsl.txt").read_bytes() == (
            tmp_path / "b" / "report_gzsl.txt"
        ).read_bytes()

    def test_negative_env_seed_is_a_config_error(self, tmp_path, monkeypatch):
        cfg = tiny_config(out=str(tmp_path / "run"))
        monkeypatch.setenv("AZSL_SEED", "-1")
        assert cli.main(["run", str(write_config(tmp_path, cfg))]) == cli.EXIT_CONFIG
        assert not (tmp_path / "run").exists()

    def test_zero_hidden_size_is_a_config_error_before_any_work(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiment, "build_dataset", lambda cfg: pytest.fail("the dataset was built"))
        path = write_config(tmp_path, tiny_config(teacher_hidden=(0, 64), out=str(tmp_path / "run")))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert "hidden layer sizes must be >= 1" in capsys.readouterr().err

    def test_split_unseen_disagreeing_with_the_synthetic_spec_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiment, "build_dataset", lambda cfg: pytest.fail("the dataset was built"))
        path = write_config(tmp_path, tiny_config(out=str(tmp_path / "run")))
        path.write_text(path.read_text() + "split.unseen = 4\n")
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert "split.unseen gives 4 unseen classes" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "csv,ids,message",
        [
            pytest.param(False, "8,99", "ids must be in 0..9", id="8,99-ids must be in 0..9"),
            pytest.param(False, "8,8,9", "repeats a class id", id="8,8,9-repeats a class id"),
            pytest.param(True, "1,1,2", "repeats a class id", id="csv-1,1,2-repeats a class id"),
            pytest.param(True, "-1,2", "ids must be >= 0", id="csv--1,2-ids must be >= 0"),
            pytest.param(True, "0", "count must be >= 1", id="csv-0-count must be >= 1"),
            pytest.param(True, "-1", "count must be >= 1", id="csv--1-count must be >= 1"),
        ],
    )
    @pytest.mark.parametrize("argv", [["run"], ["sweep", "--param", "alpha", "--values", "1"]], ids=["run", "sweep"])
    def test_split_unseen_ids_out_of_range_or_repeated_exit_2(
        self, tmp_path, capsys, monkeypatch, argv, csv, ids, message
    ):
        monkeypatch.setattr(experiment, "build_dataset", lambda cfg: pytest.fail("the dataset was built"))
        cfg = tiny_config(out=str(tmp_path / "run"))
        if csv:  # a feature file's class count is unknown to the check, but not its ids
            (tmp_path / "feats.csv").write_text("label,f0,f1\n0,1,2\n1,3,4\n2,5,6\n2,7,8\n")
            cfg = with_overrides(cfg, synthetic=None, dataset_path=str(tmp_path / "feats.csv"))
        path = write_config(tmp_path, cfg)
        path.write_text(path.read_text() + f"split.unseen = {ids}\n")
        assert cli.main([argv[0], str(path), *argv[1:]]) == cli.EXIT_CONFIG
        assert f"split.unseen {message}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("line", ["train.lr = nan", "alpha = inf"])
    def test_non_finite_lr_or_alpha_is_a_config_error_before_any_work(self, tmp_path, capsys, monkeypatch, line):
        monkeypatch.setattr(experiment, "build_dataset", lambda cfg: pytest.fail("the dataset was built"))
        path = write_config(tmp_path, tiny_config(out=str(tmp_path / "run")))
        key = line.split(" = ")[0]
        kept = [row for row in path.read_text().splitlines() if not row.startswith(key + " = ")]
        path.write_text("\n".join(kept + [line]) + "\n")
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestLibraryValidation:
    # configs built in code, not parsed, get the same checks before any work
    @pytest.mark.parametrize("entry", [run_experiment, serve_experiment])
    @pytest.mark.parametrize(
        "overrides,message",
        [
            (dict(lr=float("nan")), "train.lr must be finite"),
            (dict(channel="tcp", synthetic=None, dataset_path="feats.azb"), "remote runs need the synthetic"),
        ],
    )
    def test_built_config_is_validated_first(self, monkeypatch, entry, overrides, message):
        monkeypatch.setattr(experiment, "train_teacher", lambda *a, **k: pytest.fail("the teacher was trained"))
        cfg = tiny_config(endpoint=("127.0.0.1", 0), **overrides)
        with pytest.raises(ConfigError, match=message):
            entry(cfg)


class TestExitCodes:
    def test_usage(self):
        assert cli.main([]) == cli.EXIT_USAGE
        assert cli.main(["sweep", "x.azsl", "--param", "up"]) == cli.EXIT_USAGE

    def test_config_error(self, tmp_path):
        bad = tmp_path / "bad.azsl"
        bad.write_text("nonsense = 1\n")
        assert cli.main(["run", str(bad)]) == cli.EXIT_CONFIG

    def test_dataset_format_is_an_unknown_key(self, tmp_path, capsys):
        # the file name decides the format: .azb is azb, any other name csv
        path = tmp_path / "exp.azsl"
        path.write_text("dataset.path = feats.csv\ndataset.format = azb\n")
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert "exp.azsl:2: unknown key 'dataset.format'" in capsys.readouterr().err

    def test_runtime_error(self, tmp_path):
        assert cli.main(["audit", str(tmp_path / "missing.json")]) == cli.EXIT_RUNTIME

    def test_synthetic_false_with_synthetic_keys_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "exp.azsl"
        path.write_text("dataset.synthetic.per_class = 50\ndataset.synthetic = false\n")
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert "exp.azsl:2: dataset.synthetic = false contradicts" in capsys.readouterr().err

    def test_port_out_of_range_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "srv.azsl"
        path.write_text("dataset.synthetic = true\nendpoint = 127.0.0.1:70000\n")
        assert cli.main(["serve", str(path)]) == cli.EXIT_CONFIG
        assert "port must be in 0..65535" in capsys.readouterr().err

    def test_bind_failure(self, tmp_path):
        taken = socket.socket()
        taken.bind(("127.0.0.1", 0))
        port = taken.getsockname()[1]
        cfg = tiny_config(endpoint=("127.0.0.1", port), out=str(tmp_path / "srv"))
        path = write_config(tmp_path, cfg, "srv.azsl")
        assert cli.main(["serve", str(path)]) == cli.EXIT_RUNTIME
        taken.close()


@pytest.fixture(scope="module")
def white_transcript(tmp_path_factory):
    out = tmp_path_factory.mktemp("whiterun")
    cfg = tiny_config(scenario="white", t_g=5, t_s=5, out=str(out / "run"))
    run_experiment(cfg, outdir=cfg.out)
    return out / "run" / "transcript.json"


class TestAudit:
    def test_black_verdict_clean(self, black_run, capsys):
        assert cli.main(["audit", str(black_run / "transcript.json")]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[-1] == "BLACKBOX-CLEAN"
        assert [line for line in out if line.startswith("scenario ")] == [f"scenario black: {out[0].split()[1]}"]

    def test_white_counts_mid_messages(self, tmp_path, capsys):
        cfg = tiny_config(scenario="white", t_g=25, out=str(tmp_path / "run"))
        run_experiment(cfg, outdir=cfg.out)
        assert cli.main(["audit", str(tmp_path / "run" / "transcript.json")]) == 0
        out = capsys.readouterr().out
        body = json.loads((tmp_path / "run" / "transcript.json").read_text())
        n_mid = sum(1 for e in body["entries"] if e["risk"] == "mid")
        n_ce = sum(1 for e in body["entries"] if e["kind"] == "ce_grad")
        assert n_mid == n_ce == 25  # one gradient response per generator epoch
        assert f"WHITEBOX ({n_mid} mid-risk messages)" in out

    def test_byte_totals_match_recorded_payloads(self, tmp_path, capsys):
        # recompute up/down totals from the raw frames the channel recorded
        from azsl.channel import InProcessChannel
        from azsl.experiment import build_dataset, build_server, build_split
        from azsl.client import run_algorithm1

        cfg = tiny_config(scenario="black", t_g=10, t_s=5, out=str(tmp_path / "x"))
        ds = build_dataset(cfg)
        split = build_split(cfg, ds)
        server = build_server(cfg, ds, split)
        channel = InProcessChannel(server)
        sent, received = record_frames(channel)
        run_algorithm1(channel, ds.semantics, cfg, ds.d_x, split.teacher_classes)
        channel.transcript.save(tmp_path / "t.json")
        assert cli.main(["audit", str(tmp_path / "t.json")]) == 0
        out = capsys.readouterr().out
        up = sum(len(p) for _, p in sent)
        down = sum(len(p) for _, p in received)
        assert f"bytes up: {up}" in out
        assert f"bytes down: {down}" in out

    def test_edited_transcript_fails_its_digest(self, tmp_path, capsys):
        cfg = tiny_config(scenario="white", t_g=5, t_s=5, out=str(tmp_path / "run"))
        run_experiment(cfg, outdir=cfg.out)
        path = tmp_path / "run" / "transcript.json"
        body = json.loads(path.read_text())
        for e in body["entries"]:
            if e["kind"] == "ce_grad":
                e["kind"], e["risk"] = "feedback_response", "low"
        path.write_text(json.dumps(body))
        assert cli.main(["audit", str(path)]) == cli.EXIT_RUNTIME
        captured = capsys.readouterr()
        assert "BLACKBOX-CLEAN" not in captured.out
        assert "do not match its digest" in captured.err

    def test_relabelled_transcript_with_recomputed_digest_is_not_clean(self, tmp_path, capsys):
        # the digest is unkeyed, so an edit can rewrite it; the white scenario
        # tags left on the entries still rule out BLACKBOX-CLEAN
        cfg = tiny_config(scenario="white", t_g=5, t_s=5, out=str(tmp_path / "run"))
        run_experiment(cfg, outdir=cfg.out)
        path = tmp_path / "run" / "transcript.json"
        body = json.loads(path.read_text())
        for e in body["entries"]:
            if e["kind"] == "ce_grad":
                e["kind"], e["risk"] = "feedback_response", "low"
        body["digest"] = audit._digest([audit.RiskEntry(**e) for e in body["entries"]])
        path.write_text(json.dumps(body))
        assert cli.main(["audit", str(path)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert not any(line.startswith(("risk mid", "kind ce_grad")) for line in out)  # the edit took
        n_white = sum(e["scenario"] == "white" for e in body["entries"])
        assert n_white == 10  # 5 generator rounds, each a request and its reply
        assert f"scenario white: {n_white}" in out
        assert out[-1] == "WHITEBOX (0 mid-risk messages)"

    @pytest.mark.parametrize(
        "field,value,index,message",
        [
            ("size", str, None, "size has the wrong type"),
            ("size", -1, 2, "negative size"),
            ("size", True, 0, "size has the wrong type"),
            ("timestamp", "now", 3, "timestamp has the wrong type"),
            ("payload_sha", None, 0, "payload_sha has the wrong type"),
            ("payload_sha", "xyz", 0, "payload_sha is not 16 hex digits"),
            ("payload_sha", "", 2, "payload_sha is not 16 hex digits: ''"),
            ("kind", "gradient", 1, "unknown kind 'gradient'"),
            ("scenario", "grey", 0, "unknown scenario 'grey'"),
            ("risk", "high", 0, "a feedback_request entry is low risk and up, not 'high' and 'up'"),
            ("direction", "sideways", 0, "a feedback_request entry is low risk and up, not 'low' and 'sideways'"),
            ("risk", "low", 1, "a ce_grad entry is mid risk and down, not 'low' and 'down'"),
            ("direction", "down", 2, "a feedback_request entry is low risk and up, not 'low' and 'down'"),
        ],
        ids=[
            "str-sizes", "negative-size", "bool-size", "str-timestamp", "no-sha", "short-sha", "empty-sha",
            "unknown-kind", "unknown-scenario", "unknown-risk", "unknown-direction", "ce_grad-low", "request-down",
        ],
    )
    def test_entry_that_no_log_could_write_is_corrupt_despite_its_digest(
        self, white_transcript, tmp_path, capsys, field, value, index, message
    ):
        body = json.loads(white_transcript.read_text())
        assert body["entries"][1]["kind"] == "ce_grad"
        for i, e in enumerate(body["entries"]):
            if index is None or i == index:
                e[field] = value(e[field]) if callable(value) else value
        body["digest"] = audit._digest([audit.RiskEntry(**e) for e in body["entries"]])
        path = tmp_path / "t.json"
        path.write_text(json.dumps(body))
        assert cli.main(["audit", str(path)]) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert f"corrupt transcript {path}: entry {index or 0}: {message}" in err

    def test_corrupt_transcript(self, tmp_path):
        bad = tmp_path / "t.json"
        bad.write_text("{not json")
        assert cli.main(["audit", str(bad)]) == cli.EXIT_RUNTIME

    def test_missing_transcript_is_an_os_error_not_corrupt(self, tmp_path, capsys):
        missing = tmp_path / "nonexistent.json"
        assert cli.main(["audit", str(missing)]) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "No such file or directory" in err
        assert "corrupt" not in err


class TestSweep:
    def test_single_value_single_row(self, tmp_path, capsys):
        cfg = tiny_config(scenario="black", out=str(tmp_path / "sweep"))
        path = write_config(tmp_path, cfg)
        assert cli.main(["sweep", str(path), "--param", "alpha", "--values", "0.5"]) == 0
        rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert rows[0] == "value,u,s,H"
        assert len(rows) == 2

    def test_h_column_consistent_and_cells_isolated(self, tmp_path):
        cfg = tiny_config(scenario="black", t_g=60, t_s=30, out=str(tmp_path / "sweep"))
        path = write_config(tmp_path, cfg)
        assert cli.main(["sweep", str(path), "--param", "noise_dim", "--values", "4,6"]) == 0
        rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        for row in rows:
            _, u, s, h = row.split(",")
            u, s, h = float(u), float(s), float(h)
            expect = 0.0 if u + s == 0 else 2 * u * s / (u + s)
            assert abs(h - expect) < 1e-9
        assert (tmp_path / "sweep" / "cell_000" / "report_gzsl.txt").exists()
        assert (tmp_path / "sweep" / "cell_001" / "report_gzsl.txt").exists()

    def test_reference_noise_grid(self, tmp_path):
        cfg = tiny_config(scenario="black", t_g=60, t_s=30, per_class_count=40, out=str(tmp_path / "sweep"))
        path = write_config(tmp_path, cfg)
        assert cli.main(["sweep", str(path), "--param", "noise_dim", "--values", "20,100,400,768"]) == 0
        rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["20", "100", "400", "768"]

    def test_invalid_cell_rejected_before_any_cell_runs(self, tmp_path):
        path = write_config(tmp_path, tiny_config(out=str(tmp_path / "sweep")))
        assert cli.main(["sweep", str(path), "--param", "alpha", "--values", "1,-1"]) == cli.EXIT_CONFIG
        assert not (tmp_path / "sweep").exists()

    def test_empty_values_rejected(self, tmp_path):
        path = write_config(tmp_path, tiny_config())
        assert cli.main(["sweep", str(path), "--param", "alpha", "--values", " "]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("param,values", [("noise_dim", "4,6"), ("alpha", "0.5,2")])
    def test_cells_share_one_teacher_and_reproduce_under_run(self, tmp_path, monkeypatch, param, values):
        fits, datasets, cells = [], [], []
        train_teacher, build_dataset, run = experiment.train_teacher, experiment.build_dataset, cli.run_experiment

        def counted_fit(*args, **kwargs):
            fits.append(kwargs["seed"])
            return train_teacher(*args, **kwargs)

        def counted_dataset(cfg):
            datasets.append(cfg.seed)
            return build_dataset(cfg)

        def kept_run(*args, **kwargs):
            cells.append(run(*args, **kwargs))
            return cells[-1]

        monkeypatch.setattr(experiment, "train_teacher", counted_fit)
        monkeypatch.setattr(experiment, "build_dataset", counted_dataset)
        monkeypatch.setattr(cli, "run_experiment", kept_run)
        cfg = tiny_config(scenario="black", t_g=60, t_s=30, out=str(tmp_path / "sweep"))
        assert cli.main(["sweep", str(write_config(tmp_path, cfg)), "--param", param, "--values", values]) == 0
        assert len(fits) == len(datasets) == 1
        assert len(cells) == 2
        for cell in cells:
            assert cell.teacher is cells[0].teacher is not None
            assert cell.dataset is cells[0].dataset and cell.split is cells[0].split

        for i, cell in enumerate(cells):
            celldir = tmp_path / "sweep" / f"cell_{i:03d}"
            alone = run_experiment(parse_config(celldir / "config.azsl"), outdir=tmp_path / f"alone_{i}")
            for name in ("gen.azw", "student.azw", "report_czsl.txt", "report_gzsl.txt"):
                assert (celldir / name).read_bytes() == (tmp_path / f"alone_{i}" / name).read_bytes(), name
            # each cell's server logged only that cell's own exchanges
            kept = audit.load_transcript(celldir / "transcript.json")
            assert len(kept) == len(alone.bundle.transcript.entries)
            assert cell.bundle.transcript.digest() == alone.bundle.transcript.digest()
            assert cell.bundle.digest() == alone.bundle.digest()
        assert len(fits) == len(datasets) == 1 + len(cells)  # each standalone run builds its own

    def test_remote_teacher_sweep_fits_none(self, tmp_path, monkeypatch):
        closed = socket.socket()
        closed.bind(("127.0.0.1", 0))
        port = closed.getsockname()[1]
        closed.close()
        monkeypatch.setattr(experiment, "train_teacher", lambda *a, **k: pytest.fail("a teacher was fitted"))
        cfg = tiny_config(channel="tcp", endpoint=("127.0.0.1", port), out=str(tmp_path / "sweep"))
        path = write_config(tmp_path, cfg)
        # nothing listens on the port: the first cell's connection is refused
        assert cli.main(["sweep", str(path), "--param", "alpha", "--values", "1"]) == cli.EXIT_RUNTIME

    def test_remote_cells_share_the_data_and_fit_no_teacher(self, tmp_path, monkeypatch):
        serve_cfg = tiny_config(scenario="black", endpoint=("127.0.0.1", 0), out=str(tmp_path / "server"))
        stop, ready, bound = threading.Event(), threading.Event(), {}

        def on_ready(addr):
            bound["port"] = addr[1]
            ready.set()

        thread = threading.Thread(
            target=serve_experiment, args=(serve_cfg,), kwargs={"stop_event": stop, "ready": on_ready}, daemon=True
        )
        thread.start()
        cells, run = [], cli.run_experiment

        def kept_run(*args, **kwargs):
            cells.append(run(*args, **kwargs))
            return cells[-1]

        try:
            assert ready.wait(120)
            # the server fitted its teacher before it bound the port; the client fits none
            monkeypatch.setattr(experiment, "train_teacher", lambda *a, **k: pytest.fail("a teacher was fitted"))
            monkeypatch.setattr(cli, "run_experiment", kept_run)
            cfg = tiny_config(
                scenario="black", t_g=10, t_s=5, channel="tcp", endpoint=("127.0.0.1", bound["port"]),
                out=str(tmp_path / "sweep"),
            )
            path = write_config(tmp_path, cfg)
            assert cli.main(["sweep", str(path), "--param", "alpha", "--values", "0.5,2"]) == cli.EXIT_OK
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert len(cells) == 2
        for cell in cells:
            assert cell.teacher is None
            assert cell.dataset is cells[0].dataset and cell.split is cells[0].split


class TestFileBackedRun:
    def test_semantic_file_without_value_columns_is_a_runtime_error(self, tmp_path, capsys):
        (tmp_path / "feats.csv").write_text("label,f0,f1\n0,1,2\n1,3,4\n2,5,6\n2,7,8\n")
        (tmp_path / "feats.sem.csv").write_text("class\n0\n1\n2\n")
        cfg = with_overrides(
            tiny_config(out=str(tmp_path / "run")), synthetic=None, dataset_path=str(tmp_path / "feats.csv")
        )
        assert cli.main(["run", str(write_config(tmp_path, cfg))]) == cli.EXIT_RUNTIME
        assert "feats.sem.csv:1: header needs an id column" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_run_from_azb_file(self, tmp_path):
        data_path = tmp_path / "data.azb"
        gen_cfg = write_config(tmp_path, tiny_config(), "gen.azsl")
        assert cli.main(["gen-data", str(gen_cfg), str(data_path)]) == 0
        cfg = with_overrides(
            tiny_config(out=str(tmp_path / "run")), synthetic=None, dataset_path=str(data_path)
        )
        assert cli.main(["run", str(write_config(tmp_path, cfg, "file.azsl"))]) == 0
        assert (tmp_path / "run" / "report_gzsl.txt").exists()

    def test_inductive_run_writes_classifier(self, tmp_path):
        cfg = tiny_config(teacher_mode="inductive", out=str(tmp_path / "run"))
        assert cli.main(["run", str(write_config(tmp_path, cfg))]) == 0
        assert (tmp_path / "run" / "classifier.azw").exists()

    def test_inductive_blackbox_combination(self, tmp_path):
        cfg = tiny_config(teacher_mode="inductive", scenario="black", out=str(tmp_path / "run"))
        assert cli.main(["run", str(write_config(tmp_path, cfg))]) == 0
        body = json.loads((tmp_path / "run" / "transcript.json").read_text())
        assert all(e["risk"] == "low" for e in body["entries"])
        assert (tmp_path / "run" / "classifier.azw").exists()


class TestGenData:
    def test_write_and_reload(self, tmp_path):
        path = write_config(tmp_path, tiny_config())
        out = tmp_path / "data.azb"
        assert cli.main(["gen-data", str(path), str(out)]) == 0
        ds = load_features(out)
        assert ds.n == 10 * 80

    def test_requires_synthetic_spec(self, tmp_path):
        out = tmp_path / "d.azb"
        from azsl.data import save_features, make_synthetic, SyntheticSpec

        save_features(make_synthetic(SyntheticSpec(per_class=2), 0), out)
        cfg = tiny_config()
        cfg = with_overrides(cfg, synthetic=None, dataset_path=str(out))
        path = write_config(tmp_path, cfg)
        assert cli.main(["gen-data", str(path), str(tmp_path / "x.azb")]) == cli.EXIT_CONFIG


class TestServeCli:
    def test_sigterm_flushes_transcript(self, tmp_path):
        import signal
        import time

        free = socket.socket()
        free.bind(("127.0.0.1", 0))
        port = free.getsockname()[1]
        free.close()
        cfg = tiny_config(endpoint=("127.0.0.1", port), out=str(tmp_path / "srv"))
        path = write_config(tmp_path, cfg, "srv.azsl")
        proc = serve_cmd(path)
        try:
            deadline = time.time() + 120
            while time.time() < deadline:
                try:
                    socket.create_connection(("127.0.0.1", port), timeout=1).close()
                    break
                except OSError:
                    if proc.poll() is not None:
                        raise AssertionError(proc.stderr.read().decode())
                    time.sleep(0.3)
            else:
                raise AssertionError("server never came up")
            os.kill(proc.pid, signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
        assert (tmp_path / "srv" / "server_transcript.json").exists()

    def test_ready_line_means_port_accepts(self, tmp_path):
        import re
        import select
        import signal

        cfg = tiny_config(endpoint=("127.0.0.1", 0), out=str(tmp_path / "srv"))
        path = write_config(tmp_path, cfg, "srv.azsl")
        proc = serve_cmd(path)
        try:
            readable, _, _ = select.select([proc.stdout], [], [], 120)
            assert readable, "no ready line within 120 s"
            line = proc.stdout.readline().decode()
            match = re.fullmatch(r"serving teacher on 127\.0\.0\.1:(\d+) \(white\)\n", line)
            if not match:
                stderr = proc.stderr.read().decode() if proc.poll() is not None else ""
                raise AssertionError(f"unexpected first line {line!r}; stderr: {stderr}")
            port = int(match.group(1))
            assert port != 0  # the bound port, not the configured 0
            socket.create_connection(("127.0.0.1", port), timeout=5).close()  # once, no retry
            os.kill(proc.pid, signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    @pytest.mark.parametrize("scenario", ["white", "black"])
    def test_serve_then_remote_run_matches_local(self, tmp_path, scenario):
        local_cfg = tiny_config(scenario=scenario, out=str(tmp_path / "local"))
        run_experiment(local_cfg, outdir=local_cfg.out)

        serve_cfg = tiny_config(scenario=scenario, endpoint=("127.0.0.1", 0), out=str(tmp_path / "server"))
        stop = threading.Event()
        ready = threading.Event()
        bound = {}

        def on_ready(addr):
            bound["port"] = addr[1]
            ready.set()

        thread = threading.Thread(
            target=serve_experiment, args=(serve_cfg,), kwargs={"stop_event": stop, "ready": on_ready},
            daemon=True,
        )
        thread.start()
        assert ready.wait(120)
        try:
            remote_cfg = tiny_config(
                scenario=scenario, channel="tcp", endpoint=("127.0.0.1", bound["port"]), out=str(tmp_path / "remote")
            )
            run_experiment(remote_cfg, outdir=remote_cfg.out)
        finally:
            stop.set()
            thread.join(timeout=30)
        for name in ["report_czsl.txt", "report_gzsl.txt", "gen.azw", "student.azw"]:
            assert (tmp_path / "remote" / name).read_bytes() == (tmp_path / "local" / name).read_bytes()
        # the serve loop flushed its own transcript on shutdown; both ends logged
        # every frame alike, and as the in-process run's one log did
        remote, server, local = (
            json.loads(path.read_text())
            for path in (
                tmp_path / "remote" / "transcript.json",
                tmp_path / "server" / "server_transcript.json",
                tmp_path / "local" / "transcript.json",
            )
        )
        untimed = [{k: v for k, v in e.items() if k != "timestamp"} for e in remote["entries"]]
        assert len(untimed) > 2 * local_cfg.t_g  # every generator round, then the quota rounds
        assert untimed == [{k: v for k, v in e.items() if k != "timestamp"} for e in server["entries"]]
        assert remote["digest"] == server["digest"] == local["digest"]
