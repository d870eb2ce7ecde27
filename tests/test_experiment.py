"""run_experiment with a teacher side built beforehand (the path `azsl sweep` takes), and the
row-free client of a remote teacher."""
import socket

import numpy as np
import pytest

from azsl import cli, data, experiment
from azsl.config import emit_config, with_overrides
from azsl.data import SemanticTable, SyntheticSpec, class_split, make_synthetic, split_azsl
from azsl.experiment import build_dataset, build_side, build_split, client_inputs, run_experiment

from conftest import serving, tiny_config

HARD = SyntheticSpec(n_classes=20, seen_count=15, separation=1.0)
OUTPUTS = ("gen.azw", "student.azw", "trace.csv", "report_czsl.txt", "report_gzsl.txt")


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def side():
    """The dataset, split and teacher every transductive TINY arm of the default seed builds."""
    return build_side(tiny_config())


class TestGivenTeacher:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"scenario": "black"},
            {"scenario": "black", "verify": False},
            {"scenario": "black", "regularizer": "none", "alpha": 0.0},
            {"regularizer": "mmd"},
        ],
        ids=["white", "black", "black-noverify", "black-noreg", "white-mmd"],
    )
    def test_same_bundle_as_a_run_that_fits_its_own(self, side, overrides):
        cfg = tiny_config(**overrides)
        given = run_experiment(cfg, side=side)
        assert given.dataset is side.dataset and given.split is side.split and given.teacher is side.teacher
        assert given.bundle.digest() == run_experiment(cfg).bundle.digest()

    def test_each_run_gets_its_own_server_log(self, side):
        cfg = tiny_config(scenario="black")
        first = run_experiment(cfg, side=side).bundle.transcript
        kept = first.digest()
        second = run_experiment(cfg, side=side).bundle.transcript
        assert first.digest() == kept  # the second run logged nothing in the first run's transcript
        assert second.digest() == kept

    @pytest.mark.parametrize(
        "cfg,fitted_from,message",
        [
            (
                tiny_config(channel="tcp", endpoint=("127.0.0.1", 9)),
                tiny_config(teacher_epochs=1),
                r"\(channel, teacher.epochs differ\)",
            ),
            (tiny_config(), tiny_config(seed=6, teacher_epochs=1), r"\(data_seed, seed, teacher.epochs differ\)"),
            (
                tiny_config(),
                tiny_config(teacher_hidden=(32, 16), teacher_epochs=1),
                r"\(teacher.hidden, teacher.epochs differ\)",
            ),
            (
                tiny_config(teacher_mode="inductive", split_unseen=(8, 9)),
                tiny_config(teacher_mode="inductive", split_unseen=(0, 1), teacher_epochs=1),
                r"\(split.unseen, teacher.epochs differ\)",
            ),
            # each of these teachers has the seed, layers and class space cfg
            # would fit, yet cfg's run with it gives another bundle than its own
            (tiny_config(), tiny_config(teacher_epochs=24), r"\(teacher.epochs differ\)"),
            (tiny_config(), tiny_config(teacher_batch=32), r"\(teacher.batch_size differ\)"),
            (tiny_config(), tiny_config(lr=2e-3), r"\(train.lr differ\)"),
            (tiny_config(), tiny_config(data_seed=11), r"\(data_seed differ\)"),
        ],
        ids=["tcp", "other-seed", "other-hidden", "other-classes", "other-epochs", "other-batch", "other-lr",
             "other-data-seed"],
    )
    def test_a_teacher_cfg_would_not_fit_is_refused_before_any_training(self, monkeypatch, cfg, fitted_from, message):
        wrong = build_side(fitted_from)
        monkeypatch.setattr(experiment, "run_algorithm1", lambda *a: pytest.fail("the client trained"))
        monkeypatch.setattr(experiment, "train_teacher", lambda *a, **k: pytest.fail("a teacher was fitted"))
        monkeypatch.setattr(experiment, "fit_regularizer", lambda *a: pytest.fail("a regularizer was fitted"))
        with pytest.raises(ValueError, match=message):
            run_experiment(cfg, side=wrong)


class TestRowFreeClient:
    """Over TCP the client trains on client_inputs: no feature row is built in its process until training ends."""

    def test_run_and_sweep_build_no_row_until_training_ends(self, tmp_path, monkeypatch):
        base = dict(scenario="black", t_g=30, t_s=10)
        trained, built = [], []
        run_algorithm1 = experiment.run_algorithm1

        def guarded(name, fn):
            def call(*args, **kwargs):
                if not trained:
                    raise AssertionError(f"{name} was called before the client finished training")
                built.append(name)
                return fn(*args, **kwargs)

            return call

        def run_then_allow(*args, **kwargs):
            bundle = run_algorithm1(*args, **kwargs)
            trained.append(True)
            return bundle

        def sweep(cfg, name):
            path = tmp_path / f"{name}.azsl"
            path.write_text(emit_config(with_overrides(cfg, out=str(tmp_path / name))))
            assert cli.main(["sweep", str(path), "--param", "alpha", "--values", "0.5,2"]) == cli.EXIT_OK

        with serving(tiny_config(endpoint=("127.0.0.1", 0), out=str(tmp_path / "server"), **base)) as port:
            # the server has built its side; from here on the process is the client's
            for owner in (data, experiment):
                for name in ("make_synthetic", "load_features"):
                    monkeypatch.setattr(owner, name, guarded(name, getattr(owner, name)))
            for name in ("build_dataset", "build_split"):
                monkeypatch.setattr(experiment, name, guarded(name, getattr(experiment, name)))
            monkeypatch.setattr(experiment, "run_algorithm1", run_then_allow)
            remote = tiny_config(channel="tcp", endpoint=("127.0.0.1", port), **base)
            run_experiment(remote, outdir=tmp_path / "remote")
            assert built == ["build_dataset", "make_synthetic", "build_split"]
            trained.clear()
            built.clear()
            sweep(remote, "remote_sweep")
            # the first cell builds the rows after its training; the second cell is handed them
            assert built == ["build_dataset", "make_synthetic", "build_split"]
        monkeypatch.undo()

        local = tiny_config(**base)
        run_experiment(local, outdir=tmp_path / "local")
        sweep(local, "local_sweep")
        pairs = [("remote", "local")] + [(f"remote_sweep/cell_00{i}", f"local_sweep/cell_00{i}") for i in (0, 1)]
        for remote_dir, local_dir in pairs:
            for name in OUTPUTS:
                assert (tmp_path / remote_dir / name).read_bytes() == (tmp_path / local_dir / name).read_bytes(), (
                    remote_dir, name,
                )
        assert (tmp_path / "remote_sweep/sweep.csv").read_bytes() == (tmp_path / "local_sweep/sweep.csv").read_bytes()

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("mode", ["transductive", "inductive"])
    @pytest.mark.parametrize("unseen", ["count", "ids"])
    @pytest.mark.parametrize("spec", [SyntheticSpec(), HARD], ids=["default", "hard"])
    def test_client_inputs_are_the_built_side_bit_for_bit(self, spec, unseen, mode, seed):
        n_unseen = spec.n_classes - spec.seen_count
        ids = tuple(range(1, spec.n_classes, 3))[:n_unseen]
        cfg = tiny_config(
            synthetic=spec, teacher_mode=mode, data_seed=seed, split_unseen=n_unseen if unseen == "count" else ids
        )
        dataset = build_dataset(cfg)
        split = build_split(cfg, dataset)
        semantics, d_x, classes = client_inputs(cfg)
        assert same_bits(semantics.vectors, dataset.semantics.vectors)
        assert d_x == dataset.d_x
        assert same_bits(classes, split.teacher_classes)

        table = make_synthetic(spec, seed).semantics.vectors
        arg = n_unseen if unseen == "count" else list(ids)
        seen_ids, unseen_ids, _ = class_split(spec.n_classes, arg, seed)
        split = split_azsl(make_synthetic(spec, seed), mode, unseen=arg, seed=seed)
        assert same_bits(data.synthetic_semantics(spec, seed)[0].vectors, table)
        assert same_bits(seen_ids, split.seen_classes)
        assert same_bits(unseen_ids, split.unseen_classes)
        assert same_bits(data.teacher_classes(mode, seen_ids, unseen_ids), split.teacher_classes)

    def test_evaluation_refuses_data_other_than_the_client_trained_on(self, monkeypatch):
        listener = socket.create_server(("127.0.0.1", 0))  # accepts into its backlog: enough to connect
        cfg = tiny_config(channel="tcp", endpoint=listener.getsockname())
        real = experiment.client_inputs

        def shifted(cfg):
            semantics, d_x, classes = real(cfg)
            return SemanticTable(semantics.vectors + 1.0), d_x, classes

        monkeypatch.setattr(experiment, "client_inputs", shifted)
        monkeypatch.setattr(experiment, "run_algorithm1", lambda *a: "trained")
        monkeypatch.setattr(experiment, "eval_czsl", lambda *a: pytest.fail("the run evaluated"))
        with listener, pytest.raises(ValueError, match="client trained on another semantic table than the data"):
            run_experiment(cfg)

    @pytest.mark.parametrize(
        "change,message",
        [
            (lambda s, d, c: (SemanticTable(s.vectors[::-1]), d, c), "semantic table"),
            (lambda s, d, c: (s, d + 1, c), "d_x"),
            (lambda s, d, c: (s, d, c[1:]), "teacher classes"),
            (lambda s, d, c: (SemanticTable(s.vectors[:, :-1]), d, c[:-1]), "semantic table, teacher classes"),
        ],
        ids=["table", "d_x", "classes", "two"],
    )
    def test_check_inputs_names_what_differs(self, change, message):
        cfg = tiny_config(channel="tcp", endpoint=("127.0.0.1", 9))
        side = build_side(cfg)
        inputs = client_inputs(cfg)
        side.check_inputs(*inputs)
        with pytest.raises(ValueError, match=f"another {message} than"):
            side.check_inputs(*change(*inputs))
