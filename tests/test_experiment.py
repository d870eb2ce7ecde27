"""run_experiment with a teacher side built beforehand (the path `azsl sweep` takes)."""
import pytest

from azsl import experiment
from azsl.experiment import build_side, run_experiment

from conftest import tiny_config


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
