"""run_experiment with a teacher fitted beforehand (the path `azsl sweep` takes)."""
import pytest

from azsl import experiment
from azsl.experiment import build_dataset, build_split, fit_teacher, run_experiment

from conftest import tiny_config


def teacher_for(cfg):
    dataset = build_dataset(cfg)
    return fit_teacher(cfg, dataset, build_split(cfg, dataset))


@pytest.fixture(scope="module")
def teacher():
    """The teacher every transductive TINY arm of the default seed fits."""
    return teacher_for(tiny_config())


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
    def test_same_bundle_as_a_run_that_fits_its_own(self, teacher, overrides):
        cfg = tiny_config(**overrides)
        given = run_experiment(cfg, teacher=teacher)
        assert given.teacher is teacher
        assert given.bundle.digest() == run_experiment(cfg).bundle.digest()

    def test_each_run_gets_its_own_server_log(self, teacher):
        cfg = tiny_config(scenario="black")
        first = run_experiment(cfg, teacher=teacher).bundle.transcript
        kept = first.digest()
        second = run_experiment(cfg, teacher=teacher).bundle.transcript
        assert first.digest() == kept  # the second run logged nothing in the first run's transcript
        assert second.digest() == kept

    @pytest.mark.parametrize(
        "cfg,fitted_from,message",
        [
            (
                tiny_config(channel="tcp", endpoint=("127.0.0.1", 9)),
                tiny_config(teacher_epochs=1),
                "remote teacher",
            ),
            (tiny_config(), tiny_config(seed=6, teacher_epochs=1), "another seed"),
            (tiny_config(), tiny_config(teacher_hidden=(32, 16), teacher_epochs=1), "layers do not match"),
            (
                tiny_config(teacher_mode="inductive", split_unseen=(8, 9)),
                tiny_config(teacher_mode="inductive", split_unseen=(0, 1), teacher_epochs=1),
                "class space differs",
            ),
        ],
        ids=["tcp", "other-seed", "other-hidden", "other-classes"],
    )
    def test_a_teacher_cfg_would_not_fit_is_refused_before_any_training(self, monkeypatch, cfg, fitted_from, message):
        wrong = teacher_for(fitted_from)
        monkeypatch.setattr(experiment, "run_algorithm1", lambda *a: pytest.fail("the client trained"))
        monkeypatch.setattr(experiment, "train_teacher", lambda *a, **k: pytest.fail("a teacher was fitted"))
        with pytest.raises(ValueError, match=message):
            run_experiment(cfg, teacher=wrong)
