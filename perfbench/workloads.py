"""The four benchmark workloads and the experiment configs they run.

Every workload uses a harder synthetic spec than the default (20 classes, 15
seen, separation 1.0): on the default spec every harmonic mean H is 100, so
quality could not move. Training sizes are cut down from the desk configs so
that one pipeline call takes a few seconds and a run can repeat it and report
medians.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from azsl.config import ExperimentConfig
from azsl.data import SyntheticSpec

HARD_SPEC = SyntheticSpec(n_classes=20, seen_count=15, separation=1.0)
# One fixed dataset and split for every run: --seed varies the training seeds
# only. Across datasets the inductive H moves by a third, far more than any
# bound could absorb.
DATA_SEED = 12345

COMMON = dict(
    synthetic=HARD_SPEC,
    data_seed=DATA_SEED,
    teacher_mode="transductive",
    regularizer="kl",
    alpha=1.0,
    lr=1e-3,
    teacher_epochs=30,
    teacher_hidden=(128, 64),
    generator_hidden=(256,),
    t_g=300,
    t_s=40,
    per_class_count=100,
)


@dataclass(frozen=True)
class Workload:
    """`mode` is how the pipeline is driven: inproc, tcp (azsl serve) or sweep."""

    name: str
    mode: str
    why: str
    overrides: dict = field(default_factory=dict)
    sweep_values: tuple[int, ...] = ()

    def config(self, seed: int, out: str) -> ExperimentConfig:
        kw = dict(COMMON)
        kw.update(self.overrides)
        return ExperimentConfig(seed=seed, out=out, **kw)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "white-kl",
            "inproc",
            "in-process white-box KL: teacher fit, teacher backward every round, student distillation; nn-bound",
            dict(scenario="white"),
        ),
        Workload(
            "black-mmd",
            "inproc",
            "in-process black-box MMD: the only workload on the server-side MMD path",
            dict(scenario="black", regularizer="mmd", t_g=150),
        ),
        Workload(
            "black-kl-tcp",
            "tcp",
            "black-box KL against azsl serve over loopback TCP: many short rounds, wire and sockets",
            dict(scenario="black", t_g=600, t_s=10),
        ),
        Workload(
            "inductive-sweep",
            "sweep",
            "azsl sweep of an inductive teacher over 4 noise_dim values: per-run fixed costs, the classifier",
            dict(scenario="white", teacher_mode="inductive", t_s=30),
            sweep_values=(10, 20, 40, 80),
        ),
    )
}
