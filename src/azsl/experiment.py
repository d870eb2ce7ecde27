"""Experiment orchestration: wire a config into datasets, servers, runs, reports.

Every stage seeds itself from the master seed through labeled derivations, so
a stored canonical config reproduces its run byte-for-byte. Dataset/split
randomness derives from data_seed (defaults to a child of the master seed) so
runs can share data while varying training seeds. The data owner's side (the
dataset, its split and the fitted teacher) is built once by build_side and can
be handed to run_experiment: a sweep builds it once for all of its cells. A
client of a remote teacher trains on client_inputs, which builds no feature
row, and builds the dataset and split only afterwards, to evaluate.
"""
from __future__ import annotations

import threading
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .channel import InProcessChannel, TcpChannel
from .client import ArtifactBundle, run_algorithm1
from .config import ConfigError, ExperimentConfig, emit_config, validate
from .data import (
    Dataset,
    SemanticTable,
    SplitBundle,
    class_split,
    load_features,
    make_synthetic,
    split_azsl,
    synthetic_semantics,
    teacher_classes,
)
from .evaluate import EvalReport, eval_czsl, eval_gzsl, save_report
from .regularizers import fit_regularizer
from .seeding import derive_seed
from .server import TeacherModel, TeacherServer, serve, train_teacher


@dataclass
class RunResult:
    dataset: Dataset
    split: SplitBundle
    teacher: TeacherModel | None
    bundle: ArtifactBundle
    report_czsl: EvalReport
    report_gzsl: EvalReport
    outdir: Path | None


def resolve_data_seed(cfg: ExperimentConfig) -> int:
    return cfg.data_seed if cfg.data_seed is not None else derive_seed(cfg.seed, "data")


def _dataset_seed(cfg: ExperimentConfig) -> int:
    return derive_seed(resolve_data_seed(cfg), "dataset")


def _split_seed(cfg: ExperimentConfig) -> int:
    return derive_seed(resolve_data_seed(cfg), "split")


def build_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.synthetic is not None:
        return make_synthetic(cfg.synthetic, _dataset_seed(cfg))
    return load_features(cfg.dataset_path)


def _unseen(cfg: ExperimentConfig) -> int | tuple[int, ...]:
    """split.unseen, with its default resolved: a count of unseen classes or their ids."""
    if cfg.split_unseen is None:
        return 2 if cfg.synthetic is None else cfg.synthetic.n_classes - cfg.synthetic.seen_count
    return cfg.split_unseen if isinstance(cfg.split_unseen, int) else tuple(cfg.split_unseen)


def build_split(cfg: ExperimentConfig, dataset: Dataset) -> SplitBundle:
    return split_azsl(
        dataset,
        cfg.teacher_mode,
        unseen=_unseen(cfg),
        unseen_train_ratio=cfg.split_ratio,
        seed=_split_seed(cfg),
    )


def client_inputs(cfg: ExperimentConfig) -> tuple[SemanticTable, int, np.ndarray]:
    """The semantic table, d_x and teacher classes of a synthetic cfg's dataset and split, built without a row.

    They are the first draws of the streams build_dataset and build_split
    draw from. Every tcp config is synthetic: feature files stay with the server.
    """
    spec = cfg.synthetic
    semantics, _ = synthetic_semantics(spec, _dataset_seed(cfg))
    seen, unseen, _ = class_split(spec.n_classes, _unseen(cfg), _split_seed(cfg))
    return semantics, spec.d_x, teacher_classes(cfg.teacher_mode, seen, unseen)


def fit_teacher(cfg: ExperimentConfig, dataset: Dataset, split: SplitBundle) -> TeacherModel:
    return train_teacher(
        dataset,
        split,
        epochs=cfg.teacher_epochs,
        batch_size=cfg.teacher_batch,
        seed=derive_seed(cfg.seed, "teacher"),
        hidden=cfg.teacher_hidden,
        lr=cfg.lr,
    )


def side_key(cfg: ExperimentConfig) -> tuple[tuple[str, object], ...]:
    """(config key, value) of every field the dataset, split and teacher are built from."""
    return (
        ("dataset.synthetic", None if cfg.synthetic is None else astuple(cfg.synthetic)),
        ("dataset.path", cfg.dataset_path),
        ("data_seed", resolve_data_seed(cfg)),
        ("split.unseen", _unseen(cfg)),
        ("split.ratio", cfg.split_ratio),
        ("teacher_mode", cfg.teacher_mode),
        ("channel", cfg.channel),
        ("seed", cfg.seed),
        ("teacher.hidden", tuple(cfg.teacher_hidden)),
        ("teacher.epochs", cfg.teacher_epochs),
        ("teacher.batch_size", cfg.teacher_batch),
        ("train.lr", cfg.lr),
    )


@dataclass(frozen=True)
class TeacherSide:
    """The data owner's side of a run: the dataset, its split and the fitted teacher.

    `teacher` is None for channel = tcp, where the remote server holds it. `key`
    is the side_key of the config it was built from. Runs that share one side
    share these objects: none of them writes to the data or the teacher.
    """

    key: tuple[tuple[str, object], ...]
    dataset: Dataset
    split: SplitBundle
    teacher: TeacherModel | None

    def check(self, cfg: ExperimentConfig) -> None:
        """ValueError unless this side was built from cfg's values of every side_key field."""
        differ = [name for (name, have), (_, want) in zip(self.key, side_key(cfg)) if have != want]
        if differ:
            raise ValueError(f"given side was built for another config ({', '.join(differ)} differ)")

    def check_inputs(self, semantics: SemanticTable, d_x: int, classes: np.ndarray) -> None:
        """ValueError unless a client trained on inputs equal to this side's semantic table, d_x and teacher classes."""
        differ = [
            name
            for name, same in (
                ("semantic table", np.array_equal(self.dataset.semantics.vectors, semantics.vectors)),
                ("d_x", self.dataset.d_x == d_x),
                ("teacher classes", np.array_equal(self.split.teacher_classes, classes)),
            )
            if not same
        ]
        if differ:
            raise ValueError(f"the client trained on another {', '.join(differ)} than the data it is evaluated on")


def build_side(cfg: ExperimentConfig) -> TeacherSide:
    """Build the dataset and split of `cfg` and, in process, fit its teacher.

    For channel = tcp the side holds the rows and no teacher: a client builds it
    only after training, to evaluate, and `azsl serve` fits its teacher in
    build_server. Each part is built through this module's build_dataset,
    build_split and train_teacher, the names the benchmark's tracer wraps.
    """
    dataset = build_dataset(cfg)
    split = build_split(cfg, dataset)
    teacher = None if cfg.channel == "tcp" else fit_teacher(cfg, dataset, split)
    return TeacherSide(side_key(cfg), dataset, split, teacher)


def build_server(
    cfg: ExperimentConfig, dataset: Dataset, split: SplitBundle, teacher: TeacherModel | None = None
) -> TeacherServer:
    """A fresh server (own regularizer state, own log) around `teacher`, fitted here when not given."""
    if teacher is None:
        teacher = fit_teacher(cfg, dataset, split)
    reg = fit_regularizer(dataset, split, cfg.regularizer)
    return TeacherServer(teacher, reg, cfg.scenario)


def run_experiment(
    cfg: ExperimentConfig, outdir: str | Path | None = None, side: TeacherSide | None = None
) -> RunResult:
    """Full pipeline: config checks (ConfigError), teacher side or remote connection, client training, both evals.

    In process, a run without `side` builds its own with build_side before
    training. Over TCP the client trains on client_inputs, so no feature row
    exists in this process until training ends; only then does a run without
    `side` build one, to evaluate, and ValueError if that side disagrees with
    what the client trained on. A given side must have been built from cfg's
    values of every side_key field, else ValueError before any training, so
    the run's outputs are those of a run that builds its own. Either way the
    run gets its own server: its own regularizer state and transcript.
    """
    validate(cfg)
    if side is not None:
        side.check(cfg)

    if cfg.channel == "tcp":
        semantics, d_x, classes = client_inputs(cfg)
        channel = TcpChannel(*cfg.endpoint)
    else:
        if side is None:
            side = build_side(cfg)
        semantics, d_x, classes = side.dataset.semantics, side.dataset.d_x, side.split.teacher_classes
        channel = InProcessChannel(build_server(cfg, side.dataset, side.split, side.teacher))

    try:
        bundle = run_algorithm1(channel, semantics, cfg, d_x, classes)
    finally:
        channel.close()
    if cfg.channel == "tcp":
        if side is None:
            side = build_side(cfg)
        side.check_inputs(semantics, d_x, classes)
    dataset, split = side.dataset, side.split

    report_czsl = eval_czsl(bundle, split, dataset)
    report_gzsl = eval_gzsl(bundle, split, dataset)
    for report in (report_czsl, report_gzsl):
        report.seeds = [cfg.seed]

    out = None
    if outdir is not None:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.azsl").write_text(emit_config(cfg))
        bundle.save(out)
        save_report(report_czsl, out / "report_czsl.txt")
        save_report(report_gzsl, out / "report_gzsl.txt")
    return RunResult(
        dataset=dataset,
        split=split,
        teacher=side.teacher,
        bundle=bundle,
        report_czsl=report_czsl,
        report_gzsl=report_gzsl,
        outdir=out,
    )


def serve_experiment(
    cfg: ExperimentConfig,
    stop_event: threading.Event | None = None,
    ready=None,
) -> TeacherServer:
    """Train the teacher-side state and answer frames until stopped.

    The server is the data owner: it holds the whole dataset and split, the
    teacher's training rows included, and a fitted teacher, whatever cfg's
    channel says (build_server fits the teacher a tcp side leaves out). The
    server transcript is flushed to <out>/server_transcript.json on exit.
    """
    validate(cfg)
    if cfg.endpoint is None:
        raise ConfigError("serve requires endpoint = host:port")
    side = build_side(cfg)
    server = build_server(cfg, side.dataset, side.split, side.teacher)
    try:
        serve(cfg.endpoint, server, stop_event=stop_event, ready=ready)
    finally:
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        server.log.save(out / "server_transcript.json")
    return server
