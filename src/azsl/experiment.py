"""Experiment orchestration: wire a config into datasets, servers, runs, reports.

Every stage seeds itself from the master seed through labeled derivations, so
a stored canonical config reproduces its run byte-for-byte. Dataset/split
randomness derives from data_seed (defaults to a child of the master seed) so
runs can share data while varying training seeds. A fitted teacher can be
handed to run_experiment: a sweep fits it once for all of its cells.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import InProcessChannel, TcpChannel
from .client import ArtifactBundle, run_algorithm1
from .config import ConfigError, ExperimentConfig, emit_config, validate
from .data import Dataset, SplitBundle, load_features, make_synthetic, split_azsl
from .evaluate import EvalReport, eval_czsl, eval_gzsl, save_report
from .nn import classifier_specs
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


def build_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.synthetic is not None:
        return make_synthetic(cfg.synthetic, derive_seed(resolve_data_seed(cfg), "dataset"))
    return load_features(cfg.dataset_path, cfg.dataset_format)


def build_split(cfg: ExperimentConfig, dataset: Dataset) -> SplitBundle:
    unseen = cfg.split_unseen
    if unseen is None:
        unseen = 2 if cfg.synthetic is None else cfg.synthetic.n_classes - cfg.synthetic.seen_count
    if not isinstance(unseen, int):
        unseen = list(unseen)
    return split_azsl(
        dataset,
        cfg.teacher_mode,
        unseen=unseen,
        unseen_train_ratio=cfg.split_ratio,
        seed=derive_seed(resolve_data_seed(cfg), "split"),
    )


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


def _check_teacher(cfg: ExperimentConfig, dataset: Dataset, split: SplitBundle, teacher: TeacherModel) -> None:
    """ValueError unless `teacher` has the seed, layers and class space `cfg` would fit it with."""
    if teacher.params.seed != derive_seed(cfg.seed, "teacher"):
        raise ValueError("given teacher was fitted from another seed")
    if teacher.params.layers != classifier_specs(dataset.d_x, len(split.teacher_classes), cfg.teacher_hidden):
        raise ValueError("given teacher's layers do not match d_x, teacher.hidden and the class count")
    if not np.array_equal(teacher.class_space, split.teacher_classes):
        raise ValueError("given teacher's class space differs from the split's teacher classes")


def build_server(
    cfg: ExperimentConfig, dataset: Dataset, split: SplitBundle, teacher: TeacherModel | None = None
) -> tuple[TeacherServer, TeacherModel]:
    """A fresh server (own regularizer state, own log) around `teacher`, fitted here when not given."""
    if teacher is None:
        teacher = fit_teacher(cfg, dataset, split)
    reg = fit_regularizer(dataset, split, cfg.regularizer, cfg.alpha)
    return TeacherServer(teacher, reg, cfg.scenario), teacher


def run_experiment(
    cfg: ExperimentConfig, outdir: str | Path | None = None, teacher: TeacherModel | None = None
) -> RunResult:
    """Full pipeline: config checks (ConfigError), teacher or remote connection, client training, both evals.

    A given `teacher` must be the one `cfg` would fit (ValueError otherwise),
    so the run's outputs are those of a run that fits its own.
    """
    validate(cfg)
    if teacher is not None and cfg.channel == "tcp":
        raise ValueError("a fitted teacher cannot be given to a run against a remote teacher")
    dataset = build_dataset(cfg)
    split = build_split(cfg, dataset)
    if teacher is not None:
        _check_teacher(cfg, dataset, split, teacher)

    if cfg.channel == "tcp":
        channel = TcpChannel(*cfg.endpoint)
    else:
        server, teacher = build_server(cfg, dataset, split, teacher)
        channel = InProcessChannel(server)

    try:
        bundle = run_algorithm1(channel, dataset.semantics, cfg, dataset.d_x, split.teacher_classes)
    finally:
        channel.close()

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
        teacher=teacher,
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

    The server transcript is flushed to <out>/server_transcript.json on exit.
    """
    validate(cfg)
    if cfg.endpoint is None:
        raise ConfigError("serve requires endpoint = host:port")
    dataset = build_dataset(cfg)
    split = build_split(cfg, dataset)
    server, _ = build_server(cfg, dataset, split)
    try:
        serve(cfg.endpoint, server, stop_event=stop_event, ready=ready)
    finally:
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        server.log.save(out / "server_transcript.json")
    return server
