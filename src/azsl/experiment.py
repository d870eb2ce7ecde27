"""Experiment orchestration: wire a config into datasets, servers, runs, reports.

Every stage seeds itself from the master seed through labeled derivations, so
a stored canonical config reproduces its run byte-for-byte. Dataset/split
randomness derives from data_seed (defaults to a child of the master seed) so
runs can share data while varying training seeds. The data owner's side (the
dataset, its split and the fitted teacher) is built once by build_side and can
be handed to run_experiment: a sweep builds it once for all of its cells.
"""
from __future__ import annotations

import threading
from dataclasses import astuple, dataclass
from pathlib import Path

from .channel import InProcessChannel, TcpChannel
from .client import ArtifactBundle, run_algorithm1
from .config import ConfigError, ExperimentConfig, emit_config, validate
from .data import Dataset, SplitBundle, load_features, make_synthetic, split_azsl
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


def build_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.synthetic is not None:
        return make_synthetic(cfg.synthetic, derive_seed(resolve_data_seed(cfg), "dataset"))
    return load_features(cfg.dataset_path, cfg.dataset_format)


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


def side_key(cfg: ExperimentConfig) -> tuple[tuple[str, object], ...]:
    """(config key, value) of every field the dataset, split and teacher are built from."""
    return (
        ("dataset.synthetic", None if cfg.synthetic is None else astuple(cfg.synthetic)),
        ("dataset.path", cfg.dataset_path),
        ("dataset.format", cfg.dataset_format),
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


def build_side(cfg: ExperimentConfig) -> TeacherSide:
    """Build the dataset and split of `cfg` and fit its teacher (not for channel = tcp).

    Each part is built through this module's build_dataset, build_split and
    train_teacher, the names the benchmark's tracer wraps.
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
    reg = fit_regularizer(dataset, split, cfg.regularizer, cfg.alpha)
    return TeacherServer(teacher, reg, cfg.scenario)


def run_experiment(
    cfg: ExperimentConfig, outdir: str | Path | None = None, side: TeacherSide | None = None
) -> RunResult:
    """Full pipeline: config checks (ConfigError), teacher side or remote connection, client training, both evals.

    Without `side` the run builds its own with build_side. A given side must
    have been built from cfg's values of every side_key field, else
    ValueError before any training, so the run's outputs are those of a run
    that builds its own. Either way the run gets its own server: its own
    regularizer state and transcript.
    """
    validate(cfg)
    if side is None:
        side = build_side(cfg)
    else:
        side.check(cfg)
    dataset, split = side.dataset, side.split

    if cfg.channel == "tcp":
        channel = TcpChannel(*cfg.endpoint)
    else:
        server = build_server(cfg, dataset, split, side.teacher)
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

    The server transcript is flushed to <out>/server_transcript.json on exit.
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
